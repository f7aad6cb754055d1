"""The three clock designs and their outcome statistics.

A clock here is a fixed initial state, a Hamiltonian diagonal in its
eigenbasis, and a fixed projective readout. Three designs are covered:

* ``OneQubitClock`` -- a single qubit prepared in |+>, read out in the
  |+/-> basis. The general energy eigenbasis is parameterized by a mixing
  angle; the readout statistics depend on it only through the visibility
  chi = sin^2(2 theta), giving P_-(t) = chi sin^2(omega t / 2).
* ``TwoQubitClock`` -- two qubits prepared in |+>|+> with level splittings
  omega (first qubit |0> sector) and Omega (first qubit |1> sector),
  read out with the four projectors |0,+/-><0,+/-| and |1,+/-><1,+/-|.
  The slow pair oscillates at omega, the fast pair at Omega.
* ``GhzClock`` -- n qubits prepared in (|0...0> + |1...1>)/sqrt(2) with all
  local splittings equal to omega, read out in the product |+/-> basis.
  Only the parity of '-' outcomes is informative and it oscillates at the
  amplified frequency n*omega.

Each design groups its outcomes into classes of equally likely outcomes, in
the order of its count vector's ``tallies`` (counts.py), and holds what the
rest of the package needs to know about it:

* ``class_probs(t)`` -- the probability of one outcome of each class, for
  scalar or array t: the one probability formula per design;
* ``dprobs(t)`` -- the first and second time derivatives of ``class_probs``,
  in closed form and in the same order;
* ``class_sizes`` -- the outcomes per class (2^(n-1) for each GHZ parity
  class, 1 otherwise);
* ``label_classes`` -- the class of each outcome label;
* ``counts_type`` -- the count vector class whose tallies follow the classes;
* ``qfi`` -- the probe state's quantum Fisher information 4 Var(H), in closed form;
* ``cfi(t)`` -- the readout's classical Fisher information at scalar t, in
  closed form (``qfi`` for two qubits and GHZ);
* ``first_return(epsilon)`` -- the first time the statistics return within
  infidelity epsilon in (0, 1) of their start, with no time grid: in closed
  form for one qubit and GHZ, from the continued fraction of the frequency
  ratio for two qubits (epsilon < 3/4);
* ``probe()`` -- the clock from first principles: its initial amplitudes and
  diagonal energies over the computational basis (qubit 0 the most
  significant bit), and its readout as one real 2 x 2 orthogonal matrix per
  qubit, outcomes as rows, in the order of ``outcome_labels``.

``distribution``, count sampling and enumeration, the likelihood and Fisher
information are written once over these members; ``recurrence_time``
validates its arguments and caps ``first_return`` at a horizon.
``evolved_distribution`` computes the same statistics from ``probe()``
through explicit evolution and the Born rule, so tests can cross-check the
closed forms against first principles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property, wraps
from typing import Union

import numpy as np

from .counts import CountVector, GhzCounts, OneQubitCounts, TwoQubitCounts, is_integer
from .states import OutcomeDistribution, evolve

# Largest GHZ register: its outcome labels and state vector hold 2**n entries
# (1 MB of amplitudes at n = 16), and ``evolved_distribution`` reads the
# state out in O(n 2**n) steps.
MAX_GHZ_QUBITS = 16

# Relative tolerance on a time at a whole multiple of ``window_top``: a grid
# may end at window_top * (1 + WINDOW_RTOL), and such a time is a window edge.
WINDOW_RTOL = 1e-12


def _check_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a positive finite real, got {value!r}")
    return value


def _check_time(t: float) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    return t


def _finite_fisher(formula):
    # A Fisher information formula that raises ValueError where it is not
    # finite. Each scales as a frequency squared: past about 1.3e154, ** on a
    # float raises OverflowError, and products and sums overflow to inf.
    @wraps(formula)
    def checked(model) -> float:
        try:
            value = formula(model)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"Fisher information overflows: {model!r}")
        return value

    return checked


def _popcount(x: np.ndarray, bits: int) -> np.ndarray:
    # The number of ones among the low `bits` bits of each entry, by shifting
    # (np.bitwise_count needs numpy 2).
    return sum((x >> b) & 1 for b in range(bits))


def _sin2_derivatives(f: float, t, scale: float):
    # The first and second time derivatives of 2 scale sin^2(f t / 2) =
    # scale (1 - cos(f t)): scale f sin(f t) and scale f^2 cos(f t).
    return scale * f * np.sin(f * t), scale * f * f * np.cos(f * t)


class _Clock:
    """The statistics every design derives from its class probabilities."""

    def distribution(self, t: float) -> OutcomeDistribution:
        """Outcome probabilities at time t, a labelled view of ``class_probs``."""
        t = _check_time(t)
        probs = [float(p) for p in self.class_probs(t)]
        return OutcomeDistribution(
            t, {x: probs[c] for x, c in zip(self.outcome_labels, self.label_classes)}
        )

    def cfi(self, t: float) -> float:
        """Classical Fisher information at scalar t: ``qfi`` at every t where
        the classes pair up as a sin^2(f t / 2), a cos^2(f t / 2), since a pair
        adds p'^2 / p + p'^2 / (a - p) = a f^2 (two qubits: a = 1/2 per
        sector; GHZ: a = 1 per parity, f = n omega). One qubit overrides it.
        """
        return self.qfi


@dataclass(frozen=True)
class OneQubitClock(_Clock):
    """Single-qubit clock with frequency omega and visibility chi."""

    omega: float
    chi: float = 1.0

    kind = "one-qubit"
    outcome_labels = ("+", "-")
    # Classes in tally order (k_minus, k_plus).
    label_classes = (1, 0)
    class_sizes = (1, 1)
    counts_type = OneQubitCounts

    def __post_init__(self):
        object.__setattr__(self, "omega", _check_positive("omega", self.omega))
        chi = float(self.chi)
        if not 0.0 <= chi <= 1.0:
            raise ValueError(f"chi must lie in [0, 1], got {chi!r}")
        object.__setattr__(self, "chi", chi)

    @classmethod
    def from_mixing_angle(cls, theta: float, omega: float) -> "OneQubitClock":
        """Clock whose energy eigenbasis is rotated by theta from |+/->.

        The eigenvectors are |e0> = cos(theta)|+> - sin(theta)|-> and
        |e1> = sin(theta)|+> + cos(theta)|->, giving chi = sin^2(2 theta).
        """
        return cls(omega=omega, chi=math.sin(2.0 * float(theta)) ** 2)

    @classmethod
    def from_eigenbasis(
        cls, a: float, b: float, c: float, d: float, omega: float, tol: float = 1e-9
    ) -> "OneQubitClock":
        """Clock from eigenvector coefficients |e0> = a|+> - b|->, |e1> = c|+> + d|->.

        The coefficients must satisfy a^2 + b^2 = 1, c^2 + d^2 = 1 and
        a c - b d = 0 (orthonormal eigenbasis). The visibility follows from
        the Born rule: P_-(t) = [4 (b d)^2 / (a d + b c)^2] sin^2(omega t/2),
        and on the constraint surface (b d)^2 = a b c d, so
        chi = 4 a b c d / (a d + b c)^2.
        """
        if abs(a * a + b * b - 1.0) > tol or abs(c * c + d * d - 1.0) > tol:
            raise ValueError("eigenvector coefficients are not normalized")
        if abs(a * c - b * d) > tol:
            raise ValueError("eigenvectors are not orthogonal (a c - b d != 0)")
        denom = (a * d + b * c) ** 2
        if denom <= tol * tol:
            raise ValueError("degenerate eigenbasis: a d + b c = 0")
        chi = 4.0 * a * b * c * d / denom
        chi = min(max(chi, 0.0), 1.0)
        return cls(omega=omega, chi=chi)

    def class_probs(self, t):
        """(P_-, P_+) with P_-(t) = chi sin^2(omega t / 2).

        np.square, not ** 2, which on a 0-d array calls pow() and can differ
        in the last bit from the same time inside an array.
        """
        p_minus = self.chi * np.square(np.sin(0.5 * self.omega * t))
        return (p_minus, 1.0 - p_minus)

    def dprobs(self, t):
        """((P_-', P_+'), (P_-'', P_+'')): P_-' = (chi omega / 2) sin(omega t),
        P_-'' = (chi omega^2 / 2) cos(omega t), and P_+ = 1 - P_-.
        """
        d1, d2 = _sin2_derivatives(self.omega, t, 0.5 * self.chi)
        return (d1, -d1), (d2, -d2)

    @property
    @_finite_fisher
    def qfi(self) -> float:
        return self.chi * self.omega**2

    def cfi(self, t: float) -> float:
        """chi omega^2 c^2 / ((1 - chi) + chi c^2), c = cos(omega t / 2).

        The sum P_-'^2 / P_- + P_+'^2 / P_+ in half angles, with the common
        factor sin^2(omega t / 2) cancelled: finite at every t, chi omega^2 at
        omega t = 2 pi k, omega^2 at chi = 1 and 0 at chi = 0.
        """
        half_phase = 0.5 * self.omega * t
        if not math.isfinite(half_phase):
            raise ValueError(f"phase omega t overflows: omega = {self.omega!r}, t = {t!r}")
        c2 = math.cos(half_phase) ** 2
        return self.qfi * c2 / ((1.0 - self.chi) + self.chi * c2)

    @property
    def window_top(self) -> float:
        """Largest time identifiable from the statistics: pi / omega."""
        return math.pi / self.omega

    def first_return(self, epsilon: float) -> float | None:
        """The infidelity chi sin^2(omega t / 2) falls back below epsilon at
        (2 / omega)(pi - asin sqrt(epsilon / chi)); None when chi <= epsilon,
        as it then never reaches epsilon.
        """
        if self.chi <= epsilon:
            return None
        return 2.0 / self.omega * (math.pi - math.asin(math.sqrt(epsilon / self.chi)))

    @property
    def mixing_angle(self) -> float:
        # chi = sin^2(2 theta) with theta in [0, pi/4]
        return 0.5 * math.asin(math.sqrt(self.chi))

    def probe(self):
        """cos(theta)|0> + sin(theta)|1> in the clock's own eigenbasis, omega =
        E1 - E0, read out in the |+/-> basis rotated by theta to match.
        """
        c, s = math.cos(self.mixing_angle), math.sin(self.mixing_angle)
        energies = np.array([-0.5 * self.omega, 0.5 * self.omega])
        return np.array([c, s]), energies, (np.array([[c, s], [-s, c]]),)


@dataclass(frozen=True)
class TwoQubitClock(_Clock):
    """Two-qubit clock with slow splitting omega and fast splitting Omega."""

    omega: float
    Omega: float

    kind = "two-qubit"
    outcome_labels = ("0+", "0-", "1+", "1-")
    # Classes in tally order (fast_minus, fast_plus, slow_minus, slow_plus).
    label_classes = (3, 2, 1, 0)
    class_sizes = (1, 1, 1, 1)
    counts_type = TwoQubitCounts

    def __post_init__(self):
        object.__setattr__(self, "omega", _check_positive("omega", self.omega))
        object.__setattr__(self, "Omega", _check_positive("Omega", self.Omega))

    def class_probs(self, t):
        """(P_1-, P_1+, P_0-, P_0+): the fast pair oscillates at Omega, the slow at omega.

        P_{1-} = sin^2(Omega t/2)/2,  P_{1+} = cos^2(Omega t/2)/2,
        P_{0-} = sin^2(omega t/2)/2,  P_{0+} = cos^2(omega t/2)/2.
        """
        fast = np.square(np.sin(0.5 * self.Omega * t))
        slow = np.square(np.sin(0.5 * self.omega * t))
        return (0.5 * fast, 0.5 * (1.0 - fast), 0.5 * slow, 0.5 * (1.0 - slow))

    def dprobs(self, t):
        """First and second derivatives of ``class_probs``, in its order:
        P_1-' = (Omega / 4) sin(Omega t), P_1-'' = (Omega^2 / 4) cos(Omega t),
        the slow pair likewise at omega, and each '+' the negated '-'.
        """
        f1, f2 = _sin2_derivatives(self.Omega, t, 0.25)
        s1, s2 = _sin2_derivatives(self.omega, t, 0.25)
        return (f1, -f1, s1, -s1), (f2, -f2, s2, -s2)

    @property
    @_finite_fisher
    def qfi(self) -> float:
        return 0.5 * self.omega**2 + 0.5 * self.Omega**2

    @property
    def window_top(self) -> float:
        """Top of the slow sector's one-to-one window: pi / omega."""
        return math.pi / self.omega

    def first_return(self, epsilon: float) -> float:
        """First return of the infidelity 1 - (|cos(omega t/2)| + |cos(Omega t/2)|)^2 / 4.

        In the fast angle F = fast t / 2 and the slow angle beta F (beta =
        slow / fast <= 1), the epsilon-ball is where cos x + cos y > 2 sqrt(1
        - epsilon), (x, y) the offsets from a lattice point (j pi, k pi).
        For epsilon < 3/4 both cosines must be positive there, so each ball
        lies inside one cell |x|, |y| < pi / 2, where cos x + cos y is
        concave: the balls are translates of one convex, centrally symmetric
        set. The trajectory meets the ball at (j pi, k pi) iff |j beta - k|
        < delta(epsilon, beta), so the first return lies in the fast cell of
        the least j >= 1 with ||j beta|| < delta (|| || the distance to the
        nearest integer): a best approximation of the second kind, hence a
        convergent denominator of beta (Khinchin, Continued Fractions, sec.
        6). beta is the exact ratio of the two floats and the offsets come
        from exact integers, so a late return loses no precision. On each
        candidate's cells the concave sum is maximised, and the first
        maximum inside the ball is bisected on its rising side. For epsilon
        >= 3/4 a sector alone at full contrast is inside the ball, the balls
        merge, and this raises ValueError.
        """
        if not epsilon < 0.75:
            raise ValueError(f"two-qubit recurrence needs epsilon < 3/4, got {epsilon!r}")
        slow, fast = sorted((self.omega, self.Omega))
        (p_slow, q_slow), (p_fast, q_fast) = slow.as_integer_ratio(), fast.as_integer_ratio()
        num, den = p_slow * q_fast, q_slow * p_fast  # beta = num / den exactly
        b, half = num / den, 0.5 * math.pi

        def infidelity(x: float, d: float) -> float:
            # 1 - ((cos x + cos y) / 2)^2 in half angles, exact as x, y -> 0.
            s = math.sin(0.5 * x) ** 2 + math.sin(0.5 * (d + b * x)) ** 2
            return s * (2.0 - s)

        for j in _convergent_denominators(num, den):
            k = j * num // den
            # The balls at (j pi, k pi) and (j pi, (k + 1) pi) in time order,
            # by their slow offset d at x = 0 (integer division rounds once).
            for d in ((j * num - m * den) / den * math.pi for m in (k, k + 1)):
                lo, hi = max(-half, (-half - d) / b), min(half, (half - d) / b)
                if lo >= hi:
                    continue
                # The maximum, where the slope -sin x - b sin(d + b x) turns.
                peak = _bisect(lambda x: math.sin(x) + b * math.sin(d + b * x) < 0.0, lo, hi)
                if infidelity(peak, d) < epsilon:
                    x = _bisect(lambda x: infidelity(x, d) >= epsilon, lo, peak)
                    return 2.0 * (j * math.pi + x) / fast
        raise AssertionError("the last convergent is an exact return")

    def probe(self):
        """|+>|+>, the slow pair split by omega and the fast by Omega, read out
        as |0/1> (x) |+/->.
        """
        w, big = 0.5 * self.omega, 0.5 * self.Omega
        return np.full(4, 0.5), np.array([w, -w, big, -big]), (_IDENTITY, _HADAMARD)


@dataclass(frozen=True)
class GhzClock(_Clock):
    """n-qubit GHZ clock with local splitting omega."""

    omega: float
    n_entangled: int = 2

    kind = "ghz"
    counts_type = GhzCounts

    def __post_init__(self):
        object.__setattr__(self, "omega", _check_positive("omega", self.omega))
        n = self.n_entangled
        if not is_integer(n) or n < 2:
            raise ValueError(f"n_entangled must be an integer >= 2, got {n!r}")
        if n > MAX_GHZ_QUBITS:
            raise ValueError(f"n_entangled = {n} exceeds the supported maximum {MAX_GHZ_QUBITS}")
        object.__setattr__(self, "n_entangled", int(n))

    def class_probs(self, t):
        """(P_odd, P_even) per outcome: an outcome string with an odd number
        of '-' signs has probability sin^2(n omega t / 2) / 2^(n-1), an even
        one cos^2(n omega t / 2) / 2^(n-1).
        """
        scale = 2.0 ** (self.n_entangled - 1)
        p_odd = np.square(np.sin(0.5 * self.n_entangled * self.omega * t))
        return (p_odd / scale, (1.0 - p_odd) / scale)

    def dprobs(self, t):
        """First and second derivatives of ``class_probs``: P_odd' =
        (n omega / 2^n) sin(n omega t), P_odd'' = ((n omega)^2 / 2^n)
        cos(n omega t), and P_even' = -P_odd', P_even'' = -P_odd''.
        """
        d1, d2 = _sin2_derivatives(
            self.n_entangled * self.omega, t, 2.0 ** -self.n_entangled
        )
        return (d1, -d1), (d2, -d2)

    def first_return(self, epsilon: float) -> float:
        """The infidelity sin^2(n omega t / 2) falls back below epsilon at
        (2 / (n omega))(pi - asin sqrt(epsilon)).
        """
        return 2.0 / (self.n_entangled * self.omega) * (math.pi - math.asin(math.sqrt(epsilon)))

    @property
    def class_sizes(self) -> tuple[int, int]:
        return (2 ** (self.n_entangled - 1),) * 2

    @cached_property
    def outcome_labels(self) -> tuple[str, ...]:
        return _ghz_register(self.n_entangled)[2]

    @cached_property
    def label_classes(self) -> tuple[int, ...]:
        # Odd parity is class 0 (k_odd), even parity class 1 (k_even).
        return tuple((1 - _ghz_register(self.n_entangled)[1] % 2).tolist())

    @property
    @_finite_fisher
    def qfi(self) -> float:
        return (self.n_entangled * self.omega) ** 2

    @property
    def window_top(self) -> float:
        """One-to-one window shrinks with the amplified frequency: pi / (n omega)."""
        return math.pi / (self.n_entangled * self.omega)

    def probe(self):
        """(|0...0> + |1...1>)/sqrt(2) under H = -(omega/2) sum_i sigma_z^(i),
        so a basis state with b ones has energy -(omega/2)(n - 2 b), read out
        in the product |+/-> basis.
        """
        n = self.n_entangled
        amplitudes, ones, _ = _ghz_register(n)
        return amplitudes, -0.5 * self.omega * (n - 2 * ones), (_HADAMARD,) * n


def _convergent_denominators(num: int, den: int):
    # The denominators q_0 = 1 <= q_1 < q_2 < ... of the continued-fraction
    # convergents of num / den, ending with its denominator in lowest terms.
    q_prev, q = 0, 1
    while True:
        yield q
        num, den = den, num % den
        if den == 0:
            return
        q_prev, q = q, num // den * q + q_prev


def _bisect(left_of, lo: float, hi: float) -> float:
    # Where left_of, true left of some point of [lo, hi] and false right of
    # it, turns: the right end of the bracket after 64 halvings.
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if left_of(mid) else (lo, mid)
    return hi


# The local readouts the probes share, outcomes as rows: |0/1> and |+/->.
_IDENTITY = np.eye(2)
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
_IDENTITY.setflags(write=False)
_HADAMARD.setflags(write=False)


@cache
def _ghz_register(n: int) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    # The GHZ amplitudes on n qubits, the number of ones in each basis state,
    # and the product-basis outcome strings, '+' for bit 0 and '-' for bit 1.
    amplitudes = np.zeros(2**n)
    amplitudes[0] = amplitudes[-1] = 1.0 / math.sqrt(2.0)
    amplitudes.setflags(write=False)
    ones = _popcount(np.arange(2**n), n)
    ones.setflags(write=False)
    labels = tuple(format(i, f"0{n}b").replace("0", "+").replace("1", "-") for i in range(2**n))
    return amplitudes, ones, labels


ClockModel = Union[OneQubitClock, TwoQubitClock, GhzClock]


def evolved_distribution(model: ClockModel, t: float) -> OutcomeDistribution:
    """Same statistics as ``model.distribution`` but via explicit evolution.

    Evolves the probe's amplitudes and applies its readout one qubit at a
    time: the Born amplitudes are the tensor product of the local readouts
    times the conjugated state, so no 2^n x 2^n readout is formed (for GHZ a
    Walsh-Hadamard transform, O(n 2^n)). Slower than the closed forms; used
    to validate them.
    """
    amplitudes, energies, readouts = model.probe()
    a = evolve(amplitudes, energies, t).conj()
    for k, readout in enumerate(readouts):
        a = (readout @ a.reshape(2**k, 2, -1)).ravel()
    p = a.real**2 + a.imag**2
    return OutcomeDistribution(float(t), dict(zip(model.outcome_labels, p.tolist())))


def _multinomial_pmf(tallies: list[int], probs: tuple[float, ...]) -> float:
    n = sum(tallies)
    coeff = 1
    remaining = n
    for k in tallies[:-1]:
        coeff *= math.comb(remaining, k)
        remaining -= k
    value = float(coeff)
    for k, p in zip(tallies, probs):
        if k:
            value *= p**k
    return value


def count_tallies(n_probes: int, classes: int) -> np.ndarray:
    """Every tally row of n_probes outcomes over `classes` classes.

    An integer array of shape (C(n + classes - 1, classes - 1), classes), the
    rows in lexicographic order, the first tally varying slowest. Each row
    places classes - 1 bars among n_probes + classes - 1 slots (stars and
    bars), and its tallies are the runs of stars between them.
    """
    slots = n_probes + classes - 1
    bars = np.array(list(itertools.combinations(range(slots), classes - 1)), dtype=np.int64)
    edges = np.column_stack((np.full(len(bars), -1), bars, np.full(len(bars), slots)))
    return np.diff(edges, axis=1) - 1


def n_probe_count_distribution(
    model: ClockModel, n_probes: int, t: float
) -> dict[CountVector, float]:
    """Exact count-vector distribution for n independent probes at time t.

    The tallies of n probes are multinomial over the model's classes, each
    class with probability class size times ``class_probs``: binomial in the
    |-> tally for one qubit, multinomial in the four outcome tallies for two,
    and binomial in the parity tally for GHZ copies. A labelled view of
    ``count_tallies``: the count vectors come in its row order.
    """
    if not is_integer(n_probes) or n_probes < 1:
        raise ValueError(f"n_probes must be a positive integer, got {n_probes!r}")
    class_probs = model.class_probs(_check_time(t))
    probs = tuple(m * float(p) for m, p in zip(model.class_sizes, class_probs))
    return {
        model.counts_type.from_tallies(tallies): _multinomial_pmf(tallies, probs)
        for tallies in count_tallies(n_probes, len(probs)).tolist()
    }


def recurrence_time(
    model: ClockModel, epsilon: float = 1e-6, t_max: float = 100.0
) -> float | None:
    """First time the outcome statistics return within epsilon of their start.

    The distance is the infidelity 1 - F, F the classical (Bhattacharyya)
    fidelity between the outcome statistics at time t and at time 0, which
    no global or per-sector phase changes. The answer is the model's
    ``first_return(epsilon)``: the first time, after the infidelity has
    reached epsilon, at which it falls below epsilon again. Returns None if
    that time is later than t_max, or if the statistics never leave the
    epsilon-ball (e.g. a one-qubit clock with chi <= epsilon).
    """
    epsilon = float(epsilon)
    if not 0.0 < epsilon < 1.0:  # NaN fails the comparison
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    t_max = _check_positive("t_max", t_max)
    t = model.first_return(epsilon)
    return t if t is not None and t <= t_max else None
