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
the order of its count vector's ``tallies`` (counts.py), and the classes
come in oscillating pairs: one outcome of a pair's classes has probability
a sin^2(f t / 2) and c - a sin^2(f t / 2). A design is its pairs (a, c, f)
in tally order: (chi, 1, omega) for one qubit; (1/2, 1/2, Omega), then
(1/2, 1/2, omega) for two qubits; (2^-(n-1), 2^-(n-1), n omega) for GHZ.
``class_probs(t)`` and its closed-form derivatives ``dprobs(t)``, the
quantum Fisher information ``qfi`` (4 Var(H)), the classical ``cfi(t)``,
``window_top`` and a single pair's ``first_return(epsilon)`` are written
once over the pairs. A design adds ``class_sizes`` (the outcomes per class),
``label_classes`` (the class of each outcome label), ``counts_type`` (the
count vector class whose tallies follow the classes), the one-qubit
``cfi``, and the two-qubit ``first_return``, from the continued fraction
of the frequency ratio (epsilon < 3/4), and ``harmonic``: whether Omega =
2 omega, the condition of the closed-form two-qubit estimators.

``probe()`` stays per design: it is the clock from first principles, its
initial amplitudes and diagonal energies over the computational basis
(qubit 0 the most significant bit) and its readout as one real 2 x 2
orthogonal matrix per qubit, outcomes as rows, in the order of
``outcome_labels``. ``evolved_distribution`` computes the statistics from
it through explicit evolution and the Born rule, independently of the
pairs, so tests can hold the pairs to first principles.

``distribution``, count sampling and enumeration, the likelihood and Fisher
information are written once over these members. Every ``first_return``
rejects an epsilon outside (0, 1), and ``recurrence_time`` caps it at a
horizon.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Union

import numpy as np

from .counts import CountVector, GhzCounts, OneQubitCounts, TwoQubitCounts, is_integer
from .counts import _positive_integer
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


def _check_epsilon(epsilon: float) -> float:
    epsilon = float(epsilon)
    if not 0.0 < epsilon < 1.0:  # NaN fails the comparison
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    return epsilon


class _Clock:
    """The statistics every design derives from its pairs (a, c, f), which
    its ``__post_init__`` stores once as ``_pairs`` through ``_set_pairs``.
    """

    _pairs: tuple[tuple[float, float, float], ...]

    def _set_pairs(self, *pairs: tuple[float, float, float]) -> None:
        # A frequency so small that pi / f overflows would leave an infinite
        # window, and estimates and times of infinity that JSON cannot hold.
        for _, _, f in pairs:
            if not math.isfinite(math.pi / f):
                raise ValueError(f"the window pi / f overflows: f = {f!r} in {self!r}")
        object.__setattr__(self, "_pairs", pairs)

    def distribution(self, t: float) -> OutcomeDistribution:
        """Outcome probabilities at time t, a labelled view of ``class_probs``."""
        t = _check_time(t)
        probs = [float(p) for p in self.class_probs(t)]
        return OutcomeDistribution(
            t, {x: probs[c] for x, c in zip(self.outcome_labels, self.label_classes)}
        )

    def class_probs(self, t):
        """The probability of one outcome of each class at scalar or array t.

        s * s, not s ** 2, which on a 0-d array calls pow() and can differ in
        the last bit from the same time inside an array.
        """
        probs = ()
        for a, c, f in self._pairs:
            s = np.sin(0.5 * f * t)
            minus = a * (s * s)
            probs += (minus, c - minus)
        return probs

    def dprobs(self, t):
        """The first and second time derivatives of ``class_probs``, in its
        order: (a f / 2) sin(f t) and (a f^2 / 2) cos(f t) for the first
        class of a pair, negated for the second.
        """
        first = second = ()
        sin, cos = np.sin, np.cos  # looked up once for all pairs
        for a, _, f in self._pairs:
            phase, slope = f * t, 0.5 * a * f
            d1, d2 = slope * sin(phase), slope * f * cos(phase)
            first += (d1, -d1)
            second += (d2, -d2)
        return first, second

    @cached_property
    def qfi(self) -> float:
        """The probe state's quantum Fisher information 4 Var(H): the sum of
        m a f^2 over the pairs, m the outcomes per class (the same for every
        class of a design).

        Each pair is one two-level sector split by f, and m a is the
        sector's weight times its contrast, so m a f^2 is its share of
        4 Var(H). A frequency past about 1.3e154 overflows the square and
        raises ValueError on every access; a finite value is kept.
        """
        total, m = 0.0, self.class_sizes[0]
        try:
            for a, _, f in self._pairs:
                total += m * a * f**2
        except OverflowError:
            total = math.inf
        if not math.isfinite(total):
            raise ValueError(f"Fisher information overflows: {self!r}")
        return total

    def cfi(self, t: float) -> float:
        """Classical Fisher information at scalar t: ``qfi`` at every t when
        each pair has c = a (two qubits, GHZ), since the pair's classes, a
        sin^2 and a cos^2 of f t / 2, add p'^2 / p + p'^2 / (a - p) = a f^2
        per outcome. One qubit overrides it. A time that is not finite raises
        ValueError.
        """
        _check_time(t)
        return self.qfi

    @property
    def window_top(self) -> float:
        """Largest time identifiable from the statistics: pi / f of the last
        pair in tally order (for two qubits the omega pair, the slow one).
        """
        return math.pi / self._pairs[-1][2]

    def first_return(self, epsilon: float) -> float | None:
        """For a single pair, the infidelity (a / c) sin^2(f t / 2) falls back
        below epsilon at (2 / f)(pi - asin sqrt(epsilon c / a)); None when
        a / c <= epsilon, as it then never reaches epsilon. An epsilon outside
        (0, 1) raises ValueError, for every design.
        """
        epsilon = _check_epsilon(epsilon)
        ((a, c, f),) = self._pairs
        if a / c <= epsilon:
            return None
        return 2.0 / f * (math.pi - math.asin(math.sqrt(epsilon * c / a)))


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
        self._set_pairs((chi, 1.0, self.omega))

    @classmethod
    def from_mixing_angle(cls, theta: float, omega: float) -> "OneQubitClock":
        """Clock whose energy eigenbasis is rotated by theta from |+/->.

        The eigenvectors are |e0> = cos(theta)|+> - sin(theta)|-> and
        |e1> = sin(theta)|+> + cos(theta)|->, giving chi = sin^2(2 theta).
        """
        return cls(omega=omega, chi=math.sin(2.0 * float(theta)) ** 2)

    @classmethod
    def from_eigenbasis(
        cls, a: float, b: float, c: float, d: float, omega: float
    ) -> "OneQubitClock":
        """Clock from eigenvector coefficients |e0> = a|+> - b|->, |e1> = c|+> + d|->.

        The coefficients must satisfy a^2 + b^2 = 1, c^2 + d^2 = 1 and
        a c - b d = 0 (orthonormal eigenbasis). The visibility follows from
        the Born rule: P_-(t) = [4 (b d)^2 / (a d + b c)^2] sin^2(omega t/2),
        and on the constraint surface (b d)^2 = a b c d, so
        chi = 4 a b c d / (a d + b c)^2.
        """
        tol = 1e-9  # on each constraint; a NaN coefficient fails them all
        if not (abs(a * a + b * b - 1.0) <= tol and abs(c * c + d * d - 1.0) <= tol):
            raise ValueError("eigenvector coefficients are not normalized")
        if not abs(a * c - b * d) <= tol:
            raise ValueError("eigenvectors are not orthogonal (a c - b d != 0)")
        # (a d + b c)^2 = (a^2 + b^2)(c^2 + d^2) - (a c - b d)^2, about 1 here.
        chi = 4.0 * a * b * c * d / (a * d + b * c) ** 2
        chi = min(max(chi, 0.0), 1.0)
        return cls(omega=omega, chi=chi)

    def cfi(self, t: float) -> float:
        """chi omega^2 c^2 / ((1 - chi) + chi c^2), c = cos(omega t / 2).

        The sum P_-'^2 / P_- + P_+'^2 / P_+ in half angles, with the common
        factor sin^2(omega t / 2) cancelled: finite at every t, chi omega^2 at
        omega t = 2 pi k, omega^2 at chi = 1 and 0 at chi = 0.
        """
        t = _check_time(t)
        half_phase = 0.5 * self.omega * t
        if not math.isfinite(half_phase):
            raise ValueError(f"phase omega t overflows: omega = {self.omega!r}, t = {t!r}")
        c2 = math.cos(half_phase) ** 2
        return self.qfi * c2 / ((1.0 - self.chi) + self.chi * c2)

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
        self._set_pairs((0.5, 0.5, self.Omega), (0.5, 0.5, self.omega))

    @property
    def harmonic(self) -> bool:
        """Whether Omega = 2 omega to 1e-9, as the closed-form two-qubit estimators need."""
        return abs(self.Omega - 2.0 * self.omega) <= 1e-9 * self.Omega

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
        epsilon = _check_epsilon(epsilon)
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
        n = int(n)
        f, scale = n * self.omega, 2.0 ** (1 - n)
        if not math.isfinite(f):
            raise ValueError(f"the GHZ frequency n * omega overflows: {n} * {self.omega!r}")
        object.__setattr__(self, "n_entangled", n)
        object.__setattr__(self, "class_sizes", (2 ** (n - 1),) * 2)
        self._set_pairs((scale, scale, f))

    @cached_property
    def outcome_labels(self) -> tuple[str, ...]:
        return _ghz_register(self.n_entangled)[2]

    @cached_property
    def label_classes(self) -> tuple[int, ...]:
        # Odd parity is class 0 (k_odd), even parity class 1 (k_even).
        return tuple((1 - _ghz_register(self.n_entangled)[1] % 2).tolist())

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
    labels = tuple(format(i, f"0{n}b").replace("0", "+").replace("1", "-") for i in range(2**n))
    ones = np.array([label.count("-") for label in labels], dtype=np.int64)
    ones.setflags(write=False)
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
    rows in lexicographic order, the first tally varying slowest: the
    differences of running sums, whose first classes - 1 run over the
    non-decreasing tuples of 0..n_probes in that order.
    """
    rows, width = math.comb(n_probes + classes - 1, classes - 1), classes - 1
    sums = itertools.combinations_with_replacement(range(n_probes + 1), width)
    sums = np.fromiter(itertools.chain.from_iterable(sums), np.int64, rows * width)
    return np.diff(sums.reshape(rows, width), axis=1, prepend=0, append=n_probes)


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
    n_probes = _positive_integer(n_probes, "n_probes")
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
    t = model.first_return(epsilon)  # checks 0 < epsilon < 1
    t_max = _check_positive("t_max", t_max)
    return t if t is not None and t <= t_max else None
