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
* ``qfi`` -- the probe state's quantum Fisher information 4 Var(H), in closed form.

``distribution``, count sampling and enumeration, the likelihood, Fisher
information and the recurrence scan are written once over these members.
``evolved_distribution`` computes the same statistics through explicit state
evolution and projection, so tests can cross-check the closed forms against
first principles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .counts import CountVector, GhzCounts, OneQubitCounts, TwoQubitCounts
from .states import (
    DiagonalHamiltonian,
    OutcomeDistribution,
    ProjectiveMeasurement,
    PureState,
    evolve,
)

# Largest GHZ register: its state vector holds 2**n amplitudes.
MAX_GHZ_QUBITS = 16


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
    def qfi(self) -> float:
        return self.chi * self.omega**2

    @property
    def window_top(self) -> float:
        """Largest time identifiable from the statistics: pi / omega."""
        return math.pi / self.omega

    @property
    def mixing_angle(self) -> float:
        # chi = sin^2(2 theta) with theta in [0, pi/4]
        return 0.5 * math.asin(math.sqrt(self.chi))

    def initial_state(self) -> PureState:
        th = self.mixing_angle
        return PureState(np.array([math.cos(th), math.sin(th)]), ("0", "1"))

    def hamiltonian(self) -> DiagonalHamiltonian:
        # Energies in the clock's own eigenbasis; omega = E1 - E0.
        return DiagonalHamiltonian(
            np.array([-0.5 * self.omega, 0.5 * self.omega]), ("0", "1")
        )

    def measurement(self) -> ProjectiveMeasurement:
        th = self.mixing_angle
        plus = np.array([[math.cos(th), math.sin(th)]])
        minus = np.array([[-math.sin(th), math.cos(th)]])
        return ProjectiveMeasurement((("+", plus), ("-", minus)))


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
    def qfi(self) -> float:
        return 0.5 * (self.omega**2 + self.Omega**2)

    @property
    def window_top(self) -> float:
        """Top of the slow sector's one-to-one window: pi / omega."""
        return math.pi / self.omega

    def initial_state(self) -> PureState:
        return PureState(np.full(4, 0.5), ("00", "01", "10", "11"))

    def hamiltonian(self) -> DiagonalHamiltonian:
        return DiagonalHamiltonian(
            np.array(
                [0.5 * self.omega, -0.5 * self.omega, 0.5 * self.Omega, -0.5 * self.Omega]
            ),
            ("00", "01", "10", "11"),
        )

    def measurement(self) -> ProjectiveMeasurement:
        s = 1.0 / math.sqrt(2.0)
        return ProjectiveMeasurement(
            (
                ("0+", np.array([[s, s, 0.0, 0.0]])),
                ("0-", np.array([[s, -s, 0.0, 0.0]])),
                ("1+", np.array([[0.0, 0.0, s, s]])),
                ("1-", np.array([[0.0, 0.0, s, -s]])),
            )
        )


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
        if not isinstance(n, int) or isinstance(n, bool) or n < 2:
            raise ValueError(f"n_entangled must be an integer >= 2, got {n!r}")
        if n > MAX_GHZ_QUBITS:
            raise ValueError(f"n_entangled = {n} exceeds the supported maximum {MAX_GHZ_QUBITS}")

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

    @property
    def class_sizes(self) -> tuple[int, int]:
        return (2 ** (self.n_entangled - 1),) * 2

    @cached_property
    def outcome_labels(self) -> tuple[str, ...]:
        n = self.n_entangled
        return tuple(
            format(i, f"0{n}b").replace("0", "+").replace("1", "-") for i in range(2**n)
        )

    @cached_property
    def label_classes(self) -> tuple[int, ...]:
        # Odd parity is class 0 (k_odd), even parity class 1 (k_even).
        n = self.n_entangled
        return tuple((1 - _popcount(np.arange(2**n), n) % 2).tolist())

    @property
    def qfi(self) -> float:
        return (self.n_entangled * self.omega) ** 2

    @property
    def window_top(self) -> float:
        """One-to-one window shrinks with the amplified frequency: pi / (n omega)."""
        return math.pi / (self.n_entangled * self.omega)

    def initial_state(self) -> PureState:
        amps = np.zeros(2**self.n_entangled, dtype=complex)
        amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
        return PureState(amps)

    def hamiltonian(self) -> DiagonalHamiltonian:
        # H = -(omega/2) * sum_i sigma_z^(i): a basis state with b ones has
        # energy -(omega/2) * (n - 2 b).
        n = self.n_entangled
        ones = _popcount(np.arange(2**n), n)
        return DiagonalHamiltonian(-0.5 * self.omega * (n - 2 * ones))

    def measurement(self) -> ProjectiveMeasurement:
        # Product |+/-> basis: row j has entries (-1)^popcount(i & j) / 2^(n/2).
        n = self.n_entangled
        index = np.arange(2**n)
        signs = 1.0 - 2.0 * (_popcount(index[:, np.newaxis] & index, n) % 2)
        rows = 2.0 ** (-n / 2.0) * signs
        return ProjectiveMeasurement(
            tuple((label, row[np.newaxis, :]) for label, row in zip(self.outcome_labels, rows))
        )


ClockModel = Union[OneQubitClock, TwoQubitClock, GhzClock]


def one_qubit_distribution(chi: float, omega: float, t: float) -> OutcomeDistribution:
    """Single-qubit readout statistics: P_-(t) = chi sin^2(omega t / 2)."""
    return OneQubitClock(omega=omega, chi=chi).distribution(t)


def two_qubit_distribution(omega: float, Omega: float, t: float) -> OutcomeDistribution:
    """Four-outcome statistics of the two-frequency register.

    P_{0+} = cos^2(omega t/2)/2,  P_{0-} = sin^2(omega t/2)/2,
    P_{1+} = cos^2(Omega t/2)/2,  P_{1-} = sin^2(Omega t/2)/2.
    """
    return TwoQubitClock(omega=omega, Omega=Omega).distribution(t)


def ghz_distribution(omega: float, n_entangled: int, t: float) -> OutcomeDistribution:
    """Product-basis statistics of the GHZ clock.

    An outcome string with an even number of '-' signs has probability
    cos^2(n omega t / 2) / 2^(n-1); odd parity gets sin^2(n omega t / 2)
    / 2^(n-1). Each parity class holds 2^(n-1) outcomes.
    """
    return GhzClock(omega=omega, n_entangled=n_entangled).distribution(t)


def evolved_distribution(model: ClockModel, t: float) -> OutcomeDistribution:
    """Same statistics as ``model.distribution`` but via explicit evolution.

    Prepares the initial state, applies the diagonal propagator, and projects
    onto the readout. Slower than the closed forms; used to validate them.
    """
    state = evolve(model.initial_state(), model.hamiltonian(), t)
    return OutcomeDistribution(float(t), model.measurement().probabilities(state))


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
    if not isinstance(n_probes, int) or isinstance(n_probes, bool) or n_probes < 1:
        raise ValueError(f"n_probes must be a positive integer, got {n_probes!r}")
    class_probs = model.class_probs(_check_time(t))
    probs = tuple(m * float(p) for m, p in zip(model.class_sizes, class_probs))
    return {
        model.counts_type.from_tallies(tallies): _multinomial_pmf(tallies, probs)
        for tallies in count_tallies(n_probes, len(probs)).tolist()
    }


def _infidelity(model: ClockModel):
    # t -> 1 - classical (Bhattacharyya) fidelity between the outcome
    # statistics at time t and at time 0, for scalar or array t, summed over
    # the classes with their outcome counts m; invariant under global and
    # per-sector phases, which the readout cannot resolve.
    base = model.class_probs(0.0)

    def infid(t):
        now = model.class_probs(t)
        overlap = sum(m * np.sqrt(p0 * p) for m, p0, p in zip(model.class_sizes, base, now))
        return 1.0 - overlap * overlap

    return infid


def _golden_section_max(f, lo: float, hi: float, tol: float) -> float:
    # Golden-section search for a maximum of a unimodal f on [lo, hi].
    invphi = 0.5 * (math.sqrt(5.0) - 1.0)
    invphi2 = 1.0 - invphi
    a, b = lo, hi
    h = b - a
    c = a + invphi2 * h
    d = a + invphi * h
    fc = f(c)
    fd = f(d)
    while h > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + invphi2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + invphi * h
            fd = f(d)
    return 0.5 * (a + b)


# Grid steps recurrence_time evaluates per array call.
BLOCK_STEPS = 4096


def recurrence_time(
    model: ClockModel,
    epsilon: float = 1e-6,
    t_max: float = 100.0,
    dt: float = 0.01,
) -> float | None:
    """First time the outcome statistics return within epsilon of their start.

    Scans t = k dt for k = 1, 2, ... while t <= t_max, after the infidelity
    has first exceeded epsilon. A return can be much narrower than the scan
    step (the epsilon-ball has width of order sqrt(epsilon)), so each grid
    minimum is refined by golden-section search; the first refined dip
    below epsilon, or the first grid point below it, is accepted and the
    epsilon-crossing located by bisection to dt/100 resolution. The grid is
    evaluated in arrays of BLOCK_STEPS steps, with the last two points
    carried across blocks, so memory does not grow with t_max. Returns None
    if no recurrence is found by t_max (including a clock whose statistics
    never become epsilon-distinguishable, e.g. chi = 0), at once for a
    one-qubit clock with chi < epsilon.
    """
    epsilon = float(epsilon)
    t_max = float(t_max)
    dt = float(dt)
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    if not 0.0 < dt < t_max < math.inf:  # NaN fails every comparison
        raise ValueError(f"require 0 < dt < t_max, both finite; got dt={dt!r}, t_max={t_max!r}")

    if model.kind == "one-qubit" and model.chi < epsilon:
        return None  # the infidelity chi sin^2(omega t / 2) never reaches epsilon
    infid = _infidelity(model)

    def crossing(lo: float, hi: float) -> float:
        # infid(lo) >= epsilon, infid(hi) < epsilon
        while hi - lo > dt / 100.0:
            mid = 0.5 * (lo + hi)
            if infid(mid) < epsilon:
                hi = mid
            else:
                lo = mid
        return float(hi)

    # ts, vs: the last two steps of the earlier blocks, then this block's
    # steps k0, k0 + 1, ..., so index i holds step k0 - first + i.
    ts = vs = np.empty(0)
    departed = None  # first step with infidelity >= epsilon
    k0 = 1
    while True:
        block = np.arange(k0, k0 + BLOCK_STEPS) * dt
        block = block[block <= t_max]
        first = len(ts)
        ts = np.concatenate((ts, block))
        vs = np.concatenate((vs, infid(block)))
        if departed is None and (vs[first:] >= epsilon).any():
            departed = k0 + int(np.argmax(vs[first:] >= epsilon))
        if departed is not None:
            d = departed - (k0 - first)
            start = max(first, d + 1)
            below = start + np.flatnonzero(vs[start:] < epsilon)
            stop = below[0] if below.size else len(vs)
            # Steps d..stop-1 are all >= epsilon: a grid minimum at i - 1
            # is a candidate when its left neighbour i - 2 is among them.
            steps = np.arange(max(first, d + 2), stop)
            for i in steps[(vs[steps - 1] <= vs[steps - 2]) & (vs[steps - 1] <= vs[steps])]:
                t_star = _golden_section_max(lambda t: -infid(t), ts[i - 2], ts[i], dt / 1000.0)
                if infid(t_star) < epsilon:
                    return crossing(ts[i - 2], t_star)
            if below.size:
                return crossing(ts[stop - 1], ts[stop])
        if len(block) < BLOCK_STEPS:
            return None
        ts, vs = ts[-2:], vs[-2:]
        k0 += BLOCK_STEPS
