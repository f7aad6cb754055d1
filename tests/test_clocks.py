"""Clock models: closed-form distributions, recurrence, and invariants.

Closed forms are validated against the explicit evolve+Born pipeline, and
the exact mean curve against brute-force enumeration of outcome strings
weighted by that pipeline. The model protocol (class_probs, dprobs, class_sizes,
label_classes, probe) is checked on a battery of all three
designs, the closed-form derivatives against central differences. The
product readout of ``evolved_distribution`` is checked against each probe's
dense readout, written out entry by entry. Every statistic is also pinned
bit for bit to its per-design expression, written out from the paper.
"""

import math
import re
import tracemalloc
from fractions import Fraction
from functools import reduce
from itertools import product

import numpy as np
import pytest

from qclock import clocks
from qclock import (
    DegenerateCountsError,
    EstimatorKind,
    ExperimentConfig,
    GhzClock,
    OneQubitClock,
    Tallies,
    TwoQubitClock,
    apply_estimator,
    evolved_distribution,
    mean_estimator_curve,
    recurrence_time,
)

ALL_MODELS = (
    OneQubitClock(omega=1.0),
    OneQubitClock(omega=1.0, chi=0.36),
    TwoQubitClock(omega=0.5, Omega=1.0),
    TwoQubitClock(omega=0.7, Omega=1.9),
    GhzClock(omega=1.0, n_entangled=2),
    GhzClock(omega=0.8, n_entangled=4),
)


def test_one_qubit_distribution_anchor_points():
    clock = OneQubitClock(omega=1.0, chi=1.0)
    assert clock.distribution(math.pi)["-"] == pytest.approx(1.0, abs=1e-12)
    assert clock.distribution(0.0)["-"] == 0.0
    assert clock.distribution(0.0)["+"] == 1.0
    half = OneQubitClock(omega=1.0, chi=0.5).distribution(math.pi)
    assert half["+"] == pytest.approx(0.5, abs=1e-12)
    assert half["-"] == pytest.approx(0.5, abs=1e-12)


def test_one_qubit_distribution_formula():
    rng = np.random.default_rng(21)
    for _ in range(50):
        chi = float(rng.uniform(0.0, 1.0))
        omega = float(rng.uniform(0.1, 3.0))
        t = float(rng.uniform(0.0, 20.0))
        dist = OneQubitClock(omega=omega, chi=chi).distribution(t)
        assert dist["-"] == pytest.approx(chi * math.sin(omega * t / 2) ** 2, abs=1e-12)
        assert dist["-"] + dist["+"] == pytest.approx(1.0, abs=1e-12)


def test_one_qubit_parameter_validation():
    with pytest.raises(ValueError):
        OneQubitClock(omega=1.0, chi=1.2)
    with pytest.raises(ValueError):
        OneQubitClock(omega=1.0, chi=-0.1)
    with pytest.raises(ValueError):
        OneQubitClock(omega=0.0)
    with pytest.raises(ValueError):
        OneQubitClock(omega=-1.0)


def test_two_qubit_distribution_anchor_points():
    at_zero = TwoQubitClock(omega=0.5, Omega=1.0).distribution(0.0)
    assert at_zero["0+"] == 0.5
    assert at_zero["0-"] == 0.0
    assert at_zero["1+"] == 0.5
    assert at_zero["1-"] == 0.0
    at_pi = TwoQubitClock(omega=0.5, Omega=1.0).distribution(math.pi)
    assert at_pi["0+"] == pytest.approx(0.25, abs=1e-12)
    assert at_pi["0-"] == pytest.approx(0.25, abs=1e-12)
    assert at_pi["1+"] == pytest.approx(0.0, abs=1e-12)
    assert at_pi["1-"] == pytest.approx(0.5, abs=1e-12)


def test_two_qubit_equal_frequencies_allowed():
    # Degenerate omega = Omega is a valid model; only the closed-form
    # coarse/fine estimators refuse it.
    dist = TwoQubitClock(omega=1.0, Omega=1.0).distribution(0.7)
    assert dist["0-"] == pytest.approx(dist["1-"], abs=1e-12)


def test_ghz_distribution_anchor_points():
    at_zero = GhzClock(omega=1.0, n_entangled=2).distribution(0.0)
    assert at_zero["++"] == 0.5
    assert at_zero["--"] == 0.5
    assert at_zero["+-"] == 0.0
    assert at_zero["-+"] == 0.0
    # Three entangled qubits, argument 3*omega*t/2 = pi/2: the four
    # odd-parity outcomes carry 1/4 each, even-parity outcomes vanish.
    dist = GhzClock(omega=1.0, n_entangled=3).distribution(math.pi / 3)
    for label in dist.labels:
        parity = label.count("-") & 1
        expected = 0.25 if parity else 0.0
        assert dist[label] == pytest.approx(expected, abs=1e-12)


def test_ghz_n2_pattern():
    rng = np.random.default_rng(22)
    for _ in range(25):
        t = float(rng.uniform(0.0, 10.0))
        dist = GhzClock(omega=1.0, n_entangled=2).distribution(t)
        assert dist["++"] == pytest.approx(0.5 * math.cos(t) ** 2, abs=1e-12)
        assert dist["--"] == pytest.approx(0.5 * math.cos(t) ** 2, abs=1e-12)
        assert dist["+-"] == pytest.approx(0.5 * math.sin(t) ** 2, abs=1e-12)
        assert dist["-+"] == pytest.approx(0.5 * math.sin(t) ** 2, abs=1e-12)


def test_ghz_parameter_validation():
    with pytest.raises(ValueError):
        GhzClock(omega=1.0, n_entangled=1)
    with pytest.raises(ValueError):
        GhzClock(omega=1.0, n_entangled=17)  # register cap
    with pytest.raises(ValueError):
        GhzClock(omega=0.0, n_entangled=2)


def test_ghz_rejects_an_overflowing_frequency():
    # An infinite n omega would make window_top = pi / inf = 0.
    for omega, n in ((1e308, 2), (1.5e307, 16)):
        with pytest.raises(ValueError, match=r"n \* omega overflows"):
            GhzClock(omega=omega, n_entangled=n)
    assert GhzClock(omega=1e307, n_entangled=16).window_top == math.pi / 1.6e308


@pytest.mark.parametrize(
    "build, frequency",
    [
        (lambda f: OneQubitClock(omega=f), 1.7e-308),
        (lambda f: TwoQubitClock(omega=f, Omega=1.0), 1.7e-308),
        (lambda f: TwoQubitClock(omega=1.0, Omega=f), 1.7e-308),
        # GHZ's pair oscillates at n omega: 2 * 8e-309 overflows pi / f.
        (lambda f: GhzClock(omega=f, n_entangled=2), 8e-309),
    ],
    ids=["one-qubit", "two-qubit-slow", "two-qubit-fast", "ghz"],
)
def test_a_frequency_whose_window_overflows_is_rejected(build, frequency):
    # pi / f = inf would make window_top, and estimates at its edge, infinite.
    for f in (frequency, 1e-320, 5e-324):
        with pytest.raises(ValueError, match=r"pi / f overflows"):
            build(f)
    model = build(1.8e-308)
    assert math.isfinite(model.window_top) and math.isfinite(math.pi / model._pairs[0][2])


def test_ghz_accepts_numpy_integers():
    model = GhzClock(omega=1.0, n_entangled=np.int64(3))
    assert type(model.n_entangled) is int and model == GhzClock(omega=1.0, n_entangled=3)
    assert model.outcome_labels == GhzClock(omega=1.0, n_entangled=3).outcome_labels
    for n in (True, np.bool_(True), np.int64(1), np.int64(17), np.float64(3.0)):
        with pytest.raises(ValueError):
            GhzClock(omega=1.0, n_entangled=n)


def test_ghz_frequency_scaling():
    # The n-qubit pattern is the n=2 pattern evaluated at frequency n*omega/2.
    rng = np.random.default_rng(23)
    for n in (2, 3, 4):
        for _ in range(25):
            omega = float(rng.uniform(0.2, 2.0))
            t = float(rng.uniform(0.0, 10.0))
            dist = GhzClock(omega=omega, n_entangled=n).distribution(t)
            half = n * omega * t / 2
            even = math.cos(half) ** 2 / 2 ** (n - 1)
            odd = math.sin(half) ** 2 / 2 ** (n - 1)
            for label in dist.labels:
                expected = odd if label.count("-") & 1 else even
                assert dist[label] == pytest.approx(expected, abs=1e-12)


def test_formula_pipeline_equivalence():
    # Closed forms against explicit evolution + projective readout.
    rng = np.random.default_rng(24)
    for _ in range(100):
        kind = rng.integers(0, 3)
        t = float(rng.uniform(0.0, 15.0))
        if kind == 0:
            model = OneQubitClock(
                omega=float(rng.uniform(0.1, 3.0)), chi=float(rng.uniform(0.0, 1.0))
            )
        elif kind == 1:
            model = TwoQubitClock(
                omega=float(rng.uniform(0.1, 2.0)), Omega=float(rng.uniform(0.1, 4.0))
            )
        else:
            model = GhzClock(
                omega=float(rng.uniform(0.1, 2.0)), n_entangled=int(rng.integers(2, 7))
            )
        closed = model.distribution(t)
        pipeline = evolved_distribution(model, t)
        assert closed.labels == pipeline.labels
        for label in closed.labels:
            assert abs(closed[label] - pipeline[label]) < 1e-10


def test_distributions_reject_non_finite_time():
    for model in ALL_MODELS:
        for t in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                model.distribution(t)
            with pytest.raises(ValueError, match="finite"):
                evolved_distribution(model, t)


def test_normalization_over_doubled_recurrence_window():
    for model in ALL_MODELS:
        rt = recurrence_time(model, epsilon=1e-6)
        if rt is None:  # a one-qubit clock with chi <= epsilon never leaves the ball
            rt = 2.0 * math.pi / model.omega
        for t in np.linspace(0.0, 2.0 * rt, 1000):
            total = sum(model.distribution(float(t)).probs.values())
            assert abs(total - 1.0) < 1e-10


def test_one_qubit_periodicity_and_symmetry():
    rng = np.random.default_rng(25)
    for chi, omega in ((1.0, 1.0), (0.5, 0.7), (0.36, 2.0)):
        period = 2.0 * math.pi / omega
        clock = OneQubitClock(omega=omega, chi=chi)
        for _ in range(50):
            t = float(rng.uniform(0.0, period))
            here = clock.distribution(t)
            shifted = clock.distribution(t + period)
            mirrored = clock.distribution(period - t)
            assert abs(here["-"] - shifted["-"]) < 1e-10
            assert abs(here["-"] - mirrored["-"]) < 1e-10


def test_chi_bound_over_random_eigenbases():
    # (a, b) on the unit circle; orthonormality forces (c, d) = s*(b, a).
    rng = np.random.default_rng(26)
    for _ in range(10_000):
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        a, b = math.cos(theta), math.sin(theta)
        s = 1.0 if rng.random() < 0.5 else -1.0
        clock = OneQubitClock.from_eigenbasis(a, b, s * b, s * a, omega=1.0)
        assert 0.0 <= clock.chi <= 1.0
        assert clock.chi == pytest.approx(math.sin(2.0 * theta) ** 2, abs=1e-9)


def test_from_eigenbasis_validation():
    with pytest.raises(ValueError):
        OneQubitClock.from_eigenbasis(1.0, 1.0, 0.0, 1.0, omega=1.0)  # not normalized
    with pytest.raises(ValueError):
        # Normalized columns that are not orthogonal.
        OneQubitClock.from_eigenbasis(1.0, 0.0, 1.0, 0.0, omega=1.0)
    # A NaN coefficient is rejected where it enters, not as a NaN chi later.
    r = math.sqrt(0.5)
    for coeffs in ((math.nan, r, r, r), (r, r, r, math.nan), (math.nan,) * 4):
        with pytest.raises(ValueError, match="not normalized"):
            OneQubitClock.from_eigenbasis(*coeffs, omega=1.0)


def test_from_mixing_angle():
    assert OneQubitClock.from_mixing_angle(math.pi / 4, 1.0).chi == pytest.approx(1.0)
    assert OneQubitClock.from_mixing_angle(0.0, 1.0).chi == 0.0
    rng = np.random.default_rng(27)
    for _ in range(20):
        theta = float(rng.uniform(0.0, math.pi / 2))
        clock = OneQubitClock.from_mixing_angle(theta, 2.0)
        assert clock.chi == pytest.approx(math.sin(2 * theta) ** 2, abs=1e-12)


def test_clock_metadata():
    one = OneQubitClock(omega=2.0)
    assert one.kind == "one-qubit"
    assert one.outcome_labels == ("+", "-")
    assert one.window_top == pytest.approx(math.pi / 2.0)
    two = TwoQubitClock(omega=0.5, Omega=1.0)
    assert two.kind == "two-qubit"
    assert two.outcome_labels == ("0+", "0-", "1+", "1-")
    assert two.window_top == pytest.approx(2.0 * math.pi)
    ghz = GhzClock(omega=1.0, n_entangled=3)
    assert ghz.kind == "ghz"
    assert len(ghz.outcome_labels) == 8
    assert ghz.window_top == pytest.approx(math.pi / 3.0)


@pytest.mark.parametrize("n", range(2, 7))
def test_ghz_readout_matches_bitwise_loop(n):
    # Oracle: the product |+/-> readout and the energies written out one
    # basis state at a time with bin(): row j is (-1)^popcount(i & j) /
    # 2^(n/2), and a basis state with b ones has energy -(omega/2)(n - 2 b).
    model = GhzClock(omega=0.8, n_entangled=n)
    dim = 2**n
    scale = 2.0 ** (-n / 2.0)
    _, energies, readouts = model.probe()
    assert len(readouts) == n
    readout = reduce(np.kron, readouts)
    for j in range(dim):
        signs = np.array([(-1.0) ** bin(i & j).count("1") for i in range(dim)])
        assert np.max(np.abs(readout[j] - scale * signs)) < 1e-15
    ones = np.array([bin(i).count("1") for i in range(dim)])
    assert np.array_equal(energies, -0.5 * model.omega * (n - 2 * ones))
    parity = [1 - (bin(i).count("1") & 1) for i in range(dim)]
    assert model.label_classes == tuple(parity)


def test_recurrence_anchor_values():
    # The scan reports the epsilon-ball entry, slightly before the exact
    # revival; dt/100 bisection puts it within a few parts in 1e-3.
    cases = (
        (OneQubitClock(omega=1.0), 2.0 * math.pi),
        (OneQubitClock(omega=0.5), 4.0 * math.pi),
        (TwoQubitClock(omega=0.5, Omega=1.0), 4.0 * math.pi),
        (GhzClock(omega=1.0, n_entangled=2), math.pi),
    )
    for model, expected in cases:
        rt = recurrence_time(model, epsilon=1e-6)
        assert rt is not None
        assert rt <= expected
        assert abs(rt - expected) < 5e-3


def test_recurrence_ghz_window_scaling():
    base = recurrence_time(GhzClock(omega=1.0, n_entangled=2), epsilon=1e-6)
    for n in (3, 4):
        rt = recurrence_time(GhzClock(omega=1.0, n_entangled=n), epsilon=1e-6)
        assert rt == pytest.approx(base * 2.0 / n, abs=5e-3)


def test_recurrence_unreachable_cases():
    # chi = 0 statistics never leave the ball, so no revival is reported.
    assert recurrence_time(OneQubitClock(omega=1.0, chi=0.0)) is None
    # The infidelity chi sin^2(omega t / 2) never reaches epsilon > chi: the
    # answer comes without scanning 1e14 grid steps.
    for chi in (0.0, 0.5):
        assert recurrence_time(OneQubitClock(omega=1.0, chi=chi), epsilon=0.6) is None


def test_recurrence_validation():
    model = OneQubitClock(omega=1.0)
    with pytest.raises(ValueError):
        recurrence_time(model, epsilon=0.0)
    with pytest.raises(ValueError):
        recurrence_time(model, epsilon=1.0)
    for epsilon in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            recurrence_time(model, epsilon=epsilon)


def test_recurrence_reports_a_late_return():
    # Omega / omega = phi + 1, the golden ratio's square: the pair's first
    # return comes long after the slow pair's 4 pi.
    model = TwoQubitClock(omega=0.5, Omega=1.3090169943749475)
    assert recurrence_time(model) == pytest.approx(4737.526, abs=1e-3)


OVERFLOWING_RETURNS = (
    OneQubitClock(omega=3e-308),
    GhzClock(omega=8.75e-309, n_entangled=2),
    TwoQubitClock(omega=1.75e-308, Omega=3.5e-308),
)


@pytest.mark.parametrize("model", OVERFLOWING_RETURNS, ids=repr)
def test_overflowing_first_return_raises(model):
    # The window pi / f is finite, but the first return, about 2 pi / f,
    # is not: a time that JSON cannot hold is an error, not a return.
    assert math.isfinite(model.window_top)
    message = f"^the first return overflows: {re.escape(repr(model))}$"
    for first_return in (model.first_return, lambda e: recurrence_time(model, e)):
        with pytest.raises(ValueError, match=message):
            first_return(1e-6)


ONE_OF_EACH_DESIGN = (
    OneQubitClock(omega=1.0),
    TwoQubitClock(omega=0.5, Omega=1.3),
    GhzClock(omega=1.0, n_entangled=3),
)


@pytest.mark.parametrize("model", ONE_OF_EACH_DESIGN, ids=repr)
def test_first_return_rejects_epsilon_outside_the_unit_interval(model):
    # The clock checks epsilon where it enters, so a direct call fails as
    # recurrence_time does, not with a failed invariant (two qubits at 0), a
    # NaN (one qubit at nan) or a math domain error (one qubit at -0.1).
    for epsilon in (0.0, -0.1, 1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"^epsilon must lie in \(0, 1\)"):
            model.first_return(epsilon)


@pytest.mark.parametrize("model", ONE_OF_EACH_DESIGN, ids=repr)
def test_cfi_rejects_non_finite_time(model):
    # Not qfi (two qubits, GHZ) nor a phase overflow (one qubit) at NaN.
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^time must be finite"):
            model.cfi(t)


def _scalar_infidelity(model, base, t):
    # 1 - Bhattacharyya fidelity from the labelled distributions, one
    # outcome at a time.
    now = model.distribution(t)
    overlap = 0.0
    for label, p0 in base.probs.items():
        if p0 > 0.0:
            overlap += math.sqrt(p0 * now[label])
    return 1.0 - overlap * overlap


def _scalar_golden_min(f, lo, hi, tol):
    invphi = 0.5 * (math.sqrt(5.0) - 1.0)
    invphi2 = 1.0 - invphi
    a, b = lo, hi
    h = b - a
    c = a + invphi2 * h
    d = a + invphi * h
    fc = f(c)
    fd = f(d)
    while h > tol:
        if fc <= fd:
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


def _scalar_recurrence_time(model, epsilon=1e-6, t_max=100.0, dt=0.01):
    # Reference scan: one grid step at a time, each local minimum refined
    # as soon as it is seen, the epsilon-crossing bisected to dt/100.
    base = model.distribution(0.0)

    def infid(t):
        return _scalar_infidelity(model, base, t)

    def crossing(lo, hi):
        while hi - lo > dt / 100.0:
            mid = 0.5 * (lo + hi)
            if infid(mid) < epsilon:
                hi = mid
            else:
                lo = mid
        return hi

    departed = False
    history = []
    k = 1
    while (t := k * dt) <= t_max:
        value = infid(t)
        if not departed:
            if value >= epsilon:
                departed = True
        else:
            if value < epsilon:
                return crossing(history[-1][0], t)
            if len(history) >= 2 and history[-2][1] >= epsilon:
                (t0, v0), (t1, v1) = history[-2], history[-1]
                if v1 <= v0 and v1 <= value:
                    t_star = _scalar_golden_min(infid, t0, t, dt / 1000.0)
                    if infid(t_star) < epsilon:
                        return crossing(t0, t_star)
        history.append((t, value))
        if len(history) > 2:
            history.pop(0)
        k += 1
    return None


def _recurrence_battery():
    # Seeded random models of all three designs; two-qubit ratios are
    # arbitrary, with every fourth one harmonic (Omega = 2 omega).
    rng = np.random.default_rng(31)
    models = []
    for j in range(20):
        models.append(
            OneQubitClock(omega=float(rng.uniform(0.2, 3.0)), chi=float(rng.uniform(0.05, 1.0)))
        )
        omega = float(rng.uniform(0.2, 2.0))
        Omega = 2.0 * omega if j % 4 == 0 else float(rng.uniform(0.1, 4.0))
        models.append(TwoQubitClock(omega=omega, Omega=Omega))
        models.append(
            GhzClock(omega=float(rng.uniform(0.2, 2.0)), n_entangled=int(rng.integers(2, 9)))
        )
    # The scans of the analysis workload in bench/ (its chi is drawn from [0.3, 1]).
    return models + [
        OneQubitClock(omega=1.0, chi=0.3),
        OneQubitClock(omega=1.0),
        TwoQubitClock(omega=0.5, Omega=1.0),
        TwoQubitClock(omega=0.5, Omega=1.3),
        GhzClock(omega=1.0, n_entangled=3),
    ]


@pytest.fixture(scope="module")
def recurrence_oracle():
    models = _recurrence_battery()
    cases = [(model, 1e-6, t_max) for model in models for t_max in (100.0, 20.0, 5.0)]
    # A large epsilon departs late and can leave grid minima below epsilon
    # before departure.
    cases += [(model, epsilon, 20.0) for model in models[:21] for epsilon in (0.1, 0.5)]
    return [(*case, _scalar_recurrence_time(*case)) for case in cases]


def _scaled(model, scale):
    # The same clock with every frequency multiplied by scale.
    if isinstance(model, OneQubitClock):
        return OneQubitClock(omega=scale * model.omega, chi=model.chi)
    if isinstance(model, TwoQubitClock):
        return TwoQubitClock(omega=scale * model.omega, Omega=scale * model.Omega)
    return GhzClock(omega=scale * model.omega, n_entangled=model.n_entangled)


@pytest.mark.parametrize("scale", (1, 2, 7, None))
def test_block_scan_matches_scalar_scan(recurrence_oracle, scale):
    # recurrence_time against the step-by-step scan (the name is from the
    # time-grid scan recurrence_time once was). The scan returns the first
    # grid-bisection point inside the ball, at most dt/100 = 1e-4 after the
    # exact entry and never before it. With a scale s, the clock runs s
    # times faster, so its first return, times s, is the scanned one.
    assert len({repr(case[0]) for case in recurrence_oracle}) >= 60
    assert any(case[-1] is None for case in recurrence_oracle)
    assert any(case[-1] is not None for case in recurrence_oracle)
    for model, epsilon, t_max, scanned in recurrence_oracle:
        if scale is None:
            got = recurrence_time(model, epsilon=epsilon)
        else:
            got = recurrence_time(_scaled(model, scale), epsilon=epsilon)
            got = None if got is None else scale * got
        # The scan stops at its horizon t_max; recurrence_time has none.
        assert (scanned is None) == (got is None or got > t_max), (model, epsilon, t_max, got)
        if scanned is not None:
            assert 0.0 <= scanned - got <= 1e-4, (model, epsilon, t_max, scanned, got)


def test_recurrence_closed_forms_and_their_edges():
    # chi just above epsilon: the statistics leave the ball only near
    # t = pi, and the first return follows at once.
    model = OneQubitClock(omega=1.0, chi=0.600000000001)
    expected = 2.0 * (math.pi - math.asin(math.sqrt(0.6 / model.chi)))
    got = recurrence_time(model, epsilon=0.6)
    assert got == pytest.approx(expected, rel=1e-15)
    assert got - math.pi == pytest.approx(2.6e-6, rel=0.05)
    for n, omega, epsilon in ((2, 1.0, 1e-6), (5, 0.7, 0.3)):
        expected = 2.0 / (n * omega) * (math.pi - math.asin(math.sqrt(epsilon)))
        assert recurrence_time(GhzClock(omega, n), epsilon) == pytest.approx(expected, rel=1e-15)


def test_two_qubit_recurrence_rejects_merged_balls():
    # From epsilon = 3/4 on, a sector alone at full contrast lies inside
    # the ball; at Omega = 2 omega the infidelity never exceeds 0.875, so
    # epsilon = 0.95 was a scan to the horizon.
    model = TwoQubitClock(omega=0.5, Omega=1.0)
    for epsilon in (0.75, 0.95):
        with pytest.raises(ValueError, match="3/4"):
            recurrence_time(model, epsilon=epsilon)
    assert recurrence_time(model, epsilon=0.7499) is not None


def test_two_qubit_recurrence_resolves_tiny_epsilon():
    # cos x rounds to 1 for |x| < 1e-8, but the half-angle infidelity does
    # not: at epsilon = 1e-300 only the exact return at the denominator q
    # of the float ratio omega / Omega is close enough.
    model = TwoQubitClock(omega=0.5, Omega=0.5 * math.sqrt(2.0))
    q = (Fraction(model.omega) / Fraction(model.Omega)).denominator
    got = recurrence_time(model, epsilon=1e-300)
    assert got == pytest.approx(2.0 * math.pi * q / model.Omega, rel=1e-15)


GOLDEN = 0.5 * (1.0 + math.sqrt(5.0))
# Omega / omega: quadratic irrationals, e, pi (partial quotient 292), a ratio
# with partial quotient 50 ([1; 50, 1, 1, ...]) and two float ratios.
MINIMALITY_RATIOS = (
    GOLDEN,
    math.sqrt(2.0),
    math.e,
    math.pi,
    1.0 + 1.0 / (50.0 + 1.0 / GOLDEN),
    2.0,
    2.6,
)


def _cell_infidelity_minima(model, t_end):
    # Each cell between consecutive zeros of cos(omega t / 2) and
    # cos(Omega t / 2) up to t_end, after the one holding t = 0, and the
    # infidelity's minimum on it, found by golden-section search on all
    # cells at once: |cos| + |cos| is concave on a cell, so the infidelity
    # is unimodal there.
    zeros = np.concatenate([
        (2.0 * np.arange(math.ceil(t_end * f / (2.0 * math.pi)) + 1) + 1.0) * math.pi / f
        for f in (model.omega, model.Omega)
    ])
    zeros = np.unique(zeros[zeros <= t_end])
    lo, hi = zeros[:-1], zeros[1:]
    base = model.class_probs(0.0)

    def infidelity(t):
        overlap = sum(np.sqrt(p0 * p) for p0, p in zip(base, model.class_probs(t)))
        return 1.0 - overlap * overlap

    invphi = 0.5 * (math.sqrt(5.0) - 1.0)
    a, b = lo.copy(), hi.copy()
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = infidelity(c), infidelity(d)
    for _ in range(80):
        left = fc <= fd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        c, d = np.where(left, b - invphi * (b - a), d), np.where(left, c, a + invphi * (b - a))
        new = infidelity(np.where(left, c, d))
        fc, fd = np.where(left, new, fd), np.where(left, fc, new)
    argmin = 0.5 * (a + b)
    return lo, hi, argmin, infidelity(argmin)


@pytest.mark.parametrize(
    "ratio", MINIMALITY_RATIOS, ids=("golden", "sqrt2", "e", "pi", "pq50", "2", "2.6")
)
def test_two_qubit_recurrence_is_the_first_dip(ratio):
    # Brute force over every cell: before the answer's cell no cell's
    # infidelity minimum falls below epsilon, and the answer is the
    # entry into the ball on its cell's falling side.
    model = TwoQubitClock(omega=0.5, Omega=0.5 * ratio)
    epsilons = [10.0**-k for k in range(2, 9)]
    answers = [recurrence_time(model, epsilon) for epsilon in epsilons]
    lo, hi, argmin, minima = _cell_infidelity_minima(model, max(answers) + 20.0 * math.pi)
    for epsilon, t in zip(epsilons, answers):
        cell = np.flatnonzero((lo < t) & (t < hi))
        assert cell.size == 1, (epsilon, t)
        (cell,) = cell
        assert np.all(minima[:cell] >= epsilon), (epsilon, t)
        assert minima[cell] < epsilon and t <= argmin[cell], (epsilon, t)


def test_two_qubit_count_distribution_matches_enumeration():
    # Oracle: walk every outcome string of n probes, each weighted by the
    # product of its outcomes' probabilities from explicit evolution, map
    # each outcome to its class through label_classes, estimate the tallies
    # with the scalar estimator, and renormalize over the strings with a
    # valid estimate. Nothing here goes through the count space or its pmf,
    # so the exact curve's weights, multinomial coefficients included, are
    # held to first principles. (A GHZ string stands for itself, not for its
    # parity class; class_sizes scales every row alike, since the classes are
    # equal in size and each row sums to n, so renormalizing cancels it.)
    # The times are inside the window: at its edges the valid mass can be the
    # ~1e-33 that a rounded sine leaves on an impossible outcome, which
    # evolution and the closed form round differently.
    cases = (
        (TwoQubitClock(omega=0.5, Omega=1.0), EstimatorKind.COMBINED, 3),
        (GhzClock(omega=0.8, n_entangled=2), EstimatorKind.CLOSED_FORM, 3),
        (GhzClock(omega=0.8, n_entangled=3), EstimatorKind.CLOSED_FORM, 2),
        (OneQubitClock(omega=1.0, chi=0.75), EstimatorKind.CLOSED_FORM, 6),
    )
    for model, kind, n in cases:
        grid = tuple((np.linspace(0.1, 0.9, 6) * model.window_top).tolist())
        config = ExperimentConfig(model, n, grid, trials=1, seed=0, estimator=kind)
        strings = list(product(range(len(model.outcome_labels)), repeat=n))
        assert len(strings) == 64
        estimates = []
        for outcome in strings:
            tallies = [0] * len(model.class_sizes)
            for i in outcome:
                tallies[model.label_classes[i]] += 1
            try:
                report = apply_estimator(model, Tallies(tallies), kind)
            except DegenerateCountsError:
                report = None
            estimates.append(report.t_hat if report is not None and report.valid else None)
        for point in mean_estimator_curve(config).points:
            dist = evolved_distribution(model, point.t)
            probs = [dist[label] for label in model.outcome_labels]
            total = first = second = 0.0
            for outcome, t_hat in zip(strings, estimates):
                if t_hat is None:
                    continue
                weight = math.prod(probs[i] for i in outcome)
                total += weight
                first += weight * t_hat
                second += weight * t_hat * t_hat
            mean = first / total
            where = (model, n, point.t)
            assert abs(point.mean_estimate - mean) <= 1e-12, where
            assert abs(point.std_error**2 - (second / total - mean * mean)) <= 1e-12, where


def test_count_tallies_lexicographic():
    # Oracle: every tuple of the product space that sums to n, in product's
    # order (lexicographic, the first tally slowest).
    for n, classes in ((1, 2), (5, 2), (1, 4), (3, 4), (12, 4), (24, 4)):
        want = [list(c) for c in product(range(n + 1), repeat=classes) if sum(c) == n]
        assert clocks.count_tallies(n, classes).tolist() == want


PROTOCOL_BATTERY = (
    *(OneQubitClock(omega=1.3, chi=chi) for chi in (0.0, 0.36, 1.0)),
    *(TwoQubitClock(omega=0.5, Omega=ratio * 0.5) for ratio in (2.0, 2.6)),
    *(GhzClock(omega=0.8, n_entangled=n) for n in (2, 3, 4, 5)),
)


@pytest.mark.parametrize("model", PROTOCOL_BATTERY, ids=repr)
def test_model_protocol(model):
    sizes = model.class_sizes
    # Each class holds class_sizes outcomes, and the count vector has one
    # tally per class.
    assert len(model.label_classes) == len(model.outcome_labels) == sum(sizes)
    assert [model.label_classes.count(c) for c in range(len(sizes))] == list(sizes)
    tallies = tuple(range(3, 3 + len(sizes)))
    counts = Tallies(tallies)
    assert counts == tallies and sum(counts) == sum(tallies)
    # The probe: a normalized state over 2^q basis states, one orthogonal
    # readout per qubit.
    amplitudes, energies, readouts = model.probe()
    assert amplitudes.shape == energies.shape == (2 ** len(readouts),)
    assert abs(np.linalg.norm(amplitudes) - 1.0) < 1e-12
    for readout in readouts:
        assert np.max(np.abs(readout @ readout.T - np.eye(2))) < 1e-12
    ts = np.linspace(-1.0, 3.0 * model.window_top, 41)
    classes = model.class_probs(ts)
    assert len(classes) == len(sizes)
    # Total probability one; a scalar time gives the array's values bit for bit.
    total = sum(m * p for m, p in zip(sizes, classes))
    assert np.max(np.abs(total - 1.0)) < 1e-12
    for i, t in enumerate(ts):
        assert [float(p) for p in model.class_probs(float(t))] == [p[i] for p in classes]
        dist = model.distribution(float(t))
        assert dist.labels == model.outcome_labels
        assert [dist[x] for x in dist.labels] == [
            classes[c][i] for c in model.label_classes
        ]
        evolved = evolved_distribution(model, float(t))
        assert all(abs(dist[x] - evolved[x]) < 1e-10 for x in dist.labels)
    # The enumerated count space: one tally row per composition of n over
    # the classes, each summing to n and a count vector of n probes.
    for n in (1, 5):
        rows = clocks.count_tallies(n, len(sizes))
        assert rows.shape == (math.comb(n + len(sizes) - 1, len(sizes) - 1), len(sizes))
        assert np.all(rows.sum(axis=1) == n)
        for row in rows.tolist():
            counts = Tallies(row)
            assert type(counts) is Tallies
            assert list(counts) == row and sum(counts) == n


@pytest.mark.parametrize("model", PROTOCOL_BATTERY, ids=repr)
def test_dprobs_match_central_differences(model):
    # First and second time derivatives of each class probability, in tally
    # order, against central differences of class_probs; a scalar time gives
    # the array's values bit for bit.
    ts = np.linspace(-1.0, 3.0 * model.window_top, 41)
    first, second = model.dprobs(ts)
    assert len(first) == len(second) == len(model.class_sizes)
    h1, h2 = 1e-6, 1e-4
    for j, (d1, d2) in enumerate(zip(first, second)):
        def p(t):
            return model.class_probs(t)[j]

        fd1 = (p(ts + h1) - p(ts - h1)) / (2.0 * h1)
        fd2 = (p(ts + h2) - 2.0 * p(ts) + p(ts - h2)) / (h2 * h2)
        assert np.max(np.abs(d1 - fd1)) < 1e-8, (j, np.max(np.abs(d1 - fd1)))
        assert np.max(np.abs(d2 - fd2)) < 1e-6, (j, np.max(np.abs(d2 - fd2)))
    for i, t in enumerate(ts):
        scalar = model.dprobs(float(t))
        assert [[float(d) for d in ds] for ds in scalar] == [
            [d[i] for d in first], [d[i] for d in second]
        ]


def _dense_probe(model):
    # Oracle: the probe with its readout as one dense matrix, written out
    # entry by entry: (amplitudes, energies, readout rows in outcome order).
    s = 1.0 / math.sqrt(2.0)
    if model.kind == "one-qubit":
        c, sn = math.cos(model.mixing_angle), math.sin(model.mixing_angle)
        return [c, sn], [-0.5 * model.omega, 0.5 * model.omega], [[c, sn], [-sn, c]]
    if model.kind == "two-qubit":
        w, big = 0.5 * model.omega, 0.5 * model.Omega
        rows = [[s, s, 0.0, 0.0], [s, -s, 0.0, 0.0], [0.0, 0.0, s, s], [0.0, 0.0, s, -s]]
        return [0.5] * 4, [w, -w, big, -big], rows
    n = model.n_entangled
    dim = 2**n
    amps = [s if i in (0, dim - 1) else 0.0 for i in range(dim)]
    energies = [-0.5 * model.omega * (n - 2 * bin(i).count("1")) for i in range(dim)]
    rows = [
        [(-1.0) ** bin(i & j).count("1") / 2.0 ** (n / 2.0) for i in range(dim)]
        for j in range(dim)
    ]
    return amps, energies, rows


def _probe_battery():
    rng = np.random.default_rng(11)
    models = [
        OneQubitClock(omega=float(rng.uniform(0.1, 3.0)), chi=float(rng.uniform(0.0, 1.0)))
        for _ in range(20)
    ]
    models += [
        TwoQubitClock(omega=float(rng.uniform(0.1, 2.0)), Omega=float(rng.uniform(0.1, 4.0)))
        for _ in range(20)
    ]
    models += [
        GhzClock(omega=float(rng.uniform(0.1, 2.0)), n_entangled=n)
        for n in range(2, 9)
        for _ in range(3)
    ]
    return models


def test_evolved_distribution_matches_dense_readout():
    models = _probe_battery()
    assert len(models) >= 60
    for model in models:
        amps, energies, rows = (np.array(x) for x in _dense_probe(model))
        for t in np.linspace(-0.5, 3.0 * model.window_top, 31):
            t = float(t)
            expected = np.abs(rows @ (np.exp(-1j * energies * t) * amps)) ** 2
            got = evolved_distribution(model, t)
            assert got.labels == model.outcome_labels
            assert max(abs(got[x] - p) for x, p in zip(got.labels, expected)) < 1e-15, (model, t)


@pytest.mark.parametrize("n", (12, 16))
def test_evolved_distribution_reads_out_large_ghz(n):
    # The product readout never forms the 2^n x 2^n matrix (64 GiB at n = 16).
    model = GhzClock(omega=1.0, n_entangled=n)
    tracemalloc.start()
    try:
        got = evolved_distribution(model, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    expected = model.distribution(0.3)
    assert max(abs(got[x] - expected[x]) for x in expected.labels) < 1e-12


def test_probes_are_shared_per_structure():
    # The local readouts, and per GHZ size the amplitudes, are shared; the
    # energies are built per call and follow each model's frequencies.
    slow, fast = TwoQubitClock(omega=0.5, Omega=1.0), TwoQubitClock(omega=0.7, Omega=1.9)
    assert all(a is b for a, b in zip(slow.probe()[2], fast.probe()[2]))
    ghz_a, ghz_b, ghz_4 = (
        GhzClock(omega=w, n_entangled=n) for w, n in ((0.8, 3), (1.3, 3), (0.8, 4))
    )
    assert ghz_a.probe()[0] is ghz_b.probe()[0]
    assert ghz_a.probe()[0] is not ghz_4.probe()[0]
    assert ghz_a.probe()[2][0] is ghz_4.probe()[2][0] is slow.probe()[2][1]
    for model in (slow, fast, ghz_a, ghz_b, ghz_4):
        assert np.array_equal(model.probe()[1], _dense_probe(model)[1])
    assert not np.array_equal(slow.probe()[1], fast.probe()[1])
    assert not np.array_equal(ghz_a.probe()[1], ghz_b.probe()[1])


@pytest.mark.parametrize("model", PROTOCOL_BATTERY, ids=repr)
def test_probe_arrays_are_read_only(model):
    # An array a probe shares with later probes (a local readout, the GHZ
    # amplitudes) must not be writable; the others are built per call.
    def arrays(probe):
        amplitudes, energies, readouts = probe
        return (amplitudes, energies, *readouts)

    for arr, again in zip(arrays(model.probe()), arrays(model.probe())):
        if arr.flags.writeable:
            assert not np.shares_memory(arr, again)
        else:
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 0


def _paper_statistics(model):
    # Oracle: each design's statistics written out in the paper's form, one
    # expression per design, for a bit-for-bit comparison with the clocks'
    # members: (class_probs, dprobs, qfi, cfi, window_top, first_return).
    def sin2_derivatives(f, t, scale):
        return scale * f * np.sin(f * t), scale * f * f * np.cos(f * t)

    if isinstance(model, OneQubitClock):
        chi, omega = model.chi, model.omega

        def probs(t):
            p_minus = chi * np.square(np.sin(0.5 * omega * t))
            return (p_minus, 1.0 - p_minus)

        def dprobs(t):
            d1, d2 = sin2_derivatives(omega, t, 0.5 * chi)
            return (d1, -d1), (d2, -d2)

        qfi = chi * omega**2

        def cfi(t):
            c2 = math.cos(0.5 * omega * t) ** 2
            return qfi * c2 / ((1.0 - chi) + chi * c2)

        def first_return(epsilon):
            if chi <= epsilon:
                return None
            return 2.0 / omega * (math.pi - math.asin(math.sqrt(epsilon / chi)))

        return probs, dprobs, qfi, cfi, math.pi / omega, first_return
    if isinstance(model, TwoQubitClock):
        omega, big = model.omega, model.Omega

        def probs(t):
            fast = np.square(np.sin(0.5 * big * t))
            slow = np.square(np.sin(0.5 * omega * t))
            return (0.5 * fast, 0.5 * (1.0 - fast), 0.5 * slow, 0.5 * (1.0 - slow))

        def dprobs(t):
            f1, f2 = sin2_derivatives(big, t, 0.25)
            s1, s2 = sin2_derivatives(omega, t, 0.25)
            return (f1, -f1, s1, -s1), (f2, -f2, s2, -s2)

        qfi = 0.5 * omega**2 + 0.5 * big**2
        return probs, dprobs, qfi, lambda t: qfi, math.pi / omega, None
    n, omega = model.n_entangled, model.omega

    def probs(t):
        scale = 2.0 ** (n - 1)
        p_odd = np.square(np.sin(0.5 * n * omega * t))
        return (p_odd / scale, (1.0 - p_odd) / scale)

    def dprobs(t):
        d1, d2 = sin2_derivatives(n * omega, t, 2.0**-n)
        return (d1, -d1), (d2, -d2)

    def first_return(epsilon):
        return 2.0 / (n * omega) * (math.pi - math.asin(math.sqrt(epsilon)))

    qfi = (n * omega) ** 2
    return probs, dprobs, qfi, lambda t: qfi, math.pi / (n * omega), first_return


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


STATISTICS_BATTERY = (
    *PROTOCOL_BATTERY,
    *(OneQubitClock(omega=w, chi=chi) for w in (1e150, 1e-150) for chi in (0.0, 1e-13, 1.0)),
    TwoQubitClock(omega=1e150, Omega=3e149),
    TwoQubitClock(omega=1e-150, Omega=7e-151),
    TwoQubitClock(omega=2.0, Omega=0.3),
    GhzClock(omega=1e150, n_entangled=16),
    GhzClock(omega=1e-150, n_entangled=16),
    GhzClock(omega=0.45, n_entangled=16),
)


@pytest.mark.parametrize("model", STATISTICS_BATTERY, ids=repr)
def test_statistics_match_the_paper_bit_for_bit(model):
    probs, dprobs, qfi, cfi, window_top, first_return = _paper_statistics(model)
    top = model.window_top
    assert _same_bits(top, window_top)
    ts = np.concatenate((np.linspace(-1.0, 3.0, 41) * top, [0.0, 1e-3 * top, 1e3 * top]))
    for got, want in zip(model.class_probs(ts), probs(ts)):
        assert _same_bits(got, want)
    for got, want in zip(model.dprobs(ts), dprobs(ts)):
        assert all(_same_bits(g, w) for g, w in zip(got, want))
    assert _same_bits(model.qfi, qfi)
    for t in ts.tolist():
        assert all(_same_bits(g, w) for g, w in zip(model.class_probs(t), probs(t)))
        for got, want in zip(model.dprobs(t), dprobs(t)):
            assert all(_same_bits(g, w) for g, w in zip(got, want))
        assert _same_bits(model.cfi(t), cfi(t))
    if first_return is not None:
        for epsilon in (1e-300, 1e-13, 1e-6, 0.01, 0.5, 0.999):
            got, want = model.first_return(epsilon), first_return(epsilon)
            assert got is want is None or _same_bits(got, want)
