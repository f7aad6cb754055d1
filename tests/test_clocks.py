"""Clock models: closed-form distributions, recurrence, and invariants.

Closed forms are validated against the explicit evolve+Born pipeline, and
count distributions against brute-force product-outcome enumeration and the
binomial parity law. The model protocol (class_probs, dprobs, class_sizes,
label_classes, counts_type) is checked on a battery of all three designs,
the closed-form derivatives against central differences.
"""

import math
from itertools import product

import numpy as np
import pytest

from qclock import clocks
from qclock import (
    GhzClock,
    GhzCounts,
    OneQubitClock,
    OneQubitCounts,
    TwoQubitClock,
    TwoQubitCounts,
    evolved_distribution,
    ghz_distribution,
    n_probe_count_distribution,
    one_qubit_distribution,
    recurrence_time,
    two_qubit_distribution,
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
    assert one_qubit_distribution(1.0, 1.0, math.pi)["-"] == pytest.approx(1.0, abs=1e-12)
    assert one_qubit_distribution(1.0, 1.0, 0.0)["-"] == 0.0
    assert one_qubit_distribution(1.0, 1.0, 0.0)["+"] == 1.0
    half = one_qubit_distribution(0.5, 1.0, math.pi)
    assert half["+"] == pytest.approx(0.5, abs=1e-12)
    assert half["-"] == pytest.approx(0.5, abs=1e-12)


def test_one_qubit_distribution_formula():
    rng = np.random.default_rng(21)
    for _ in range(50):
        chi = float(rng.uniform(0.0, 1.0))
        omega = float(rng.uniform(0.1, 3.0))
        t = float(rng.uniform(0.0, 20.0))
        dist = one_qubit_distribution(chi, omega, t)
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
    at_zero = two_qubit_distribution(0.5, 1.0, 0.0)
    assert at_zero["0+"] == 0.5
    assert at_zero["0-"] == 0.0
    assert at_zero["1+"] == 0.5
    assert at_zero["1-"] == 0.0
    at_pi = two_qubit_distribution(0.5, 1.0, math.pi)
    assert at_pi["0+"] == pytest.approx(0.25, abs=1e-12)
    assert at_pi["0-"] == pytest.approx(0.25, abs=1e-12)
    assert at_pi["1+"] == pytest.approx(0.0, abs=1e-12)
    assert at_pi["1-"] == pytest.approx(0.5, abs=1e-12)


def test_two_qubit_equal_frequencies_allowed():
    # Degenerate omega = Omega is a valid model; only the closed-form
    # coarse/fine estimators refuse it.
    dist = two_qubit_distribution(1.0, 1.0, 0.7)
    assert dist["0-"] == pytest.approx(dist["1-"], abs=1e-12)


def test_ghz_distribution_anchor_points():
    at_zero = ghz_distribution(1.0, 2, 0.0)
    assert at_zero["++"] == 0.5
    assert at_zero["--"] == 0.5
    assert at_zero["+-"] == 0.0
    assert at_zero["-+"] == 0.0
    # Three entangled qubits, argument 3*omega*t/2 = pi/2: the four
    # odd-parity outcomes carry 1/4 each, even-parity outcomes vanish.
    dist = ghz_distribution(1.0, 3, math.pi / 3)
    for label in dist.labels:
        parity = label.count("-") & 1
        expected = 0.25 if parity else 0.0
        assert dist[label] == pytest.approx(expected, abs=1e-12)


def test_ghz_n2_pattern():
    rng = np.random.default_rng(22)
    for _ in range(25):
        t = float(rng.uniform(0.0, 10.0))
        dist = ghz_distribution(1.0, 2, t)
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


def test_ghz_frequency_scaling():
    # The n-qubit pattern is the n=2 pattern evaluated at frequency n*omega/2.
    rng = np.random.default_rng(23)
    for n in (2, 3, 4):
        for _ in range(25):
            omega = float(rng.uniform(0.2, 2.0))
            t = float(rng.uniform(0.0, 10.0))
            dist = ghz_distribution(omega, n, t)
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
        rt = recurrence_time(model, epsilon=1e-6, t_max=100.0)
        if rt is None:  # chi < 1 one-qubit clocks never re-enter the ball
            rt = 2.0 * math.pi / model.omega
        for t in np.linspace(0.0, 2.0 * rt, 1000):
            total = sum(model.distribution(float(t)).probs.values())
            assert abs(total - 1.0) < 1e-10


def test_one_qubit_periodicity_and_symmetry():
    rng = np.random.default_rng(25)
    for chi, omega in ((1.0, 1.0), (0.5, 0.7), (0.36, 2.0)):
        period = 2.0 * math.pi / omega
        for _ in range(50):
            t = float(rng.uniform(0.0, period))
            here = one_qubit_distribution(chi, omega, t)
            shifted = one_qubit_distribution(chi, omega, t + period)
            mirrored = one_qubit_distribution(chi, omega, period - t)
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
    measurement = model.measurement()
    assert measurement.labels == model.outcome_labels
    for j, (_, vectors) in enumerate(measurement.outcomes):
        signs = np.array([(-1.0) ** bin(i & j).count("1") for i in range(dim)])
        assert np.array_equal(vectors, (scale * signs)[np.newaxis, :])
    ones = np.array([bin(i).count("1") for i in range(dim)])
    assert np.array_equal(model.hamiltonian().energies, -0.5 * model.omega * (n - 2 * ones))
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
        rt = recurrence_time(model, epsilon=1e-6, t_max=20.0)
        assert rt is not None
        assert rt <= expected
        assert abs(rt - expected) < 5e-3


def test_recurrence_ghz_window_scaling():
    base = recurrence_time(GhzClock(omega=1.0, n_entangled=2), epsilon=1e-6, t_max=10.0)
    for n in (3, 4):
        rt = recurrence_time(GhzClock(omega=1.0, n_entangled=n), epsilon=1e-6, t_max=10.0)
        assert rt == pytest.approx(base * 2.0 / n, abs=5e-3)


def test_recurrence_unreachable_cases():
    # chi = 0 statistics never leave the ball, so no revival is reported.
    assert recurrence_time(OneQubitClock(omega=1.0, chi=0.0), t_max=20.0) is None
    # Horizon shorter than the revival.
    assert recurrence_time(OneQubitClock(omega=1.0), t_max=5.0) is None
    # The infidelity chi sin^2(omega t / 2) never reaches epsilon > chi: the
    # answer comes without scanning 1e14 grid steps.
    for chi in (0.0, 0.5):
        assert recurrence_time(OneQubitClock(omega=1.0, chi=chi), epsilon=0.6, t_max=1e12) is None


def test_recurrence_validation():
    model = OneQubitClock(omega=1.0)
    with pytest.raises(ValueError):
        recurrence_time(model, epsilon=0.0)
    with pytest.raises(ValueError):
        recurrence_time(model, epsilon=1.0)
    with pytest.raises(ValueError):
        recurrence_time(model, dt=0.0)
    with pytest.raises(ValueError):
        recurrence_time(model, t_max=0.005, dt=0.01)
    nan, inf = float("nan"), float("inf")
    for kwargs in (
        {"epsilon": nan},
        {"epsilon": inf},
        {"t_max": nan},
        {"t_max": inf},
        {"t_max": -inf},
        {"dt": nan},
        {"dt": inf},
    ):
        with pytest.raises(ValueError):
            recurrence_time(model, **kwargs)
    # An infinite horizon on a clock that never departs would scan forever.
    with pytest.raises(ValueError, match="finite"):
        recurrence_time(OneQubitClock(omega=1.0, chi=0.0), t_max=inf)


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
    # as soon as it is seen. The block scan must make the same decisions.
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
    # A large epsilon departs late, often after a block boundary, and can
    # leave grid minima below epsilon before departure.
    cases += [(model, epsilon, 20.0) for model in models[:21] for epsilon in (0.1, 0.5)]
    return [(*case, _scalar_recurrence_time(*case)) for case in cases]


@pytest.mark.parametrize("block_steps", (1, 2, 7, None))
def test_block_scan_matches_scalar_scan(recurrence_oracle, block_steps, monkeypatch):
    if block_steps is not None:
        monkeypatch.setattr(clocks, "BLOCK_STEPS", block_steps)
    assert len({repr(case[0]) for case in recurrence_oracle}) >= 60
    assert any(case[-1] is None for case in recurrence_oracle)
    assert any(case[-1] is not None for case in recurrence_oracle)
    for model, epsilon, t_max, expected in recurrence_oracle:
        got = recurrence_time(model, epsilon=epsilon, t_max=t_max)
        assert got == expected, (model, epsilon, t_max)


def test_block_scan_horizon_is_not_allocated():
    model = OneQubitClock(omega=1.0)
    assert recurrence_time(model, t_max=1e12) == recurrence_time(model, t_max=100.0)


def test_one_qubit_count_distribution_binomial():
    model = OneQubitClock(omega=1.0)
    at_pi = n_probe_count_distribution(model, 2, math.pi)
    assert at_pi[OneQubitCounts(2, 2)] == pytest.approx(1.0, abs=1e-12)
    assert at_pi[OneQubitCounts(2, 0)] == pytest.approx(0.0, abs=1e-12)
    at_half = n_probe_count_distribution(model, 2, math.pi / 2)
    assert at_half[OneQubitCounts(2, 0)] == pytest.approx(0.25, abs=1e-12)
    assert at_half[OneQubitCounts(2, 1)] == pytest.approx(0.5, abs=1e-12)
    assert at_half[OneQubitCounts(2, 2)] == pytest.approx(0.25, abs=1e-12)


def test_two_qubit_count_distribution_matches_enumeration():
    # Oracle: walk all 4^n product outcomes and accumulate tally weights.
    model = TwoQubitClock(omega=0.5, Omega=1.0)
    n, t = 3, 1.0
    dist = model.distribution(t)
    oracle: dict[TwoQubitCounts, float] = {}
    labels = ("1-", "1+", "0-", "0+")
    for outcome in product(range(4), repeat=n):
        weight = 1.0
        tally = [0, 0, 0, 0]
        for slot in outcome:
            weight *= dist[labels[slot]]
            tally[slot] += 1
        counts = TwoQubitCounts(
            fast_minus=tally[0], fast_plus=tally[1],
            slow_minus=tally[2], slow_plus=tally[3],
        )
        oracle[counts] = oracle.get(counts, 0.0) + weight
    table = n_probe_count_distribution(model, n, t)
    assert abs(sum(table.values()) - 1.0) < 1e-12
    assert set(table) == set(oracle)
    for counts, p in oracle.items():
        assert table[counts] == pytest.approx(p, abs=1e-12)


def test_count_tallies_lexicographic():
    # Oracle: every tuple of the product space that sums to n, in product's
    # order (lexicographic, the first tally slowest).
    for n, classes in ((1, 2), (5, 2), (1, 4), (3, 4), (12, 4)):
        want = [list(c) for c in product(range(n + 1), repeat=classes) if sum(c) == n]
        assert clocks.count_tallies(n, classes).tolist() == want


def _ghz_binomial_parity(model, n_probes, t):
    # The parity tally of n GHZ copies is binomial in p_odd = sin^2(n omega t / 2).
    p_odd = min(math.sin(0.5 * model.n_entangled * model.omega * t) ** 2, 1.0)
    for k in range(n_probes + 1):
        weight = math.comb(n_probes, k) * p_odd**k * (1.0 - p_odd) ** (n_probes - k)
        yield GhzCounts(n_probes, k), weight


def test_count_distribution_ghz_parity_and_bad_n():
    for model in (GhzClock(omega=1.0, n_entangled=2), GhzClock(omega=0.7, n_entangled=5)):
        for n, t in ((4, 1.0), (12, 0.3), (1, 0.0)):
            table = n_probe_count_distribution(model, n, t)
            assert list(table.items()) == list(_ghz_binomial_parity(model, n, t))
    with pytest.raises(ValueError):
        n_probe_count_distribution(OneQubitClock(omega=1.0), 0, 1.0)
    with pytest.raises(ValueError, match="finite"):
        n_probe_count_distribution(OneQubitClock(omega=1.0), 3, float("nan"))


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
    counts = model.counts_type.from_tallies(tallies)
    assert counts.tallies == tallies and counts.n == sum(tallies)
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
    # Enumerated count vectors: one per composition of n, total mass one.
    for n in (1, 5):
        table = n_probe_count_distribution(model, n, 0.7)
        assert len(table) == math.comb(n + len(sizes) - 1, len(sizes) - 1)
        assert all(type(c) is model.counts_type and c.n == n for c in table)
        assert abs(sum(table.values()) - 1.0) < 1e-12


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
