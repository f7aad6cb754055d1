"""Acceptance gate: the headline claims of the toolkit, one verdict each.

Every test prints a single [PASS]/[FAIL] line on the terminal (bypassing
capture) before asserting, so a plain pytest run always shows the verdict
table. Tolerances and grids are stated inline; stochastic checks use frozen
seeds. See the packaged sweep configs for the matching CLI runs.

Criterion 3 holds the combined estimator's sampled mean to its exact
expectation E_t[t_hat], computed by enumerating the count space, not to the
true time: a maximum-likelihood estimator is unbiased only as the probe
count grows. Its finite-sample bias is checked separately, as exact
|bias|/CRB pooled over the grid, which must fall from 32 to 128 pairs.
"""

import dataclasses
import math

import numpy as np
import pytest

from qclock import (
    Branch,
    DegenerateCountsError,
    ExperimentConfig,
    EstimatorKind,
    GhzClock,
    OneQubitClock,
    OneQubitCounts,
    TwoQubitClock,
    TwoQubitCounts,
    classical_fisher,
    coarse_estimator,
    combined_estimator,
    compare_resources,
    error_curve,
    evolve,
    evolved_distribution,
    fisher_one_qubit_analytic,
    mle_numeric,
    mle_two_qubit_roots,
    quantum_fisher,
    recurrence_time,
)
from qclock.estimators import _tally_score
from test_fisher import _fd_fisher

HALF_WINDOW = math.pi
FULL_WINDOW = 2.0 * math.pi


def verdict(capsys, number: int, description: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"[{tag}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def random_pair_counts(rng: np.random.Generator) -> TwoQubitCounts:
    n = int(rng.integers(4, 201))
    t = float(rng.uniform(0.05, FULL_WINDOW - 0.05))
    dist = TwoQubitClock(omega=0.5, Omega=1.0).distribution(t)
    draw = rng.multinomial(n, [dist["1-"], dist["1+"], dist["0-"], dist["0+"]])
    return TwoQubitCounts(
        fast_minus=int(draw[0]), fast_plus=int(draw[1]),
        slow_minus=int(draw[2]), slow_plus=int(draw[3]),
    )


def test_criterion_1_fisher_constants(capsys):
    # The closed forms against the constants, and against central
    # differences of the class probabilities.
    ok = True
    notes = []
    for omega in (0.5, 1.0, 2.0):
        model = OneQubitClock(omega=omega)
        for t in np.arange(0.3, 2.81, 0.5):
            value = classical_fisher(model, float(t)).value
            fd = _fd_fisher(model, float(t))
            ok &= abs(value - omega**2) <= 1e-5 * omega**2
            ok &= abs(fd - value) <= 1e-5 * value
    for chi in (0.36, 0.8):
        model = OneQubitClock(omega=1.0, chi=chi)
        for t in np.arange(0.3, 2.81, 0.5):
            fd = _fd_fisher(model, float(t))
            analytic = fisher_one_qubit_analytic(chi, 1.0, float(t)).value
            ok &= abs(fd - analytic) <= 1e-5 * analytic
    pair = TwoQubitClock(omega=0.5, Omega=1.0)
    for t in np.arange(0.7, 5.71, 1.0):
        for value in (classical_fisher(pair, float(t)).value, _fd_fisher(pair, float(t))):
            ok &= abs(value - 0.625) <= 1e-5 * 0.625
    notes.append("one-qubit w^2, pair 0.625")
    for n, grid in ((2, (0.3, 0.9, 1.3, 2.1)), (3, (0.3, 0.9, 1.5, 1.8))):
        model = GhzClock(omega=1.0, n_entangled=n)
        for t in grid:
            for value in (classical_fisher(model, t).value, _fd_fisher(model, t)):
                ok &= abs(value - n**2) <= 1e-5 * n**2
    notes.append("ghz n^2, analytic-vs-FD <= 1e-5")
    verdict(capsys, 1, "Fisher constants", ok, "; ".join(notes))


def test_criterion_2_crb_saturation(capsys):
    config = ExperimentConfig(
        model=OneQubitClock(omega=1.0),
        n_probes=100,
        t_grid=tuple(np.linspace(0.5, 2.6, 8)),
        trials=4000,
        seed=20260819,
    )
    ratios = [p.std_error / p.crb for p in error_curve(config).points]
    ok = all(0.85 <= r <= 1.3 for r in ratios)
    verdict(
        capsys, 2, "one-qubit spread in [0.85, 1.3] x 0.1", ok,
        f"ratios {min(ratios):.3f}..{max(ratios):.3f}",
    )


def pair_count_space(n: int) -> tuple[np.ndarray, ...]:
    """Every two-qubit tally (k1, k2, k3, k4) with k1 + k2 + k3 + k4 = n."""
    k = np.arange(n + 1)
    k1, k2, k3 = np.meshgrid(k, k, k, indexing="ij", sparse=True)
    inside = k1 + k2 + k3 <= n
    k1, k2, k3 = (np.broadcast_to(a, inside.shape)[inside] for a in (k1, k2, k3))
    return k1, k2, k3, n - k1 - k2 - k3


def combined_estimates(k1, k2, k3, k4, omega: float = 0.5):
    """combined_estimator over arrays of tallies, for Omega = 2 omega.

    Repeats the scalar estimator step by step: gcd reduction, quartic roots,
    coarse estimate, half-window branch choice with ties to the lower root.
    Returns (t_hat, defined); defined is False where the scalar estimator
    raises DegenerateCountsError (no slow-sector events, or k1 = k4 = 0).
    """
    g = np.gcd(np.gcd(k1, k2), np.gcd(k3, k4))
    k1, k2, k3, k4 = (k // g for k in (k1, k2, k3, k4))
    defined = (k3 + k4 > 0) & (k1 + k4 > 0)
    lead = 2.0 * np.maximum(k1 + k4, 1)
    a_coef = 2 * k1 + 4 * k2 + k3 + k4
    root = np.sqrt((k4 - k3) ** 2 + 8 * (k4 + k3 + 2 * k1) * k2 + 16 * k2 * k2)
    u_minus = np.sqrt(np.maximum((a_coef - root) / lead, 0.0))
    u_plus = np.sqrt((a_coef + root) / lead)
    coarse = np.where(
        k4 > 0,
        2.0 / omega * np.arctan(np.sqrt(k3 / np.maximum(k4, 1))),
        math.pi / omega,
    )
    lower = coarse <= 0.5 * math.pi / omega
    t_hat = 2.0 / omega * np.arctan(np.where(lower, u_minus, u_plus))
    return t_hat, defined


def exact_mean_estimates(n: int, grid) -> np.ndarray:
    """E_t[t_hat] of the combined estimator at n pairs, by full enumeration.

    Multinomial weights are formed in log space and renormalized over the
    count vectors with a defined estimate, as the sampled sweep drops the
    trials whose estimator raises.
    """
    tallies = pair_count_space(n)
    t_hat, defined = combined_estimates(*tallies)
    counts = np.stack(tallies)[:, defined]
    t_hat = t_hat[defined]
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    log_coef = -log_fact[counts].sum(axis=0)
    means = []
    for t in grid:
        dist = TwoQubitClock(omega=0.5, Omega=1.0).distribution(t)
        log_p = np.log([dist["1-"], dist["1+"], dist["0-"], dist["0+"]])
        log_w = log_coef + log_p @ counts
        w = np.exp(log_w - log_w.max())
        means.append(float(w @ t_hat / w.sum()))
    return np.array(means)


def test_criterion_3_combined_estimator_sweep(capsys):
    grid = tuple(np.linspace(0.3, 5.9, 15))
    # The enumeration oracle must be the production estimator: compare the
    # two on every count vector at 32 pairs, degenerate ones included.
    tallies = pair_count_space(32)
    oracle, defined = combined_estimates(*tallies)
    oracle_ok = True
    oracle_gap = 0.0
    for i, ks in enumerate(zip(*tallies)):
        try:
            report = combined_estimator(TwoQubitCounts(*map(int, ks)), 0.5, 1.0)
        except DegenerateCountsError:
            oracle_ok &= not defined[i]
            continue
        oracle_ok &= bool(defined[i])
        oracle_gap = max(oracle_gap, abs(report.t_hat - oracle[i]))
    oracle_ok &= oracle_gap <= 1e-12
    curves = {}
    exact_means = {}
    for n in (32, 128):
        config = ExperimentConfig(
            model=TwoQubitClock(omega=0.5, Omega=1.0),
            n_probes=n,
            t_grid=grid,
            trials=4000,
            seed=20260819,
            estimator=EstimatorKind.COMBINED,
        )
        curves[n] = error_curve(config).points
        exact_means[n] = exact_mean_estimates(n, grid)
    # The MLE is biased at order 1/n, so the sampled mean is held to the
    # estimator's exact expectation rather than to the true time.
    bias_hits = sum(
        1
        for p, expected in zip(curves[128], exact_means[128])
        if abs(p.mean_estimate - expected) <= 3.0 * p.std_error / math.sqrt(4000)
    )
    bias_ok = bias_hits >= 0.8 * len(grid)
    # Asymptotic efficiency: the exact bias shrinks relative to the bound.
    scaled = {
        n: np.abs(exact_means[n] - np.asarray(grid)) / np.array([p.crb for p in curves[n]])
        for n in (32, 128)
    }
    pooled = {n: float(np.sqrt(np.mean(scaled[n] ** 2))) for n in (32, 128)}
    shrink_ok = pooled[128] < pooled[32]
    worst = {
        n: f"{scaled[n].max():.2f} at t={grid[int(scaled[n].argmax())]:.1f}"
        for n in (32, 128)
    }
    plateau = (1.1, 1.5, 4.7, 5.1, 5.5)
    plateau_ok = True
    in_band = {}
    for n in (32, 128):
        floor = 1.0 / math.sqrt(n * 0.625)
        by_t = {round(p.t, 1): p.std_error / floor for p in curves[n]}
        plateau_ok &= all(0.85 <= by_t[t] <= 1.4 for t in plateau)
        in_band[n] = sum(1 for r in by_t.values() if 0.85 <= r <= 1.4)
    range_ok = in_band[128] > in_band[32]
    detail = (
        f"sampled mean within 3 sigma of exact E[t_hat] on {bias_hits}/{len(grid)} "
        f"points, need 12; exact |bias|/CRB rms n=32: {pooled[32]:.2f} > "
        f"n=128: {pooled[128]:.2f}: {shrink_ok}; max n=32: {worst[32]}, "
        f"n=128: {worst[128]}; oracle vs estimator on {len(oracle)} n=32 vectors: "
        f"{oracle_ok} (max gap {oracle_gap:.1e}); plateau band ok={plateau_ok}; "
        f"in-band points n=128: {in_band[128]} > n=32: {in_band[32]}: {range_ok}"
    )
    ok = oracle_ok and bias_ok and shrink_ok and plateau_ok and range_ok
    verdict(capsys, 3, "combined-estimator sweep", ok, detail)


def test_criterion_4_coarse_estimator_oracle(capsys):
    slow_clock = OneQubitClock(omega=0.5)
    rng = np.random.default_rng(4242)
    ok = True
    max_gap = 0.0
    for _ in range(1000):
        k_plus = int(rng.integers(1, 201))
        k_minus = int(rng.integers(1, 201))
        counts = TwoQubitCounts(0, 0, slow_minus=k_minus, slow_plus=k_plus)
        t_hat = coarse_estimator(counts, 0.5).t_hat
        oracle = mle_numeric(
            slow_clock, OneQubitCounts(k_plus + k_minus, k_minus), window=(0.0, FULL_WINDOW)
        )
        gap = abs(t_hat - oracle.t_hat)
        max_gap = max(max_gap, gap)
        ok &= gap <= 1e-6
        # The no-square-root variant only coincides at unit ratio.
        printed = 4.0 * math.atan(k_plus / k_minus)
        if k_plus == k_minus:
            ok &= abs(printed - t_hat) <= 1e-12
        else:
            ok &= abs(printed - t_hat) > 1e-3
    verdict(
        capsys, 4, "coarse estimator equals slow-sector maximizer", ok,
        f"max |gap| {max_gap:.2e} over 1000 draws; no-sqrt variant differs off ratio 1",
    )


def test_criterion_5_root_stationarity(capsys):
    rng = np.random.default_rng(5252)
    ok = True
    roots_checked = 0
    matched = 0
    for _ in range(1000):
        counts = random_pair_counts(rng)
        if counts.fast_minus + counts.slow_plus == 0:
            continue
        for root in mle_two_qubit_roots(counts):
            if abs(math.sin(0.5 * root)) < 1e-9 or abs(math.cos(0.5 * root)) < 1e-9:
                continue
            ok &= abs(_tally_score(counts.tallies, TwoQubitClock(0.5, 1.0), root)[0]) < 1e-8
            roots_checked += 1
        if counts.slow_minus + counts.slow_plus == 0:
            continue
        report = combined_estimator(counts, 0.5, 1.0)
        window = (
            (0.0, HALF_WINDOW)
            if report.branch is Branch.ROOT1
            else (HALF_WINDOW, FULL_WINDOW)
        )
        ok &= abs(report.t_hat - mle_numeric(TwoQubitClock(omega=0.5, Omega=1.0), counts, window=window).t_hat) <= 1e-6
        matched += 1
    ok &= roots_checked > 3000 and matched > 900
    verdict(
        capsys, 5, "quartic roots zero the score; combined matches numeric", ok,
        f"{roots_checked} roots within 1e-8, {matched} window matches within 1e-6",
    )


def test_criterion_6_equal_budget_comparison(capsys):
    interior = (0.9, 1.3, 1.7, 2.1, 4.1, 4.5, 4.9, 5.3)
    table = compare_resources(200, 0.5, 1.0, interior, trials=2000, seed=424242)
    strict = all(r.dt_two_qubit < r.dt_one_qubit for r in table.rows)
    crb_ratio = table.rows[0].crb_two_qubit / table.rows[0].crb_one_qubit
    ratio_ok = abs(crb_ratio - math.sqrt(0.8)) <= 1e-3
    rt_pair = recurrence_time(TwoQubitClock(omega=0.5, Omega=1.0))
    rt_slow = recurrence_time(OneQubitClock(omega=0.5))
    rt_fast = recurrence_time(OneQubitClock(omega=1.0))
    window_ok = (
        abs(rt_pair - 4.0 * math.pi) <= 5e-3
        and abs(rt_pair - rt_slow) <= 5e-3  # slow frequency sets the window
        and rt_pair > rt_fast > 0.0
        and abs(rt_fast - 2.0 * math.pi) <= 5e-3
    )
    ok = strict and ratio_ok and window_ok
    verdict(
        capsys, 6, "pair beats single qubit at equal budget and keeps 4 pi window", ok,
        f"dt strictly smaller at {len(interior)} interior times; "
        f"crb ratio {crb_ratio:.4f} vs 0.8944; windows 4pi > 2pi",
    )


def test_criterion_7_entanglement_trade_off(capsys):
    shots = 100
    ghz_config = ExperimentConfig(
        model=GhzClock(omega=1.0, n_entangled=2),
        n_probes=shots,
        t_grid=(0.7,),
        trials=2000,
        seed=31415,
    )
    one_config = ExperimentConfig(
        model=OneQubitClock(omega=1.0),
        n_probes=shots,
        t_grid=(0.7,),
        trials=2000,
        seed=31415,
    )
    dt_ghz = error_curve(ghz_config).points[0].std_error
    dt_one = error_curve(one_config).points[0].std_error
    # Each shot burns two entangled qubits carrying Fisher information 4 w^2.
    bound = 1.0 / math.sqrt(shots * 4.0)
    precision_ok = abs(dt_ghz - bound) <= 0.15 * bound
    rt_ghz = recurrence_time(GhzClock(omega=1.0, n_entangled=2))
    rt_one = recurrence_time(OneQubitClock(omega=1.0))
    halved_ok = abs(rt_ghz / rt_one - 0.5) <= 2e-3
    product_ghz = rt_ghz / dt_ghz
    product_one = rt_one / dt_one
    invariant_ok = abs(product_ghz / product_one - 1.0) <= 0.10
    ok = precision_ok and halved_ok and invariant_ok
    verdict(
        capsys, 7, "entanglement doubles precision, halves the window", ok,
        f"dt {dt_ghz:.4f} vs bound {bound:.4f}; rt ratio {rt_ghz / rt_one:.4f}; "
        f"window/dt invariant within {abs(product_ghz / product_one - 1.0):.1%}",
    )


def test_criterion_8_property_suites(capsys):
    ok = True
    # Normalization on a 1000-point grid spanning two recurrences.
    models = (
        OneQubitClock(omega=1.0),
        OneQubitClock(omega=1.0, chi=0.36),
        TwoQubitClock(omega=0.5, Omega=1.0),
        GhzClock(omega=1.0, n_entangled=3),
    )
    for model in models:
        span = recurrence_time(model) or 2.0 * math.pi / model.omega
        for t in np.linspace(0.0, 2.0 * span, 1000):
            ok &= abs(sum(model.distribution(float(t)).probs.values()) - 1.0) <= 1e-10
    # Closed forms against the state-evolution pipeline.
    rng = np.random.default_rng(88)
    for _ in range(100):
        model = (
            OneQubitClock(omega=float(rng.uniform(0.2, 3.0)), chi=float(rng.uniform(0.0, 1.0))),
            TwoQubitClock(omega=float(rng.uniform(0.2, 1.5)), Omega=float(rng.uniform(0.2, 3.0))),
            GhzClock(omega=float(rng.uniform(0.2, 3.0)), n_entangled=int(rng.integers(2, 7))),
        )[int(rng.integers(0, 3))]
        t = float(rng.uniform(0.0, 10.0))
        closed = model.distribution(t).probs
        piped = evolved_distribution(model, t).probs
        ok &= max(abs(closed[k] - piped[k]) for k in closed) <= 1e-10
    # No basis beats the quantum Fisher information.
    model = OneQubitClock(omega=1.0)
    qfi = quantum_fisher(model, 0.9).value
    step = 1e-6
    for _ in range(100):
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        basis, _ = np.linalg.qr(raw)
        probs = []
        for t in (0.9 - step, 0.9 + step):
            state = evolve(*model.probe()[:2], t)
            amps = basis.conj().T @ state
            probs.append(np.abs(amps) ** 2)
        cfi = 0.0
        for p0, p1 in zip(*probs):
            p = 0.5 * (p0 + p1)
            if p > 1e-9:
                cfi += ((p1 - p0) / (2.0 * step)) ** 2 / p
        ok &= cfi <= qfi * (1.0 + 1e-5) + 1e-9
    # Visibility bound over random eigenbases.
    for _ in range(10_000):
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        a, b = math.cos(theta), math.sin(theta)
        s = 1.0 if rng.random() < 0.5 else -1.0
        ok &= 0.0 <= OneQubitClock.from_eigenbasis(a, b, s * b, s * a, omega=1.0).chi <= 1.0
    # Results are a pure function of the configuration, and each grid cell
    # of its own index and time: a prefix of the grid reproduces its cells.
    config = ExperimentConfig(
        model=OneQubitClock(omega=1.0),
        n_probes=25,
        t_grid=(0.8, 1.6, 2.4),
        trials=40,
        seed=7,
    )
    curve = error_curve(config)
    ok &= error_curve(config) == curve
    ok &= error_curve(dataclasses.replace(config, t_grid=(0.8, 1.6))).points == curve.points[:2]
    verdict(
        capsys, 8, "property suites", ok,
        "normalization, pipeline equivalence, qfi dominance, visibility bound, determinism",
    )
