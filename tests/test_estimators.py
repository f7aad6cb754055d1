"""Time estimators against the numeric-likelihood oracle.

mle_numeric (grid scan plus golden-section refinement) is the oracle for
every closed form: the one-qubit and parity inversions, the coarse
slow-sector estimate, and the two-branch quartic roots. The batched kernels
are checked against the scalar estimators on whole count spaces.
"""

import math

import numpy as np
import pytest

from qclock import (
    Branch,
    DegenerateCountsError,
    GhzClock,
    GhzCounts,
    OneQubitClock,
    OneQubitCounts,
    TwoQubitClock,
    TwoQubitCounts,
    coarse_estimator,
    combined_estimator,
    log_likelihood,
    mle_ghz,
    mle_numeric,
    mle_one_qubit,
    mle_two_qubit_roots,
    two_qubit_distribution,
    two_qubit_score,
)
from qclock.estimators import (
    coarse_estimator_batch,
    combined_estimator_batch,
    mle_ghz_batch,
    mle_numeric_batch,
    mle_one_qubit_batch,
)

TWO_QUBIT = TwoQubitClock(omega=0.5, Omega=1.0)
HALF_WINDOW = math.pi
FULL_WINDOW = 2.0 * math.pi


def random_two_qubit_counts(rng: np.random.Generator) -> TwoQubitCounts:
    """Multinomial tallies drawn at a random true time."""
    n = int(rng.integers(4, 201))
    t = float(rng.uniform(0.05, FULL_WINDOW - 0.05))
    dist = two_qubit_distribution(0.5, 1.0, t)
    draw = rng.multinomial(n, [dist["1-"], dist["1+"], dist["0-"], dist["0+"]])
    return TwoQubitCounts(
        fast_minus=int(draw[0]), fast_plus=int(draw[1]),
        slow_minus=int(draw[2]), slow_plus=int(draw[3]),
    )


def test_mle_one_qubit_anchor_points():
    assert mle_one_qubit(OneQubitCounts(4, 0), 1.0).t_hat == 0.0
    assert mle_one_qubit(OneQubitCounts(4, 4), 1.0).t_hat == pytest.approx(math.pi)
    assert mle_one_qubit(OneQubitCounts(4, 2), 2.0).t_hat == pytest.approx(math.pi / 4)
    report = mle_one_qubit(OneQubitCounts(4, 2), 1.0)
    assert report.branch is Branch.SINGLE_WINDOW
    assert report.window == (0.0, math.pi)
    assert report.valid


def test_mle_one_qubit_partial_visibility():
    # P_- = chi sin^2(t/2): the inversion divides the fraction by chi.
    report = mle_one_qubit(OneQubitCounts(8, 2), 1.0, chi=0.5)
    assert report.t_hat == pytest.approx(2.0 * math.asin(math.sqrt(0.5)), abs=1e-12)
    assert report.valid


def test_mle_one_qubit_clip_flagged_invalid():
    # A '-' fraction above chi is impossible data; the estimate clips to the
    # window edge and is excluded from curve statistics downstream.
    report = mle_one_qubit(OneQubitCounts(4, 4), 1.0, chi=0.5)
    assert report.t_hat == pytest.approx(math.pi)
    assert not report.valid


def test_mle_one_qubit_error_cases():
    with pytest.raises(DegenerateCountsError):
        mle_one_qubit(OneQubitCounts(0, 0), 1.0)
    with pytest.raises(ValueError):
        mle_one_qubit(OneQubitCounts(4, 2), 1.0, chi=0.0)
    with pytest.raises(TypeError):
        mle_one_qubit(GhzCounts(4, 2), 1.0)


def test_mle_one_qubit_matches_numeric_oracle():
    rng = np.random.default_rng(41)
    model = OneQubitClock(omega=1.0)
    for _ in range(200):
        n = int(rng.integers(1, 101))
        k = int(rng.integers(0, n + 1))
        closed = mle_one_qubit(OneQubitCounts(n, k), 1.0)
        numeric = mle_numeric(model, OneQubitCounts(n, k))
        assert closed.t_hat == pytest.approx(numeric.t_hat, abs=1e-6)


def test_mle_ghz_anchor_and_oracle():
    report = mle_ghz(GhzCounts(4, 4), 1.0, 2)
    assert report.t_hat == pytest.approx(math.pi / 2)
    assert report.branch is Branch.GHZ_WINDOW
    assert report.window == (0.0, math.pi / 2)
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(1, 101))
        k = int(rng.integers(0, n + 1))
        for n_ent in (2, 3):
            model = GhzClock(omega=1.0, n_entangled=n_ent)
            closed = mle_ghz(GhzCounts(n, k), 1.0, n_ent)
            numeric = mle_numeric(model, GhzCounts(n, k))
            assert closed.t_hat == pytest.approx(numeric.t_hat, abs=1e-6)
    with pytest.raises(DegenerateCountsError):
        mle_ghz(GhzCounts(0, 0), 1.0, 2)


def test_two_qubit_roots_come_in_sign_pairs():
    rng = np.random.default_rng(43)
    for _ in range(200):
        counts = random_two_qubit_counts(rng)
        if counts.fast_minus + counts.slow_plus == 0:
            continue
        t1, t2, t3, t4 = mle_two_qubit_roots(counts)
        assert t2 == -t1
        assert t4 == -t3
        assert all(map(math.isfinite, (t1, t2, t3, t4)))
        # Fine root lands in the lower half-window, its partner in the upper.
        assert -1e-12 <= t1 <= HALF_WINDOW + 1e-12
        assert HALF_WINDOW - 1e-12 <= t3 <= FULL_WINDOW + 1e-12


def test_two_qubit_roots_are_stationary():
    # Every finite root must zero the log-likelihood derivative.
    rng = np.random.default_rng(44)
    checked = 0
    for _ in range(1000):
        counts = random_two_qubit_counts(rng)
        if counts.fast_minus + counts.slow_plus == 0:
            continue
        for root in mle_two_qubit_roots(counts):
            if abs(math.sin(0.5 * root)) < 1e-9 or abs(math.cos(0.5 * root)) < 1e-9:
                continue  # pole of the score expression, not an interior root
            score = two_qubit_score(counts, root)
            assert abs(score) < 1e-8, (counts, root, score)
            checked += 1
    assert checked > 3000


def test_two_qubit_roots_require_fast_minus_or_slow_plus():
    with pytest.raises(DegenerateCountsError):
        mle_two_qubit_roots(TwoQubitCounts(0, 5, 3, 0))


def test_two_qubit_roots_require_harmonic_frequencies():
    counts = TwoQubitCounts(3, 4, 5, 6)
    with pytest.raises(ValueError):
        mle_two_qubit_roots(counts, omega=0.5, Omega=1.1)
    with pytest.raises(ValueError):
        mle_two_qubit_roots(counts, omega=1.0, Omega=1.0)


def test_coarse_estimator_anchor_points():
    # Equal slow tallies sit mid-window.
    report = coarse_estimator(TwoQubitCounts(0, 0, 3, 3), 0.5)
    assert report.t_hat == pytest.approx(math.pi)
    assert report.branch is Branch.COARSE_ONLY
    # k1' = 3 (slow plus), k2' = 1 (slow minus).
    report = coarse_estimator(TwoQubitCounts(0, 0, 1, 3), 0.5)
    assert report.t_hat == pytest.approx(4.0 * math.atan(math.sqrt(1.0 / 3.0)), abs=1e-12)
    assert report.t_hat == pytest.approx(2.0 * math.pi / 3.0, abs=1e-12)
    # Empty plus tally pins the estimate to the window top by continuity.
    report = coarse_estimator(TwoQubitCounts(0, 0, 7, 0), 0.5)
    assert report.t_hat == pytest.approx(FULL_WINDOW)
    with pytest.raises(DegenerateCountsError):
        coarse_estimator(TwoQubitCounts(4, 4, 0, 0), 0.5)


def test_coarse_estimator_matches_slow_sector_mle():
    # Oracle: the slow-sector tallies are a binomial in sin^2(omega t/2),
    # i.e. the one-qubit likelihood at omega = 0.5 over [0, 2 pi].
    rng = np.random.default_rng(45)
    model = OneQubitClock(omega=0.5)
    for _ in range(300):
        kp = int(rng.integers(0, 40))
        km = int(rng.integers(0, 40))
        if kp + km == 0:
            continue
        counts = TwoQubitCounts(0, 0, km, kp)
        coarse = coarse_estimator(counts, 0.5)
        oracle = mle_numeric(model, OneQubitCounts(kp + km, km), window=(0.0, FULL_WINDOW))
        assert coarse.t_hat == pytest.approx(oracle.t_hat, abs=1e-6)


def test_coarse_estimator_printed_form_discrepancy():
    # The as-printed closed form, 4 atan(k1'/k2'), uses the raw tally ratio
    # without the square root. It only agrees with the likelihood maximizer
    # at ratio 1; elsewhere it is a different number.
    k1p, k2p = 3, 1  # slow_plus, slow_minus
    printed = 4.0 * math.atan(k1p / k2p)
    derived = coarse_estimator(TwoQubitCounts(0, 0, k2p, k1p), 0.5).t_hat
    assert abs(printed - derived) > 0.5
    assert 4.0 * math.atan(1) == pytest.approx(
        coarse_estimator(TwoQubitCounts(0, 0, 5, 5), 0.5).t_hat
    )


def test_combined_estimator_reports_branch_and_coarse():
    rng = np.random.default_rng(46)
    # Counts at true t = 1.0: coarse lands low, fine root refines it.
    dist = two_qubit_distribution(0.5, 1.0, 1.0)
    draw = rng.multinomial(200, [dist["1-"], dist["1+"], dist["0-"], dist["0+"]])
    counts = TwoQubitCounts(int(draw[0]), int(draw[1]), int(draw[2]), int(draw[3]))
    report = combined_estimator(counts, 0.5, 1.0)
    assert report.branch is Branch.ROOT1
    assert report.coarse_t is not None
    assert report.window == (0.0, FULL_WINDOW)
    crb_200 = 1.0 / math.sqrt(200 * 0.625)
    assert abs(report.t_hat - 1.0) < 3.0 * crb_200
    # And at true t = 5.0 the upper branch is selected.
    dist = two_qubit_distribution(0.5, 1.0, 5.0)
    draw = rng.multinomial(200, [dist["1-"], dist["1+"], dist["0-"], dist["0+"]])
    counts = TwoQubitCounts(int(draw[0]), int(draw[1]), int(draw[2]), int(draw[3]))
    report = combined_estimator(counts, 0.5, 1.0)
    assert report.branch is Branch.ROOT3
    assert abs(report.t_hat - 5.0) < 3.0 * crb_200


def test_combined_estimator_boundary_tie_takes_root1():
    # Equal slow tallies put the coarse estimate exactly at pi.
    counts = TwoQubitCounts(10, 10, 10, 10)
    report = combined_estimator(counts, 0.5, 1.0)
    assert report.coarse_t == pytest.approx(math.pi)
    assert report.branch is Branch.ROOT1
    # Both roots are stationary; near the boundary they agree to ~CRB scale.
    roots = mle_two_qubit_roots(counts)
    crb_40 = 1.0 / math.sqrt(40 * 0.625)
    assert abs(roots[0] - roots[2]) < 2.0 * crb_40 + 2.0 * abs(roots[0] - math.pi)


def test_combined_matches_numeric_oracle_on_branch_window():
    rng = np.random.default_rng(47)
    for _ in range(1000):
        counts = random_two_qubit_counts(rng)
        if counts.fast_minus + counts.slow_plus == 0:
            continue
        if counts.slow_minus + counts.slow_plus == 0:
            continue
        report = combined_estimator(counts, 0.5, 1.0)
        window = (
            (0.0, HALF_WINDOW) if report.branch is Branch.ROOT1
            else (HALF_WINDOW, FULL_WINDOW)
        )
        oracle = mle_numeric(TWO_QUBIT, counts, window=window)
        assert report.t_hat == pytest.approx(oracle.t_hat, abs=1e-6), counts


def test_estimates_stay_inside_window():
    rng = np.random.default_rng(48)
    for _ in range(300):
        counts = random_two_qubit_counts(rng)
        if counts.fast_minus + counts.slow_plus == 0:
            continue
        if counts.slow_minus + counts.slow_plus == 0:
            continue
        report = combined_estimator(counts, 0.5, 1.0)
        if report.valid:
            assert report.window[0] - 1e-12 <= report.t_hat <= report.window[1] + 1e-12


def test_exact_scale_invariance():
    # Scaling every tally by an integer must not move any estimator by an ulp.
    base_two = TwoQubitCounts(3, 7, 2, 9)
    base_one = OneQubitCounts(12, 5)
    base_ghz = GhzCounts(9, 4)
    for factor in (2, 3, 7, 40):
        scaled = TwoQubitCounts(3 * factor, 7 * factor, 2 * factor, 9 * factor)
        assert combined_estimator(scaled, 0.5, 1.0) == combined_estimator(base_two, 0.5, 1.0)
        assert mle_two_qubit_roots(scaled) == mle_two_qubit_roots(base_two)
        assert (
            coarse_estimator(scaled, 0.5).t_hat == coarse_estimator(base_two, 0.5).t_hat
        )
        assert (
            mle_numeric(TWO_QUBIT, scaled).t_hat == mle_numeric(TWO_QUBIT, base_two).t_hat
        )
        one_scaled = OneQubitCounts(12 * factor, 5 * factor)
        assert mle_one_qubit(one_scaled, 1.0) == mle_one_qubit(base_one, 1.0)
        ghz_scaled = GhzCounts(9 * factor, 4 * factor)
        assert mle_ghz(ghz_scaled, 1.0, 2) == mle_ghz(base_ghz, 1.0, 2)


def test_mle_numeric_anchor_points():
    numeric = mle_numeric(OneQubitClock(omega=1.0), OneQubitCounts(10, 5), window=(0.0, math.pi))
    assert numeric.t_hat == pytest.approx(math.pi / 2, abs=1e-8)
    # Counts all in the slow-plus sector: likelihood peaks at t = 0.
    all_plus = TwoQubitCounts(0, 0, 0, 12)
    assert mle_numeric(TWO_QUBIT, all_plus, window=(0.0, math.pi)).t_hat == pytest.approx(
        0.0, abs=1e-8
    )


def test_mle_numeric_flat_likelihood_flagged():
    # chi = 0 statistics are time-independent: midpoint, invalid.
    flat = mle_numeric(OneQubitClock(omega=1.0, chi=0.0), OneQubitCounts(4, 2))
    assert flat.t_hat == pytest.approx(math.pi / 2)
    assert not flat.valid
    # No data at all is equally flat.
    empty = mle_numeric(OneQubitClock(omega=1.0), OneQubitCounts(0, 0))
    assert not empty.valid


def test_mle_numeric_validation():
    with pytest.raises(ValueError):
        mle_numeric(TWO_QUBIT, TwoQubitCounts(1, 1, 1, 1), window=(1.0, 1.0))
    with pytest.raises(ValueError):
        mle_numeric(TWO_QUBIT, TwoQubitCounts(1, 1, 1, 1), grid_points=2)


def test_log_likelihood_vectorized_and_consistent():
    counts = TwoQubitCounts(3, 7, 2, 9)
    ts = np.linspace(0.1, 6.0, 7)
    vec = log_likelihood(TWO_QUBIT, counts, ts)
    assert vec.shape == ts.shape
    for i, t in enumerate(ts):
        assert vec[i] == pytest.approx(float(log_likelihood(TWO_QUBIT, counts, float(t))))
    # Monotone transform sanity: likelihood at the MLE beats nearby times.
    best = mle_numeric(TWO_QUBIT, counts).t_hat
    ll_best = float(log_likelihood(TWO_QUBIT, counts, best))
    assert ll_best >= float(log_likelihood(TWO_QUBIT, counts, best + 0.05))
    assert ll_best >= float(log_likelihood(TWO_QUBIT, counts, best - 0.05))


def test_log_likelihood_rejects_non_finite_time():
    counts = TwoQubitCounts(3, 7, 2, 9)
    for t in (float("nan"), float("inf"), np.float64("nan"), np.array(float("nan"))):
        with pytest.raises(ValueError, match="finite"):
            log_likelihood(TWO_QUBIT, counts, t)


def test_two_qubit_score_accepts_arrays():
    counts = TwoQubitCounts(3, 7, 2, 9)
    ts = np.array([0.5, 1.5, 2.5])
    values = two_qubit_score(counts, ts)
    assert values.shape == ts.shape
    for i, t in enumerate(ts):
        assert values[i] == pytest.approx(two_qubit_score(counts, float(t)))


def count_space(n: int, k: int) -> np.ndarray:
    """Every row of k non-negative tallies that sums to n."""
    axes = np.meshgrid(*[np.arange(n + 1)] * (k - 1), indexing="ij")
    head = np.stack(axes, axis=-1).reshape(-1, k - 1)
    head = head[head.sum(axis=1) <= n]
    return np.column_stack([head, n - head.sum(axis=1)])


def count_spaces(k: int, ns) -> np.ndarray:
    return np.concatenate([count_space(n, k) for n in ns])


def as_counts(model, row):
    if isinstance(model, OneQubitClock):
        return OneQubitCounts(int(row.sum()), int(row[0]))
    if isinstance(model, GhzClock):
        return GhzCounts(int(row.sum()), int(row[0]))
    return TwoQubitCounts(*map(int, row))


def kernel_mismatches(model, rows, batch, scalar, close):
    """Rows where a kernel's (t_hat, valid) disagrees with the scalar report.

    A row on which the scalar estimator raises DegenerateCountsError must
    come back as t_hat NaN and invalid.
    """
    bad = []
    for row, t, ok in zip(rows, *batch):
        try:
            report = scalar(as_counts(model, row))
        except DegenerateCountsError:
            if not (math.isnan(t) and not ok):
                bad.append((tuple(row), t, "degenerate"))
            continue
        if math.isnan(t) or bool(ok) != report.valid or not close(model, row, t, report.t_hat):
            bad.append((tuple(row), t, report.t_hat, bool(ok), report.valid))
    return bad


def closed_form_close(model, row, got, expected):
    return abs(got - expected) <= 1e-12


def numeric_close(model, row, got, expected):
    # Within 1e-6, or at least as likely: the likelihood can be flat near
    # the window edges.
    if abs(got - expected) <= 1e-6:
        return True
    counts = as_counts(model, row)
    ll_got = log_likelihood(model, counts, got)
    ll_expected = log_likelihood(model, counts, expected)
    return ll_got >= ll_expected - 1e-9 * max(1.0, abs(ll_expected))


ONE_QUBIT_PARTIAL = (OneQubitClock(omega=1.0, chi=0.3), OneQubitClock(omega=1.3, chi=0.75))
GHZ_CLOCKS = (GhzClock(omega=1.0, n_entangled=2), GhzClock(omega=0.7, n_entangled=3))


@pytest.mark.parametrize(
    "model, rows, kernel, scalar",
    [
        (
            TWO_QUBIT,
            count_spaces(4, range(1, 33)),
            lambda m, rows: combined_estimator_batch(rows, m.omega, m.Omega),
            lambda m, c: combined_estimator(c, m.omega, m.Omega),
        ),
        (
            TWO_QUBIT,
            count_spaces(4, range(1, 33)),
            lambda m, rows: coarse_estimator_batch(rows, m.omega),
            lambda m, c: coarse_estimator(c, m.omega),
        ),
        *[
            (
                model,
                count_spaces(2, range(0, 33)),
                lambda m, rows: mle_one_qubit_batch(rows, m.omega, m.chi),
                lambda m, c: mle_one_qubit(c, m.omega, m.chi),
            )
            for model in ONE_QUBIT_PARTIAL
        ],
        *[
            (
                model,
                count_spaces(2, range(0, 33)),
                lambda m, rows: mle_ghz_batch(rows, m.omega, m.n_entangled),
                lambda m, c: mle_ghz(c, m.omega, m.n_entangled),
            )
            for model in GHZ_CLOCKS
        ],
    ],
    ids=["combined", "coarse", "one-qubit-chi0.3", "one-qubit-chi0.75", "ghz2", "ghz3"],
)
def test_closed_form_kernels_match_scalar_on_count_spaces(model, rows, kernel, scalar):
    # Degenerate rows are part of each space: n = 0, no slow-sector events,
    # k1 = k4 = 0, and (for chi < 1) clipped fractions flagged invalid.
    bad = kernel_mismatches(
        model, rows, kernel(model, rows), lambda c: scalar(model, c), closed_form_close
    )
    assert not bad, f"{len(bad)} of {len(rows)} rows differ, e.g. {bad[:3]}"


@pytest.mark.parametrize(
    "model, rows",
    [
        (TwoQubitClock(omega=0.5, Omega=1.3), count_space(32, 4)),
        (TWO_QUBIT, count_spaces(4, range(1, 9))),
        *[(model, count_spaces(2, range(1, 33))) for model in ONE_QUBIT_PARTIAL],
        (OneQubitClock(omega=1.0, chi=0.0), count_spaces(2, range(0, 5))),
        *[(model, count_spaces(2, range(1, 33))) for model in GHZ_CLOCKS],
    ],
    ids=["two-qubit-2.6", "two-qubit-harmonic", "one-qubit-chi0.3", "one-qubit-chi0.75",
         "one-qubit-chi0", "ghz2", "ghz3"],
)
def test_numeric_kernel_matches_mle_numeric_on_count_spaces(model, rows):
    bad = kernel_mismatches(
        model, rows, mle_numeric_batch(model, rows), lambda c: mle_numeric(model, c), numeric_close
    )
    assert not bad, f"{len(bad)} of {len(rows)} rows differ, e.g. {bad[:3]}"


def test_kernels_reject_what_the_scalar_estimators_reject():
    rows = np.array([[1, 2, 3, 4]])
    with pytest.raises(ValueError):
        combined_estimator_batch(rows, 0.5, 1.3)
    with pytest.raises(ValueError):
        coarse_estimator_batch(rows, 0.0)
    with pytest.raises(ValueError):
        mle_one_qubit_batch(np.array([[1, 2]]), 1.0, chi=0.0)
    with pytest.raises(ValueError):
        mle_numeric_batch(TWO_QUBIT, np.array([1, 2, 3, 4]))
