"""Time estimators against the numeric-likelihood oracle.

mle_numeric (grid scan plus Newton refinement on the closed-form score) is
the oracle for every closed form: the single-pair inversion (one qubit and
GHZ parity), the coarse slow-sector estimate, and the two-branch quartic
roots. Each public estimator, called with the clock and the counts, must be
what the estimator resolver binds for that clock. The batched kernels are
checked against the scalar estimators on whole count spaces,
the numeric kernel's certified product against a product that rounds
differently on purpose, the lock-step refinement against its rule written
out for one row, and the Newton estimates against the golden-section search
they replaced. The class-by-class likelihood sum is checked byte for byte
against the stacked sum it replaced, and mle_numeric against a pinned
battery of its exact estimates.
"""

import math
import warnings

import numpy as np
import pytest

from qclock import (
    Branch,
    DegenerateCountsError,
    EstimatorKind,
    GhzClock,
    GhzCounts,
    OneQubitClock,
    OneQubitCounts,
    Tallies,
    TwoQubitClock,
    TwoQubitCounts,
    apply_estimator,
    coarse_estimator,
    combined_estimator,
    log_likelihood,
    mle_numeric,
    mle_single_pair,
    mle_two_qubit_roots,
)
from qclock import estimators
from qclock.estimators import (
    GRID_POINTS,
    REFINE_TOL,
    _newton_max,
    _newton_max_batch,
    _tally_log_likelihood,
    _tally_score,
    coarse_estimator_batch,
    combined_estimator_batch,
    mle_numeric_batch,
    mle_single_pair_batch,
)
from qclock.montecarlo import ConfigError, _estimators_for, sample_counts

TWO_QUBIT = TwoQubitClock(omega=0.5, Omega=1.0)
HALF_WINDOW = math.pi
FULL_WINDOW = 2.0 * math.pi


def random_two_qubit_counts(rng: np.random.Generator) -> TwoQubitCounts:
    """Multinomial tallies drawn at a random true time."""
    n = int(rng.integers(4, 201))
    t = float(rng.uniform(0.05, FULL_WINDOW - 0.05))
    dist = TwoQubitClock(omega=0.5, Omega=1.0).distribution(t)
    draw = rng.multinomial(n, [dist["1-"], dist["1+"], dist["0-"], dist["0+"]])
    return TwoQubitCounts(
        fast_minus=int(draw[0]), fast_plus=int(draw[1]),
        slow_minus=int(draw[2]), slow_plus=int(draw[3]),
    )


ONE_QUBIT = OneQubitClock(omega=1.0)


def test_mle_one_qubit_anchor_points():
    assert mle_single_pair(ONE_QUBIT, OneQubitCounts(4, 0)).t_hat == 0.0
    assert mle_single_pair(ONE_QUBIT, OneQubitCounts(4, 4)).t_hat == pytest.approx(math.pi)
    report = mle_single_pair(OneQubitClock(omega=2.0), OneQubitCounts(4, 2))
    assert report.t_hat == pytest.approx(math.pi / 4)
    report = mle_single_pair(ONE_QUBIT, OneQubitCounts(4, 2))
    assert report.branch is Branch.SINGLE_WINDOW
    assert report.window == (0.0, math.pi)
    assert report.valid


def test_mle_one_qubit_partial_visibility():
    # P_- = chi sin^2(t/2): the inversion divides the fraction by chi.
    report = mle_single_pair(OneQubitClock(omega=1.0, chi=0.5), OneQubitCounts(8, 2))
    assert report.t_hat == pytest.approx(2.0 * math.asin(math.sqrt(0.5)), abs=1e-12)
    assert report.valid


def test_mle_one_qubit_clip_flagged_invalid():
    # A '-' fraction above chi is impossible data; the estimate clips to the
    # window edge and is excluded from curve statistics downstream.
    report = mle_single_pair(OneQubitClock(omega=1.0, chi=0.5), OneQubitCounts(4, 4))
    assert report.t_hat == pytest.approx(math.pi)
    assert not report.valid


def test_mle_one_qubit_error_cases():
    with pytest.raises(DegenerateCountsError):
        mle_single_pair(ONE_QUBIT, OneQubitCounts(0, 0))
    with pytest.raises(ValueError, match="chi = 0"):
        mle_single_pair(OneQubitClock(omega=1.0, chi=0.0), OneQubitCounts(4, 2))
    # Counts carry no design: GHZ parity tallies of the one-qubit width are
    # read in the one-qubit clock's class order.
    assert mle_single_pair(ONE_QUBIT, GhzCounts(4, 2)) == mle_single_pair(
        ONE_QUBIT, OneQubitCounts(4, 2)
    )


def test_mle_one_qubit_matches_numeric_oracle():
    rng = np.random.default_rng(41)
    model = OneQubitClock(omega=1.0)
    for _ in range(200):
        n = int(rng.integers(1, 101))
        k = int(rng.integers(0, n + 1))
        closed = mle_single_pair(model, OneQubitCounts(n, k))
        numeric = mle_numeric(model, OneQubitCounts(n, k))
        assert closed.t_hat == pytest.approx(numeric.t_hat, abs=1e-6)


def test_mle_ghz_anchor_and_oracle():
    report = mle_single_pair(GhzClock(omega=1.0, n_entangled=2), GhzCounts(4, 4))
    assert report.t_hat == pytest.approx(math.pi / 2)
    assert report.branch is Branch.GHZ_WINDOW
    assert report.window == (0.0, math.pi / 2)
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(1, 101))
        k = int(rng.integers(0, n + 1))
        for n_ent in (2, 3):
            model = GhzClock(omega=1.0, n_entangled=n_ent)
            closed = mle_single_pair(model, GhzCounts(n, k))
            numeric = mle_numeric(model, GhzCounts(n, k))
            assert closed.t_hat == pytest.approx(numeric.t_hat, abs=1e-6)
    with pytest.raises(DegenerateCountsError):
        mle_single_pair(GhzClock(omega=1.0, n_entangled=2), GhzCounts(0, 0))


def test_two_qubit_roots_come_in_sign_pairs():
    rng = np.random.default_rng(43)
    for _ in range(200):
        counts = random_two_qubit_counts(rng)
        if counts[0] + counts[3] == 0:
            continue
        t1, t2, t3, t4 = mle_two_qubit_roots(TWO_QUBIT, counts)
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
        if counts[0] + counts[3] == 0:
            continue
        for root in mle_two_qubit_roots(TWO_QUBIT, counts):
            if abs(math.sin(0.5 * root)) < 1e-9 or abs(math.cos(0.5 * root)) < 1e-9:
                continue  # pole of the score expression, not an interior root
            score, _ = _tally_score(counts, TWO_QUBIT, root)
            assert abs(score) < 1e-8, (counts, root, score)
            checked += 1
    assert checked > 3000


def test_two_qubit_roots_require_fast_minus_or_slow_plus():
    with pytest.raises(DegenerateCountsError):
        mle_two_qubit_roots(TWO_QUBIT, TwoQubitCounts(0, 5, 3, 0))


def test_two_qubit_roots_require_harmonic_frequencies():
    counts = TwoQubitCounts(3, 4, 5, 6)
    with pytest.raises(ValueError):
        mle_two_qubit_roots(TwoQubitClock(omega=0.5, Omega=1.1), counts)
    with pytest.raises(ValueError):
        mle_two_qubit_roots(TwoQubitClock(omega=1.0, Omega=1.0), counts)


def test_coarse_estimator_anchor_points():
    # Equal slow tallies sit mid-window.
    report = coarse_estimator(TWO_QUBIT, TwoQubitCounts(0, 0, 3, 3))
    assert report.t_hat == pytest.approx(math.pi)
    assert report.branch is Branch.COARSE_ONLY
    # k1' = 3 (slow plus), k2' = 1 (slow minus).
    report = coarse_estimator(TWO_QUBIT, TwoQubitCounts(0, 0, 1, 3))
    assert report.t_hat == pytest.approx(4.0 * math.atan(math.sqrt(1.0 / 3.0)), abs=1e-12)
    assert report.t_hat == pytest.approx(2.0 * math.pi / 3.0, abs=1e-12)
    # Empty plus tally pins the estimate to the window top by continuity.
    report = coarse_estimator(TWO_QUBIT, TwoQubitCounts(0, 0, 7, 0))
    assert report.t_hat == pytest.approx(FULL_WINDOW)
    with pytest.raises(DegenerateCountsError):
        coarse_estimator(TWO_QUBIT, TwoQubitCounts(4, 4, 0, 0))


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
        coarse = coarse_estimator(TWO_QUBIT, counts)
        oracle = mle_numeric(model, OneQubitCounts(kp + km, km), window=(0.0, FULL_WINDOW))
        assert coarse.t_hat == pytest.approx(oracle.t_hat, abs=1e-6)


def test_coarse_estimator_printed_form_discrepancy():
    # The as-printed closed form, 4 atan(k1'/k2'), uses the raw tally ratio
    # without the square root. It only agrees with the likelihood maximizer
    # at ratio 1; elsewhere it is a different number.
    k1p, k2p = 3, 1  # slow_plus, slow_minus
    printed = 4.0 * math.atan(k1p / k2p)
    derived = coarse_estimator(TWO_QUBIT, TwoQubitCounts(0, 0, k2p, k1p)).t_hat
    assert abs(printed - derived) > 0.5
    assert 4.0 * math.atan(1) == pytest.approx(
        coarse_estimator(TWO_QUBIT, TwoQubitCounts(0, 0, 5, 5)).t_hat
    )


def test_combined_estimator_reports_branch_and_coarse():
    rng = np.random.default_rng(46)
    # Counts at true t = 1.0: coarse lands low, fine root refines it.
    dist = TwoQubitClock(omega=0.5, Omega=1.0).distribution(1.0)
    draw = rng.multinomial(200, [dist["1-"], dist["1+"], dist["0-"], dist["0+"]])
    counts = TwoQubitCounts(int(draw[0]), int(draw[1]), int(draw[2]), int(draw[3]))
    report = combined_estimator(TWO_QUBIT, counts)
    assert report.branch is Branch.ROOT1
    assert report.coarse_t is not None
    assert report.window == (0.0, FULL_WINDOW)
    crb_200 = 1.0 / math.sqrt(200 * 0.625)
    assert abs(report.t_hat - 1.0) < 3.0 * crb_200
    # And at true t = 5.0 the upper branch is selected.
    dist = TwoQubitClock(omega=0.5, Omega=1.0).distribution(5.0)
    draw = rng.multinomial(200, [dist["1-"], dist["1+"], dist["0-"], dist["0+"]])
    counts = TwoQubitCounts(int(draw[0]), int(draw[1]), int(draw[2]), int(draw[3]))
    report = combined_estimator(TWO_QUBIT, counts)
    assert report.branch is Branch.ROOT3
    assert abs(report.t_hat - 5.0) < 3.0 * crb_200


def test_combined_estimator_boundary_tie_takes_root1():
    # Equal slow tallies put the coarse estimate exactly at pi.
    counts = TwoQubitCounts(10, 10, 10, 10)
    report = combined_estimator(TWO_QUBIT, counts)
    assert report.coarse_t == pytest.approx(math.pi)
    assert report.branch is Branch.ROOT1
    # Both roots are stationary; near the boundary they agree to ~CRB scale.
    roots = mle_two_qubit_roots(TWO_QUBIT, counts)
    crb_40 = 1.0 / math.sqrt(40 * 0.625)
    assert abs(roots[0] - roots[2]) < 2.0 * crb_40 + 2.0 * abs(roots[0] - math.pi)


def test_combined_matches_numeric_oracle_on_branch_window():
    rng = np.random.default_rng(47)
    for _ in range(1000):
        counts = random_two_qubit_counts(rng)
        if counts[0] + counts[3] == 0:
            continue
        if counts[2] + counts[3] == 0:
            continue
        report = combined_estimator(TWO_QUBIT, counts)
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
        if counts[0] + counts[3] == 0:
            continue
        if counts[2] + counts[3] == 0:
            continue
        report = combined_estimator(TWO_QUBIT, counts)
        if report.valid:
            assert report.window[0] - 1e-12 <= report.t_hat <= report.window[1] + 1e-12


def test_exact_scale_invariance():
    # Scaling every tally by an integer must not move any estimator by an ulp.
    # A factor past 2**53 holds the coarse estimator's one division of ints,
    # taken without a gcd, and every other estimator's gcd reduction.
    base_two = TwoQubitCounts(3, 7, 2, 9)
    base_one = OneQubitCounts(12, 5)
    base_ghz = GhzCounts(9, 4)
    for factor in (2, 3, 7, 40, 2**60 + 1):
        scaled = TwoQubitCounts(3 * factor, 7 * factor, 2 * factor, 9 * factor)
        assert combined_estimator(TWO_QUBIT, scaled) == combined_estimator(TWO_QUBIT, base_two)
        assert mle_two_qubit_roots(TWO_QUBIT, scaled) == mle_two_qubit_roots(TWO_QUBIT, base_two)
        assert (
            coarse_estimator(TWO_QUBIT, scaled).t_hat == coarse_estimator(TWO_QUBIT, base_two).t_hat
        )
        assert (
            mle_numeric(TWO_QUBIT, scaled).t_hat == mle_numeric(TWO_QUBIT, base_two).t_hat
        )
        one_scaled = OneQubitCounts(12 * factor, 5 * factor)
        assert mle_single_pair(ONE_QUBIT, one_scaled) == mle_single_pair(ONE_QUBIT, base_one)
        assert mle_numeric(ONE_QUBIT, one_scaled) == mle_numeric(ONE_QUBIT, base_one)
        ghz_scaled = GhzCounts(9 * factor, 4 * factor)
        ghz = GhzClock(omega=1.0, n_entangled=2)
        assert mle_single_pair(ghz, ghz_scaled) == mle_single_pair(ghz, base_ghz)
        assert mle_numeric(ghz, ghz_scaled) == mle_numeric(ghz, base_ghz)
    # A zero tally: gcd(0, k) = k, so an all-plus record is one probe's.
    scaled, base = OneQubitCounts(6, 0), OneQubitCounts(1, 0)
    assert mle_single_pair(ONE_QUBIT, scaled) == mle_single_pair(ONE_QUBIT, base)
    assert mle_numeric(ONE_QUBIT, scaled) == mle_numeric(ONE_QUBIT, base)
    scaled, base = TwoQubitCounts(0, 4, 0, 6), TwoQubitCounts(0, 2, 0, 3)
    assert combined_estimator(TWO_QUBIT, scaled) == combined_estimator(TWO_QUBIT, base)
    assert mle_two_qubit_roots(TWO_QUBIT, scaled) == mle_two_qubit_roots(TWO_QUBIT, base)
    assert coarse_estimator(TWO_QUBIT, scaled) == coarse_estimator(TWO_QUBIT, base)
    assert mle_numeric(TWO_QUBIT, scaled) == mle_numeric(TWO_QUBIT, base)


@pytest.mark.parametrize(
    "model, base",
    [
        (ONE_QUBIT, OneQubitCounts(12, 5)),
        (TWO_QUBIT, TwoQubitCounts(3, 7, 2, 9)),
        (GhzClock(omega=1.0, n_entangled=2), GhzCounts(9, 4)),
    ],
    ids=["one-qubit", "two-qubit", "ghz"],
)
def test_log_likelihood_is_not_reduced(model, base):
    # The log-likelihood is defined up to count-only constants, but its
    # tallies are the counts as given: scaling them scales it.
    ts = np.linspace(0.1, model.window_top - 0.1, 9)
    for factor in (2, 3):
        scaled = Tallies([factor * k for k in base])
        expected = factor * log_likelihood(model, base, ts)
        np.testing.assert_allclose(log_likelihood(model, scaled, ts), expected, rtol=1e-12)
        assert log_likelihood(model, scaled, 1.0) == pytest.approx(
            factor * log_likelihood(model, base, 1.0), rel=1e-12
        )


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
    model = TwoQubitClock(omega=0.5, Omega=1.3)
    for window in ((0.0, math.inf), (-math.inf, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            mle_numeric(model, TwoQubitCounts(3, 4, 5, 6), window=window)


PINNED_CLOCKS = {
    "one-qubit": ONE_QUBIT,
    "one-qubit-chi0.6": OneQubitClock(omega=1.0, chi=0.6),
    "one-qubit-chi0": OneQubitClock(omega=1.0, chi=0.0),
    "two-qubit": TWO_QUBIT,
    "two-qubit-2.6": TwoQubitClock(omega=0.5, Omega=1.3),
    "ghz2": GhzClock(omega=1.0, n_entangled=2),
    "ghz5": GhzClock(omega=0.7, n_entangled=5),
}
# mle_numeric's exact output, recorded when its grid stage still stacked the
# terms k log p and added them with np.add.reduce: (clock, tallies, valid,
# then t_hat.hex() on the default window [0, top], on [0, top / 2] and on
# [top / 2, top]). The rows hold n = 0, zero tallies, counts impossible at a
# window edge ((5, 0) at t = 0, (0, 7) at the top of a chi = 1 window), flat
# likelihoods (chi = 0), exactly tied grid maxima that the first index wins
# ((1, 1, 0, 0) on the harmonic clock, at pi / 2 and 3 pi / 2) and rescaled
# counts ((36, 15), (12, 28, 8, 36) and (14, 4) are multiples of earlier rows).
PINNED_NUMERIC = [
    ("one-qubit", (0, 0), False,
     "0x1.921fb54442d18p+0", "0x1.921fb54442d18p-1", "0x1.2d97c7f3321d2p+1"),
    ("one-qubit", (5, 0), True,
     "0x1.921fb54442d18p+1", "0x1.921fb54442d18p+0", "0x1.921fb54442d18p+1"),
    ("one-qubit", (0, 7), True,
     "0x0.0p+0", "0x0.0p+0", "0x1.921fb54442d18p+0"),
    ("one-qubit", (3, 7), True,
     "0x1.28c68a40a5e8cp+0", "0x1.28c68a40a5e8bp+0", "0x1.921fb54442d18p+0"),
    ("one-qubit", (12, 5), True,
     "0x1.fec483136d7ecp+0", "0x1.921fb54442d18p+0", "0x1.fec483136d7ecp+0"),
    ("one-qubit", (36, 15), True,
     "0x1.fec483136d7ecp+0", "0x1.921fb54442d18p+0", "0x1.fec483136d7ecp+0"),
    ("one-qubit-chi0.6", (0, 7), True,
     "0x0.0p+0", "0x0.0p+0", "0x1.921fb54442d18p+0"),
    ("one-qubit-chi0.6", (3, 7), True,
     "0x1.921fb54442d19p+0", "0x1.921fb54442d18p+0", "0x1.921fb54442d19p+0"),
    ("one-qubit-chi0.6", (7, 2), True,
     "0x1.921fb54442d18p+1", "0x1.921fb54442d18p+0", "0x1.921fb54442d18p+1"),
    ("one-qubit-chi0", (5, 0), False,
     "0x1.921fb54442d18p+0", "0x1.921fb54442d18p-1", "0x1.2d97c7f3321d2p+1"),
    ("one-qubit-chi0", (0, 7), False,
     "0x1.921fb54442d18p+0", "0x1.921fb54442d18p-1", "0x1.2d97c7f3321d2p+1"),
    ("two-qubit", (0, 0, 0, 0), False,
     "0x1.921fb54442d18p+1", "0x1.921fb54442d18p+0", "0x1.2d97c7f3321d2p+2"),
    ("two-qubit", (0, 0, 0, 12), True,
     "0x0.0p+0", "0x0.0p+0", "0x1.921fb54442d18p+1"),
    ("two-qubit", (0, 5, 0, 4), True,
     "0x0.0p+0", "0x0.0p+0", "0x1.2ee62bef09ff1p+2"),
    ("two-qubit", (1, 1, 0, 0), True,
     "0x1.921fb54442d19p+0", "0x1.921fb54442d19p+0", "0x1.2d97c7f3321d2p+2"),
    ("two-qubit", (1, 0, 6, 2), True,
     "0x1.fb78e047dfba5p+1", "0x1.921fb54442d18p+1", "0x1.fb78e047dfba5p+1"),
    ("two-qubit", (3, 4, 5, 6), True,
     "0x1.e3a72abbabc25p+0", "0x1.e3a72abbabc24p+0", "0x1.12ff971b321d0p+2"),
    ("two-qubit", (3, 7, 2, 9), True,
     "0x1.4e4522420fd78p+0", "0x1.4e4522420fd79p+0", "0x1.167781a0c4593p+2"),
    ("two-qubit", (10, 5, 17, 0), True,
     "0x1.2821b89861cc4p+2", "0x1.4031c9c9c755bp+1", "0x1.2821b89861cc4p+2"),
    ("two-qubit", (12, 28, 8, 36), True,
     "0x1.4e4522420fd78p+0", "0x1.4e4522420fd79p+0", "0x1.167781a0c4593p+2"),
    ("two-qubit-2.6", (0, 0, 0, 0), False,
     "0x1.921fb54442d18p+1", "0x1.921fb54442d18p+0", "0x1.2d97c7f3321d2p+2"),
    ("two-qubit-2.6", (0, 0, 0, 12), True,
     "0x0.0p+0", "0x0.0p+0", "0x1.921fb54442d18p+1"),
    ("two-qubit-2.6", (0, 5, 0, 4), True,
     "0x0.0p+0", "0x0.0p+0", "0x1.06f559704b771p+2"),
    ("two-qubit-2.6", (1, 1, 0, 0), True,
     "0x1.82a855adf17abp+2", "0x1.355377be5ac89p+0", "0x1.82a855adf17abp+2"),
    ("two-qubit-2.6", (1, 0, 6, 2), True,
     "0x1.c7b467e00654cp+1", "0x1.921fb54442d18p+1", "0x1.c7b467e00654cp+1"),
    ("two-qubit-2.6", (3, 4, 5, 6), True,
     "0x1.cb11d60faa6a7p+1", "0x1.921fb54442d18p+1", "0x1.cb11d60faa6a7p+1"),
    ("two-qubit-2.6", (3, 7, 2, 9), True,
     "0x1.0bc27d0e8c68ap+0", "0x1.0bc27d0e8c68ap+0", "0x1.d181838252dddp+1"),
    ("two-qubit-2.6", (10, 5, 17, 0), True,
     "0x1.921fb54442d18p+2", "0x1.921fb54442d18p+1", "0x1.921fb54442d18p+2"),
    ("two-qubit-2.6", (12, 28, 8, 36), True,
     "0x1.0bc27d0e8c68ap+0", "0x1.0bc27d0e8c68ap+0", "0x1.d181838252dddp+1"),
    ("ghz2", (5, 0), True,
     "0x1.921fb54442d18p+0", "0x1.921fb54442d18p-1", "0x1.921fb54442d18p+0"),
    ("ghz2", (0, 7), True,
     "0x0.0p+0", "0x0.0p+0", "0x1.921fb54442d18p-1"),
    ("ghz2", (3, 7), True,
     "0x1.28c68a40a5e8cp-1", "0x1.28c68a40a5e8bp-1", "0x1.921fb54442d18p-1"),
    ("ghz2", (12, 5), True,
     "0x1.fec483136d7ecp-1", "0x1.921fb54442d18p-1", "0x1.fec483136d7ecp-1"),
    ("ghz5", (0, 0), False,
     "0x1.cb91f3bbba140p-2", "0x1.cb91f3bbba140p-3", "0x1.58ad76cccb8f0p-1"),
    ("ghz5", (3, 7), True,
     "0x1.532c0bb79909fp-2", "0x1.532c0bb79909fp-2", "0x1.cb91f3bbba140p-2"),
    ("ghz5", (7, 2), True,
     "0x1.3bf3ae5586bccp-1", "0x1.cb91f3bbba140p-2", "0x1.3bf3ae5586bccp-1"),
    ("ghz5", (14, 4), True,
     "0x1.3bf3ae5586bccp-1", "0x1.cb91f3bbba140p-2", "0x1.3bf3ae5586bccp-1"),
]


def test_mle_numeric_pinned_battery():
    # Bit for bit: a change to how the likelihood is summed, maximized or
    # refined that moves an estimate by one ulp fails here.
    for name, tallies, valid, *pins in PINNED_NUMERIC:
        model = PINNED_CLOCKS[name]
        top = model.window_top
        counts = Tallies(tallies)
        for window, pin in zip((None, (0.0, 0.5 * top), (0.5 * top, top)), pins):
            report = mle_numeric(model, counts, window=window)
            assert (report.t_hat.hex(), report.valid) == (pin, valid), (name, tallies, window)
    # The kernel reproduces the default-window pins row for row.
    for name, model in PINNED_CLOCKS.items():
        pinned = [(tallies, valid, pin) for n, tallies, valid, pin, *_ in PINNED_NUMERIC if n == name]
        t_hat, valid = mle_numeric_batch(model, np.array([tallies for tallies, _, _ in pinned]))
        got = [(t.hex(), bool(ok)) for t, ok in zip(t_hat, valid)]
        assert got == [(pin, ok) for _, ok, pin in pinned], name


def stacked_log_likelihood(tallies: np.ndarray, probs) -> np.ndarray:
    """The grid sum before it went class by class, kept as an oracle: every
    term k log p in one stacked table, zeroed where k = 0, then one
    np.add.reduce over the tally axis.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = tallies * np.log(np.array(probs))
    return np.add.reduce(np.where(tallies > 0, terms, 0.0))


def test_class_by_class_sum_equals_stacked_sum_byte_for_byte():
    # Tallies as a count vector holds them. The spaces hold zero tallies and
    # the all-zero row, and the grid's ends hold p = 0: at t = 0 for every
    # clock's first class, at the top for a chi = 1 clock's second.
    clocks = [
        (TWO_QUBIT, count_spaces(4, range(0, 5))),
        (TwoQubitClock(omega=0.5, Omega=1.3), count_spaces(4, range(0, 5))),
        (ONE_QUBIT, count_spaces(2, range(0, 6))),
        (OneQubitClock(omega=1.0, chi=0.0), count_spaces(2, range(0, 6))),
        (GhzClock(omega=0.7, n_entangled=5), count_spaces(2, range(0, 6))),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for model, rows in clocks:
            ts = np.linspace(0.0, model.window_top, GRID_POINTS)
            probs = model.class_probs(ts)
            for row in rows:
                got = _tally_log_likelihood(tuple(map(int, row)), probs)
                expected = stacked_log_likelihood(row[:, np.newaxis], probs)
                assert got.tobytes() == expected.tobytes(), (model, row)


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
    # A time that is not finite is rejected in any shape: alone, as a 0-d
    # array, or anywhere in an array or a list.
    counts = TwoQubitCounts(1, 2, 3, 4)
    nan, inf = float("nan"), float("inf")
    for t in (nan, inf, np.float64(nan), np.array(nan), np.array([0.5, nan, inf]),
              np.array([[0.5, 1.0], [-inf, 2.0]]), [0.5, nan]):
        with pytest.raises(ValueError, match="finite"):
            log_likelihood(TwoQubitClock(omega=0.5, Omega=1.3), counts, t)


def test_two_qubit_score_accepts_arrays():
    counts = TwoQubitCounts(3, 7, 2, 9)
    ts = np.array([0.5, 1.5, 2.5])
    values, _ = _tally_score(counts, TWO_QUBIT, ts)
    assert values.shape == ts.shape
    for i, t in enumerate(ts):
        assert values[i] == pytest.approx(_tally_score(counts, TWO_QUBIT, float(t))[0])


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


def resolved_closed_forms():
    """Every (clock, closed-form kind) pair the resolver accepts, with the
    clock's count space. The numeric kernel is held to ``mle_numeric`` bit
    for bit by NUMERIC_BATTERY below.
    """
    # A two-qubit clock serves several kinds; its id is the kind's.
    two = count_spaces(4, range(1, 33))
    clocks = [
        ("{}", TWO_QUBIT, two),
        ("{}-2.6", TwoQubitClock(omega=0.5, Omega=1.3), two),
        *[(f"one-qubit-chi{m.chi}", m, count_spaces(2, range(0, 33))) for m in ONE_QUBIT_PARTIAL],
        *[(f"ghz{m.n_entangled}", m, count_spaces(2, range(0, 33))) for m in GHZ_CLOCKS],
    ]
    for label, model, rows in clocks:
        for kind in EstimatorKind:
            if kind is EstimatorKind.NUMERIC:
                continue
            try:
                _estimators_for(model, kind)
            except ConfigError:
                continue
            yield pytest.param(model, kind, rows, id=label.format(kind.value))


@pytest.mark.parametrize("model, kind, rows", resolved_closed_forms())
def test_closed_form_kernels_match_scalar_on_count_spaces(model, kind, rows):
    # Degenerate rows are part of each space: n = 0, no slow-sector events,
    # k1 = k4 = 0, and (for chi < 1) clipped fractions flagged invalid.
    scalar, kernel = _estimators_for(model, kind)
    bad = kernel_mismatches(model, rows, kernel(rows), scalar, closed_form_close)
    assert not bad, f"{len(bad)} of {len(rows)} rows differ, e.g. {bad[:3]}"


@pytest.mark.parametrize("n", [2 * 10**9, 4 * 10**9, 10**10, 10**12, 2**63 - 1])
def test_combined_kernel_matches_scalar_at_huge_probe_counts(n):
    # Past about 2.4e7 pairs the kernel's float64 discriminant rounds, where
    # the scalar form's int one is exact; past about 1e9 pairs an int64 one
    # would wrap, and NaN estimates would be flagged valid.
    rows = sample_counts(TWO_QUBIT, n, 1.0, np.random.default_rng(0), 50)
    bad = kernel_mismatches(
        TWO_QUBIT,
        rows,
        combined_estimator_batch(TWO_QUBIT, rows),
        lambda c: combined_estimator(TWO_QUBIT, c),
        closed_form_close,
    )
    assert not bad, f"{len(bad)} of {len(rows)} rows differ, e.g. {bad[:3]}"


def test_kernels_read_uint64_tallies_past_int64():
    # A uint64 tally past 2**63 - 1 passes the non-negative check; a cast to
    # int64 after it would wrap it negative.
    pair = np.array([[2**63 + 2, 2**62]], dtype=np.uint64)
    four = np.array([[2**63 + 6, 2**62 + 2, 2**63 - 4, 2**61]], dtype=np.uint64)
    two_qubit = TwoQubitClock(omega=0.5, Omega=1.3)
    cases = [
        (ONE_QUBIT, pair, mle_single_pair_batch, mle_single_pair, closed_form_close),
        (ONE_QUBIT, pair, mle_numeric_batch, mle_numeric, numeric_close),
        (two_qubit, four, mle_numeric_batch, mle_numeric, numeric_close),
    ]
    for model, rows, kernel, scalar, close in cases:
        batch = kernel(model, rows)
        assert batch[1].all(), (kernel, model)
        bad = kernel_mismatches(model, rows, batch, lambda c: scalar(model, c), close)
        assert not bad, (kernel, model, bad)


NUMERIC_BATTERY = pytest.mark.parametrize(
    "model, rows",
    [
        (TwoQubitClock(omega=0.5, Omega=1.3), count_space(32, 4)),
        (TWO_QUBIT, count_spaces(4, range(1, 9))),
        *[(model, count_spaces(2, range(1, 33))) for model in ONE_QUBIT_PARTIAL],
        (OneQubitClock(omega=1.0, chi=0.0), count_spaces(2, range(0, 5))),
        # Near-flat clocks: a gcd-reduced (0, 1) row's likelihood varies by
        # about chi over the window, below the 1e-12 flat threshold at
        # 1e-13 and above it at 1e-11, where the grid maximum is a run of
        # exactly tied values.
        *[(OneQubitClock(omega=1.0, chi=chi), count_spaces(2, range(0, 33)))
          for chi in (1e-13, 1e-11)],
        *[(model, count_spaces(2, range(1, 33))) for model in GHZ_CLOCKS],
    ],
    ids=["two-qubit-2.6", "two-qubit-harmonic", "one-qubit-chi0.3", "one-qubit-chi0.75",
         "one-qubit-chi0", "one-qubit-chi1e-13", "one-qubit-chi1e-11", "ghz2", "ghz3"],
)


@NUMERIC_BATTERY
def test_numeric_kernel_matches_mle_numeric_on_count_spaces(model, rows):
    bad = kernel_mismatches(
        model, rows, mle_numeric_batch(model, rows), lambda c: mle_numeric(model, c), numeric_close
    )
    assert not bad, f"{len(bad)} of {len(rows)} rows differ, e.g. {bad[:3]}"


def bitwise_mismatches(model, rows):
    """Rows where mle_numeric_batch's (t_hat, valid) is not mle_numeric's exactly."""
    t_hat, valid = mle_numeric_batch(model, rows)
    bad = []
    for row, t, ok in zip(rows, t_hat, valid):
        report = mle_numeric(model, as_counts(model, row))
        if not (t == report.t_hat and ok == report.valid):
            bad.append((tuple(row), t, report.t_hat, bool(ok), report.valid))
    return bad


@NUMERIC_BATTERY
def test_numeric_kernel_equals_mle_numeric_bit_for_bit(model, rows):
    # The kernel's grid decisions are certified against, or taken from, the
    # likelihood added in the scalar order, and it steps each row's search
    # as the scalar search does, so no tolerance applies.
    bad = bitwise_mismatches(model, rows)
    assert not bad, f"{len(bad)} of {len(rows)} rows differ, e.g. {bad[:3]}"


def reordered_product(seed: int = 0):
    """A stand-in for the kernel's BLAS product that rounds differently.

    Each entry adds its terms in reverse tally order and then moves one ulp
    up or down, or stays, in a fixed pseudo-random pattern; exact zeros stay
    zero. Every entry stays within 2 gamma_K |s| of the exact sum s, the
    distance the kernel's certificate allows a product.
    """
    rng = np.random.default_rng(seed)

    def product(block, log_probs, out):
        out[...] = np.add.reduce(block[:, ::-1, np.newaxis] * log_probs[::-1], axis=1)
        shift = np.where(out == 0.0, 0, rng.integers(-1, 2, out.shape))
        out[...] = np.where(shift > 0, np.nextafter(out, np.inf), out)
        out[...] = np.where(shift < 0, np.nextafter(out, -np.inf), out)
        return out

    return product


@pytest.mark.parametrize(
    "model, rows",
    [
        (TWO_QUBIT, count_space(24, 4)),
        (TwoQubitClock(omega=0.5, Omega=1.3), count_space(32, 4)),
    ],
    ids=["two-qubit-harmonic", "two-qubit-2.6"],
)
def test_numeric_kernel_certificate_holds_for_any_close_product(model, rows, monkeypatch):
    # Whatever the installed BLAS does, a product that rounds differently
    # must not move an estimate. The harmonic space has exactly tied grid
    # maxima, which a reordered sum breaks either way: this case fails when
    # the kernel keeps its product's decisions instead of summing such rows
    # again in tally order.
    monkeypatch.setattr(estimators, "_grid_product", reordered_product())
    bad = bitwise_mismatches(model, rows)
    assert not bad, f"{len(bad)} of {len(rows)} rows differ, e.g. {bad[:3]}"


def test_lock_step_newton_matches_scalar_rule_row_for_row():
    # In lock step, every row is scored at exactly the points the scalar rule
    # visits when run on that row alone, and ends where it ends, whatever the
    # other rows do. The rows stop after different numbers of steps:
    # (10, 5, 17, 0) peaks at the window top pi/omega with its score pointing
    # out of the window and stops after one, and (3, 7) at chi = 0.3 peaks at
    # its window top with zero curvature, where the rule bisects.
    cases = (
        (TwoQubitClock(omega=0.5, Omega=1.3),
         np.vstack([[10, 5, 17, 0], count_space(32, 4)[::97]])),
        (OneQubitClock(omega=1.0, chi=0.3), count_spaces(2, range(1, 33))),
    )
    paths = {}
    for model, rows in cases:
        counts = [as_counts(model, row // np.gcd.reduce(row)) for row in rows]
        ts = np.linspace(0.0, model.window_top, GRID_POINTS)
        i = np.array([np.argmax(log_likelihood(model, c, ts)) for c in counts])
        start, lo, hi = ts[i], ts[np.maximum(i - 1, 0)], ts[np.minimum(i + 1, GRID_POINTS - 1)]
        tallies = np.array(counts, dtype=float).T
        tol = REFINE_TOL * model.window_top
        seen = [[] for _ in counts]

        def lock_step_score(x, rows):
            for row, point in zip(rows, x):
                seen[row].append(point)
            return _tally_score(tallies[:, rows], model, x)

        got = _newton_max_batch(lock_step_score, start, lo, hi, tol)
        for row, c in enumerate(counts):
            path = []

            def score(x):
                path.append(x)
                return _tally_score(c, model, x)

            expected = _newton_max(score, float(start[row]), float(lo[row]), float(hi[row]), tol)
            assert got[row] == expected and seen[row] == path, (model, c)
            paths[c] = (model, path, expected)
    model, path, t_hat = paths[(10, 5, 17, 0)]
    assert len(path) == 1 and t_hat == model.window_top
    model, path, t_hat = paths[(3, 7)]
    newton_points = []
    for x in path[:-1]:
        s, c = _tally_score((3, 7), model, x)
        newton_points.append(x - s / c if c < 0.0 else None)
    assert newton_points != path[1:]  # a bisection step
    assert len({len(path) for _, path, _ in paths.values()}) >= 4


def golden_section_estimates(model, rows):
    """The refinement mle_numeric used before Newton steps, kept as an oracle.

    A golden-section search on the log-likelihood between the two grid
    neighbours of each row's grid argmax, to the same tolerance, every row
    in lock step (each takes exactly the scalar search's steps).
    """
    counts = [as_counts(model, row // np.gcd.reduce(row)) for row in rows]
    ts = np.linspace(0.0, model.window_top, GRID_POINTS)
    i = np.array([np.argmax(log_likelihood(model, c, ts)) for c in counts])
    tallies = np.array(counts, dtype=float).T

    def f(x):
        return stacked_log_likelihood(tallies, model.class_probs(x))

    invphi = 0.5 * (math.sqrt(5.0) - 1.0)
    invphi2 = 1.0 - invphi
    a, b = ts[np.maximum(i - 1, 0)], ts[np.minimum(i + 1, GRID_POINTS - 1)]
    h = b - a
    c, d = a + invphi2 * h, a + invphi * h
    fc, fd = f(c), f(d)
    tol = REFINE_TOL * max(1.0, model.window_top)
    active = h > tol
    while active.any():
        left = fc >= fd
        a = np.where(active & ~left, c, a)
        b = np.where(active & left, d, b)
        h = b - a
        x = a + np.where(left, invphi2, invphi) * h
        fx = f(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
        active = h > tol
    return 0.5 * (a + b)


def closed_form_estimate(model, counts):
    """The exact maximizer over the full window, where a closed form gives it."""
    if isinstance(model, TwoQubitClock):
        return None
    return mle_single_pair(model, counts).t_hat


@NUMERIC_BATTERY
def test_newton_estimates_match_golden_section_search(model, rows):
    # Each Newton estimate is at least as likely as the golden-section one,
    # up to rounding, and lies within 1e-7 of it. The exception is a peak
    # the old search could not place: at chi < 1 a one-qubit maximum at or
    # next to the window top sits where P_- is flat, the likelihood is flat
    # to rounding around it, and the search stopped up to 2.5e-4 short (38
    # rows here). The Newton estimate must then be the closer of the two to
    # the closed-form maximizer.
    t_hat, valid = mle_numeric_batch(model, rows)
    rows, t_hat = rows[valid], t_hat[valid]
    if not len(rows):
        return
    old = golden_section_estimates(model, rows)
    bad = []
    for row, new, prev in zip(rows, t_hat, old):
        counts = as_counts(model, row // np.gcd.reduce(row))
        ll_new = log_likelihood(model, counts, float(new))
        ll_old = log_likelihood(model, counts, float(prev))
        likely = ll_new >= ll_old - 1e-14 * max(1.0, abs(ll_old))
        exact = closed_form_estimate(model, counts)
        close = abs(new - prev) <= 1e-7 or (
            isinstance(model, OneQubitClock)
            and model.chi < 1.0
            and abs(new - exact) < abs(prev - exact)
        )
        if not (likely and close):
            bad.append((tuple(row), new, prev, exact, ll_new - ll_old))
    assert not bad, f"{len(bad)} of {len(rows)} rows differ, e.g. {bad[:3]}"


def test_log_likelihood_same_for_every_kind_of_single_time():
    # A Python float, np.float64, a 0-d array and an array element all give
    # the array path's value, -inf where a positive tally meets a vanishing
    # probability (t = 0, the window top, chi = 0) and 0 from zero tallies.
    cases = [
        (TWO_QUBIT, TwoQubitCounts(3, 7, 2, 9)),
        (TWO_QUBIT, TwoQubitCounts(0, 5, 0, 4)),
        (TwoQubitClock(omega=0.5, Omega=1.3), TwoQubitCounts(1, 0, 6, 2)),
        (OneQubitClock(omega=1.0, chi=0.0), OneQubitCounts(4, 0)),
        (OneQubitClock(omega=1.0, chi=0.0), OneQubitCounts(4, 1)),
        (GhzClock(omega=0.7, n_entangled=3), GhzCounts(9, 4)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for model, counts in cases:
            ts = np.linspace(0.0, model.window_top, 41)
            expected = log_likelihood(model, counts, ts)
            for i, t in enumerate(ts):
                for single in (float(t), np.float64(t), np.array(t), ts[i]):
                    value = log_likelihood(model, counts, single)
                    assert type(value) is float and value == expected[i], (model, counts, t)
    assert log_likelihood(TWO_QUBIT, TwoQubitCounts(3, 7, 2, 9), 0.0) == -math.inf
    assert log_likelihood(TWO_QUBIT, TwoQubitCounts(0, 5, 0, 4), 0.0) == 9 * math.log(0.5)
    assert log_likelihood(OneQubitClock(omega=1.0, chi=0.0), OneQubitCounts(4, 0), 1.0) == 0.0
    assert log_likelihood(OneQubitClock(omega=1.0, chi=0.0), OneQubitCounts(4, 1), 1.0) == -math.inf


def test_kernels_reject_what_the_scalar_estimators_reject():
    rows = np.array([[1, 2, 3, 4]])
    with pytest.raises(ValueError):
        combined_estimator_batch(TwoQubitClock(omega=0.5, Omega=1.3), rows)
    # The estimators take a clock, which rejects a frequency that is not
    # positive and finite when it is built.
    for omega in (math.nan, math.inf, -math.inf, 0.0):
        with pytest.raises(ValueError, match="omega"):
            TwoQubitClock(omega=omega, Omega=1.0)
    with pytest.raises(ValueError, match="chi = 0"):
        mle_single_pair_batch(OneQubitClock(omega=1.0, chi=0.0), np.array([[1, 2]]))
    # What the counts classes reject in one vector, each kernel rejects in a
    # tally array, naming itself: a negative tally must not reach a square
    # root or a logarithm, and a float tally must not be truncated. Warnings
    # are errors here, so the check has to come before any arithmetic.
    kernels = [
        (mle_single_pair_batch, ONE_QUBIT),
        (mle_single_pair_batch, GHZ_CLOCKS[0]),
        (mle_numeric_batch, ONE_QUBIT),
        (mle_numeric_batch, TwoQubitClock(omega=0.5, Omega=1.3)),
        (coarse_estimator_batch, TWO_QUBIT),
        (combined_estimator_batch, TWO_QUBIT),
    ]
    for kernel, model in kernels:
        width = len(model.class_sizes)
        good = np.arange(2, width + 2)[np.newaxis]
        malformed = [
            (good[0], "a 2-D integer tally array"),
            (good - 0.5, "a 2-D integer tally array"),
            (good > 0, "a 2-D integer tally array"),
            (np.hstack([good, good]), f"{width} tallies per row, got {2 * width}"),
            (good[:, 1:], f"{width} tallies per row, got {width - 1}"),
            (np.hstack([-good[:, :1], good[:, 1:]]), "non-negative tallies, got -2"),
        ]
        for counts, message in malformed:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=f"^{kernel.__name__} expects {message}"):
                    kernel(model, counts)
        # Any integer dtype is read as the int64 tallies a cell samples.
        expected = kernel(model, good)
        for dtype in (np.int32, np.uint8):
            for got, want in zip(kernel(model, good.astype(dtype)), expected):
                assert np.array_equal(got, want, equal_nan=True), (kernel, dtype)


def test_public_estimators_take_the_clock_then_the_counts():
    # Each public estimator, called as (model, counts), is what
    # apply_estimator resolves for that model.
    cases = [
        (ONE_QUBIT, EstimatorKind.CLOSED_FORM, mle_single_pair, OneQubitCounts(7, 3)),
        (ONE_QUBIT_PARTIAL[1], EstimatorKind.CLOSED_FORM, mle_single_pair, OneQubitCounts(4, 4)),
        (GHZ_CLOCKS[1], EstimatorKind.CLOSED_FORM, mle_single_pair, GhzCounts(9, 4)),
        (TWO_QUBIT, EstimatorKind.CLOSED_FORM, combined_estimator, TwoQubitCounts(3, 7, 2, 9)),
        (TWO_QUBIT, EstimatorKind.COMBINED, combined_estimator, TwoQubitCounts(1, 0, 6, 2)),
        (TWO_QUBIT, EstimatorKind.COARSE, coarse_estimator, TwoQubitCounts(3, 7, 2, 9)),
        (TwoQubitClock(omega=0.5, Omega=1.3), EstimatorKind.NUMERIC, mle_numeric,
         TwoQubitCounts(3, 7, 2, 9)),
        (ONE_QUBIT_PARTIAL[0], EstimatorKind.NUMERIC, mle_numeric, OneQubitCounts(7, 2)),
        (GHZ_CLOCKS[0], EstimatorKind.NUMERIC, mle_numeric, GhzCounts(9, 4)),
    ]
    for model, kind, estimator, counts in cases:
        assert estimator(model, counts) == apply_estimator(model, counts, kind), (model, kind)
    # A clock of a design the estimator does not serve, or counts that are not
    # Tallies of the clock's width, raise a TypeError that names the estimator.
    one, ghz, two = OneQubitCounts(4, 2), GhzCounts(4, 2), TwoQubitCounts(1, 2, 3, 4)
    wrong = [
        (mle_single_pair, TWO_QUBIT, two),
        (mle_single_pair, one, 1.0),
        (mle_single_pair_batch, TWO_QUBIT, np.array([[1, 2, 3, 4]])),
        (coarse_estimator, ONE_QUBIT, one),
        (coarse_estimator, two, 0.5),
        (coarse_estimator_batch, ONE_QUBIT, np.array([[2, 2]])),
        (combined_estimator, GHZ_CLOCKS[0], ghz),
        (combined_estimator, TWO_QUBIT, one),
        (coarse_estimator, TWO_QUBIT, one),
        (mle_two_qubit_roots, TWO_QUBIT, one),
        (combined_estimator_batch, GHZ_CLOCKS[0], np.array([[2, 2]])),
        (mle_two_qubit_roots, ONE_QUBIT, one),
        (mle_numeric, ONE_QUBIT, two),
        # A bare tally tuple is not a count vector.
        (mle_single_pair, ONE_QUBIT, (3, 4)),
        (mle_two_qubit_roots, TWO_QUBIT, (1, 2, 3, 4)),
        (mle_numeric, ONE_QUBIT, (3, 4)),
    ]
    for estimator, model, counts in wrong:
        with pytest.raises(TypeError, match=f"^{estimator.__name__} expects"):
            estimator(model, counts)
    for counts in (one, (1, 2, 3, 4)):
        with pytest.raises(TypeError, match="^log_likelihood expects Tallies of 4 counts"):
            log_likelihood(TWO_QUBIT, counts, 1.0)
    # The clock defines the class order, so Tallies of another design with the
    # same width are accepted: the one-qubit tallies are read as GHZ parity.
    assert mle_numeric(GHZ_CLOCKS[0], one) == mle_numeric(GHZ_CLOCKS[0], ghz)
