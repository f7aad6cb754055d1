"""Maximum-likelihood time estimators for the clock readouts.

Each estimator maps an observed count vector to a time estimate inside the
window where the clock's statistics identify t uniquely:

* one-qubit:  t_hat = (2/omega) asin sqrt(k_minus / (n chi)),
  window [0, pi/omega];
* GHZ:        t_hat = (2/(n omega)) asin sqrt(k_odd / shots),
  window [0, pi/(n omega)];
* two-qubit with Omega = 2 omega: the score has four stationary points per
  period, found exactly as roots of a quartic in u = tan(omega t / 2). The
  coarse (slow-sector) tally picks the correct branch, extending the usable
  window to the full slow period [0, pi/omega].

``mle_numeric`` maximizes the log-likelihood on a grid plus golden-section
refinement and is the reference the closed forms are checked against.

Each estimator has a ``*_batch`` kernel that applies it to every row of an
integer tally array (one count vector per row, in the ``tallies`` order of
counts.py), as a Monte-Carlo cell holds its trials. A kernel returns
``(t_hat, valid)``: t_hat is NaN on the rows where the scalar estimator
raises DegenerateCountsError, and valid is False there and wherever the
scalar report is flagged invalid. The scalar functions stay the path for a
single count vector and the reference the kernels are tested against.

``mle_numeric_batch`` matches ``mle_numeric`` bit for bit: its grid stage
is one einsum contraction with the log class probabilities, adding terms in
tally order, and it runs every row's golden-section search in lock step.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .clocks import ClockModel, GhzClock, OneQubitClock, _golden_section_max
from .counts import CountVector, GhzCounts, OneQubitCounts, TwoQubitCounts, reduce_counts

# Grid resolution and convergence target for the numeric maximizer.
GRID_POINTS = 2001
REFINE_TOL = 1e-10
# Rows per block of mle_numeric_batch's grid stage, one einsum contraction
# each. A block's (rows x GRID_POINTS) table is 0.5 MB at 32 rows; a whole
# cell in one block would scale the peak memory with the trial count.
BLOCK_ROWS = 32


class Branch(enum.Enum):
    """Which likelihood branch produced an estimate."""

    SINGLE_WINDOW = "single-window"
    GHZ_WINDOW = "ghz-window"
    COARSE_ONLY = "coarse-only"
    ROOT1 = "root1"
    ROOT3 = "root3"


class DegenerateCountsError(ValueError):
    """The observed counts leave the estimator undefined."""


@dataclass(frozen=True)
class EstimateReport:
    """A time estimate, the branch that produced it, and its validity window."""

    t_hat: float
    branch: Branch
    window: tuple[float, float]
    coarse_t: float | None = None
    valid: bool = True


def _require(counts, kind, name: str):
    if not isinstance(counts, kind):
        raise TypeError(f"{name} expects {kind.__name__}, got {type(counts).__name__}")


def mle_one_qubit(counts: OneQubitCounts, omega: float, chi: float = 1.0) -> EstimateReport:
    """Closed-form MLE for the one-qubit clock.

    Inverts the observed |-> fraction through P_- = chi sin^2(omega t / 2);
    fractions exceeding chi clip to the window edge pi/omega and are flagged
    invalid (possible only for chi < 1). chi = 0 leaves t unidentifiable and
    raises.
    """
    _require(counts, OneQubitCounts, "mle_one_qubit")
    counts = reduce_counts(counts)
    clock = OneQubitClock(omega=omega, chi=chi)
    if clock.chi == 0.0:
        raise ValueError("chi = 0 statistics carry no time dependence")
    if counts.n == 0:
        raise DegenerateCountsError("no probes recorded")
    ratio = counts.k_minus / (counts.n * clock.chi)
    clipped = ratio > 1.0
    t_hat = 2.0 / clock.omega * math.asin(math.sqrt(min(1.0, ratio)))
    return EstimateReport(
        t_hat, Branch.SINGLE_WINDOW, (0.0, math.pi / clock.omega), valid=not clipped
    )


def mle_ghz(counts: GhzCounts, omega: float, n_entangled: int) -> EstimateReport:
    """Closed-form MLE for the GHZ clock.

    The parity tally is binomial with p_odd = sin^2(n omega t / 2), so the
    estimate is the one-qubit form at the amplified frequency n omega.
    """
    _require(counts, GhzCounts, "mle_ghz")
    counts = reduce_counts(counts)
    clock = GhzClock(omega=omega, n_entangled=n_entangled)
    if counts.n == 0:
        raise DegenerateCountsError("no probes recorded")
    eff = clock.n_entangled * clock.omega
    t_hat = 2.0 / eff * math.asin(math.sqrt(counts.k_odd / counts.n))
    return EstimateReport(t_hat, Branch.GHZ_WINDOW, (0.0, math.pi / eff))


def is_harmonic(omega: float, Omega: float, require: bool = False) -> bool:
    """Whether Omega = 2 omega, as the closed two-qubit forms require.

    Frequencies that are not both positive raise ValueError, and so does a
    non-harmonic pair when ``require`` is set.
    """
    if not (omega > 0.0 and Omega > 0.0):
        raise ValueError("frequencies must be positive")
    harmonic = abs(Omega - 2.0 * omega) <= 1e-9 * Omega
    if require and not harmonic:
        raise ValueError(
            f"closed-form two-qubit estimators require Omega = 2 omega, "
            f"got omega={omega}, Omega={Omega}"
        )
    return harmonic


def mle_two_qubit_roots(
    counts: TwoQubitCounts, omega: float = 0.5, Omega: float = 1.0
) -> tuple[float, float, float, float]:
    """Stationary points of the two-qubit log-likelihood, in closed form.

    With Omega = 2 omega and u = tan(omega t / 2) the score vanishes where

        (k1 + k4) u^4 - (2 k1 + 4 k2 + k3 + k4) u^2 + (k1 + k3) = 0,

    k1..k4 being the (fast-, fast+, slow-, slow+) tallies. Both squared
    roots are real and non-negative, and u_-^2 <= 1 <= u_+^2 always (the
    quartic is <= 0 at u = 1), so the first root lies at or below the
    half-window pi/(2 omega) and the third at or above it. Returned as

        (t1, -t1, t3, -t3),  t1 = (2/omega) atan(u_-),  t3 = (2/omega) atan(u_+),

    the principal-period representatives; the negative pair are their
    time-reversed images. All slow-sector information concentrated in the
    fast tallies being absent (k1 = k4 = 0) leaves the quartic degenerate
    and raises.
    """
    _require(counts, TwoQubitCounts, "mle_two_qubit_roots")
    counts = reduce_counts(counts)
    omega, Omega = float(omega), float(Omega)
    is_harmonic(omega, Omega, require=True)
    k1, k2 = counts.fast_minus, counts.fast_plus
    k3, k4 = counts.slow_minus, counts.slow_plus
    lead = k1 + k4
    if lead == 0:
        raise DegenerateCountsError(
            "fast-minus and slow-plus tallies are both zero: quartic degenerates"
        )
    a_coef = 2 * k1 + 4 * k2 + k3 + k4
    rad = (k4 - k3) ** 2 + 8 * (k4 + k3 + 2 * k1) * k2 + 16 * k2 * k2
    root = math.sqrt(rad)
    u_minus_sq = (a_coef - root) / (2.0 * lead)
    u_plus_sq = (a_coef + root) / (2.0 * lead)
    u_minus = math.sqrt(max(u_minus_sq, 0.0))
    u_plus = math.sqrt(u_plus_sq)
    t1 = 2.0 / omega * math.atan(u_minus)
    t3 = 2.0 / omega * math.atan(u_plus)
    return (t1, -t1, t3, -t3)


def coarse_estimator(counts: TwoQubitCounts, omega: float = 0.5) -> EstimateReport:
    """MLE from the slow sector alone, resolving the full window [0, pi/omega].

    Conditioned on landing in the slow sector the '-' tally is binomial with
    p = sin^2(omega t / 2), so t_hat = (2/omega) atan sqrt(k_minus/k_plus),
    with the k_plus = 0 edge mapping to the window top. No slow-sector
    events at all leave t unidentified and raise.
    """
    _require(counts, TwoQubitCounts, "coarse_estimator")
    counts = reduce_counts(counts)
    omega = float(omega)
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    kp, km = counts.coarse_plus, counts.coarse_minus
    if kp + km == 0:
        raise DegenerateCountsError("no slow-sector events recorded")
    if kp == 0:
        t_hat = math.pi / omega
    else:
        t_hat = 2.0 / omega * math.atan(math.sqrt(km / kp))
    return EstimateReport(t_hat, Branch.COARSE_ONLY, (0.0, math.pi / omega))


def combined_estimator(
    counts: TwoQubitCounts, omega: float = 0.5, Omega: float = 1.0
) -> EstimateReport:
    """Two-qubit MLE on the half of the slow period picked by the coarse tally.

    The quartic yields one stationary maximum in each half of the window
    [0, pi/omega]; the coarse estimate selects the half (ties go to the
    lower branch), and the estimate is that half's root, the maximizer of
    the likelihood on its half. This need not be the maximizer over the
    full window: when the other half's root is more likely, it is still
    the coarse tally's half that is returned. The report's window is the
    full slow period.
    """
    omega = float(omega)
    roots = mle_two_qubit_roots(counts, omega, Omega)  # checks Omega = 2 omega
    coarse = coarse_estimator(counts, omega)
    window = (0.0, math.pi / omega)
    half = 0.5 * math.pi / omega
    if coarse.t_hat <= half:
        t_hat, branch = roots[0], Branch.ROOT1
    else:
        t_hat, branch = roots[2], Branch.ROOT3
    return EstimateReport(t_hat, branch, window, coarse_t=coarse.t_hat)


def two_qubit_score(
    counts: TwoQubitCounts, t, omega: float = 0.5, Omega: float = 1.0
):
    """Derivative of the two-qubit log-likelihood at time t.

        score(t) = k1 Omega cot(Omega t/2) - k2 Omega tan(Omega t/2)
                 + k3 omega cot(omega t/2) - k4 omega tan(omega t/2)

    Terms with a zero tally are omitted entirely so their poles do not
    contaminate the value. Accepts scalar or array t.
    """
    _require(counts, TwoQubitCounts, "two_qubit_score")
    t_arr = np.asarray(t, dtype=float)
    total = np.zeros_like(t_arr)
    half_fast = 0.5 * Omega * t_arr
    half_slow = 0.5 * omega * t_arr
    if counts.fast_minus:
        total = total + counts.fast_minus * Omega * np.cos(half_fast) / np.sin(half_fast)
    if counts.fast_plus:
        total = total - counts.fast_plus * Omega * np.tan(half_fast)
    if counts.slow_minus:
        total = total + counts.slow_minus * omega * np.cos(half_slow) / np.sin(half_slow)
    if counts.slow_plus:
        total = total - counts.slow_plus * omega * np.tan(half_slow)
    return float(total) if np.isscalar(t) or t_arr.ndim == 0 else total


def _tally_log_likelihood(tallies: np.ndarray, probs) -> np.ndarray:
    # sum_j k_j log p_j over the leading (tally) axis, added in tally order,
    # with k log p = 0 where k = 0 and -inf where p = 0 < k.
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = tallies * np.log(np.array(probs))
    return np.add.reduce(np.where(tallies > 0, terms, 0.0))


def log_likelihood(model: ClockModel, counts: CountVector, t):
    """Log-likelihood of the counts at time(s) t, up to count-only constants.

    Vectorized over t. Outcomes with zero tally contribute nothing even
    where their probability vanishes; a positive tally against a vanishing
    probability gives -inf. A single time that is not finite raises
    ValueError. Terms are added in tally order, as in ``mle_numeric_batch``.
    """
    _require(counts, model.counts_type, "log_likelihood")
    scalar = isinstance(t, float) or np.ndim(t) == 0
    if scalar and not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    if isinstance(t, float):
        # A float or np.float64 needs no 0-d array and, with p > 0, no errstate.
        terms = [(k, p) for k, p in zip(counts.tallies, model.class_probs(t)) if k]
        if any(p == 0.0 for _, p in terms):
            return -math.inf
        return float(sum(k * np.log(p) for k, p in terms))
    t_arr = np.asarray(t, dtype=float)
    tallies = np.reshape(counts.tallies, (-1,) + (1,) * t_arr.ndim)
    total = _tally_log_likelihood(tallies, model.class_probs(t_arr))
    return float(total) if scalar else total


def mle_numeric(
    model: ClockModel,
    counts: CountVector,
    window: tuple[float, float] | None = None,
    grid_points: int = GRID_POINTS,
) -> EstimateReport:
    """Grid-plus-refinement maximizer of the log-likelihood over a window.

    Counts are reduced by their common divisor first, which rescales the
    log-likelihood uniformly and makes the returned estimate exactly
    invariant under integer rescaling of the counts. The grid argmax is
    refined by golden-section search between its neighbors. A likelihood
    with no finite variation over the window (e.g. chi = 0, or counts that
    are impossible at every t) yields the window midpoint flagged invalid.
    """
    counts = reduce_counts(counts)
    if window is None:
        window = (0.0, model.window_top)
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ValueError(f"empty window {window!r}")
    if grid_points < 3:
        raise ValueError("grid_points must be at least 3")
    branch = Branch.GHZ_WINDOW if model.kind == "ghz" else Branch.SINGLE_WINDOW

    ts = np.linspace(lo, hi, grid_points)
    ll = log_likelihood(model, counts, ts)
    finite = np.isfinite(ll)
    midpoint = 0.5 * (lo + hi)
    if not finite.any():
        return EstimateReport(midpoint, branch, (lo, hi), valid=False)
    ll_max = float(ll[finite].max())
    ll_min = float(ll[finite].min())
    if ll_max - ll_min <= 1e-12 * max(1.0, abs(ll_max)):
        return EstimateReport(midpoint, branch, (lo, hi), valid=False)

    i = int(np.argmax(np.where(finite, ll, -np.inf)))
    a = ts[max(i - 1, 0)]
    b = ts[min(i + 1, grid_points - 1)]
    t_hat = _golden_section_max(
        lambda x: log_likelihood(model, counts, x),
        float(a),
        float(b),
        REFINE_TOL * max(1.0, abs(hi)),
    )
    return EstimateReport(t_hat, branch, (lo, hi))


def _reduce_rows(counts) -> np.ndarray:
    # reduce_counts on every row: divide each row by the gcd of its tallies.
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 2:
        raise ValueError(f"expected a 2-D tally array, got shape {counts.shape}")
    g = np.gcd.reduce(counts, axis=1)
    return counts // np.maximum(g, 1)[:, np.newaxis]


def mle_one_qubit_batch(counts, omega: float, chi: float = 1.0):
    """``mle_one_qubit`` on every row of a (k_minus, k_plus) tally array."""
    clock = OneQubitClock(omega=omega, chi=chi)
    if clock.chi == 0.0:
        raise ValueError("chi = 0 statistics carry no time dependence")
    k_minus, k_plus = _reduce_rows(counts).T
    # n = 0 gives ratio NaN, so t_hat NaN and valid False.
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = k_minus / ((k_minus + k_plus) * clock.chi)
    t_hat = 2.0 / clock.omega * np.arcsin(np.sqrt(np.minimum(1.0, ratio)))
    return t_hat, ratio <= 1.0


def mle_ghz_batch(counts, omega: float, n_entangled: int):
    """``mle_ghz`` on every row of a (k_odd, k_even) tally array."""
    clock = GhzClock(omega=omega, n_entangled=n_entangled)
    k_odd, k_even = _reduce_rows(counts).T
    with np.errstate(divide="ignore", invalid="ignore"):
        fraction = k_odd / (k_odd + k_even)
    eff = clock.n_entangled * clock.omega
    return 2.0 / eff * np.arcsin(np.sqrt(fraction)), ~np.isnan(fraction)


def coarse_estimator_batch(counts, omega: float = 0.5):
    """``coarse_estimator`` on every row of a two-qubit tally array."""
    _, _, km, kp = _reduce_rows(counts).T
    return _coarse_columns(km, kp, float(omega))


def _coarse_columns(km, kp, omega: float):
    # coarse_estimator_batch on gcd-reduced slow-sector tally columns.
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    with np.errstate(divide="ignore", invalid="ignore"):
        t_hat = np.where(kp == 0, math.pi / omega, 2.0 / omega * np.arctan(np.sqrt(km / kp)))
    valid = kp + km > 0
    t_hat[~valid] = np.nan
    return t_hat, valid


def combined_estimator_batch(counts, omega: float = 0.5, Omega: float = 1.0):
    """``combined_estimator`` on every row of a two-qubit tally array.

    The quartic roots of ``mle_two_qubit_roots`` on whole columns, with the
    coarse estimate picking the half of the window for each row.
    """
    omega, Omega = float(omega), float(Omega)
    is_harmonic(omega, Omega, require=True)
    k1, k2, k3, k4 = _reduce_rows(counts).T
    coarse, valid = _coarse_columns(k3, k4, omega)
    lead = k1 + k4
    valid &= lead > 0
    a_coef = 2 * k1 + 4 * k2 + k3 + k4
    root = np.sqrt(((k4 - k3) ** 2 + 8 * (k4 + k3 + 2 * k1) * k2 + 16 * k2 * k2).astype(float))
    with np.errstate(divide="ignore", invalid="ignore"):
        u_minus_sq = (a_coef - root) / (2.0 * lead)
        u_plus_sq = (a_coef + root) / (2.0 * lead)
    t1 = 2.0 / omega * np.arctan(np.sqrt(np.maximum(u_minus_sq, 0.0)))
    t3 = 2.0 / omega * np.arctan(np.sqrt(u_plus_sq))
    t_hat = np.where(coarse <= 0.5 * math.pi / omega, t1, t3)
    t_hat[~valid] = np.nan
    return t_hat, valid


def _golden_section_max_batch(f, lo: np.ndarray, hi: np.ndarray, tol: float) -> np.ndarray:
    # _golden_section_max on every row in lock step: f(x) evaluates row i at
    # x[i], and np.where moves only the rows whose bracket is wider than tol,
    # so each row takes exactly the scalar search's steps and result.
    invphi = 0.5 * (math.sqrt(5.0) - 1.0)
    invphi2 = 1.0 - invphi
    a, b = lo, hi
    h = b - a
    c = a + invphi2 * h
    d = a + invphi * h
    fc = f(c)
    fd = f(d)
    active = h > tol
    while active.any():
        left = fc >= fd
        a = np.where(active & ~left, c, a)
        b = np.where(active & left, d, b)
        h = b - a
        # Stopped rows need only a and b, so c, d, fc, fd update freely.
        x = a + np.where(left, invphi2, invphi) * h
        fx = f(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
        active = h > tol
    return 0.5 * (a + b)


def mle_numeric_batch(model: ClockModel, counts):
    """``mle_numeric`` over the model's full window on every row of a tally array.

    Rows are reduced by their gcd, and each row's estimate and validity
    equal ``mle_numeric``'s on the same counts bit for bit. The grid stage
    contracts each block of BLOCK_ROWS rows with the (tallies x GRID_POINTS)
    table of log class probabilities in one einsum, which adds the terms in
    tally order as the scalar sum does (a BLAS matrix product need not, and
    its rounding would depend on the block size). The golden-section
    refinement then moves all fitted rows in lock step.
    """
    # Float tallies multiply as the scalar path's ints do, without a cast per use.
    counts = _reduce_rows(counts).astype(float)
    rows = len(counts)
    lo, hi = 0.0, float(model.window_top)
    ts = np.linspace(lo, hi, GRID_POINTS)
    with np.errstate(divide="ignore"):
        log_probs = np.log(np.array(model.class_probs(ts)))
    # Where an outcome is impossible a positive tally gives -inf and a zero
    # tally 0: the table is contracted over finite logs, and these dead
    # entries are set afterwards, +inf for the finite minimum, then -inf.
    impossible = np.isneginf(log_probs)
    log_probs[impossible] = 0.0
    cols = np.flatnonzero(impossible.any(axis=0))
    table = np.empty((min(rows, BLOCK_ROWS), GRID_POINTS))
    t_hat = np.full(rows, 0.5 * (lo + hi))
    valid = np.zeros(rows, dtype=bool)
    a = np.empty(rows)
    b = np.empty(rows)
    for start in range(0, rows, BLOCK_ROWS):
        block = counts[start : start + BLOCK_ROWS]
        m = len(block)
        ll = np.einsum("rk,kg->rg", block, log_probs, out=table[:m])
        dead = (block > 0) @ impossible[:, cols]
        ll[:, cols] = np.where(dead, np.inf, ll[:, cols])
        ll_min = ll.min(axis=1)
        ll[:, cols] = np.where(dead, -np.inf, ll[:, cols])
        i = np.argmax(ll, axis=1)
        ll_max = ll[np.arange(m), i]
        # No finite value, or a flat likelihood: the midpoint, flagged invalid.
        valid[start : start + m] = (ll_max > -np.inf) & ~(
            ll_max - ll_min <= 1e-12 * np.maximum(1.0, np.abs(ll_max))
        )
        a[start : start + m] = ts[np.maximum(i - 1, 0)]
        b[start : start + m] = ts[np.minimum(i + 1, GRID_POINTS - 1)]
    fit = np.flatnonzero(valid)
    if fit.size:
        tallies = counts[fit].T
        t_hat[fit] = _golden_section_max_batch(
            lambda x: _tally_log_likelihood(tallies, model.class_probs(x)),
            a[fit],
            b[fit],
            REFINE_TOL * max(1.0, abs(hi)),
        )
    return t_hat, valid
