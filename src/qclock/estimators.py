"""Maximum-likelihood time estimators for the clock readouts.

Every estimator, ``estimator(model, counts)``, maps the counts observed on
a clock, a ``Tallies`` in the clock's class order (counts.py), to a time
estimate inside the window where the clock's statistics identify t
uniquely; a clock of another design, or counts that are not ``Tallies`` of
the clock's width, raise TypeError.

* one oscillating pair (a, c, f) (clocks.py): the one-qubit clock (chi, 1,
  omega) and the GHZ clock, whose parity oscillates at n omega. With m =
  ``class_sizes[0]``, m a is chi for one qubit and 1 for GHZ, and
  ``mle_single_pair`` gives t_hat = (2/f) asin sqrt(k_0 / (n m a)) on the
  window [0, pi/f];
* two-qubit with Omega = 2 omega (``TwoQubitClock.harmonic``; the quartic
  forms raise ValueError on any other clock): the score has four stationary
  points per period, found exactly as roots of a quartic in u = tan(omega t
  / 2). The coarse (slow-sector) tally picks the correct branch, extending
  the usable window to the full slow period [0, pi/omega].

``mle_numeric`` maximizes the log-likelihood on a grid, summed class by
class in tally order, then refines the grid argmax by safeguarded
Newton-Raphson on the score, whose closed form comes from each design's
``dprobs``; it is the reference the closed forms are checked against. Its
one validity rule is the flat test: max - min <= 1e-12 max(1, |max|) on
the grid, as -inf is when no value is finite, flags the midpoint invalid.

Each estimator has a ``*_batch`` kernel, ``estimator_batch(model, counts)``,
that applies it to every row of an integer tally array (one count vector
per row, in the class order of counts.py), as a Monte-Carlo cell
holds its trials; an array that is not 2-D and integer, has another width
than the clock's classes or holds a negative tally raises a ValueError
naming the kernel. Each computes in float64 on the gcd-reduced rows of
``_tally_rows`` and returns ``(t_hat, valid)``: t_hat is NaN on the rows
where the scalar estimator raises DegenerateCountsError, and valid is
False there and wherever the scalar report is flagged invalid. The scalar
functions stay the path for a single count vector and the reference the
kernels are tested against: the closed-form kernels agree with them to
1e-12, since numpy's array loops and the math module may round asin and
atan differently in the last bits, and past about 2.4e7 pairs (16 n^2 >
2^53) the quartic's discriminant rounds too.

``mle_numeric_batch`` matches ``mle_numeric`` bit for bit: its grid stage,
one BLAS product per block of rows, is certified against the scalar path's
class-by-class sum (see its docstring), and it runs every row's Newton
refinement in lock step with the scalar path's step rule and score.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .clocks import ClockModel, TwoQubitClock
from .counts import Tallies

# Grid resolution and convergence target for the numeric maximizer.
GRID_POINTS = 2001
REFINE_TOL = 1e-10
# Rows per block of mle_numeric_batch's grid stage, one BLAS product each.
# Chosen by measurement: on 180 and 7,500 rows of the Omega / omega = 2.6
# two-qubit clock (one BLAS thread, 2-core x86-64, numpy 2.4 with OpenBLAS
# 0.3), blocks of 32, 64 and 128 rows took 0.84, 0.80 and 0.96 ms and 23.0,
# 21.1 and 26.8 ms. A block's (rows x GRID_POINTS) table is 1 MB at 64 rows;
# a whole cell in one block would scale the peak memory with the trial count.
BLOCK_ROWS = 64


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


def _require(value, kind, name: str):
    if not isinstance(value, kind):
        raise TypeError(f"{name} expects {kind.__name__}, got {type(value).__name__}")


def _counts(model: ClockModel, counts: Tallies, name: str) -> Tallies:
    # The estimator `name`'s counts: Tallies as wide as the clock's classes.
    width = len(model.class_sizes)
    if not isinstance(counts, Tallies) or len(counts) != width:
        raise TypeError(
            f"{name} expects Tallies of {width} counts, got {type(counts).__name__} {counts!r}"
        )
    return counts


def _tallies(model: ClockModel, counts: Tallies, name: str) -> tuple[int, ...]:
    # The estimator `name`'s tallies divided by their gcd, so that estimates
    # are exactly invariant under integer rescaling (floats would drift by an
    # ulp through sqrt(c^2 r) against c sqrt(r)).
    tallies = _counts(model, counts, name)
    g = math.gcd(*tallies)
    return tuple(k // g for k in tallies) if g > 1 else tallies


def _window_branch(model: ClockModel) -> Branch:
    # The branch of an estimate over the model's whole window.
    return Branch.GHZ_WINDOW if model.kind == "ghz" else Branch.SINGLE_WINDOW


def _single_pair(model: ClockModel, name: str) -> tuple[float, float]:
    # m a and f of a clock with one pair (a, c, f), m = class_sizes[0]: the
    # first class holds a share m a sin^2(f t / 2) of the probes.
    pairs = getattr(model, "_pairs", ())
    if len(pairs) != 1:
        raise TypeError(
            f"{name} expects a clock with one oscillating pair, got {type(model).__name__}"
        )
    ((a, _, f),) = pairs
    if a == 0.0:
        raise ValueError("chi = 0 statistics carry no time dependence")
    return model.class_sizes[0] * a, f


def mle_single_pair(model: ClockModel, counts: Tallies) -> EstimateReport:
    """Closed-form MLE for a clock with one oscillating pair (a, c, f).

    The first class's tally k_0 of n probes is binomial with p = m a
    sin^2(f t / 2), m = ``class_sizes[0]``, so t_hat = (2/f) asin sqrt(k_0 /
    (n m a)) on the window [0, pi/f]. For one qubit m a = chi and f = omega;
    for GHZ m a = 1 and f = n omega, the amplified frequency. Fractions
    exceeding m a clip to the window edge and are flagged invalid (possible
    only for chi < 1). chi = 0 leaves t unidentifiable and raises.
    """
    scale, f = _single_pair(model, "mle_single_pair")
    k0, k1 = _tallies(model, counts, "mle_single_pair")
    if k0 + k1 == 0:
        raise DegenerateCountsError("no probes recorded")
    ratio = k0 / ((k0 + k1) * scale)
    t_hat = 2.0 / f * math.asin(math.sqrt(min(1.0, ratio)))
    return EstimateReport(
        t_hat, _window_branch(model), (0.0, model.window_top), valid=ratio <= 1.0
    )


def _require_harmonic(model: TwoQubitClock) -> None:
    if not model.harmonic:
        raise ValueError(
            f"closed-form two-qubit estimators require Omega = 2 omega, "
            f"got omega={model.omega}, Omega={model.Omega}"
        )


def mle_two_qubit_roots(
    model: TwoQubitClock, counts: Tallies
) -> tuple[float, float, float, float]:
    """Stationary points of the two-qubit log-likelihood, in closed form.

    With Omega = 2 omega and u = tan(omega t / 2) the score vanishes where

        (k1 + k4) u^4 - (2 k1 + 4 k2 + k3 + k4) u^2 + (k1 + k3) = 0,

    k1..k4 being tallies 0..3: fast-, fast+, slow-, slow+. Both squared
    roots are real and non-negative, and u_-^2 <= 1 <= u_+^2 always (the
    quartic is <= 0 at u = 1), so the first root lies at or below the
    half-window pi/(2 omega) and the third at or above it. Returned as

        (t1, -t1, t3, -t3),  t1 = (2/omega) atan(u_-),  t3 = (2/omega) atan(u_+),

    the principal-period representatives; the negative pair are their
    time-reversed images. All slow-sector information concentrated in the
    fast tallies being absent (k1 = k4 = 0) leaves the quartic degenerate
    and raises.
    """
    _require(model, TwoQubitClock, "mle_two_qubit_roots")
    k1, k2, k3, k4 = _tallies(model, counts, "mle_two_qubit_roots")
    _require_harmonic(model)
    omega = model.omega
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


def coarse_estimator(model: TwoQubitClock, counts: Tallies) -> EstimateReport:
    """MLE from the slow sector alone, resolving the full window [0, pi/omega].

    Conditioned on landing in the slow sector the '-' tally is binomial with
    p = sin^2(omega t / 2), so t_hat = (2/omega) atan sqrt(k_minus/k_plus),
    with the k_plus = 0 edge mapping to the window top. No slow-sector
    events at all leave t unidentified and raise.
    """
    _require(model, TwoQubitClock, "coarse_estimator")
    omega = model.omega
    _, _, km, kp = _counts(model, counts, "coarse_estimator")
    if kp + km == 0:
        raise DegenerateCountsError("no slow-sector events recorded")
    if kp == 0:
        t_hat = math.pi / omega
    else:
        t_hat = 2.0 / omega * math.atan(math.sqrt(km / kp))
    return EstimateReport(t_hat, Branch.COARSE_ONLY, (0.0, math.pi / omega))


def combined_estimator(model: TwoQubitClock, counts: Tallies) -> EstimateReport:
    """Two-qubit MLE on the half of the slow period picked by the coarse tally.

    The quartic yields one stationary maximum in each half of the window
    [0, pi/omega]; the coarse estimate selects the half (ties go to the
    lower branch), and the estimate is that half's root, the maximizer of
    the likelihood on its half. This need not be the maximizer over the
    full window: when the other half's root is more likely, it is still
    the coarse tally's half that is returned. The report's window is the
    full slow period.
    """
    _require(model, TwoQubitClock, "combined_estimator")
    _counts(model, counts, "combined_estimator")
    roots = mle_two_qubit_roots(model, counts)  # checks Omega = 2 omega
    coarse = coarse_estimator(model, counts)
    omega = model.omega
    window = (0.0, math.pi / omega)
    half = 0.5 * math.pi / omega
    if coarse.t_hat <= half:
        t_hat, branch = roots[0], Branch.ROOT1
    else:
        t_hat, branch = roots[2], Branch.ROOT3
    return EstimateReport(t_hat, branch, window, coarse_t=coarse.t_hat)


def _tally_log_likelihood(tallies, probs) -> np.ndarray:
    # sum_j k_j log p_j over a count vector's tallies, added class by class in
    # tally order, skipping zero tallies: -inf where p = 0 < k, and the grid's
    # zeros when every tally is zero. mle_numeric_batch's fallback adds its
    # product's own terms in the same order.
    total = None
    with np.errstate(divide="ignore"):
        for k, p in zip(tallies, probs):
            if k:
                term = k * np.log(p)
                total = term if total is None else total + term
    return np.zeros(np.shape(probs[0])) if total is None else total


def _tally_score(tallies, model: ClockModel, t):
    # The log-likelihood's score sum_j k_j p'_j / p_j and curvature
    # sum_j k_j (p''_j / p_j - (p'_j / p_j)^2) at t, from the closed-form
    # derivatives, added class by class in tally order. Tallies and t are
    # scalars, or arrays that broadcast: the same operations in the same
    # order either way. A zero tally adds an exact zero: its probability
    # becomes p + 1, so that a vanishing p gives no 0/0 or 0 * inf.
    score = curvature = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for k, p, d1, d2 in zip(tallies, model.class_probs(t), *model.dprobs(t)):
            p = p + (k == 0)
            ratio = d1 / p
            score = score + k * ratio
            curvature = curvature + k * (d2 / p - ratio * ratio)
    return score, curvature


def log_likelihood(model: ClockModel, counts: Tallies, t):
    """Log-likelihood of the counts at time(s) t, up to count-only constants.

    Vectorized over t. Outcomes with zero tally contribute nothing even
    where their probability vanishes; a positive tally against a vanishing
    probability gives -inf. A time that is not finite, alone or anywhere in
    an array, raises ValueError. Terms are added class by class in tally
    order, the sum ``mle_numeric`` maximizes on its grid.
    """
    _counts(model, counts, "log_likelihood")
    t_arr = np.asarray(t, dtype=float)
    if not np.isfinite(t_arr).all():
        raise ValueError(f"time must be finite, got {t!r}")
    total = _tally_log_likelihood(counts, model.class_probs(t_arr))
    return float(total) if t_arr.ndim == 0 else total


def _newton_max(score, x: float, lo: float, hi: float, tol: float) -> float:
    # Safeguarded Newton-Raphson on the score for a maximum in [lo, hi],
    # starting at x; score(x) gives the score and curvature at x. The sign of
    # the score narrows the bracket to the side that climbs. A step taken
    # where the curvature is not negative, or one that would leave the
    # bracket, becomes a bisection of it. Stops once the step is within tol,
    # so a maximum at a bracket edge whose score points out of the bracket
    # stops after one step.
    while True:
        s, c = map(float, score(x))
        lo = x if s >= 0.0 else lo
        hi = x if s <= 0.0 else hi
        step = x - s / c if c < 0.0 else math.nan
        new = step if lo <= step <= hi else 0.5 * (lo + hi)
        if abs(new - x) <= tol:
            return new
        x = new


def _newton_max_batch(score, x: np.ndarray, lo: np.ndarray, hi: np.ndarray, tol: float):
    # _newton_max on every row in lock step: score(x, rows) gives the score
    # and curvature of the listed rows at x. A row leaves the loop once its
    # step is within tol, so each row takes exactly the scalar rule's steps.
    x, lo, hi = x.copy(), lo.copy(), hi.copy()
    rows = np.arange(len(x))
    while rows.size:
        now = x[rows]
        s, c = score(now, rows)
        a = np.where(s >= 0.0, now, lo[rows])
        b = np.where(s <= 0.0, now, hi[rows])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = now - s / c
        x[rows] = np.where((c < 0.0) & (a <= step) & (step <= b), step, 0.5 * (a + b))
        lo[rows], hi[rows] = a, b
        rows = rows[np.abs(x[rows] - now) > tol]
    return x


def mle_numeric(
    model: ClockModel,
    counts: Tallies,
    window: tuple[float, float] | None = None,
) -> EstimateReport:
    """Grid-plus-Newton maximizer of the log-likelihood over a window.

    Counts are reduced by their common divisor first, which rescales the
    log-likelihood uniformly and makes the returned estimate exactly
    invariant under integer rescaling of the counts. On GRID_POINTS times
    the grid stage takes one sine per pair and one log per nonzero tally,
    summed class by class in tally order; its first argmax is then
    refined by safeguarded Newton-Raphson on the closed-form score, inside
    the bracket of its two grid neighbors, to REFINE_TOL * max(1, window
    top). A likelihood with no finite variation over the window (e.g. chi =
    0, or counts that are impossible at every t) yields the window midpoint
    flagged invalid. A window bound that is not finite raises ValueError.
    """
    tallies = _tallies(model, counts, "mle_numeric")
    if window is None:
        window = (0.0, model.window_top)
    lo, hi = float(window[0]), float(window[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"window bounds must be finite, got {window!r}")
    if not hi > lo:
        raise ValueError(f"empty window {window!r}")
    branch = _window_branch(model)

    # The grid's values are finite or -inf, so the plain argmax is the first
    # index of the finite maximum; with none, max - min = -inf is flat too.
    ts = np.linspace(lo, hi, GRID_POINTS)
    ll = _tally_log_likelihood(tallies, model.class_probs(ts))
    i = int(np.argmax(ll))
    ll_max = float(ll[i])
    ll_min = float(ll.min(where=ll > -np.inf, initial=np.inf))
    if ll_max - ll_min <= 1e-12 * max(1.0, abs(ll_max)):
        return EstimateReport(0.5 * (lo + hi), branch, (lo, hi), valid=False)

    t_hat = _newton_max(
        lambda x: _tally_score(tallies, model, x),
        float(ts[i]),
        float(ts[max(i - 1, 0)]),
        float(ts[min(i + 1, GRID_POINTS - 1)]),
        REFINE_TOL * max(1.0, abs(hi)),
    )
    return EstimateReport(t_hat, branch, (lo, hi))


def _tally_rows(model: ClockModel, counts, name: str) -> np.ndarray:
    # The kernel `name`'s tally array, checked before any arithmetic, then
    # each row divided by its gcd, as _tallies does for one count vector, in
    # the input's own integer type (a cast could wrap a checked tally), as
    # float64: the one type every kernel computes in, exact for tallies up
    # to 2**53.
    counts = np.asarray(counts)
    width = len(model.class_sizes)
    if counts.ndim != 2 or not np.issubdtype(counts.dtype, np.integer):
        raise ValueError(
            f"{name} expects a 2-D integer tally array, got {counts.dtype} of shape {counts.shape}"
        )
    if counts.shape[1] != width:
        raise ValueError(f"{name} expects {width} tallies per row, got {counts.shape[1]}")
    if (counts < 0).any():
        raise ValueError(f"{name} expects non-negative tallies, got {counts.min()}")
    g = np.gcd.reduce(counts, axis=1)
    return (counts // np.maximum(g, 1)[:, np.newaxis]).astype(float)


def mle_single_pair_batch(model: ClockModel, counts):
    """``mle_single_pair`` on every row of a two-column tally array."""
    scale, f = _single_pair(model, "mle_single_pair_batch")
    k0, k1 = _tally_rows(model, counts, "mle_single_pair_batch").T
    # n = 0 gives ratio NaN, so t_hat NaN and valid False.
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = k0 / ((k0 + k1) * scale)
    t_hat = 2.0 / f * np.arcsin(np.sqrt(np.minimum(1.0, ratio)))
    return t_hat, ratio <= 1.0


def coarse_estimator_batch(model: TwoQubitClock, counts):
    """``coarse_estimator`` on every row of a two-qubit tally array."""
    _require(model, TwoQubitClock, "coarse_estimator_batch")
    _, _, km, kp = _tally_rows(model, counts, "coarse_estimator_batch").T
    return _coarse_columns(km, kp, model.omega)


def _coarse_columns(km, kp, omega: float):
    # coarse_estimator_batch on gcd-reduced slow-sector tally columns.
    with np.errstate(divide="ignore", invalid="ignore"):
        t_hat = np.where(kp == 0, math.pi / omega, 2.0 / omega * np.arctan(np.sqrt(km / kp)))
    valid = kp + km > 0
    t_hat[~valid] = np.nan
    return t_hat, valid


def combined_estimator_batch(model: TwoQubitClock, counts):
    """``combined_estimator`` on every row of a two-qubit tally array.

    The quartic roots of ``mle_two_qubit_roots`` on whole columns, with the
    coarse estimate picking the half of the window for each row.
    """
    _require(model, TwoQubitClock, "combined_estimator_batch")
    _require_harmonic(model)
    omega = model.omega
    k1, k2, k3, k4 = _tally_rows(model, counts, "combined_estimator_batch").T
    coarse, valid = _coarse_columns(k3, k4, omega)
    lead = k1 + k4
    valid &= lead > 0
    a_coef = 2 * k1 + 4 * k2 + k3 + k4
    root = np.sqrt((k4 - k3) ** 2 + 8 * (k4 + k3 + 2 * k1) * k2 + 16 * k2 * k2)
    with np.errstate(divide="ignore", invalid="ignore"):
        u_minus_sq = (a_coef - root) / (2.0 * lead)
        u_plus_sq = (a_coef + root) / (2.0 * lead)
    t1 = 2.0 / omega * np.arctan(np.sqrt(np.maximum(u_minus_sq, 0.0)))
    t3 = 2.0 / omega * np.arctan(np.sqrt(u_plus_sq))
    t_hat = np.where(coarse <= 0.5 * math.pi / omega, t1, t3)
    t_hat[~valid] = np.nan
    return t_hat, valid


def _grid_product(block: np.ndarray, log_probs: np.ndarray, out: np.ndarray) -> np.ndarray:
    # A block's (rows x GRID_POINTS) log-likelihood table: one BLAS product
    # of its tallies with the (tallies x GRID_POINTS) log probabilities.
    return np.matmul(block, log_probs, out=out)


def _grid_extremes(ll: np.ndarray, block: np.ndarray, impossible: np.ndarray, cols: np.ndarray):
    # Each row's finite minimum, argmax and maximum of the block's table, whose
    # dead entries (a positive tally against an impossible outcome, only in
    # the columns cols) are set +inf for the minimum, then -inf, as the
    # scalar path's finite mask leaves them.
    dead = (block > 0) @ impossible[:, cols]
    ll[:, cols] = np.where(dead, np.inf, ll[:, cols])
    ll_min = ll.min(axis=1)
    ll[:, cols] = np.where(dead, -np.inf, ll[:, cols])
    i = np.argmax(ll, axis=1)
    return ll_min, i, ll[np.arange(len(ll)), i]


def mle_numeric_batch(model: ClockModel, counts):
    """``mle_numeric`` over the model's full window on every row of a tally array.

    Rows are reduced by their gcd, and each row's estimate and validity
    equal ``mle_numeric``'s on the same counts bit for bit. The grid stage
    takes each block of BLOCK_ROWS rows through one BLAS product with the
    (tallies x GRID_POINTS) table of log class probabilities, then certifies
    the product against ``mle_numeric``'s class-by-class sum. Every term
    k log p is <= 0, so a sum of K such terms computed in any order lies
    within gamma_K |s| of the exact sum s, gamma_K = K u / (1 - K u) with u
    the unit roundoff (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 3.1). Allowing the product twice that
    distance, a product entry and its tally-order value differ by at most
    about 3 K u times the entry's magnitude, and a row is certified when
    that cannot change a decision the scalar path takes:

    * its argmax: the runner-up lies more than 8 K u |max| below the
      maximum (an exact tie, which the first index wins, never passes);
    * its flat test: max - min is more than 8 K u (|min| + threshold) away
      from the threshold 1e-12 max(1, |max|).

    Rows with no finite value need no certificate. The others add the
    product's own terms k log p again, class by class in tally order: the
    scalar path's sum to the bit, as a zero tally's +-0.0 leaves the sum
    unchanged. The Newton refinement then moves all fitted rows in lock
    step, each row by the scalar rule.
    """
    counts = _tally_rows(model, counts, "mle_numeric_batch")
    rows = len(counts)
    lo, hi = 0.0, float(model.window_top)
    ts = np.linspace(lo, hi, GRID_POINTS)
    with np.errstate(divide="ignore"):
        log_probs = np.log(np.array(model.class_probs(ts)))
    # Where an outcome is impossible a positive tally gives -inf and a zero
    # tally 0: the product runs over finite logs, and these dead entries are
    # set afterwards.
    impossible = np.isneginf(log_probs)
    log_probs[impossible] = 0.0
    cols = np.flatnonzero(impossible.any(axis=0))
    table = np.empty((min(rows, BLOCK_ROWS), GRID_POINTS))
    ll_min, ll_max, runner_up = np.empty((3, rows))
    best = np.empty(rows, dtype=np.intp)
    for start in range(0, rows, BLOCK_ROWS):
        block = counts[start : start + BLOCK_ROWS]
        span = slice(start, start + len(block))
        ll = _grid_product(block, log_probs, table[: len(block)])
        ll_min[span], best[span], ll_max[span] = _grid_extremes(ll, block, impossible, cols)
        ll[np.arange(len(block)), best[span]] = -np.inf
        runner_up[span] = ll.max(axis=1)
    # The certificate. A row with no finite value is invalid whatever the
    # rounding, and -inf - -inf would be NaN, so only live rows enter it.
    live = np.flatnonzero(ll_max > -np.inf)
    top, low = ll_max[live], ll_min[live]
    threshold = 1e-12 * np.maximum(1.0, np.abs(top))
    margin = 8 * len(log_probs) * (np.finfo(float).eps / 2)  # 8 K u
    sure = np.abs(top - low - threshold) > margin * (np.abs(low) + threshold)
    sure &= (top - low <= threshold) | (top - runner_up[live] > margin * np.abs(top))
    redo = live[~sure]
    for start in range(0, len(redo), BLOCK_ROWS):
        r = redo[start : start + BLOCK_ROWS]
        block = counts[r]
        ll = sum(k[:, np.newaxis] * log_p for k, log_p in zip(block.T, log_probs))
        ll_min[r], best[r], ll_max[r] = _grid_extremes(ll, block, impossible, cols)
    # A flat likelihood, or no finite value (max - min = -inf): the midpoint, invalid.
    valid = ~(ll_max - ll_min <= 1e-12 * np.maximum(1.0, np.abs(ll_max)))
    t_hat = np.full(rows, 0.5 * (lo + hi))
    fit = np.flatnonzero(valid)
    tallies = counts[fit].T
    i = best[fit]
    t_hat[fit] = _newton_max_batch(
        lambda x, rows: _tally_score(tallies[:, rows], model, x),
        ts[i],
        ts[np.maximum(i - 1, 0)],
        ts[np.minimum(i + 1, GRID_POINTS - 1)],
        REFINE_TOL * max(1.0, abs(hi)),
    )
    return t_hat, valid
