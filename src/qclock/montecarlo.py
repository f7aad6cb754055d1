"""Seeded Monte-Carlo experiments over the clock models.

Produces the error/bias curves behind the estimator benchmarks: repeated
count sampling at each grid time, estimation, and summary statistics
(mean, standard error, bias, the matching Cramer-Rao bound, and how many
trials produced a usable estimate). Each grid cell draws all of its trials
from its own RNG stream, derived from (master seed, grid index) by spawn
key (``STREAM_LAYOUT``), in one generator call, and estimates them as one
tally array with the batched kernels of estimators.py. Results are a pure
function of the configuration and seed, and a cell's numbers do not depend
on the other grid times.

``mean_estimator_curve`` is the exact counterpart, with no sampling noise:
it estimates the whole count space once as a tally array and weights it at
each grid time, and rejects a count space too large to enumerate
(``MAX_EXACT_DOUBLES``). ``apply_estimator`` estimates a single count vector.
One resolver maps a (model, estimator kind) pair to the name of an
estimator in estimators.py and binds its scalar form and batch kernel,
both ``estimator(model, counts)``, to the model for all of these to use.
``compare_resources`` runs the three designs side by side at an equal
total qubit budget, one loop over its designs, whose labels
(``RESOURCE_DESIGNS``) name the columns: t, dt_<label>, crb_<label>.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from dataclasses import dataclass, fields
from functools import lru_cache, partial
from operator import attrgetter

import numpy as np

from .clocks import (
    WINDOW_RTOL,
    ClockModel,
    GhzClock,
    OneQubitClock,
    TwoQubitClock,
    _check_time,
    count_tallies,
)
from . import estimators
from .counts import CountVector, _positive_integer, is_integer
from .estimators import EstimateReport
from .fisher import DegenerateTimeError, classical_fisher

# How a sweep's random numbers are laid out, as stamped into run manifests.
STREAM_LAYOUT = "per-cell SeedSequence(seed, spawn_key=(t_index,))"

# The largest exact mean curve, in doubles (32 MB): its count table's rows x
# (classes + grid times). At the bound (2 cores, numpy 2.4.6) peak RSS was
# 108-127 MB over 15 grid times, up to 395 MB over one (numeric, 4 classes).
MAX_EXACT_DOUBLES = 2**22


class EstimatorKind(enum.Enum):
    CLOSED_FORM = "closed-form"
    NUMERIC = "numeric"
    COMBINED = "combined"
    COARSE = "coarse"


class ConfigError(ValueError):
    """The experiment configuration is internally inconsistent."""


def _check_sampling(trials, seed, t_grid) -> tuple[int, int, tuple[float, ...]]:
    # The rules of every sampled run, as ints and a tuple of floats: a positive
    # trial count, a 64-bit seed and a non-empty increasing grid of finite times.
    trials = _positive_integer(trials, "trials", ConfigError)
    if not is_integer(seed) or not 0 <= int(seed) < 2**64:
        raise ConfigError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    grid = tuple(float(t) for t in t_grid)
    if not grid:
        raise ConfigError("t_grid must not be empty")
    if not all(math.isfinite(t) for t in grid):
        raise ConfigError(f"t_grid must hold finite times, got {grid!r}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("t_grid must be strictly increasing")
    return trials, int(seed), grid


@dataclass(frozen=True)
class ExperimentConfig:
    """One batch experiment: a model, probe count, time grid, and estimator."""

    model: ClockModel
    n_probes: int
    t_grid: tuple[float, ...]
    trials: int
    seed: int
    estimator: EstimatorKind = EstimatorKind.CLOSED_FORM

    def __post_init__(self):
        n_probes = _positive_integer(self.n_probes, "n_probes", ConfigError)
        trials, seed, grid = _check_sampling(self.trials, self.seed, self.t_grid)
        top = self.model.window_top
        if grid[0] < 0.0 or grid[-1] > top * (1.0 + WINDOW_RTOL):
            raise ConfigError(
                f"t_grid must lie within [0, {top}] for this model, got [{grid[0]}, {grid[-1]}]"
            )
        checked = {"n_probes": n_probes, "trials": trials, "seed": seed, "t_grid": grid}
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        _estimators_for(self.model, self.estimator)  # raises if there is none


@dataclass(frozen=True)
class ErrorCurvePoint:
    """Estimator statistics at one grid time.

    n_valid counts the contributions that produced a usable estimate: trials
    for sampled curves, count vectors of any nonzero probability for exact
    ones. mean, std_error, and bias are NaN when nothing contributed; crb is
    NaN where no Cramer-Rao bound exists: at a window edge (t = 0 or the
    window top) and where the Fisher information vanishes (chi = 0).
    """

    t: float
    mean_estimate: float
    std_error: float
    bias: float
    crb: float
    n_valid: int


@dataclass(frozen=True)
class ErrorCurve:
    points: tuple[ErrorCurvePoint, ...]

    COLUMNS = tuple(field.name for field in fields(ErrorCurvePoint))

    def rows(self) -> list[tuple]:
        return list(map(attrgetter(*self.COLUMNS), self.points))


# The designs of the equal-budget comparison, in column order. A design's
# label names its columns: dt_<label> and crb_<label>.
RESOURCE_DESIGNS = ("one_qubit", "two_qubit", "ghz")


class ResourceRow(
    namedtuple(
        "ResourceRow",
        ("t", *(f"{stat}_{label}" for stat in ("dt", "crb") for label in RESOURCE_DESIGNS)),
    )
):
    """Measured precision of each design at one time, equal qubit budget.

    Columns are NaN where the grid time falls outside that design's
    identifiable window.
    """

    __slots__ = ()


@dataclass(frozen=True)
class ResourceComparison:
    budget_qubits: int
    rows: tuple[ResourceRow, ...]

    COLUMNS = ResourceRow._fields


def cell_rng(seed: int, t_index: int) -> np.random.Generator:
    """The RNG stream of one grid cell, which all of the cell's trials share.

    Streams are derived by spawn key rather than by sequential draws, so a
    cell gives the same numbers whichever other cells are computed.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t_index,)))


def sample_counts(
    model: ClockModel, n_probes: int, t: float, rng: np.random.Generator, trials: int
) -> np.ndarray:
    """Outcome tallies of `trials` runs of n_probes independent probes at time t.

    Returns an integer array of shape (trials, k), one row per trial in the
    model's ``tallies`` order, drawn with a single multinomial call over the
    model's classes (a binomial for the two-class designs). A time that is
    not finite, or a probe or trial count that is not a positive integer,
    raises ValueError.
    """
    n_probes = _positive_integer(n_probes, "n_probes")
    trials = _positive_integer(trials, "trials")
    pvals = np.multiply(model.class_sizes, model.class_probs(_check_time(t)))
    return rng.multinomial(n_probes, pvals / pvals.sum(), size=trials)


# The estimator of each (model kind, estimator kind) pair, by the name of
# its scalar form in estimators.py; its batch kernel's is the same plus
# "_batch". Both take the model, then the counts.
_ESTIMATORS = {
    **{(kind, EstimatorKind.NUMERIC): "mle_numeric" for kind in ("one-qubit", "two-qubit", "ghz")},
    ("one-qubit", EstimatorKind.CLOSED_FORM): "mle_single_pair",
    ("ghz", EstimatorKind.CLOSED_FORM): "mle_single_pair",
    ("two-qubit", EstimatorKind.CLOSED_FORM): "combined_estimator",
    ("two-qubit", EstimatorKind.COMBINED): "combined_estimator",
    ("two-qubit", EstimatorKind.COARSE): "coarse_estimator",
}


def _estimators_for(model: ClockModel, kind: EstimatorKind):
    """The scalar and the batch estimator of `kind` for the model.

    Both take the counts alone: a count vector for the scalar one, a tally
    array for the batch one. Raises ConfigError when the model has no such
    estimator, or when the combined estimator meets Omega != 2 omega.
    """
    name = _ESTIMATORS.get((model.kind, kind))
    if name is None:
        raise ConfigError(f"{kind.value} estimator requires the two-qubit model")
    if name == "combined_estimator" and not model.harmonic:
        raise ConfigError(
            "closed-form two-qubit estimation requires Omega = 2 omega; "
            "use the numeric estimator otherwise"
        )
    # Looked up at each call, so a wrapped module attribute is what runs.
    scalar, batch = getattr(estimators, name), getattr(estimators, name + "_batch")
    return partial(scalar, model), partial(batch, model)


def apply_estimator(
    model: ClockModel, counts: CountVector, kind: EstimatorKind
) -> EstimateReport:
    return _estimators_for(model, kind)[0](counts)


def apply_estimator_batch(
    model: ClockModel, counts: np.ndarray, kind: EstimatorKind
) -> tuple[np.ndarray, np.ndarray]:
    """``apply_estimator`` on every row of a tally array: (t_hat, valid).

    t_hat is NaN on rows where apply_estimator raises DegenerateCountsError;
    valid is False there and on rows whose report is flagged invalid. A
    malformed tally array raises a ValueError naming the kernel.
    """
    return _estimators_for(model, kind)[1](counts)


def _crb_or_nan(model: ClockModel, t: float, n_probes: int) -> float:
    try:
        return classical_fisher(model, t).crb(n_probes)
    except DegenerateTimeError:
        return math.nan


def _summarize(t: float, estimates: np.ndarray, crb: float) -> ErrorCurvePoint:
    n_valid = len(estimates)
    if n_valid == 0:
        return ErrorCurvePoint(t, math.nan, math.nan, math.nan, crb, 0)
    # ndarray.mean and std(ddof=0) in numpy's own order, minus its overhead.
    mean = float(np.add.reduce(estimates)) / n_valid
    std = math.sqrt(float(np.add.reduce(np.square(estimates - mean))) / n_valid)
    return ErrorCurvePoint(t, mean, std, mean - t, crb, n_valid)


def error_curve(config: ExperimentConfig) -> ErrorCurve:
    """Sampled estimator statistics over the configured time grid.

    Each cell draws its trials from its own stream (``cell_rng``); the
    trials of all cells are then estimated as one tally array, since the
    estimate of a row depends on that row alone. Trials whose estimator
    raised on degenerate counts or returned an invalid report are excluded
    from the moments and from n_valid.
    """
    model, grid = config.model, config.t_grid
    counts = np.concatenate(
        [
            sample_counts(model, config.n_probes, t, cell_rng(config.seed, i), config.trials)
            for i, t in enumerate(grid)
        ]
    )
    t_hat, valid = apply_estimator_batch(model, counts, config.estimator)
    shape = (len(grid), config.trials)
    return ErrorCurve(
        points=tuple(
            _summarize(t, estimates[ok], _crb_or_nan(model, t, config.n_probes))
            for t, estimates, ok in zip(grid, t_hat.reshape(shape), valid.reshape(shape))
        )
    )


@lru_cache(maxsize=16)
def _count_table(n_probes: int, classes: int) -> tuple[np.ndarray, np.ndarray]:
    # The count space's tally rows and the log multinomial coefficient of
    # each, read-only, for every exact curve over it. 16 spaces: n = 1..12 over
    # 2 classes and four more, each <= MAX_EXACT_DOUBLES, so 512 MB at most.
    rows = count_tallies(n_probes, classes)
    log_factorial = np.array([math.lgamma(k + 1) for k in range(n_probes + 1)])
    log_coeff = log_factorial[n_probes] - log_factorial[rows].sum(axis=1)
    rows.setflags(write=False)
    log_coeff.setflags(write=False)
    return rows, log_coeff


def _check_exact_size(config: ExperimentConfig) -> None:
    # mean_estimator_curve's size bound, checked before anything is enumerated.
    classes, times = len(config.model.class_sizes), len(config.t_grid)
    need = math.comb(config.n_probes + classes - 1, classes - 1) * (classes + times)
    if need > MAX_EXACT_DOUBLES:
        raise ConfigError(
            f"the exact mean curve of {config.n_probes} probes over {times} grid times needs "
            f"{need:,} doubles, more than {MAX_EXACT_DOUBLES:,}; use curve = error to sample it"
        )


def mean_estimator_curve(config: ExperimentConfig) -> ErrorCurve:
    """Exact estimator expectation over the grid (trials and seed are ignored).

    The count space is enumerated as one tally array (``count_tallies``) and
    estimated once with the batch kernel; each grid time weights its rows by
    their multinomial pmf, renormalized over the rows with a valid estimate,
    and n_valid counts those of nonzero pmf, however small. A count table of
    rows x (classes + grid times) above MAX_EXACT_DOUBLES raises ConfigError.
    """
    _check_exact_size(config)
    model, n = config.model, config.n_probes
    rows, log_coeff = _count_table(n, len(model.class_sizes))
    t_hat, valid = apply_estimator_batch(model, rows, config.estimator)
    rows, log_coeff, t_hat = rows[valid], log_coeff[valid], t_hat[valid]
    # (grid times x classes): each class's probability times its size. In log
    # space k log p is 0 where k = 0, and a row with k > 0 = p gets -inf.
    probs = np.transpose(model.class_probs(np.array(config.t_grid))) * model.class_sizes
    zero = probs == 0.0
    log_weights = log_coeff[:, np.newaxis] + rows @ np.log(np.where(zero, 1.0, probs)).T
    if zero.any():
        log_weights[(rows > 0) @ zero.T] = -np.inf
    n_valid = np.count_nonzero(np.isfinite(log_weights), axis=0)
    weights = np.exp(log_weights, out=log_weights)
    columns = (weights.sum(axis=0), t_hat @ weights, t_hat * t_hat @ weights, n_valid)
    points = []
    for t, total, first, second, count in zip(config.t_grid, *(c.tolist() for c in columns)):
        crb = _crb_or_nan(model, t, n)
        if total == 0.0:
            points.append(ErrorCurvePoint(t, math.nan, math.nan, math.nan, crb, 0))
            continue
        mean = first / total
        var = max(second / total - mean * mean, 0.0)
        points.append(ErrorCurvePoint(t, mean, math.sqrt(var), mean - t, crb, count))
    return ErrorCurve(points=tuple(points))


def compare_resources(
    budget_qubits: int,
    omega: float,
    Omega: float,
    t_grid,
    trials: int,
    seed: int,
) -> ResourceComparison:
    """Measured precision of the three designs at an equal qubit budget.

    The budget buys budget_qubits one-qubit probes, budget_qubits/2
    two-qubit pairs, or budget_qubits/2 shots of the two-qubit GHZ state.
    The two-qubit column uses the combined estimator when Omega = 2 omega
    and the numeric maximizer otherwise. All columns share the master seed
    (common random numbers), and each is NaN at grid times outside that
    design's window. Columns follow the ``RESOURCE_DESIGNS`` order. Trials,
    seed and grid are checked by ExperimentConfig's rules before any design
    runs, so they are checked even when no grid time is in a window.
    """
    if not is_integer(budget_qubits) or budget_qubits < 2 or budget_qubits % 2:
        raise ConfigError(f"budget_qubits must be an even integer >= 2, got {budget_qubits!r}")
    budget_qubits = int(budget_qubits)
    trials, seed, grid = _check_sampling(trials, seed, t_grid)
    pair = TwoQubitClock(omega=omega, Omega=Omega)
    pair_kind = EstimatorKind.COMBINED if pair.harmonic else EstimatorKind.NUMERIC
    # (clock, probes the budget buys, estimator), in RESOURCE_DESIGNS order.
    designs = (
        (OneQubitClock(omega=omega), budget_qubits, EstimatorKind.CLOSED_FORM),
        (pair, budget_qubits // 2, pair_kind),
        (GhzClock(omega=omega, n_entangled=2), budget_qubits // 2, EstimatorKind.CLOSED_FORM),
    )
    columns = []
    for model, n_probes, kind in designs:
        top = model.window_top * (1.0 + WINDOW_RTOL)
        inside = tuple(t for t in grid if 0.0 <= t <= top)
        config = ExperimentConfig(model, n_probes, inside, trials, seed, kind) if inside else None
        points = error_curve(config).points if config else ()
        columns.append({point.t: (point.std_error, point.crb) for point in points})
    rows = []
    for t in grid:
        dts, crbs = zip(*(column.get(t, (math.nan, math.nan)) for column in columns))
        rows.append(ResourceRow(t, *dts, *crbs))
    return ResourceComparison(budget_qubits=budget_qubits, rows=tuple(rows))
