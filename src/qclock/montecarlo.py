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

``mean_estimator_curve`` switches to exact enumeration of the count space
when it is small enough, replacing sampling noise with the true estimator
expectation: it estimates the whole space once as a tally array and weights
it at each grid time. ``apply_estimator`` estimates a single count vector.
One resolver maps a (model, estimator kind) pair to the scalar and batch
estimators all of these use. ``compare_resources`` runs the three
designs side by side at an equal total qubit budget.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .clocks import (
    WINDOW_RTOL,
    ClockModel,
    GhzClock,
    OneQubitClock,
    TwoQubitClock,
    count_tallies,
)
from . import estimators
from .counts import CountVector, is_integer
from .estimators import (
    EstimateReport,
    is_harmonic,
    mle_numeric,
    mle_numeric_batch,
)
from .fisher import DegenerateTimeError, classical_fisher

# How a sweep's random numbers are laid out, as stamped into run manifests.
STREAM_LAYOUT = "per-cell SeedSequence(seed, spawn_key=(t_index,))"

# Count spaces with n_probes at or below this are enumerated exactly in
# mean_estimator_curve; the multinomial case then holds at most C(15,3) = 455
# distinct count vectors.
MAX_EXACT_PROBES = 12


class EstimatorKind(enum.Enum):
    CLOSED_FORM = "closed-form"
    NUMERIC = "numeric"
    COMBINED = "combined"
    COARSE = "coarse"


class ConfigError(ValueError):
    """The experiment configuration is internally inconsistent."""


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
        if not is_integer(self.n_probes) or self.n_probes < 1:
            raise ConfigError(f"n_probes must be a positive integer, got {self.n_probes!r}")
        if not is_integer(self.trials) or self.trials < 1:
            raise ConfigError(f"trials must be a positive integer, got {self.trials!r}")
        if not is_integer(self.seed) or not 0 <= int(self.seed) < 2**64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        for name in ("n_probes", "trials", "seed"):
            object.__setattr__(self, name, int(getattr(self, name)))
        grid = tuple(float(t) for t in self.t_grid)
        if not grid:
            raise ConfigError("t_grid must not be empty")
        if not all(math.isfinite(t) for t in grid):
            raise ConfigError(f"t_grid must hold finite times, got {grid!r}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("t_grid must be strictly increasing")
        top = self.model.window_top
        if grid[0] < 0.0 or grid[-1] > top * (1.0 + WINDOW_RTOL):
            raise ConfigError(
                f"t_grid must lie within [0, {top}] for this model, got [{grid[0]}, {grid[-1]}]"
            )
        object.__setattr__(self, "t_grid", grid)
        _estimators_for(self.model, self.estimator)  # raises if there is none


@dataclass(frozen=True)
class ErrorCurvePoint:
    """Estimator statistics at one grid time.

    n_valid counts the contributions that produced a usable estimate
    (trials for sampled curves, count vectors for exact curves); mean,
    std_error, and bias are NaN when nothing contributed. crb is NaN where
    no Cramer-Rao bound exists: at a window edge (t = 0 or the window top)
    and where the Fisher information vanishes (chi = 0).
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

    COLUMNS = ("t", "mean_estimate", "std_error", "bias", "crb", "n_valid")

    def rows(self) -> list[tuple]:
        return [
            (p.t, p.mean_estimate, p.std_error, p.bias, p.crb, p.n_valid)
            for p in self.points
        ]


@dataclass(frozen=True)
class ResourceRow:
    """Measured precision of each design at one time, equal qubit budget.

    Columns are NaN where the grid time falls outside that design's
    identifiable window.
    """

    t: float
    dt_one_qubit: float
    dt_two_qubit: float
    dt_ghz: float
    crb_one_qubit: float
    crb_two_qubit: float
    crb_ghz: float


@dataclass(frozen=True)
class ResourceComparison:
    budget_qubits: int
    rows: tuple[ResourceRow, ...]

    COLUMNS = (
        "t",
        "dt_one_qubit",
        "dt_two_qubit",
        "dt_ghz",
        "crb_one_qubit",
        "crb_two_qubit",
        "crb_ghz",
    )

    def as_rows(self) -> list[tuple]:
        return [
            (
                r.t,
                r.dt_one_qubit,
                r.dt_two_qubit,
                r.dt_ghz,
                r.crb_one_qubit,
                r.crb_two_qubit,
                r.crb_ghz,
            )
            for r in self.rows
        ]


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
    model's classes (a binomial for the two-class designs).
    """
    if not is_integer(n_probes) or n_probes < 1:
        raise ValueError(f"n_probes must be a positive integer, got {n_probes!r}")
    pvals = np.multiply(model.class_sizes, model.class_probs(t))
    return rng.multinomial(n_probes, pvals / pvals.sum(), size=trials)


# Closed-form estimators by (model kind, estimator kind): the scalar
# estimator's name (the batch kernel's is the same plus "_batch") and the
# model parameters both take after the counts.
_CLOSED_FORMS = {
    ("one-qubit", EstimatorKind.CLOSED_FORM): ("mle_one_qubit", lambda m: (m.omega, m.chi)),
    ("ghz", EstimatorKind.CLOSED_FORM): ("mle_ghz", lambda m: (m.omega, m.n_entangled)),
    **{
        ("two-qubit", kind): ("combined_estimator", lambda m: (m.omega, m.Omega))
        for kind in (EstimatorKind.CLOSED_FORM, EstimatorKind.COMBINED)
    },
    ("two-qubit", EstimatorKind.COARSE): ("coarse_estimator", lambda m: (m.omega,)),
}


def _estimators_for(model: ClockModel, kind: EstimatorKind):
    """The scalar and the batch estimator of `kind` for the model.

    Both take the counts alone: a count vector for the scalar one, a tally
    array for the batch one. Raises ConfigError when the model has no such
    estimator, or when the combined estimator meets Omega != 2 omega.
    """
    if kind is EstimatorKind.NUMERIC:
        return partial(mle_numeric, model), partial(mle_numeric_batch, model)
    entry = _CLOSED_FORMS.get((model.kind, kind))
    if entry is None:
        raise ConfigError(f"{kind.value} estimator requires the two-qubit model")
    name, params = entry[0], entry[1](model)
    if name == "combined_estimator" and not is_harmonic(*params):
        raise ConfigError(
            "closed-form two-qubit estimation requires Omega = 2 omega; "
            "use the numeric estimator otherwise"
        )
    # Looked up at each call, so a wrapped module attribute is what runs.
    scalar, batch = getattr(estimators, name), getattr(estimators, name + "_batch")
    return (lambda counts: scalar(counts, *params)), (lambda counts: batch(counts, *params))


def apply_estimator(
    model: ClockModel, counts: CountVector, kind: EstimatorKind
) -> EstimateReport:
    return _estimators_for(model, kind)[0](counts)


def apply_estimator_batch(
    model: ClockModel, counts: np.ndarray, kind: EstimatorKind
) -> tuple[np.ndarray, np.ndarray]:
    """``apply_estimator`` on every row of a tally array: (t_hat, valid).

    t_hat is NaN on rows where apply_estimator raises DegenerateCountsError;
    valid is False there and on rows whose report is flagged invalid.
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


@lru_cache(maxsize=None)
def _count_table(n_probes: int, classes: int) -> tuple[np.ndarray, np.ndarray]:
    # The count space's tally rows and the log multinomial coefficient of
    # each, read-only, as every exact curve over it reuses them. The keys
    # are bounded: n_probes <= MAX_EXACT_PROBES and 2 or 4 classes.
    rows = count_tallies(n_probes, classes)
    log_factorial = np.array([math.lgamma(k + 1) for k in range(n_probes + 1)])
    log_coeff = log_factorial[n_probes] - log_factorial[rows].sum(axis=1)
    rows.setflags(write=False)
    log_coeff.setflags(write=False)
    return rows, log_coeff


def _exact_curve(config: ExperimentConfig) -> ErrorCurve:
    # Every tally row of the count space is estimated once, then weighted by
    # its multinomial probability at each grid time. The pmf is taken in log
    # space: k log p counts 0 where k = 0, and a row with k > 0 = p gets
    # weight 0.
    model, n = config.model, config.n_probes
    rows, log_coeff = _count_table(n, len(model.class_sizes))
    t_hat, valid = apply_estimator_batch(model, rows, config.estimator)
    rows, log_coeff, t_hat = rows[valid], log_coeff[valid], t_hat[valid]
    # (grid times x classes): each class's probability times its size.
    probs = np.transpose(model.class_probs(np.array(config.t_grid))) * model.class_sizes
    zero = probs == 0.0
    log_weights = log_coeff[:, np.newaxis] + rows @ np.log(np.where(zero, 1.0, probs)).T
    if zero.any():
        log_weights[(rows > 0) @ zero.T] = -np.inf
    weights = np.exp(log_weights)
    points = []
    for t, total, first, second, n_valid in zip(
        config.t_grid,
        weights.sum(axis=0).tolist(),
        (t_hat @ weights).tolist(),
        (t_hat * t_hat @ weights).tolist(),
        np.count_nonzero(weights, axis=0).tolist(),
    ):
        crb = _crb_or_nan(model, t, n)
        if total == 0.0:
            points.append(ErrorCurvePoint(t, math.nan, math.nan, math.nan, crb, 0))
            continue
        mean = first / total
        var = max(second / total - mean * mean, 0.0)
        points.append(ErrorCurvePoint(t, mean, math.sqrt(var), mean - t, crb, n_valid))
    return ErrorCurve(points=tuple(points))


def mean_estimator_curve(config: ExperimentConfig) -> ErrorCurve:
    """Estimator expectation over the grid, exactly where enumerable.

    For n_probes <= MAX_EXACT_PROBES the moments are exact expectations over
    the whole count space, renormalized over the count vectors that produce
    a valid estimate (trials and seed are ignored). The space is enumerated
    as one tally array (``count_tallies``) and estimated once with the batch
    kernel, whatever the grid length; each grid time then weights the rows
    by their multinomial probabilities. Larger probe counts fall back to the
    sampled curve.
    """
    if config.n_probes <= MAX_EXACT_PROBES:
        return _exact_curve(config)
    return error_curve(config)


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
    design's window.
    """
    if not is_integer(budget_qubits) or budget_qubits < 2 or budget_qubits % 2:
        raise ConfigError(f"budget_qubits must be an even integer >= 2, got {budget_qubits!r}")
    budget_qubits = int(budget_qubits)
    grid = tuple(float(t) for t in t_grid)
    if not all(math.isfinite(t) for t in grid):
        raise ConfigError(f"t_grid must hold finite times, got {grid!r}")
    models: list[tuple[ClockModel, int, EstimatorKind]] = [
        (OneQubitClock(omega=omega), budget_qubits, EstimatorKind.CLOSED_FORM),
        (
            TwoQubitClock(omega=omega, Omega=Omega),
            budget_qubits // 2,
            EstimatorKind.COMBINED
            if is_harmonic(omega, Omega)
            else EstimatorKind.NUMERIC,
        ),
        (GhzClock(omega=omega, n_entangled=2), budget_qubits // 2, EstimatorKind.CLOSED_FORM),
    ]
    columns: list[dict[float, tuple[float, float]]] = []
    for model, n_probes, kind in models:
        top = model.window_top * (1.0 + WINDOW_RTOL)
        inside = tuple(t for t in grid if 0.0 <= t <= top)
        lookup: dict[float, tuple[float, float]] = {}
        if inside:
            config = ExperimentConfig(
                model=model,
                n_probes=n_probes,
                t_grid=inside,
                trials=trials,
                seed=seed,
                estimator=kind,
            )
            curve = error_curve(config)
            for point in curve.points:
                lookup[point.t] = (point.std_error, point.crb)
        columns.append(lookup)
    rows = []
    nan = (math.nan, math.nan)
    for t in grid:
        one = columns[0].get(t, nan)
        two = columns[1].get(t, nan)
        ghz = columns[2].get(t, nan)
        rows.append(
            ResourceRow(
                t=t,
                dt_one_qubit=one[0],
                dt_two_qubit=two[0],
                dt_ghz=ghz[0],
                crb_one_qubit=one[1],
                crb_two_qubit=two[1],
                crb_ghz=ghz[1],
            )
        )
    return ResourceComparison(budget_qubits=budget_qubits, rows=tuple(rows))
