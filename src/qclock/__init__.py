"""Simulation and estimation toolkit for few-qubit quantum clocks.

Three clock designs (one-qubit, two-qubit with a slow and a fast splitting,
and an n-qubit GHZ register) with exact outcome statistics, Fisher
information and Cramer-Rao bounds, closed-form and numeric maximum
likelihood time estimators, and seeded Monte-Carlo error/bias experiments.
"""

from .clocks import (
    ClockModel,
    GhzClock,
    OneQubitClock,
    TwoQubitClock,
    evolved_distribution,
    n_probe_count_distribution,
    recurrence_time,
)
from .counts import (
    CountVector,
    GhzCounts,
    OneQubitCounts,
    TwoQubitCounts,
    reduce_counts,
)
from .estimators import (
    Branch,
    DegenerateCountsError,
    EstimateReport,
    coarse_estimator,
    combined_estimator,
    log_likelihood,
    mle_ghz,
    mle_numeric,
    mle_one_qubit,
    mle_two_qubit_roots,
)
from .fisher import (
    DegenerateTimeError,
    FisherKind,
    FisherReport,
    classical_fisher,
    crb,
    fisher_one_qubit_analytic,
    quantum_fisher,
)
from .montecarlo import (
    ConfigError,
    ErrorCurve,
    ErrorCurvePoint,
    EstimatorKind,
    ExperimentConfig,
    ResourceComparison,
    ResourceRow,
    apply_estimator,
    apply_estimator_batch,
    cell_rng,
    compare_resources,
    error_curve,
    mean_estimator_curve,
    sample_counts,
)
from .states import OutcomeDistribution, evolve

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "ClockModel",
    "ConfigError",
    "CountVector",
    "DegenerateCountsError",
    "DegenerateTimeError",
    "ErrorCurve",
    "ErrorCurvePoint",
    "EstimateReport",
    "EstimatorKind",
    "ExperimentConfig",
    "FisherKind",
    "FisherReport",
    "GhzClock",
    "GhzCounts",
    "OneQubitClock",
    "OneQubitCounts",
    "OutcomeDistribution",
    "ResourceComparison",
    "ResourceRow",
    "TwoQubitClock",
    "TwoQubitCounts",
    "__version__",
    "apply_estimator",
    "apply_estimator_batch",
    "cell_rng",
    "classical_fisher",
    "coarse_estimator",
    "combined_estimator",
    "compare_resources",
    "crb",
    "error_curve",
    "evolve",
    "evolved_distribution",
    "fisher_one_qubit_analytic",
    "log_likelihood",
    "mean_estimator_curve",
    "mle_ghz",
    "mle_numeric",
    "mle_one_qubit",
    "mle_two_qubit_roots",
    "n_probe_count_distribution",
    "quantum_fisher",
    "recurrence_time",
    "reduce_counts",
    "sample_counts",
]
