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
    recurrence_time,
)
from .counts import (
    GhzCounts,
    OneQubitCounts,
    Tallies,
    TwoQubitCounts,
)
from .estimators import (
    Branch,
    DegenerateCountsError,
    EstimateReport,
    coarse_estimator,
    combined_estimator,
    log_likelihood,
    mle_numeric,
    mle_single_pair,
    mle_two_qubit_roots,
)
from .fisher import (
    DegenerateTimeError,
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
    cell_rngs,
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
    "DegenerateCountsError",
    "DegenerateTimeError",
    "ErrorCurve",
    "ErrorCurvePoint",
    "EstimateReport",
    "EstimatorKind",
    "ExperimentConfig",
    "FisherReport",
    "GhzClock",
    "GhzCounts",
    "OneQubitClock",
    "OneQubitCounts",
    "OutcomeDistribution",
    "ResourceComparison",
    "ResourceRow",
    "Tallies",
    "TwoQubitClock",
    "TwoQubitCounts",
    "__version__",
    "apply_estimator",
    "apply_estimator_batch",
    "cell_rngs",
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
    "mle_numeric",
    "mle_single_pair",
    "mle_two_qubit_roots",
    "quantum_fisher",
    "recurrence_time",
    "sample_counts",
]
