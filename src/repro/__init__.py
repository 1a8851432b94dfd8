"""Cedar: aggregation queries under performance variations.

Reproduction of Kumar, Ananthanarayanan, Ratnasamy & Stoica,
"Hold 'em or Fold 'em? Aggregation Queries under Performance Variations",
EuroSys 2016.

Quickstart::

    from repro import (
        LogNormal, TreeSpec, CedarPolicy, ProportionalSplitPolicy,
        QueryContext, simulate_query,
    )

    tree = TreeSpec.two_level(LogNormal(2.77, 0.84), 50, LogNormal(4.2, 0.7), 50)
    ctx = QueryContext(deadline=1000.0, offline_tree=tree, true_tree=tree)
    print(simulate_query(ctx, CedarPolicy(), seed=1).quality)

Package layout:

* :mod:`repro.distributions` — duration distribution families + fitting
* :mod:`repro.orderstats`    — order-statistic math (the de-biasing key)
* :mod:`repro.estimation`    — online parameter estimators
* :mod:`repro.core`          — quality model, wait optimizer, policies
* :mod:`repro.simulation`    — trace-driven query simulator
* :mod:`repro.cluster`       — miniature partition-aggregate engine
* :mod:`repro.traces`        — production-calibrated workloads
* :mod:`repro.experiments`   — one module per paper figure
"""

from .core import (
    AdaptiveController,
    AggregatorController,
    CedarOfflinePolicy,
    CedarPolicy,
    EqualSplitPolicy,
    FixedStopPolicy,
    IdealPolicy,
    MeanSubtractPolicy,
    ProportionalSplitPolicy,
    QueryContext,
    Stage,
    StaticController,
    TreeSpec,
    WaitOptimizer,
    WaitPolicy,
    calculate_wait,
    default_policies,
    max_quality,
    optimal_wait,
    wait_schedule,
)
from .distributions import (
    Distribution,
    Empirical,
    Exponential,
    Gamma,
    LogNormal,
    Mixture,
    Normal,
    Pareto,
    TruncatedNormal,
    Uniform,
    Weibull,
    fit_distribution_type,
    fit_samples,
)
from .errors import (
    ConfigError,
    DistributionError,
    EstimationError,
    FitError,
    ReproError,
    SchedulerError,
    SimulationError,
    TraceError,
)
from .estimation import (
    CensoredMLEEstimator,
    EmpiricalEstimator,
    OrderStatisticEstimator,
    StreamingEstimator,
)
from .simulation import RunResult, run_experiment, simulate_query

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # distributions
    "Distribution",
    "LogNormal",
    "Normal",
    "TruncatedNormal",
    "Exponential",
    "Pareto",
    "Weibull",
    "Gamma",
    "Uniform",
    "Empirical",
    "Mixture",
    "fit_distribution_type",
    "fit_samples",
    # estimation
    "OrderStatisticEstimator",
    "EmpiricalEstimator",
    "CensoredMLEEstimator",
    "StreamingEstimator",
    # core
    "Stage",
    "TreeSpec",
    "QueryContext",
    "WaitPolicy",
    "WaitOptimizer",
    "CedarPolicy",
    "CedarOfflinePolicy",
    "IdealPolicy",
    "ProportionalSplitPolicy",
    "EqualSplitPolicy",
    "MeanSubtractPolicy",
    "FixedStopPolicy",
    "AggregatorController",
    "StaticController",
    "AdaptiveController",
    "calculate_wait",
    "max_quality",
    "optimal_wait",
    "wait_schedule",
    "default_policies",
    # simulation
    "simulate_query",
    "run_experiment",
    "RunResult",
    # errors
    "ReproError",
    "DistributionError",
    "FitError",
    "EstimationError",
    "ConfigError",
    "SimulationError",
    "SchedulerError",
    "TraceError",
]
