"""Cedar core: quality model, wait optimization, aggregator runtime,
and wait policies (the paper's §4 plus the §3 baselines)."""

from .aggregator import AdaptiveController, AggregatorController, StaticController
from .config import Stage, TreeSpec
from .dual import DualResult, deadline_savings, min_deadline_for_quality
from .explain import WaitExplanation, explain_wait
from .hetero import HeteroQuery, Silo, hetero_max_quality, hetero_wait_schedules
from .policies import (
    CedarDeepPolicy,
    CedarFailureAwarePolicy,
    CedarOfflinePolicy,
    CedarPolicy,
    EqualSplitPolicy,
    FixedStopPolicy,
    IdealPolicy,
    MeanSubtractPolicy,
    ProportionalSplitPolicy,
    QueryContext,
    WaitPolicy,
    default_policies,
)
from .quality import (
    QualityGrid,
    WaitCurve,
    max_quality,
    optimal_wait,
    quality_gain,
    quality_loss,
    sweep_wait,
    tail_quality_grid,
)
from .wait import (
    WaitOptimizer,
    WaitSchedule,
    calculate_wait,
    wait_schedule,
)
from .waitbatch import (
    BatchWaitSolver,
    CachedWaitOptimizer,
    WaitCacheConfig,
    WaitTableCache,
)

__all__ = [
    "DualResult",
    "min_deadline_for_quality",
    "deadline_savings",
    "WaitExplanation",
    "explain_wait",
    "Silo",
    "HeteroQuery",
    "hetero_max_quality",
    "hetero_wait_schedules",
    "BatchWaitSolver",
    "CachedWaitOptimizer",
    "WaitCacheConfig",
    "WaitTableCache",
    "Stage",
    "TreeSpec",
    "QualityGrid",
    "WaitCurve",
    "quality_gain",
    "quality_loss",
    "sweep_wait",
    "tail_quality_grid",
    "max_quality",
    "optimal_wait",
    "calculate_wait",
    "WaitOptimizer",
    "WaitSchedule",
    "wait_schedule",
    "AggregatorController",
    "StaticController",
    "AdaptiveController",
    "QueryContext",
    "WaitPolicy",
    "ProportionalSplitPolicy",
    "EqualSplitPolicy",
    "MeanSubtractPolicy",
    "FixedStopPolicy",
    "IdealPolicy",
    "CedarPolicy",
    "CedarDeepPolicy",
    "CedarFailureAwarePolicy",
    "CedarOfflinePolicy",
    "default_policies",
]
