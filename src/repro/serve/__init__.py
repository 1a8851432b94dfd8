"""Multi-tenant serving runtime — reproduction extension.

The paper evaluates Cedar one query at a time; a production aggregation
tier (Bing's frontend, PAPER §2) runs a long-lived service that admits,
schedules, and sheds overlapping deadline-bound queries. This package is
that layer:

* :class:`CedarServer` — an :class:`~repro.simulation.EventLoop`-driven
  frontend running overlapping queries against a shared capacity pool;
* :class:`AdmissionController` — bounded queue plus deadline-feasibility
  rejection, so overload degrades quality gracefully (BlinkDB-style
  bounded response time) instead of missing every deadline;
* :class:`WarmStartStore` / :class:`CedarWarmPolicy` — cross-query
  ``(mu, sigma)`` priors per workload key, with exponential decay and
  drift reset, so §4.2's online learning starts from the last-known
  distribution instead of cold;
* :class:`SLOAccountant` — per-tenant latency/quality/shed-rate rollups
  exported through :mod:`repro.obs`;
* :class:`LoadGenerator` — open-loop Poisson arrivals, optionally
  modulated by a :class:`~repro.traces.DiurnalWorkload` cycle, with
  optional mid-run regime shifts (:class:`DriftSpec`);
* :func:`run_serve_bench` — the QPS sweep behind
  ``cedar-repro serve-bench``;
* :func:`run_waitpath_bench` — the batched-wait-solver / wait-cache
  planner-cost comparison behind ``cedar-repro serve-bench --waitpath``
  (see :mod:`repro.core.waitbatch`).

Chaos hardening (the serve path under performance variations, the
paper's core threat model, plus outright faults):

* :class:`FaultSchedule` / :class:`FaultyBackend` — time-varying fault
  injection on the serve path (zero rates are bit-identical to none);
* :class:`HedgingPolicy` — the tail-tolerant hedged-request baseline
  Cedar is raced against under identical seeded fault schedules;
* :class:`DegradeController` — retry budgets, circuit breaker, brownout:
  every shed/degrade decision carries an explicit reason;
* :func:`run_chaos_serve_bench` — the fault x drift sweep behind
  ``cedar-repro serve-bench --chaos``.

Sharded supervision (the serving *process* under crashes):

* :class:`ShardSupervisor` — N ``CedarServer`` worker processes behind a
  :class:`TenantRouter` (bulkhead isolation), heartbeated, restarted
  from :class:`WarmStateCheckpoint` snapshots after injected
  :class:`ShardKillSchedule` kills, re-dispatching in-flight queries
  with their original seeds so every admitted query reaches exactly one
  terminal outcome;
* :func:`run_shard_serve_bench` — the kill x load sweep behind
  ``cedar-repro serve-bench --shards``.

Everything runs in virtual time: a serve run on a fixed seed is
bit-identical across repeats, and at vanishing load it reproduces
:func:`repro.simulation.simulate_query` exactly (asserted in the tests).
"""

from .admission import (
    SHED_INFEASIBLE,
    SHED_QUEUE_FULL,
    SHED_STALE,
    AdmissionController,
)
from .checkpoint import CHECKPOINT_VERSION, WarmStateCheckpoint
from .bench import pinned_config, pinned_workload, run_serve_bench
from .chaos import FaultSchedule, FaultWindow, FaultyBackend
from .chaosbench import (
    brownout_schedule,
    pinned_degrade_config,
    pinned_drift,
    pinned_fault_schedule,
    pinned_hedging_config,
    run_chaos_serve_bench,
)
from .degrade import (
    MODE_BROWNOUT,
    MODE_CIRCUIT_OPEN,
    MODE_HEALTHY,
    MODE_PROBING,
    SHED_CIRCUIT_OPEN,
    DegradeConfig,
    DegradeController,
    ModeTransition,
)
from .hedging import (
    HedgedQueryResult,
    HedgingConfig,
    HedgingPolicy,
    simulate_query_hedged,
)
from .loadgen import DriftSpec, FixedWorkload, LoadGenerator
from .request import QueryOutcome, QueryRequest, ServeConfig
from .router import (
    SHED_FAIR_SHARE,
    SHED_TENANT_BUDGET,
    RoutingPlan,
    TenantBudget,
    TenantRouter,
)
from .server import (
    BackendResult,
    CedarServer,
    FixedServiceBackend,
    ServeReport,
    SimBackend,
    TcpBackend,
)
from .shard import (
    SHED_SHARD_LOST,
    ShardConfig,
    ShardKill,
    ShardKillSchedule,
    ShardServeReport,
    ShardSupervisor,
)
from .shardbench import pinned_shard_tenants, run_shard_serve_bench
from .shardworker import ShardTask, run_incarnation, shard_worker_main
from .slo import (
    SERVE_METRIC_NAMES,
    SERVE_PROFILE_SITES,
    SERVE_SPAN_ATTRS,
    SLOAccountant,
)
from .waitbench import run_waitpath_bench
from .warmstart import CedarWarmPolicy, WarmStartStore

__all__ = [
    "AdmissionController",
    "BackendResult",
    "CHECKPOINT_VERSION",
    "CedarServer",
    "CedarWarmPolicy",
    "DegradeConfig",
    "DegradeController",
    "DriftSpec",
    "FaultSchedule",
    "FaultWindow",
    "FaultyBackend",
    "FixedServiceBackend",
    "FixedWorkload",
    "HedgedQueryResult",
    "HedgingConfig",
    "HedgingPolicy",
    "LoadGenerator",
    "MODE_BROWNOUT",
    "MODE_CIRCUIT_OPEN",
    "MODE_HEALTHY",
    "MODE_PROBING",
    "ModeTransition",
    "QueryOutcome",
    "QueryRequest",
    "RoutingPlan",
    "SERVE_METRIC_NAMES",
    "SERVE_PROFILE_SITES",
    "SERVE_SPAN_ATTRS",
    "SHED_CIRCUIT_OPEN",
    "SHED_FAIR_SHARE",
    "SHED_INFEASIBLE",
    "SHED_QUEUE_FULL",
    "SHED_SHARD_LOST",
    "SHED_STALE",
    "SHED_TENANT_BUDGET",
    "SLOAccountant",
    "ServeConfig",
    "ServeReport",
    "ShardConfig",
    "ShardKill",
    "ShardKillSchedule",
    "ShardServeReport",
    "ShardSupervisor",
    "ShardTask",
    "SimBackend",
    "TcpBackend",
    "TenantBudget",
    "TenantRouter",
    "WarmStartStore",
    "WarmStateCheckpoint",
    "brownout_schedule",
    "pinned_config",
    "pinned_degrade_config",
    "pinned_drift",
    "pinned_fault_schedule",
    "pinned_hedging_config",
    "pinned_shard_tenants",
    "pinned_workload",
    "run_chaos_serve_bench",
    "run_incarnation",
    "run_serve_bench",
    "run_shard_serve_bench",
    "run_waitpath_bench",
    "shard_worker_main",
    "simulate_query_hedged",
]
