"""Request/outcome records and the server configuration.

A :class:`QueryRequest` is one externally-arriving aggregation query: it
carries everything needed to run it (the sampled true tree, the
per-request seed) plus the serving metadata (tenant, workload key,
arrival time, deadline). Requests are fully materialised *before* the
server runs — per-request seeds are drawn independently of any
interleaving, which is what makes a serve run bit-identical regardless
of how queries overlap.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Optional

from ..core import TreeSpec
from ..core.waitbatch import WaitCacheConfig
from ..errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.deployment import DeploymentConfig
    from .chaos import FaultSchedule
    from .degrade import DegradeConfig

__all__ = ["QueryRequest", "QueryOutcome", "ServeConfig"]


@dataclasses.dataclass(frozen=True)
class QueryRequest:
    """One query arriving at the serving frontend."""

    index: int
    arrival: float
    deadline: float
    tree: TreeSpec
    seed: int
    tenant: str = "default"
    workload_key: str = "default"

    def __post_init__(self) -> None:
        if self.arrival < 0.0:
            raise ConfigError(f"arrival must be >= 0, got {self.arrival}")
        if self.deadline <= 0.0:
            raise ConfigError(f"deadline must be positive, got {self.deadline}")


@dataclasses.dataclass(frozen=True)
class QueryOutcome:
    """What happened to one request: shed, or completed with a quality."""

    index: int
    tenant: str
    workload_key: str
    arrival: float
    deadline: float
    admitted: bool
    #: why the request was shed (None when admitted).
    shed_reason: Optional[str] = None
    #: time spent waiting for a capacity slot (admitted requests only).
    queue_delay: float = 0.0
    #: contention slowdown applied to the bottom stage at dispatch.
    slowdown: float = 1.0
    #: arrival-to-response latency (admitted requests only).
    latency: float = 0.0
    quality: float = 0.0
    included_outputs: int = 0
    total_outputs: int = 0
    #: responded within the deadline *with a non-empty answer* — an
    #: on-time response carrying zero outputs is an effective miss.
    deadline_hit: bool = False
    #: whether a warm-start prior was available at dispatch.
    warm: bool = False
    #: whether any data-losing fault fired on the winning attempt.
    degraded: bool = False
    #: extra attempts consumed by the graceful-degradation controller.
    retries: int = 0
    #: whether the final attempt dispatched with a brownout-widened
    #: deadline (deadline_hit is judged against the widened value).
    brownout: bool = False
    #: hedged duplicates issued (hedging backend only).
    reissued: int = 0
    #: hedged duplicates that beat their original.
    hedge_wins: int = 0

    @classmethod
    def shed(cls, request: QueryRequest, reason: str) -> "QueryOutcome":
        """The terminal outcome of a request refused with ``reason`` (by
        a server, the tenant router, or a supervisor out of restarts)."""
        return cls(
            index=request.index,
            tenant=request.tenant,
            workload_key=request.workload_key,
            arrival=request.arrival,
            deadline=request.deadline,
            admitted=False,
            shed_reason=reason,
        )

    def as_dict(self) -> dict[str, object]:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class ServeConfig:
    """Capacity and policy knobs of one :class:`~repro.serve.CedarServer`.

    ``max_concurrent`` is the number of queries that can hold a full
    complement of task slots at once (see
    :meth:`repro.cluster.DeploymentConfig.concurrent_query_capacity`);
    ``max_queue`` bounds how many admitted-but-waiting requests may pile
    up behind them. ``min_deadline_fraction`` is the feasibility floor:
    a request predicted to start with less than this fraction of its
    deadline remaining is shed instead of admitted doomed.

    ``contention_coeff`` models shared-capacity interference: a query
    dispatched while ``r`` of ``max_concurrent`` slots are busy runs its
    bottom stage slowed by ``1 + contention_coeff * r / max_concurrent``.
    At zero occupancy the factor is exactly 1.0 and the query is
    bit-identical to a standalone :func:`~repro.simulation.simulate_query`.
    """

    max_concurrent: int = 4
    max_queue: int = 16
    min_deadline_fraction: float = 0.3
    contention_coeff: float = 0.0
    #: initial service-time estimate for feasibility prediction; learned
    #: from completions (EWMA) once traffic flows. None = optimistic 0.
    service_time_guess: Optional[float] = None
    ewma_alpha: float = 0.2
    #: cross-query warm start (b): per-workload-key priors.
    warm_start: bool = True
    #: arrivals before the online fit overrides a warm prior.
    warm_min_samples: int = 5
    #: optimizer grid resolution for the Cedar policies the server builds.
    grid_points: int = 96
    #: bottom-subtree sampling cap forwarded to the simulator backend.
    agg_sample: Optional[int] = None
    #: time-varying fault injection for the serve path: when set (and no
    #: explicit backend is passed) the server builds a
    #: :class:`~repro.serve.FaultyBackend` over this schedule. A schedule
    #: whose rates are all zero leaves the run bit-identical to
    #: ``faults=None``.
    faults: Optional["FaultSchedule"] = None
    #: graceful-degradation controller (retry budgets, circuit breaker,
    #: brownout); None disables it. With no faults firing the controller
    #: never acts, so enabling it is also bit-neutral.
    degrade: Optional["DegradeConfig"] = None
    #: cross-query wait-table cache: when set, the server builds one
    #: :class:`~repro.core.waitbatch.WaitTableCache` with these
    #: quantization steps and wires it through the Cedar policies, so
    #: concurrent queries share wait solves instead of each re-sweeping.
    #: None (the default) keeps the exact per-policy optimizers.
    wait_cache: Optional[WaitCacheConfig] = None
    #: serve bottom-level wait decisions from a trained
    #: :class:`~repro.learn.table.LearnedWaitTable` (O(1) lookups with a
    #: guarded fallback to exact Cedar) instead of the per-arrival sweep.
    learned: bool = False
    #: path to the learned-table artifact; None = the pinned default
    #: table shipped with the package. Only meaningful with ``learned``.
    learned_table: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_concurrent < 1:
            raise ConfigError(
                f"max_concurrent must be >= 1, got {self.max_concurrent}"
            )
        if self.max_queue < 0:
            raise ConfigError(f"max_queue must be >= 0, got {self.max_queue}")
        if not 0.0 <= self.min_deadline_fraction < 1.0:
            raise ConfigError(
                "min_deadline_fraction must be in [0, 1), got "
                f"{self.min_deadline_fraction}"
            )
        if self.contention_coeff < 0.0:
            raise ConfigError(
                f"contention_coeff must be >= 0, got {self.contention_coeff}"
            )
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ConfigError(
                f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}"
            )
        if self.warm_min_samples < 2:
            raise ConfigError(
                f"warm_min_samples must be >= 2, got {self.warm_min_samples}"
            )
        if self.learned_table is not None and not self.learned:
            raise ConfigError("learned_table requires learned=True")

    @classmethod
    def for_deployment(
        cls, deployment: "DeploymentConfig", **overrides: Any
    ) -> "ServeConfig":
        """Size the admission bound from a cluster deployment:
        ``max_concurrent`` is the number of queries whose tasks fit in
        the cluster's slot pool at once
        (:meth:`~repro.cluster.DeploymentConfig.concurrent_query_capacity`).
        Any other field may be overridden by keyword."""
        base = cls(max_concurrent=deployment.concurrent_query_capacity())
        return dataclasses.replace(base, **overrides) if overrides else base
