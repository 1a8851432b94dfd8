"""Bulkhead tenant routing: sticky shard assignment + admission budgets.

The supervisor puts a :class:`TenantRouter` in front of its shards so
that one tenant's overload (or one shard's death) cannot starve the
others — the *bulkhead* pattern. Three mechanisms compose, all
deterministic in arrival order:

* **sticky assignment** — each tenant maps to one shard, either
  explicitly (``assignments``) or by a stable hash (``zlib.crc32``;
  never Python's per-process-salted ``hash()``), so a tenant's queries
  share one warm store and one failure domain;
* **per-tenant budgets** — an optional token-bucket QPS cap per tenant
  (:class:`TenantBudget`); arrivals beyond it are shed at the router
  with reason ``tenant_budget`` before any shard sees them;
* **weighted-fair shedding** — when a shard itself is rate-limited
  (``shard_qps``), each tenant holds a *guaranteed* bucket sized by its
  weight share; the guarantee admits even when the shard's shared
  bucket has been drained by a noisy neighbour, so a protected share
  always gets through and the excess is shed with reason ``fair_share``.

With no budgets and no shard rate (the defaults) the router is pure
assignment: every request is forwarded and the serve path stays
bit-identical to an unrouted server.
"""

from __future__ import annotations

import dataclasses
import zlib
from typing import Mapping, Optional, Sequence

from ..errors import ConfigError
from ..obs.profile import PROFILER
from .request import QueryOutcome, QueryRequest

__all__ = [
    "SHED_TENANT_BUDGET",
    "SHED_FAIR_SHARE",
    "TenantBudget",
    "RoutingPlan",
    "TenantRouter",
]

SHED_TENANT_BUDGET = "tenant_budget"
SHED_FAIR_SHARE = "fair_share"


@dataclasses.dataclass(frozen=True)
class TenantBudget:
    """Admission budget and fair-share weight for one tenant."""

    #: relative share of a rate-limited shard's capacity.
    weight: float = 1.0
    #: absolute arrival-rate cap (None = uncapped).
    qps: Optional[float] = None
    #: token-bucket depth for the absolute cap.
    burst: float = 8.0

    def __post_init__(self) -> None:
        if self.weight <= 0.0:
            raise ConfigError(f"weight must be positive, got {self.weight}")
        if self.qps is not None and self.qps <= 0.0:
            raise ConfigError(f"qps must be positive, got {self.qps}")
        if self.burst < 1.0:
            raise ConfigError(f"burst must be >= 1, got {self.burst}")


class _Bucket:
    """Deterministic token bucket clocked by virtual arrival times."""

    __slots__ = ("rate", "burst", "tokens", "at")

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.at = 0.0

    def take(self, now: float) -> bool:
        if now > self.at:
            self.tokens = min(
                self.burst, self.tokens + (now - self.at) * self.rate
            )
            self.at = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclasses.dataclass(frozen=True)
class RoutingPlan:
    """The router's verdict on one request stream."""

    #: requests forwarded to each shard, in arrival order.
    per_shard: tuple[tuple[QueryRequest, ...], ...]
    #: terminal outcomes for requests shed at the router.
    shed: tuple[QueryOutcome, ...]
    #: tenant -> shard for every tenant seen in the stream.
    assignments: dict[str, int]

    def describe(self) -> dict[str, object]:
        reasons: dict[str, int] = {}
        for outcome in self.shed:
            reason = outcome.shed_reason or "unknown"
            reasons[reason] = reasons.get(reason, 0) + 1
        return {
            "assignments": {
                tenant: self.assignments[tenant]
                for tenant in sorted(self.assignments)
            },
            "forwarded_per_shard": [len(batch) for batch in self.per_shard],
            "shed": len(self.shed),
            "shed_reasons": {r: reasons[r] for r in sorted(reasons)},
        }


class TenantRouter:
    """Routes a request stream onto shards under bulkhead budgets."""

    def __init__(
        self,
        n_shards: int,
        budgets: Optional[Mapping[str, TenantBudget]] = None,
        default_budget: Optional[TenantBudget] = None,
        shard_qps: Optional[float] = None,
        shard_burst: float = 16.0,
        assignments: Optional[Mapping[str, int]] = None,
    ):
        if n_shards < 1:
            raise ConfigError(f"n_shards must be >= 1, got {n_shards}")
        if shard_qps is not None and shard_qps <= 0.0:
            raise ConfigError(f"shard_qps must be positive, got {shard_qps}")
        if shard_burst < 1.0:
            raise ConfigError(f"shard_burst must be >= 1, got {shard_burst}")
        self.n_shards = int(n_shards)
        self.budgets = dict(budgets) if budgets is not None else {}
        self.default_budget = default_budget
        self.shard_qps = float(shard_qps) if shard_qps is not None else None
        self.shard_burst = float(shard_burst)
        self.assignments = dict(assignments) if assignments is not None else {}
        for tenant, shard in self.assignments.items():
            if not 0 <= shard < self.n_shards:
                raise ConfigError(
                    f"tenant {tenant!r} pinned to shard {shard}, but only "
                    f"{self.n_shards} shards exist"
                )

    # ------------------------------------------------------------------
    def budget_for(self, tenant: str) -> Optional[TenantBudget]:
        budget = self.budgets.get(tenant)
        return budget if budget is not None else self.default_budget

    def shard_for(self, tenant: str) -> int:
        """Sticky tenant -> shard assignment (stable across processes)."""
        pinned = self.assignments.get(tenant)
        if pinned is not None:
            return pinned
        return zlib.crc32(tenant.encode("utf-8")) % self.n_shards

    # ------------------------------------------------------------------
    def route(self, requests: Sequence[QueryRequest]) -> RoutingPlan:
        """Partition ``requests`` onto shards, shedding over-budget
        arrivals with an explicit reason."""
        tok = PROFILER.start()
        order = sorted(requests, key=lambda r: (r.arrival, r.index))
        seen: dict[str, int] = {}
        for request in order:
            if request.tenant not in seen:
                seen[request.tenant] = self.shard_for(request.tenant)
        # weight shares are computed over the tenants actually present
        # on each shard, so guarantees always sum to the shard's rate.
        shard_weight: dict[int, float] = {}
        for tenant, shard in seen.items():
            budget = self.budget_for(tenant)
            weight = budget.weight if budget is not None else 1.0
            shard_weight[shard] = shard_weight.get(shard, 0.0) + weight

        tenant_caps: dict[str, _Bucket] = {}
        guarantees: dict[str, _Bucket] = {}
        shared: dict[int, _Bucket] = {}
        for tenant, shard in seen.items():
            budget = self.budget_for(tenant)
            if budget is not None and budget.qps is not None:
                tenant_caps[tenant] = _Bucket(budget.qps, budget.burst)
            if self.shard_qps is not None:
                weight = budget.weight if budget is not None else 1.0
                share = weight / shard_weight[shard]
                guarantees[tenant] = _Bucket(
                    share * self.shard_qps, max(1.0, share * self.shard_burst)
                )
        if self.shard_qps is not None:
            for shard in sorted(set(seen.values())):
                shared[shard] = _Bucket(self.shard_qps, self.shard_burst)

        per_shard: list[list[QueryRequest]] = [
            [] for _ in range(self.n_shards)
        ]
        shed: list[QueryOutcome] = []
        for request in order:
            reason = self._offer(
                request, tenant_caps, guarantees, shared, seen
            )
            if reason is not None:
                shed.append(QueryOutcome.shed(request, reason))
            else:
                per_shard[seen[request.tenant]].append(request)
        plan = RoutingPlan(
            per_shard=tuple(tuple(batch) for batch in per_shard),
            shed=tuple(shed),
            assignments=seen,
        )
        PROFILER.stop("serve.shard.route", tok)
        return plan

    def _offer(
        self,
        request: QueryRequest,
        tenant_caps: dict[str, _Bucket],
        guarantees: dict[str, _Bucket],
        shared: dict[int, _Bucket],
        seen: dict[str, int],
    ) -> Optional[str]:
        cap = tenant_caps.get(request.tenant)
        if cap is not None and not cap.take(request.arrival):
            return SHED_TENANT_BUDGET
        if self.shard_qps is None:
            return None
        guarantee = guarantees[request.tenant]
        pool = shared[seen[request.tenant]]
        # the guaranteed share admits first — a noisy neighbour can only
        # drain the *shared* pool, never another tenant's guarantee.
        if guarantee.take(request.arrival):
            pool.take(request.arrival)
            return None
        if pool.take(request.arrival):
            return None
        return SHED_FAIR_SHARE
