"""Tail-tolerant request hedging: the serving baseline Cedar races.

The Tail-Tolerant Search literature (Kraus et al., PAPERS.md) answers
performance variation with *replication*: once a worker's age passes a
fixed delay — a quantile of the offline duration distribution — reissue
it and keep whichever copy answers first. :class:`HedgingPolicy` is that
strategy at the serving layer: a static hedge delay precomputed from the
offline tree (Dean & Barroso's classic "hedged request" rule), a
per-aggregator reissue budget, and a per-tenant budget so one noisy
tenant cannot monopolise the duplicate capacity.

A hedged query is the shared tree walk of :mod:`repro.simulation.query`
under a :class:`~repro.faults.FaultModel`, with the static-bar reissue
loop (:func:`repro.simulation.run_aggregator_with_reissue`) driving the
bottom aggregators — so a hedging serve run and a Cedar serve run on the
same requests face the same fault schedule and the benchmark's
head-to-head comparison isolates the policy difference. Hedge duplicates
draw from their own child stream (see :mod:`repro.faults.model`).

The static bar is load-bearing for testability: until the first reissue
triggers, the trajectory is independent of the hedge quantile, so the
reissue count is provably monotone non-increasing in the quantile — a
Hypothesis property test (``tests/serve/test_hedging.py``) asserts it.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional

from ..core import QueryContext, WaitPolicy
from ..errors import ConfigError
from ..faults.inject import _FaultCounts
from ..faults.model import FaultModel
from ..obs.metrics import MetricsRegistry
from ..obs.profile import PROFILER
from ..obs.span import SpanTracer
from ..rng import SeedLike
from ..simulation.query import _walk_query
from ..simulation.reissue import _ReissueDriver
from .chaos import FaultSchedule
from .request import QueryRequest
from .server import BackendResult, QueryBackend

__all__ = [
    "HedgingConfig",
    "HedgedQueryResult",
    "HedgingPolicy",
    "simulate_query_hedged",
]


@dataclasses.dataclass(frozen=True)
class HedgingConfig:
    """Knobs of the hedged-request baseline."""

    #: hedge delay = this quantile of the *offline* bottom distribution.
    hedge_quantile: float = 0.95
    #: at most this fraction of each aggregator's fan-in may be hedged.
    budget_fraction: float = 0.1
    #: reissues granted per tenant per serve run.
    tenant_budget: int = 64

    def __post_init__(self) -> None:
        if not 0.5 < self.hedge_quantile < 1.0:
            raise ConfigError(
                f"hedge_quantile must be in (0.5, 1), got {self.hedge_quantile}"
            )
        if not 0.0 < self.budget_fraction <= 1.0:
            raise ConfigError(
                f"budget_fraction must be in (0, 1], got {self.budget_fraction}"
            )
        if self.tenant_budget < 1:
            raise ConfigError(
                f"tenant_budget must be >= 1, got {self.tenant_budget}"
            )


@dataclasses.dataclass(frozen=True)
class HedgedQueryResult(_FaultCounts):
    """Outcome of one hedged query under fault injection."""

    quality: float
    included_outputs: int
    total_outputs: int
    #: virtual completion time (deadline if anything was late or missing).
    elapsed: float
    reissued: int
    hedge_wins: int
    crashed_workers: int = 0
    straggler_workers: int = 0
    crashed_aggregators: int = 0
    lost_shipments: int = 0
    failed_domains: int = 0
    late_at_root: int = 0


def simulate_query_hedged(
    ctx: QueryContext,
    policy: WaitPolicy,
    faults: FaultModel,
    config: HedgingConfig,
    seed: SeedLike = None,
    budget: Optional[int] = None,
) -> HedgedQueryResult:
    """One two-level query with static hedged requests, under ``faults``.

    ``budget`` caps the total reissues this query may spend (the
    remaining per-tenant allowance); None means only the per-aggregator
    fraction applies. A crashed worker's copy never arrives, but its
    hedge duplicate can still win — hedging's one structural advantage
    over waiting.
    """
    tok = PROFILER.start()
    driver = _ReissueDriver(
        ctx,
        "hedged",
        config.budget_fraction,
        total=budget,
        # the static hedge bar: a fixed quantile of the offline distribution
        threshold_age=float(
            ctx.offline_tree.stages[0].duration.quantile(config.hedge_quantile)
        ),
    )
    result, tally = _walk_query(ctx, policy, seed, faults=faults, bottom=driver)
    PROFILER.stop("serve.hedge.query", tok)
    return HedgedQueryResult(
        quality=result.quality,
        included_outputs=result.included_outputs,
        total_outputs=result.total_outputs,
        elapsed=result.elapsed,
        reissued=driver.reissued,
        hedge_wins=driver.wins,
        late_at_root=result.late_at_root,
        **vars(tally),
    )


class HedgingPolicy(QueryBackend):
    """Serve backend running every query with static hedged requests.

    Structured as a backend (not a :class:`~repro.core.WaitPolicy`)
    because hedging changes *execution* — duplicate requests — not just
    the wait decision; the wait policy passed by the server still decides
    when each aggregator folds. Tracks a per-tenant reissue allowance
    across the run; :meth:`observe_dispatch` tells it whose allowance the
    next query spends and which scheduled fault model applies.
    """

    def __init__(
        self,
        schedule: Optional[FaultSchedule] = None,
        config: Optional[HedgingConfig] = None,
    ):
        self.schedule = schedule if schedule is not None else FaultSchedule()
        self.config = config if config is not None else HedgingConfig()
        self._now = 0.0
        self._tenant = "default"
        self._tokens: dict[str, int] = {}

    def on_run_start(self) -> None:
        """Reset per-run state (the server calls this at run start)."""
        self._now = 0.0
        self._tenant = "default"
        self._tokens = {}

    def observe_dispatch(self, request: QueryRequest, now: float) -> None:
        self._now = float(now)
        self._tenant = request.tenant

    def tokens_left(self, tenant: str) -> int:
        """Remaining reissue allowance for ``tenant``."""
        return self._tokens.get(tenant, self.config.tenant_budget)

    def run(
        self,
        ctx: QueryContext,
        policy: WaitPolicy,
        seed: int,
        tracer: Optional[SpanTracer],
        metrics: Optional[MetricsRegistry],
        span_attrs: dict[str, Any],
    ) -> BackendResult:
        model = self.schedule.model_at(self._now)
        left = self.tokens_left(self._tenant)
        result = simulate_query_hedged(
            ctx,
            policy,
            model,
            self.config,
            seed=seed,
            budget=left,
        )
        self._tokens[self._tenant] = left - result.reissued
        return BackendResult.from_result(result)
