"""SLO accounting: per-tenant latency/quality/shed-rate rollups.

The serving layer's contract is probabilistic ("p99 latency under D,
mean quality above q, shed rate below s"), so the accountant keeps raw
per-tenant samples and summarises them as percentiles at report time.
Everything is also mirrored into a :class:`~repro.obs.MetricsRegistry`
(when one is attached) under the ``serve_*`` families below, so a serve
run exports the same Prometheus surface as the rest of the repo.

The three ``SERVE_*`` constants are the subsystem's complete
observability vocabulary; a test asserts they stay in sync with both the
cedarlint ``KNOWN_*`` sets and the names actually emitted by this
package.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

import numpy as np

from ..errors import ConfigError
from ..obs.metrics import FRACTION_BUCKETS, QUALITY_BUCKETS, MetricsRegistry
from .request import QueryOutcome

__all__ = [
    "SLOAccountant",
    "SERVE_METRIC_NAMES",
    "SERVE_SPAN_ATTRS",
    "SERVE_PROFILE_SITES",
]

#: every metric family name repro.serve emits (without the namespace).
SERVE_METRIC_NAMES = frozenset(
    {
        "serve_requests_total",
        "serve_shed_total",
        "serve_responses_total",
        "serve_latency_fraction",
        "serve_quality",
        "serve_queue_depth",
        "serve_chaos_degraded_total",
        "serve_chaos_retries_total",
        "serve_chaos_brownout_total",
        "serve_chaos_mode_transitions_total",
        "serve_chaos_hedge_reissued_total",
        "serve_chaos_hedge_wins_total",
        "serve_shard_kills_total",
        "serve_shard_restarts_total",
        "serve_shard_checkpoints_total",
        "serve_shard_heartbeats_total",
        "serve_shard_redispatched_total",
        "serve_shard_router_shed_total",
        "serve_shard_orphaned_total",
        "serve_wait_cache_hits_total",
        "serve_wait_cache_misses_total",
        "serve_wait_cache_batch_solves_total",
        "serve_wait_cache_entries",
        "serve_learned_lookups_total",
        "serve_learned_fallbacks_total",
    }
)

#: every span attribute repro.serve sets on its "request"/"degrade"/
#: "supervisor" spans.
SERVE_SPAN_ATTRS = frozenset(
    {
        "admitted",
        "brownout",
        "deadline",
        "degraded",
        "event",
        "hedge_wins",
        "incarnation",
        "latency",
        "mode",
        "pending",
        "quality",
        "query_index",
        "queue_delay",
        "reason",
        "reissued",
        "retries",
        "shard",
        "shed_reason",
        "slowdown",
        "tenant",
        "warm",
        "workload_key",
    }
)

#: every profiler site repro.serve instruments.
SERVE_PROFILE_SITES = frozenset(
    {
        "serve.admission.offer",
        "serve.degrade.decide",
        "serve.dispatch",
        "serve.hedge.query",
        "serve.shard.checkpoint",
        "serve.shard.merge",
        "serve.shard.route",
        "serve.waitcache.prewarm",
        "serve.warmstart.observe",
    }
)


class _TenantState:
    __slots__ = (
        "arrivals",
        "shed",
        "shed_reasons",
        "latencies",
        "qualities",
        "hits",
        "degraded",
        "retries",
        "brownout",
        "reissued",
        "hedge_wins",
    )

    def __init__(self) -> None:
        self.arrivals = 0
        self.shed = 0
        self.shed_reasons: dict[str, int] = {}
        self.latencies: list[float] = []
        self.qualities: list[float] = []
        self.hits = 0
        self.degraded = 0
        self.retries = 0
        self.brownout = 0
        self.reissued = 0
        self.hedge_wins = 0


def _percentile(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def _summarise(
    outcomes: Sequence[QueryOutcome], n_requests: int
) -> dict[str, Any]:
    """The headline fields :class:`~repro.serve.ServeReport` and
    :class:`~repro.serve.ShardServeReport` share, over one terminal
    outcome stream (keyed by field name, for ``**`` into either)."""
    admitted = [o for o in outcomes if o.admitted]
    shed = len(outcomes) - len(admitted)
    latencies = [o.latency for o in admitted]
    hits = sum(1 for o in admitted if o.deadline_hit)
    return {
        "n_requests": n_requests,
        "admitted": len(admitted),
        "completed": len(admitted),
        "shed": shed,
        "shed_fraction": shed / n_requests if n_requests else 0.0,
        "deadline_hit_rate": hits / len(admitted) if admitted else 0.0,
        "mean_quality": (
            float(np.mean([o.quality for o in admitted])) if admitted else 0.0
        ),
        "latency_p50": _percentile(latencies, 50.0),
        "latency_p95": _percentile(latencies, 95.0),
        "latency_p99": _percentile(latencies, 99.0),
    }


class SLOAccountant:
    """Accumulates per-tenant serving outcomes and rolls them up."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None):
        self._metrics = metrics
        self._tenants: dict[str, _TenantState] = {}

    def _tenant(self, tenant: str) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            state = self._tenants[tenant] = _TenantState()
        return state

    # ------------------------------------------------------------------
    def record_arrival(self, tenant: str) -> None:
        self._tenant(tenant).arrivals += 1
        metrics = self._metrics
        if metrics is not None:
            metrics.counter(
                "serve_requests_total", help="requests offered to the server"
            ).inc(tenant=tenant)

    def record_shed(self, tenant: str, reason: str) -> None:
        state = self._tenant(tenant)
        state.shed += 1
        state.shed_reasons[reason] = state.shed_reasons.get(reason, 0) + 1
        metrics = self._metrics
        if metrics is not None:
            metrics.counter(
                "serve_shed_total", help="requests shed by admission control"
            ).inc(tenant=tenant, reason=reason)

    def record_completion(
        self, tenant: str, latency: float, deadline: float, quality: float, hit: bool
    ) -> None:
        if deadline <= 0.0:
            raise ConfigError(f"deadline must be positive, got {deadline}")
        state = self._tenant(tenant)
        state.latencies.append(float(latency))
        state.qualities.append(float(quality))
        if hit:
            state.hits += 1
        metrics = self._metrics
        if metrics is not None:
            metrics.counter(
                "serve_responses_total", help="responses returned, by outcome"
            ).inc(tenant=tenant, hit="true" if hit else "false")
            metrics.histogram(
                "serve_latency_fraction",
                buckets=FRACTION_BUCKETS,
                help="response latency as a fraction of the deadline",
            ).observe(min(1.0, latency / deadline), tenant=tenant)
            metrics.histogram(
                "serve_quality",
                buckets=QUALITY_BUCKETS,
                help="per-response quality at the serving layer",
            ).observe(quality, tenant=tenant)

    def record_answer(self, outcome: QueryOutcome, eff_deadline: float) -> None:
        """Everything one answered query owes the accountant: the
        completion (judged against ``eff_deadline``, the brownout-widened
        deadline its attempt ran under) plus its degraded / brownout /
        hedge marks. The server's answer stage and the supervisor's
        merged-stream replay both record through here."""
        self.record_completion(
            outcome.tenant,
            outcome.latency,
            eff_deadline,
            outcome.quality,
            outcome.deadline_hit,
        )
        if outcome.degraded:
            self.record_degraded(outcome.tenant)
        if outcome.brownout:
            self.record_brownout(outcome.tenant)
        if outcome.reissued:
            self.record_hedge(outcome.tenant, outcome.reissued, outcome.hedge_wins)

    def record_queue_depth(self, depth: int) -> None:
        metrics = self._metrics
        if metrics is not None:
            metrics.gauge(
                "serve_queue_depth", help="admitted requests waiting for a slot"
            ).set(float(depth))

    # -- chaos accounting ----------------------------------------------
    def record_degraded(self, tenant: str) -> None:
        """A completed query whose winning attempt carried fault damage."""
        self._tenant(tenant).degraded += 1
        metrics = self._metrics
        if metrics is not None:
            metrics.counter(
                "serve_chaos_degraded_total",
                help="completed queries whose answer carried fault damage",
            ).inc(tenant=tenant)

    def record_retry(self, tenant: str) -> None:
        """One retry token spent re-running a fault-damaged query."""
        self._tenant(tenant).retries += 1
        metrics = self._metrics
        if metrics is not None:
            metrics.counter(
                "serve_chaos_retries_total",
                help="retries issued for fault-damaged queries",
            ).inc(tenant=tenant)

    def record_brownout(self, tenant: str) -> None:
        """A completion whose final attempt ran with a widened deadline."""
        self._tenant(tenant).brownout += 1
        metrics = self._metrics
        if metrics is not None:
            metrics.counter(
                "serve_chaos_brownout_total",
                help="completions served under a brownout-widened deadline",
            ).inc(tenant=tenant)

    def record_mode_transition(self, mode: str, reason: str) -> None:
        """The degrade controller changed mode."""
        metrics = self._metrics
        if metrics is not None:
            metrics.counter(
                "serve_chaos_mode_transitions_total",
                help="degrade-controller mode changes, by target mode and reason",
            ).inc(mode=mode, reason=reason)

    def record_hedge(self, tenant: str, reissued: int, wins: int) -> None:
        """Hedged duplicates issued (and winning) on one completion."""
        state = self._tenant(tenant)
        state.reissued += int(reissued)
        state.hedge_wins += int(wins)
        metrics = self._metrics
        if metrics is not None:
            metrics.counter(
                "serve_chaos_hedge_reissued_total",
                help="hedged duplicate requests issued",
            ).inc(reissued, tenant=tenant)
            metrics.counter(
                "serve_chaos_hedge_wins_total",
                help="hedged duplicates that beat their original",
            ).inc(wins, tenant=tenant)

    # -- shard supervision accounting ----------------------------------
    def record_shard_kill(self, shard: int, hard: bool) -> None:
        """One shard worker died (injected kill or real crash)."""
        metrics = self._metrics
        if metrics is not None:
            metrics.counter(
                "serve_shard_kills_total",
                help="shard worker deaths observed by the supervisor",
            ).inc(shard=str(shard), hard="true" if hard else "false")

    def record_shard_restart(self, shard: int, redispatched: int) -> None:
        """A shard was restarted from its checkpoint; ``redispatched``
        in-flight queries were re-sent with their original seeds."""
        metrics = self._metrics
        if metrics is not None:
            metrics.counter(
                "serve_shard_restarts_total",
                help="shard worker restarts from a warm-state checkpoint",
            ).inc(shard=str(shard))
            if redispatched:
                metrics.counter(
                    "serve_shard_redispatched_total",
                    help="in-flight queries re-dispatched after a shard crash",
                ).inc(redispatched, shard=str(shard))

    def record_shard_checkpoint(self, shard: int) -> None:
        """The supervisor received one periodic warm-state checkpoint."""
        metrics = self._metrics
        if metrics is not None:
            metrics.counter(
                "serve_shard_checkpoints_total",
                help="warm-state checkpoints received from shard workers",
            ).inc(shard=str(shard))

    def record_shard_heartbeat(self, shard: int) -> None:
        """The supervisor received one shard heartbeat."""
        metrics = self._metrics
        if metrics is not None:
            metrics.counter(
                "serve_shard_heartbeats_total",
                help="heartbeats received from shard workers",
            ).inc(shard=str(shard))

    def record_shard_router_shed(self, tenant: str, reason: str) -> None:
        """The tenant router shed a request before any shard saw it.

        Metric-only: the per-tenant rollup state is fed uniformly from
        the merged outcome stream, router sheds included.
        """
        metrics = self._metrics
        if metrics is not None:
            metrics.counter(
                "serve_shard_router_shed_total",
                help="requests shed by the tenant router (bulkhead budgets)",
            ).inc(tenant=tenant, reason=reason)

    def record_shard_orphaned(self, shard: int, count: int) -> None:
        """Admitted queries left without a terminal outcome — the
        exactly-once contract demands this stays zero."""
        metrics = self._metrics
        if metrics is not None:
            metrics.counter(
                "serve_shard_orphaned_total",
                help="admitted queries that lost their terminal outcome "
                "(must stay zero)",
            ).inc(count, shard=str(shard))

    # -- wait-cache accounting -----------------------------------------
    def record_wait_cache(
        self, hits: int, misses: int, batch_solves: int, entries: int
    ) -> None:
        """One run's wait-table-cache traffic (emitted at report time).

        ``entries`` is the cache's current size (a gauge); the other
        three are per-run deltas — the cache itself outlives runs.
        """
        metrics = self._metrics
        if metrics is None:
            return
        if hits:
            metrics.counter(
                "serve_wait_cache_hits_total",
                help="wait lookups answered from a cached bucket",
            ).inc(hits)
        if misses:
            metrics.counter(
                "serve_wait_cache_misses_total",
                help="wait lookups that solved a new bucket",
            ).inc(misses)
        if batch_solves:
            metrics.counter(
                "serve_wait_cache_batch_solves_total",
                help="vectorized multi-bucket solves issued by prewarm",
            ).inc(batch_solves)
        metrics.gauge(
            "serve_wait_cache_entries",
            help="buckets currently held by the wait-table cache",
        ).set(float(entries))

    # -- learned-policy accounting -------------------------------------
    def record_learned(self, lookups: int, fallbacks: int) -> None:
        """One run's learned-table decision traffic (emitted at report
        time; both values are per-run deltas — the policy outlives runs).
        """
        metrics = self._metrics
        if metrics is None:
            return
        if lookups:
            metrics.counter(
                "serve_learned_lookups_total",
                help="wait decisions answered by the learned table",
            ).inc(lookups)
        if fallbacks:
            metrics.counter(
                "serve_learned_fallbacks_total",
                help="learned controllers that fell back to exact Cedar",
            ).inc(fallbacks)

    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, object]:
        """JSON-serializable per-tenant accounting, for checkpoints.

        Metric counters are process-local and deliberately *not*
        captured — a restarted worker re-emits into its own registry.
        """
        tenants: dict[str, dict[str, object]] = {}
        for tenant in sorted(self._tenants):
            state = self._tenants[tenant]
            tenants[tenant] = {
                "arrivals": state.arrivals,
                "shed": state.shed,
                "shed_reasons": {
                    reason: state.shed_reasons[reason]
                    for reason in sorted(state.shed_reasons)
                },
                "latencies": list(state.latencies),
                "qualities": list(state.qualities),
                "hits": state.hits,
                "degraded": state.degraded,
                "retries": state.retries,
                "brownout": state.brownout,
                "reissued": state.reissued,
                "hedge_wins": state.hedge_wins,
            }
        return {"tenants": tenants}

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Reload per-tenant accounting captured by :meth:`state_dict`."""
        for tenant, entry in state["tenants"].items():
            ts = self._tenant(str(tenant))
            ts.arrivals = int(entry["arrivals"])
            ts.shed = int(entry["shed"])
            ts.shed_reasons = {
                str(k): int(v) for k, v in entry["shed_reasons"].items()
            }
            ts.latencies = [float(v) for v in entry["latencies"]]
            ts.qualities = [float(v) for v in entry["qualities"]]
            ts.hits = int(entry["hits"])
            ts.degraded = int(entry["degraded"])
            ts.retries = int(entry["retries"])
            ts.brownout = int(entry["brownout"])
            ts.reissued = int(entry["reissued"])
            ts.hedge_wins = int(entry["hedge_wins"])

    # ------------------------------------------------------------------
    def rollup(self) -> dict[str, dict[str, object]]:
        """Per-tenant SLO summary, deterministically ordered."""
        out: dict[str, dict[str, object]] = {}
        for tenant in sorted(self._tenants):
            state = self._tenants[tenant]
            completed = len(state.latencies)
            out[tenant] = {
                "arrivals": state.arrivals,
                "admitted": state.arrivals - state.shed,
                "completed": completed,
                "shed": state.shed,
                "shed_rate": state.shed / state.arrivals if state.arrivals else 0.0,
                "shed_reasons": {
                    reason: state.shed_reasons[reason]
                    for reason in sorted(state.shed_reasons)
                },
                "deadline_hit_rate": state.hits / completed if completed else 0.0,
                "mean_quality": (
                    float(np.mean(state.qualities)) if state.qualities else 0.0
                ),
                "latency_p50": _percentile(state.latencies, 50.0),
                "latency_p95": _percentile(state.latencies, 95.0),
                "latency_p99": _percentile(state.latencies, 99.0),
                "quality_p50": _percentile(state.qualities, 50.0),
                "degraded": state.degraded,
                "retries": state.retries,
                "brownout_completions": state.brownout,
                "hedge_reissued": state.reissued,
                "hedge_wins": state.hedge_wins,
            }
        return out
