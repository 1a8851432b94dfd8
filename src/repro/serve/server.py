"""The serving frontend: overlapping deadline-bound queries on one loop.

:class:`CedarServer` owns a virtual-time :class:`~repro.simulation.EventLoop`
and drives every request through one lifecycle, one method per stage::

    admit    _on_arrival    breaker veto, queue_full / infeasible? -> queue
    dispatch _dispatch      stale? else the backend runs one _Attempt
    complete _on_complete   slot freed; the degrade controller may retry
    answer   _answer        attempt -> SLO records + QueryOutcome + span
                            (_shed: the same for a refused request)
    report   _build_report  outcome summary, per-run counter deltas

Capacity is ``max_concurrent`` query slots; queries dispatched while
other slots are busy run with their *remaining* deadline budget (the
time already burned in the queue is gone) and, when
``contention_coeff > 0``, with a proportionally slowed bottom stage.
Because each request carries its own pre-drawn seed and the backend is
the deterministic simulator, a serve run is bit-identical across repeats
— and at vanishing load (every query dispatched alone, slowdown exactly
1.0) it reproduces standalone :func:`~repro.simulation.simulate_query`
calls result-for-result.

Backends abstract *how* one query executes:

* :class:`SimBackend` — the deterministic simulator, optionally under a
  :class:`~repro.faults.FaultModel` (chaos composes with serving);
* :class:`TcpBackend` — the real localhost-TCP service path, optionally
  under a :class:`~repro.faults.ChaosTransport`;
* :class:`FixedServiceBackend` — constant service time, for capacity
  planning and the admission-control property tests.
"""

from __future__ import annotations

import dataclasses
import json
from typing import TYPE_CHECKING, Any, Callable, Optional, Protocol, Sequence

import numpy as np

from ..core import QueryContext, WaitPolicy
from ..core.policies import CedarPolicy
from ..core.waitbatch import WaitTableCache
from ..distributions import Scaled
from ..errors import ConfigError
from ..obs.metrics import MetricsRegistry
from ..obs.profile import PROFILER
from ..obs.span import SpanTracer
from ..rng import fork, seeds_for
from ..simulation.events import EventLoop
from .admission import SHED_STALE, AdmissionController
from .degrade import MODE_HEALTHY, DegradeController, ModeTransition
from .request import QueryOutcome, QueryRequest, ServeConfig
from .slo import SLOAccountant, _summarise
from .warmstart import CedarWarmPolicy, WarmStartStore

if TYPE_CHECKING:  # pragma: no cover - repro.learn imports this package
    from ..learn.policy import LearnedPolicyStats

__all__ = [
    "BackendResult",
    "QueryBackend",
    "SimBackend",
    "TcpBackend",
    "FixedServiceBackend",
    "ServeReport",
    "CedarServer",
]


@dataclasses.dataclass(frozen=True)
class BackendResult:
    """What the serving layer needs to know about one executed query."""

    quality: float
    included_outputs: int
    total_outputs: int
    #: virtual time the query occupied its slot (bounded by its budget).
    elapsed: float
    degraded: bool = False
    #: hedged duplicates issued / winning (hedging backend only).
    reissued: int = 0
    hedge_wins: int = 0

    @classmethod
    def from_result(
        cls, result: Any, elapsed: Optional[float] = None
    ) -> "BackendResult":
        """The serving view of any simulator / service result record
        (fields it lacks keep their defaults; ``elapsed`` overrides its own)."""
        return cls(
            quality=result.quality,
            included_outputs=result.included_outputs,
            total_outputs=result.total_outputs,
            elapsed=result.elapsed if elapsed is None else elapsed,
            degraded=getattr(result, "degraded", False),
            reissued=getattr(result, "reissued", 0),
            hedge_wins=getattr(result, "hedge_wins", 0),
        )


class QueryBackend(Protocol):
    """Executes one admitted query against some substrate.

    The server calls both hooks unconditionally: subclass for the no-op
    defaults, override for per-run state or the dispatch clock.
    """

    def on_run_start(self) -> None:
        """Reset per-run state (called once at the top of every run)."""

    def observe_dispatch(self, request: QueryRequest, now: float) -> None:
        """The request and virtual time of the :meth:`run` call that follows."""

    def run(
        self,
        ctx: QueryContext,
        policy: WaitPolicy,
        seed: int,
        tracer: Optional[SpanTracer],
        metrics: Optional[MetricsRegistry],
        span_attrs: dict[str, Any],
    ) -> BackendResult:
        ...


class SimBackend(QueryBackend):
    """Deterministic in-process simulation of the fault-free tree."""

    def __init__(self, agg_sample: Optional[int] = None):
        self.agg_sample = agg_sample

    def run(
        self,
        ctx: QueryContext,
        policy: WaitPolicy,
        seed: int,
        tracer: Optional[SpanTracer],
        metrics: Optional[MetricsRegistry],
        span_attrs: dict[str, Any],
    ) -> BackendResult:
        from ..simulation.query import simulate_query

        result = simulate_query(
            ctx,
            policy,
            seed=seed,
            agg_sample=self.agg_sample,
            tracer=tracer,
            metrics=metrics,
            span_attrs=span_attrs,
        )
        return BackendResult.from_result(result)


class TcpBackend(QueryBackend):
    """Runs each admitted query over the localhost TCP service path.

    ``chaos_factory`` builds a fresh
    :class:`~repro.faults.ChaosTransport` per query (transports carry
    per-run fault counters), so chaos runs compose with serving.
    Real sockets mean real time: latencies inside each query come from
    the scaled virtual clock, while the serving layer still advances its
    own deterministic loop between queries.
    """

    def __init__(
        self,
        time_scale: float = 0.001,
        chaos_factory: Optional[Callable[[], Any]] = None,
    ):
        if time_scale <= 0.0:
            raise ConfigError(f"time_scale must be positive, got {time_scale}")
        self.time_scale = float(time_scale)
        self.chaos_factory = chaos_factory

    def run(
        self,
        ctx: QueryContext,
        policy: WaitPolicy,
        seed: int,
        tracer: Optional[SpanTracer],
        metrics: Optional[MetricsRegistry],
        span_attrs: dict[str, Any],
    ) -> BackendResult:
        from ..service.tcp import run_tcp_query

        chaos = self.chaos_factory() if self.chaos_factory is not None else None
        result = run_tcp_query(
            ctx,
            policy,
            time_scale=self.time_scale,
            seed=seed,
            chaos=chaos,
            tracer=tracer,
            metrics=metrics,
            span_attrs=span_attrs,
        )
        return BackendResult.from_result(
            result, elapsed=min(float(result.elapsed_virtual), ctx.deadline)
        )


class FixedServiceBackend(QueryBackend):
    """Constant service time — the M/D/c abstraction of the server.

    Used by the admission-control property tests (shed behaviour must
    not depend on simulated query internals) and handy for capacity
    planning sweeps.
    """

    def __init__(self, service_time: float, quality: float = 1.0):
        if service_time < 0.0:
            raise ConfigError(
                f"service_time must be >= 0, got {service_time}"
            )
        if not 0.0 <= quality <= 1.0:
            raise ConfigError(f"quality must be in [0, 1], got {quality}")
        self.service_time = float(service_time)
        self.quality = float(quality)

    def run(
        self,
        ctx: QueryContext,
        policy: WaitPolicy,
        seed: int,
        tracer: Optional[SpanTracer],
        metrics: Optional[MetricsRegistry],
        span_attrs: dict[str, Any],
    ) -> BackendResult:
        total = ctx.offline_tree.total_processes
        fits = self.service_time <= ctx.deadline
        return BackendResult(
            quality=self.quality if fits else 0.0,
            included_outputs=total if fits else 0,
            total_outputs=total,
            elapsed=min(self.service_time, ctx.deadline),
        )


# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class _Attempt:
    """One dispatched execution of a request, and the terms it ran on."""

    result: BackendResult
    queue_delay: float
    slowdown: float
    warm: bool
    #: the deadline the attempt is judged against (brownout-widened).
    eff_deadline: float


@dataclasses.dataclass
class _RetryState:
    """Book-keeping for one query being retried after fault damage."""

    #: deterministic seeds for attempts 2..max_attempts.
    seeds: tuple[int, ...]
    #: the best-quality attempt so far: what the query is answered with.
    best: _Attempt
    attempts: int = 1


def _run_delta(now: dict[str, int], start: dict[str, int]) -> dict[str, int]:
    """This run's share of counters that outlive runs: ``now`` minus the
    run-start snapshot ``start`` (keys ``start`` lacks pass through)."""
    return {key: now[key] - start.get(key, 0) for key in now}


# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class ServeReport:
    """Aggregate outcome of one serve run."""

    n_requests: int
    admitted: int
    completed: int
    shed: int
    shed_fraction: float
    #: fraction of *completed* queries that responded in time with a
    #: non-empty answer (the graceful-degradation headline number).
    deadline_hit_rate: float
    mean_quality: float
    offered_qps: float
    achieved_qps: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    mean_queue_delay: float
    #: virtual time from first arrival to last completion.
    horizon: float
    tenants: dict[str, dict[str, object]]
    #: warm-start store snapshot ({} when running cold).
    warm: dict[str, dict[str, object]]
    #: chaos/degradation summary (all-zero and "healthy" when no faults
    #: fired and no degrade controller acted).
    chaos: dict[str, object]
    outcomes: tuple[QueryOutcome, ...]
    #: wait-table-cache traffic for this run ({} when no cache is wired;
    #: omitted from the JSON in that case so cache-less reports stay
    #: byte-identical to those of earlier builds).
    wait_cache: dict[str, int] = dataclasses.field(default_factory=dict)
    #: learned-policy decision accounting for this run ({} unless the
    #: server serves from a learned table; omitted from the JSON in that
    #: case so learned-off reports stay byte-identical to earlier builds).
    learned: dict[str, object] = dataclasses.field(default_factory=dict)

    def to_dict(self, include_outcomes: bool = False) -> dict[str, object]:
        doc: dict[str, object] = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name != "outcomes"
        }
        for key in ("wait_cache", "learned"):
            if not doc[key]:
                del doc[key]
        if include_outcomes:
            doc["outcomes"] = [o.as_dict() for o in self.outcomes]
        return doc

    def to_json(self, include_outcomes: bool = False) -> str:
        return json.dumps(
            self.to_dict(include_outcomes=include_outcomes),
            sort_keys=True,
            indent=2,
        )


#: the WaitTableCache.stats() keys that count traffic (the rest are sizes).
_CACHE_COUNTERS = ("batch_solves", "hits", "misses", "solved_rows", "uncached")


class CedarServer:
    """Long-lived serving frontend over a shared capacity pool.

    ``store`` seeds the warm-start policy the server builds from its
    config; an explicit warm ``policy`` brings (and reports) its own.
    """

    def __init__(
        self,
        offline_tree: Any,
        config: Optional[ServeConfig] = None,
        policy: Optional[WaitPolicy] = None,
        backend: Optional[QueryBackend] = None,
        store: Optional[WarmStartStore] = None,
        tracer: Optional[SpanTracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.config = config if config is not None else ServeConfig()
        self.offline_tree = offline_tree
        #: process-wide quantized wait cache (None when not configured);
        #: persists across run() calls like the warm-start store does.
        self.wait_cache: Optional[WaitTableCache] = None
        if self.config.wait_cache is not None:
            if policy is not None:
                raise ConfigError(
                    "pass either an explicit policy or config.wait_cache, "
                    "not both"
                )
            self.wait_cache = WaitTableCache(self.config.wait_cache)
        if policy is not None:
            if self.config.learned:
                raise ConfigError(
                    "pass either an explicit policy or config.learned, "
                    "not both"
                )
            self.policy = policy
        elif self.config.learned:
            # local import: repro.learn imports this package
            from ..learn.policy import LearnedWaitPolicy
            from ..learn.table import load_table

            self.policy = LearnedWaitPolicy(
                load_table(self.config.learned_table),
                store=store,
                grid_points=self.config.grid_points,
                warm_min_samples=self.config.warm_min_samples,
                wait_cache=self.wait_cache,
            )
        elif self.config.warm_start:
            self.policy = CedarWarmPolicy(
                store=store,
                grid_points=self.config.grid_points,
                warm_min_samples=self.config.warm_min_samples,
                wait_cache=self.wait_cache,
            )
        else:
            store = None
            self.policy = CedarPolicy(
                grid_points=self.config.grid_points,
                wait_cache=self.wait_cache,
            )
        #: the policy's warm-start side, resolved once: dispatch sets its
        #: workload key and harvests it (None when serving cold).
        self._warm_policy: Optional[CedarWarmPolicy] = (
            self.policy if isinstance(self.policy, CedarWarmPolicy) else None
        )
        if store is None and self._warm_policy is not None:
            store = self._warm_policy.store
        #: the store the report's ``warm`` snapshot reads ({} when None).
        self.store: Optional[WarmStartStore] = store
        #: the learned policy's persistent decision counters (None otherwise).
        self._learned_stats: Optional["LearnedPolicyStats"] = getattr(
            self._warm_policy, "stats", None
        )
        self.backend: QueryBackend
        if backend is not None:
            if self.config.faults is not None:
                raise ConfigError(
                    "pass either an explicit backend or config.faults, not both"
                )
            self.backend = backend
        elif self.config.faults is not None:
            # local import: repro.serve.chaos imports this module
            from .chaos import FaultyBackend

            self.backend = FaultyBackend(
                self.config.faults, agg_sample=self.config.agg_sample
            )
        else:
            self.backend = SimBackend(agg_sample=self.config.agg_sample)
        self.tracer = tracer
        self.metrics = metrics
        #: optional observer called with every terminal outcome and the
        #: virtual time it was recorded — the shard worker streams
        #: outcomes to its supervisor through this. None (the default)
        #: leaves the run bit-identical to a server without the hook.
        self.on_outcome: Optional[Callable[[QueryOutcome, float], None]] = None
        self._reset_run_state()

    def _reset_run_state(self) -> None:
        """Fresh per-run state: every run starts from it (and the
        constructor calls it so the attributes always exist)."""
        cfg = self.config
        self._loop = EventLoop()
        self._admission = AdmissionController(
            max_concurrent=cfg.max_concurrent,
            max_queue=cfg.max_queue,
            min_deadline_fraction=cfg.min_deadline_fraction,
            service_time_guess=cfg.service_time_guess,
            ewma_alpha=cfg.ewma_alpha,
        )
        self._slo = SLOAccountant(self.metrics)
        self._outcomes: dict[int, QueryOutcome] = {}
        self._last_finish = 0.0
        self._degrade = (
            DegradeController(cfg.degrade) if cfg.degrade is not None else None
        )
        self._retrying: dict[int, _RetryState] = {}
        self._transitions: list[ModeTransition] = []
        # the cache and the learned policy outlive runs; the report
        # carries per-run deltas of their counters (see _run_delta)
        self._cache_counters_start: dict[str, int] = {}
        if self.wait_cache is not None:
            stats = self.wait_cache.stats()
            self._cache_counters_start = {k: stats[k] for k in _CACHE_COUNTERS}
        self._learned_counters_start: dict[str, int] = {}
        if self._learned_stats is not None:
            self._learned_counters_start = self._learned_stats.counters()

    # ------------------------------------------------------------------
    def run(self, requests: Sequence[QueryRequest]) -> ServeReport:
        """Serve ``requests`` (an open-loop arrival stream) to completion."""
        order = sorted(requests, key=lambda r: (r.arrival, r.index))
        self._reset_run_state()
        self.backend.on_run_start()
        self._schedule_arrivals(order)
        self._loop.run()
        return self._build_report(order)

    def _schedule_arrivals(self, order: Sequence[QueryRequest]) -> None:
        """Schedule one arrival event per request (subclass hook: the
        shard worker clamps pre-crash arrivals to its resume time)."""
        for request in order:
            self._loop.schedule_at(
                request.arrival,
                (lambda r: lambda: self._on_arrival(r))(request),
            )

    def _record_outcome(self, outcome: QueryOutcome, now: float) -> None:
        self._outcomes[outcome.index] = outcome
        if self.on_outcome is not None:
            self.on_outcome(outcome, now)

    # -- admit ----------------------------------------------------------
    def _on_arrival(self, request: QueryRequest) -> None:
        now = self._loop.now
        self._slo.record_arrival(request.tenant)
        reason: Optional[str] = None
        degrade = self._degrade
        if degrade is not None:
            reason = degrade.admission_veto(now)
            self._note_degrade_events(degrade)
        if reason is None:
            reason = self._admission.offer(request, now)
        if reason is not None:
            self._shed(request, now, reason)
        else:
            self._pump()
        self._slo.record_queue_depth(self._admission.queue_depth)

    def _note_degrade_events(self, degrade: DegradeController) -> None:
        """Mirror freshly-recorded mode transitions into metrics/spans."""
        for event in degrade.drain_events():
            self._transitions.append(event)
            self._slo.record_mode_transition(event.mode, event.reason)
            if self.tracer is not None:
                self.tracer.add_span(
                    "degrade",
                    0,
                    None,
                    event.time,
                    event.time,
                    mode=event.mode,
                    reason=event.reason,
                )

    def _sync_brownout(self, degrade: DegradeController) -> None:
        """Propagate brownout state into the admission controller's
        deadline/floor scaling (both exactly 1.0 outside brownout)."""
        if degrade.brownout_active:
            cfg = degrade.config
            self._admission.deadline_scale = cfg.brownout_deadline_factor
            self._admission.floor_scale = cfg.brownout_floor_scale
        else:
            self._admission.deadline_scale = 1.0
            self._admission.floor_scale = 1.0

    def _shed(self, request: QueryRequest, now: float, reason: str) -> None:
        state = self._retrying.pop(request.index, None)
        if state is not None:
            # an in-flight retry got shed (queue full / stale): the query
            # is still *answered* — with the best attempt already in hand.
            self._answer(request, state.best, state.attempts - 1, now)
            return
        self._slo.record_shed(request.tenant, reason)
        self._record_outcome(QueryOutcome.shed(request, reason), now)
        if self.tracer is not None:
            self.tracer.add_span(
                "request",
                0,
                None,
                request.arrival,
                now,
                tenant=request.tenant,
                workload_key=request.workload_key,
                query_index=request.index,
                deadline=request.deadline,
                admitted=False,
                shed_reason=reason,
            )

    # -- dispatch -------------------------------------------------------
    def _prewarm_wait_cache(self) -> None:
        """Batch-solve the wait buckets of every queued request.

        One vectorized solve replaces the scalar sweeps those queries
        would otherwise each pay on dispatch. Values land in the shared
        cache exactly as on-demand misses would compute them, so this
        pass shifts CPU cost only — a prewarm-off run is byte-identical
        (asserted in ``tests/serve/test_waitpath_identity.py``).
        """
        cache = self.wait_cache
        if cache is None or not cache.config.prewarm:
            return
        pending = self._admission.pending()
        if not pending:
            return
        tok = PROFILER.start()
        now = self._loop.now
        tail = self.offline_tree.stages[1:]
        k = self.offline_tree.stages[0].fanout
        grid_points = self.config.grid_points
        entries = []
        for request in pending:
            eff_deadline = request.deadline * self._admission.deadline_scale
            remaining = request.arrival + eff_deadline - now
            if remaining <= 0.0:
                continue
            # the regime the bottom controller will first optimize with:
            # the workload's warm prior when one exists, else the offline
            # population fit.
            dist = None
            if self._warm_policy is not None:
                dist = self._warm_policy.store.prior(request.workload_key)
            if dist is None:
                dist = self.offline_tree.stages[0].duration
            entries.append((tail, remaining, dist, k, grid_points))
        if entries:
            cache.prewarm(entries)
        PROFILER.stop("serve.waitcache.prewarm", tok)

    def _pump(self) -> None:
        """Dispatch queued requests while capacity slots are free."""
        self._prewarm_wait_cache()
        while True:
            request = self._admission.pop_ready()
            if request is None:
                return
            now = self._loop.now
            if self._admission.stale(request, now):
                self._shed(request, now, SHED_STALE)
                continue
            self._dispatch(request, now)

    def _dispatch(self, request: QueryRequest, now: float) -> None:
        tok = PROFILER.start()
        cfg = self.config
        # brownout widens the effective deadline; the scale is exactly
        # 1.0 otherwise, keeping the arithmetic bit-identical.
        eff_deadline = request.deadline * self._admission.deadline_scale
        remaining = request.arrival + eff_deadline - now
        occupancy = self._admission.running
        self._admission.start()
        if self._degrade is not None:
            self._degrade.note_dispatch()
        self.backend.observe_dispatch(request, now)
        slowdown = 1.0
        if cfg.contention_coeff > 0.0 and occupancy > 0:
            slowdown = 1.0 + cfg.contention_coeff * occupancy / cfg.max_concurrent
        tree = request.tree
        if slowdown > 1.0:
            tree = tree.with_bottom(Scaled(tree.stages[0].duration, slowdown))
        ctx = QueryContext(
            deadline=remaining,
            offline_tree=self.offline_tree,
            true_tree=tree,
        )
        warm_policy = self._warm_policy
        warm = False
        if warm_policy is not None:
            warm_policy.current_key = request.workload_key
            warm = warm_policy.store.prior(request.workload_key) is not None
        result = self.backend.run(
            ctx,
            self.policy,
            request.seed,
            self.tracer,
            self.metrics,
            {"query_index": request.index},
        )
        if warm_policy is not None:
            warm_policy.harvest()
        PROFILER.stop("serve.dispatch", tok)
        attempt = _Attempt(result, now - request.arrival, slowdown, warm, eff_deadline)
        self._loop.schedule(result.elapsed, lambda: self._on_complete(request, attempt))

    # -- complete -------------------------------------------------------
    def _on_complete(self, request: QueryRequest, attempt: _Attempt) -> None:
        finish = self._loop.now
        result = attempt.result
        self._admission.finish(result.elapsed)
        degrade = self._degrade
        retried = False
        if degrade is not None:
            degrade.observe_completion(finish, result.degraded, result.quality)
            self._note_degrade_events(degrade)
            self._sync_brownout(degrade)
            retried = self._maybe_retry(degrade, request, attempt, finish)
        if not retried:
            retries = 0
            state = self._retrying.pop(request.index, None)
            if state is not None:
                retries = state.attempts - 1
                if state.best.result.quality > result.quality:
                    # answer with the best attempt seen, not merely the last
                    attempt = state.best
            self._answer(request, attempt, retries, finish)
        self._slo.record_queue_depth(self._admission.queue_depth)
        self._pump()

    def _maybe_retry(
        self,
        degrade: DegradeController,
        request: QueryRequest,
        attempt: _Attempt,
        finish: float,
    ) -> bool:
        """Re-offer a fault-damaged query with a fresh deterministic seed.

        Returns True when a retry was admitted (the completion is then
        deferred to the retry's own ``_on_complete``). Retries spend the
        tenant's budget and still pass admission control — a retry the
        queue cannot absorb is refunded and the original answer stands.
        """
        cfg = degrade.config
        result = attempt.result
        if not result.degraded or result.quality > cfg.retry_quality_floor:
            return False
        state = self._retrying.get(request.index)
        attempts = state.attempts if state is not None else 1
        if attempts >= cfg.max_attempts:
            return False
        if not degrade.try_consume_retry(request.tenant):
            return False
        if state is None:
            seeds = seeds_for(
                fork(request.seed, "serve-retry"), cfg.max_attempts - 1
            )
            state = self._retrying[request.index] = _RetryState(
                seeds=tuple(int(s) for s in seeds), best=attempt
            )
        elif result.quality > state.best.result.quality:
            state.best = attempt
        retry = dataclasses.replace(request, seed=state.seeds[attempts - 1])
        reason = self._admission.offer(retry, finish)
        if reason is not None:
            degrade.refund_retry(request.tenant)
            return False
        state.attempts = attempts + 1
        self._slo.record_retry(request.tenant)
        return True

    # -- answer ---------------------------------------------------------
    def _answer(
        self, request: QueryRequest, attempt: _Attempt, retries: int, now: float
    ) -> None:
        """Answer ``request`` with ``attempt`` at virtual time ``now``: the
        one place an attempt becomes SLO records, the terminal outcome and
        the answered "request" span — on completion, or when an in-flight
        retry (``retries >= 1``) is shed with an answer already in hand."""
        result = attempt.result
        # queue_delay + elapsed rather than now - arrival: identical in
        # exact arithmetic, but free of the float round-trip through
        # absolute loop time — so at zero queue delay the latency equals
        # the standalone simulator's elapsed bit-for-bit. A retried query
        # was answered only when its final attempt finished (or was shed),
        # so there the wall-clock span is the honest latency.
        latency = (
            attempt.queue_delay + result.elapsed
            if retries == 0
            else now - request.arrival
        )
        hit = latency <= attempt.eff_deadline + 1e-9 and result.quality > 0.0
        outcome = QueryOutcome(
            index=request.index,
            tenant=request.tenant,
            workload_key=request.workload_key,
            arrival=request.arrival,
            deadline=request.deadline,
            admitted=True,
            queue_delay=attempt.queue_delay,
            slowdown=attempt.slowdown,
            latency=latency,
            quality=result.quality,
            included_outputs=result.included_outputs,
            total_outputs=result.total_outputs,
            deadline_hit=hit,
            warm=attempt.warm,
            degraded=result.degraded,
            retries=retries,
            brownout=attempt.eff_deadline > request.deadline,
            reissued=result.reissued,
            hedge_wins=result.hedge_wins,
        )
        self._slo.record_answer(outcome, attempt.eff_deadline)
        if now > self._last_finish:
            self._last_finish = now
        self._record_outcome(outcome, now)
        if self.tracer is not None:
            self.tracer.add_span(
                "request",
                0,
                None,
                request.arrival,
                now,
                tenant=outcome.tenant,
                workload_key=outcome.workload_key,
                query_index=outcome.index,
                deadline=outcome.deadline,
                admitted=True,
                queue_delay=outcome.queue_delay,
                slowdown=outcome.slowdown,
                warm=outcome.warm,
                latency=latency,
                quality=outcome.quality,
                degraded=outcome.degraded,
                retries=retries,
                brownout=outcome.brownout,
                reissued=outcome.reissued,
                hedge_wins=outcome.hedge_wins,
            )

    # -- report ---------------------------------------------------------
    def _build_report(self, order: list[QueryRequest]) -> ServeReport:
        outcomes = tuple(self._outcomes[r.index] for r in order)
        admitted = [o for o in outcomes if o.admitted]
        queue_delays = [o.queue_delay for o in admitted]
        n = len(order)
        offered_qps = 0.0
        if n >= 2:
            span = order[-1].arrival - order[0].arrival
            if span > 0.0:
                offered_qps = (n - 1) / span
        horizon = 0.0
        achieved_qps = 0.0
        if order and admitted:
            horizon = self._last_finish - order[0].arrival
            if horizon > 0.0:
                achieved_qps = len(admitted) / horizon

        degrade = self._degrade
        chaos: dict[str, object] = {
            "degraded": sum(1 for o in admitted if o.degraded),
            "retries": sum(o.retries for o in admitted),
            "brownout_completions": sum(1 for o in admitted if o.brownout),
            "hedge_reissued": sum(o.reissued for o in admitted),
            "hedge_wins": sum(o.hedge_wins for o in admitted),
            "mode_transitions": [t.as_dict() for t in self._transitions],
            "final_mode": degrade.mode if degrade is not None else MODE_HEALTHY,
            "retry_tokens_used": (
                degrade.retry_tokens_used() if degrade is not None else {}
            ),
        }

        wait_cache_doc: dict[str, int] = {}
        if self.wait_cache is not None:
            stats = self.wait_cache.stats()
            wait_cache_doc = _run_delta(stats, self._cache_counters_start)
            self._slo.record_wait_cache(
                hits=wait_cache_doc["hits"],
                misses=wait_cache_doc["misses"],
                batch_solves=wait_cache_doc["batch_solves"],
                entries=stats["wait_entries"] + stats["schedule_entries"],
            )

        learned_doc: dict[str, object] = {}
        learned = self._learned_stats
        if learned is not None:
            run_stats = learned.from_counters(
                _run_delta(learned.counters(), self._learned_counters_start)
            )
            learned_doc = run_stats.as_dict()
            self._slo.record_learned(run_stats.lookups, run_stats.fallbacks)

        return ServeReport(
            **_summarise(outcomes, n),
            offered_qps=offered_qps,
            achieved_qps=achieved_qps,
            mean_queue_delay=float(np.mean(queue_delays)) if queue_delays else 0.0,
            horizon=horizon,
            tenants=self._slo.rollup(),
            warm=self.store.snapshot() if self.store is not None else {},
            chaos=chaos,
            outcomes=outcomes,
            wait_cache=wait_cache_doc,
            learned=learned_doc,
        )
