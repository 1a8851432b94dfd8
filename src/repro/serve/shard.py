"""Sharded supervised serving: N ``CedarServer`` workers + crash recovery.

The paper's policy keeps a query's *backend* faults from ruining its
answer; this module keeps the *serving process itself* from losing
queries. A :class:`ShardSupervisor` runs ``n_shards`` worker processes
(``repro.serve.shardworker``), each an independent ``CedarServer`` over
its own warm store, behind a :class:`~repro.serve.TenantRouter` that
pins every tenant to one shard — the bulkhead: one tenant's overload or
one shard's death cannot touch another tenant's latency.

Crash recovery contract — **every admitted query reaches exactly one
terminal outcome** (completed / degraded / shed-with-reason), enforced
in three layers:

1. workers stream each terminal outcome to the supervisor the moment it
   is recorded, so completed work survives the worker;
2. on a crash (injected :class:`ShardKillSchedule` kills in virtual
   time, or a hard ``os._exit``), the supervisor restarts the shard
   from its last :class:`~repro.serve.WarmStateCheckpoint` and
   re-dispatches exactly the non-terminal queries, with their original
   seeds;
3. if a shard exhausts ``max_restarts`` with work still pending, the
   stranded queries are terminally shed with reason ``shard_lost``
   rather than silently dropped (the pinned benchmark asserts this
   valve never opens).

Every recovery step lands in ``cedar_serve_shard_*`` metric families,
in "supervisor" spans (shard / incarnation / event / reason), and in
the report's ``recovery`` log. Determinism: each shard's message stream
is FIFO and handled against per-shard state only, and the final merge
is sorted, so a supervised run is bit-identical across repeats — and a
single-shard, no-kill run is byte-identical to a plain ``CedarServer``.

``inline=True`` runs incarnations in-process (same worker code, no
``multiprocessing``) for property tests that spawn hundreds of
supervisors.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from typing import Any, Mapping, Optional, Sequence

from ..errors import ConfigError, ShardError
from ..obs.metrics import MetricsRegistry
from ..obs.profile import PROFILER
from ..obs.span import SpanTracer
from .request import QueryOutcome, QueryRequest, ServeConfig
from .router import RoutingPlan, TenantBudget, TenantRouter
from .shardworker import (
    ERROR_EXIT_CODE,
    HARD_KILL_EXIT_CODE,
    KILL_EXIT_CODE,
    ShardKilled,
    ShardTask,
    run_incarnation,
    shard_worker_main,
)
from .slo import SLOAccountant, _summarise

__all__ = [
    "SHED_SHARD_LOST",
    "ShardKill",
    "ShardKillSchedule",
    "ShardConfig",
    "ShardServeReport",
    "ShardSupervisor",
]

#: terminal shed reason for queries stranded on a shard that exhausted
#: its restart budget — the never-lose-a-query safety valve.
SHED_SHARD_LOST = "shard_lost"


@dataclasses.dataclass(frozen=True)
class ShardKill:
    """One injected worker death, in virtual time."""

    shard: int
    at: float
    #: hard kills exit via ``os._exit`` and may lose buffered messages;
    #: flush kills (the default) deliver everything emitted before death.
    hard: bool = False

    def __post_init__(self) -> None:
        if self.shard < 0:
            raise ConfigError(f"shard must be >= 0, got {self.shard}")
        if not math.isfinite(self.at) or self.at <= 0.0:
            raise ConfigError(
                f"kill time must be positive and finite, got {self.at}"
            )


@dataclasses.dataclass(frozen=True)
class ShardKillSchedule:
    """A deterministic set of injected shard deaths."""

    kills: tuple[ShardKill, ...] = ()

    @classmethod
    def of(cls, *kills: ShardKill) -> "ShardKillSchedule":
        return cls(kills=tuple(kills))

    @property
    def is_null(self) -> bool:
        return not self.kills

    def for_shard(self, shard: int) -> list[ShardKill]:
        """This shard's kills, soonest first."""
        return sorted(
            (k for k in self.kills if k.shard == shard),
            key=lambda k: (k.at, k.hard),
        )

    def describe(self) -> list[dict[str, object]]:
        return [
            {"shard": k.shard, "at": k.at, "hard": k.hard}
            for k in sorted(self.kills, key=lambda k: (k.shard, k.at, k.hard))
        ]


@dataclasses.dataclass(frozen=True)
class ShardConfig:
    """Supervisor topology, recovery cadence, and bulkhead budgets."""

    n_shards: int = 2
    #: per-shard serving configuration (every shard runs the same one).
    serve: ServeConfig = dataclasses.field(default_factory=ServeConfig)
    kills: ShardKillSchedule = dataclasses.field(
        default_factory=ShardKillSchedule
    )
    #: virtual seconds between warm-state checkpoints (0 disables).
    checkpoint_every: float = 50.0
    #: virtual seconds between worker heartbeats (0 disables).
    heartbeat_every: float = 25.0
    #: virtual downtime between a crash and the restarted incarnation.
    restart_delay: float = 5.0
    #: restarts per shard before the ``shard_lost`` valve opens.
    max_restarts: int = 8
    #: run incarnations in-process instead of worker processes (same
    #: code path, for property tests that spawn many supervisors).
    inline: bool = False
    #: multiprocessing start method (None = platform default).
    mp_start_method: Optional[str] = None
    #: real seconds without any worker message before the supervisor
    #: declares a hang (virtual-time runs finish far inside this).
    hang_timeout: float = 120.0
    #: per-tenant admission budgets for the router (bulkhead).
    budgets: Optional[Mapping[str, TenantBudget]] = None
    default_budget: Optional[TenantBudget] = None
    #: per-shard admission rate for weighted-fair shedding (None = off).
    shard_qps: Optional[float] = None
    shard_burst: float = 16.0
    #: explicit tenant -> shard pins (hash assignment otherwise).
    assignments: Optional[Mapping[str, int]] = None

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ConfigError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.checkpoint_every < 0.0:
            raise ConfigError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.heartbeat_every < 0.0:
            raise ConfigError(
                f"heartbeat_every must be >= 0, got {self.heartbeat_every}"
            )
        if self.restart_delay < 0.0:
            raise ConfigError(
                f"restart_delay must be >= 0, got {self.restart_delay}"
            )
        if self.max_restarts < 0:
            raise ConfigError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )
        if self.hang_timeout <= 0.0:
            raise ConfigError(
                f"hang_timeout must be positive, got {self.hang_timeout}"
            )
        for kill in self.kills.kills:
            if kill.shard >= self.n_shards:
                raise ConfigError(
                    f"kill targets shard {kill.shard}, but only "
                    f"{self.n_shards} shards exist"
                )

    def router(self) -> TenantRouter:
        return TenantRouter(
            n_shards=self.n_shards,
            budgets=self.budgets,
            default_budget=self.default_budget,
            shard_qps=self.shard_qps,
            shard_burst=self.shard_burst,
            assignments=self.assignments,
        )


# ----------------------------------------------------------------------
class _ShardState:
    """Supervisor-side book-keeping for one shard across incarnations."""

    def __init__(
        self, shard: int, requests: Sequence[QueryRequest], kills: list[ShardKill]
    ) -> None:
        self.shard = shard
        self.assigned: dict[int, QueryRequest] = {
            r.index: r for r in requests
        }
        self.pending: dict[int, QueryRequest] = dict(self.assigned)
        self.kills = kills
        self.incarnation = 0
        self.resume_at = 0.0
        self.checkpoint: Optional[dict[str, object]] = None
        self.outcomes: dict[int, QueryOutcome] = {}
        self.duplicates = 0
        self.restarts = 0
        self.redispatched = 0
        self.kills_seen = 0
        self.heartbeats = 0
        self.checkpoints = 0
        self.report: Optional[dict[str, object]] = None
        self.killed_at: Optional[float] = None
        self.error: Optional[str] = None
        self.done = False
        self.events: list[dict[str, object]] = []


@dataclasses.dataclass(frozen=True)
class ShardServeReport:
    """Merged outcome of one supervised run across all shards."""

    n_requests: int
    n_shards: int
    admitted: int
    completed: int
    shed: int
    shed_fraction: float
    #: requests shed at the router, before any shard saw them.
    router_shed: int
    deadline_hit_rate: float
    mean_quality: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    horizon: float
    #: per-tenant rollup over the merged outcome stream.
    tenants: dict[str, dict[str, object]]
    #: per-shard supervision summary, keyed by str(shard).
    shards: dict[str, dict[str, object]]
    #: ordered recovery log (kills, restarts, valves), by shard.
    recovery: tuple[dict[str, object], ...]
    #: the exactly-one-terminal-outcome contract, audited.
    terminal: dict[str, object]
    #: router verdict summary (assignments, budget sheds).
    router: dict[str, object]
    outcomes: tuple[QueryOutcome, ...]
    #: final incarnation ``ServeReport`` docs, keyed by str(shard)
    #: (absent for shards whose last incarnation died).
    shard_reports: dict[str, dict[str, object]]

    def to_dict(
        self,
        include_outcomes: bool = False,
        include_shard_reports: bool = False,
    ) -> dict[str, object]:
        doc: dict[str, object] = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name not in ("outcomes", "shard_reports")
        }
        doc["recovery"] = list(self.recovery)
        if include_outcomes:
            doc["outcomes"] = [o.as_dict() for o in self.outcomes]
        if include_shard_reports:
            doc["shard_reports"] = self.shard_reports
        return doc

    def to_json(
        self,
        include_outcomes: bool = False,
        include_shard_reports: bool = False,
    ) -> str:
        return json.dumps(
            self.to_dict(
                include_outcomes=include_outcomes,
                include_shard_reports=include_shard_reports,
            ),
            sort_keys=True,
            indent=2,
        )


# ----------------------------------------------------------------------
class ShardSupervisor:
    """Runs shard workers, heartbeats them, and recovers their crashes."""

    def __init__(
        self,
        offline_tree: Any,
        config: Optional[ShardConfig] = None,
        tracer: Optional[SpanTracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.config = config if config is not None else ShardConfig()
        self.offline_tree = offline_tree
        self.tracer = tracer
        self.metrics = metrics
        self.router = self.config.router()
        self._slo = SLOAccountant(metrics)

    # ------------------------------------------------------------------
    def run(self, requests: Sequence[QueryRequest]) -> ShardServeReport:
        """Serve ``requests`` across the shards to terminal completion."""
        cfg = self.config
        self._slo = SLOAccountant(self.metrics)
        plan = self.router.route(requests)
        for outcome in plan.shed:
            self._slo.record_shard_router_shed(
                outcome.tenant, outcome.shed_reason or "unknown"
            )
        states = [
            _ShardState(
                shard, plan.per_shard[shard], cfg.kills.for_shard(shard)
            )
            for shard in range(cfg.n_shards)
        ]
        if cfg.inline:
            for state in states:
                self._run_shard_inline(state)
        else:
            self._run_shards_mp(states)
        return self._merge(requests, plan, states)

    # -- task construction ---------------------------------------------
    def _task_for(self, state: _ShardState) -> ShardTask:
        kill = state.kills[0] if state.kills else None
        return ShardTask(
            shard=state.shard,
            incarnation=state.incarnation,
            resume_at=state.resume_at,
            offline_tree=self.offline_tree,
            config=self.config.serve,
            requests=tuple(
                sorted(
                    state.pending.values(), key=lambda r: (r.arrival, r.index)
                )
            ),
            kill=(kill.at, kill.hard) if kill is not None else None,
            checkpoint=state.checkpoint,
            checkpoint_every=self.config.checkpoint_every,
            heartbeat_every=self.config.heartbeat_every,
        )

    # -- message handling (per-shard FIFO, both run modes) -------------
    def _handle(self, state: _ShardState, msg: tuple[Any, ...]) -> None:
        kind = msg[0]
        if kind == "hb":
            state.heartbeats += 1
            self._slo.record_shard_heartbeat(state.shard)
        elif kind == "outcome":
            outcome: QueryOutcome = msg[4]
            if outcome.index in state.outcomes:
                # at-least-once delivery across incarnations: keep the
                # first terminal outcome, count the duplicate.
                state.duplicates += 1
            else:
                state.outcomes[outcome.index] = outcome
            state.pending.pop(outcome.index, None)
        elif kind == "checkpoint":
            state.checkpoint = msg[3]
            state.checkpoints += 1
            self._slo.record_shard_checkpoint(state.shard)
        elif kind == "killed":
            state.killed_at = float(msg[3])
        elif kind == "report":
            state.report = msg[3]
        elif kind == "error":
            state.error = str(msg[3])
        else:  # pragma: no cover - protocol guard
            raise ShardError(f"unknown worker message kind {kind!r}")

    def _event(
        self,
        state: _ShardState,
        event: str,
        at: float,
        reason: str,
        pending: int,
    ) -> None:
        doc: dict[str, object] = {
            "shard": state.shard,
            "incarnation": state.incarnation,
            "event": event,
            "time": at,
            "reason": reason,
            "pending": pending,
        }
        state.events.append(doc)
        if self.tracer is not None:
            self.tracer.add_span(
                "supervisor",
                0,
                None,
                at,
                at,
                shard=state.shard,
                incarnation=state.incarnation,
                event=event,
                reason=reason,
                pending=pending,
            )

    # -- incarnation lifecycle -----------------------------------------
    def _finish_incarnation(self, state: _ShardState, hard_exit: bool) -> bool:
        """Advance ``state`` past a finished incarnation.

        Returns True when the shard must be restarted (state is already
        mutated for the next incarnation), False when the shard is done.
        """
        if state.error is not None:
            raise ShardError(
                f"shard {state.shard} incarnation {state.incarnation} "
                f"failed:\n{state.error}"
            )
        if state.report is not None:
            state.done = True
            return False
        # the worker died: by flush kill (message in hand) or hard kill
        # (fall back to the schedule the supervisor itself injected).
        scheduled = state.kills[0] if state.kills else None
        killed_at = state.killed_at
        if killed_at is None and scheduled is not None:
            killed_at = scheduled.at
        if killed_at is None:
            raise ShardError(
                f"shard {state.shard} incarnation {state.incarnation} died "
                "outside the kill schedule with no report"
            )
        hard = scheduled.hard if scheduled is not None else hard_exit
        state.kills_seen += 1
        self._slo.record_shard_kill(state.shard, hard)
        self._event(
            state,
            "kill",
            killed_at,
            reason="hard_kill" if hard else "injected_kill",
            pending=len(state.pending),
        )
        state.killed_at = None
        if not state.pending:
            # every query already reached a terminal outcome before the
            # kill; there is nothing to recover (no final report either).
            state.done = True
            return False
        if state.restarts >= self.config.max_restarts:
            for index in sorted(state.pending):
                state.outcomes[index] = QueryOutcome.shed(
                    state.pending[index], SHED_SHARD_LOST
                )
            self._event(
                state,
                "shard_lost",
                killed_at,
                reason="max_restarts_exhausted",
                pending=len(state.pending),
            )
            state.pending = {}
            state.done = True
            return False
        state.resume_at = killed_at + self.config.restart_delay
        # the kill that fired is consumed; kills scheduled inside the
        # downtime window hit a shard that is already down — absorbed.
        state.kills = [
            k
            for k in state.kills
            if k.at > killed_at and k.at >= state.resume_at
        ]
        redispatched = sum(
            1 for r in state.pending.values() if r.arrival <= killed_at
        )
        state.redispatched += redispatched
        state.incarnation += 1
        state.restarts += 1
        self._slo.record_shard_restart(state.shard, redispatched)
        self._event(
            state,
            "restart",
            state.resume_at,
            reason=(
                "warm_checkpoint" if state.checkpoint is not None else "cold"
            ),
            pending=len(state.pending),
        )
        return True

    # -- inline (in-process) execution ---------------------------------
    def _run_shard_inline(self, state: _ShardState) -> None:
        while not state.done:
            if not state.pending:
                state.done = True
                return
            messages: list[tuple[Any, ...]] = []
            hard_exit = False
            try:
                run_incarnation(self._task_for(state), messages.append)
            except ShardKilled:
                # in-process, nothing is buffered, so a hard kill only
                # loses the "killed" message — the schedule covers it.
                hard_exit = True
            for msg in messages:
                self._handle(state, msg)
            if not self._finish_incarnation(state, hard_exit=hard_exit):
                return

    # -- multi-process execution ---------------------------------------
    def _run_shards_mp(self, states: list[_ShardState]) -> None:
        import multiprocessing as mp
        from multiprocessing.connection import wait as connection_wait

        ctx = (
            mp.get_context(self.config.mp_start_method)
            if self.config.mp_start_method is not None
            else mp.get_context()
        )
        active: dict[int, tuple[Any, Any]] = {}
        last_sign: dict[int, float] = {}
        for state in states:
            if not state.pending:
                state.done = True
                continue
            active[state.shard] = self._launch(ctx, state)
            last_sign[state.shard] = time.perf_counter()
        while active:
            sentinels = [proc.sentinel for proc, _ in active.values()]
            connection_wait(sentinels, timeout=0.2)
            for shard in sorted(active):
                proc, queue = active[shard]
                state = states[shard]
                if self._drain(state, queue):
                    last_sign[shard] = time.perf_counter()
                if not proc.is_alive():
                    proc.join()
                    self._drain(state, queue, final=True)
                    exitcode = proc.exitcode
                    queue.close()
                    del active[shard]
                    hard_exit = exitcode not in (
                        0,
                        KILL_EXIT_CODE,
                        ERROR_EXIT_CODE,
                    ) or exitcode == HARD_KILL_EXIT_CODE
                    if self._finish_incarnation(state, hard_exit=hard_exit):
                        active[shard] = self._launch(ctx, state)
                        last_sign[shard] = time.perf_counter()
                elif (
                    time.perf_counter() - last_sign[shard]
                    > self.config.hang_timeout
                ):
                    proc.terminate()
                    proc.join()
                    raise ShardError(
                        f"shard {shard} sent no message for "
                        f"{self.config.hang_timeout}s; terminated"
                    )

    def _launch(self, ctx: Any, state: _ShardState) -> tuple[Any, Any]:
        queue = ctx.Queue()
        task = self._task_for(state)
        proc = ctx.Process(
            target=shard_worker_main, args=(task, queue), daemon=True
        )
        proc.start()
        return proc, queue

    def _drain(self, state: _ShardState, queue: Any, final: bool = False) -> bool:
        import queue as queue_module

        got = False
        while True:
            try:
                if final and not got:
                    # after join() the flush-kill pipe is complete, but
                    # give the first read a grace period anyway.
                    msg = queue.get(timeout=0.25)
                else:
                    msg = queue.get_nowait()
            except queue_module.Empty:
                break
            except (EOFError, OSError):  # pragma: no cover - torn pipe
                break
            self._handle(state, msg)
            got = True
        return got

    # -- merge ----------------------------------------------------------
    def _merge(
        self,
        requests: Sequence[QueryRequest],
        plan: RoutingPlan,
        states: list[_ShardState],
    ) -> ShardServeReport:
        tok = PROFILER.start()
        order = sorted(requests, key=lambda r: (r.arrival, r.index))
        merged: dict[int, QueryOutcome] = {o.index: o for o in plan.shed}
        for state in states:
            for index in state.outcomes:
                merged[index] = state.outcomes[index]
        lost = [r.index for r in order if r.index not in merged]
        for state in states:
            orphans = sum(1 for i in state.assigned if i not in merged)
            if orphans:
                self._slo.record_shard_orphaned(state.shard, orphans)
        outcomes = tuple(merged[r.index] for r in order if r.index in merged)

        # feed the merged stream through one accountant so per-tenant
        # rollups (and the serve_* metric families) cover router sheds,
        # shard sheds, and re-dispatched completions uniformly.
        degrade = self.config.serve.degrade
        brownout_factor = (
            degrade.brownout_deadline_factor if degrade is not None else 1.0
        )
        for outcome in outcomes:
            self._slo.record_arrival(outcome.tenant)
            if not outcome.admitted:
                self._slo.record_shed(
                    outcome.tenant, outcome.shed_reason or "unknown"
                )
                continue
            self._slo.record_answer(
                outcome,
                outcome.deadline * (brownout_factor if outcome.brownout else 1.0),
            )
            for _ in range(outcome.retries):
                self._slo.record_retry(outcome.tenant)

        admitted = [o for o in outcomes if o.admitted]
        horizon = 0.0
        if order and admitted:
            horizon = (
                max(o.arrival + o.latency for o in admitted)
                - order[0].arrival
            )

        shards: dict[str, dict[str, object]] = {}
        recovery: list[dict[str, object]] = []
        shard_reports: dict[str, dict[str, object]] = {}
        for state in states:
            recovery.extend(state.events)
            if state.report is not None:
                shard_reports[str(state.shard)] = state.report
            shard_admitted = sum(
                1
                for i in state.assigned
                if i in merged and merged[i].admitted
            )
            shards[str(state.shard)] = {
                "assigned": len(state.assigned),
                "completed": shard_admitted,
                "shed": len(state.assigned) - shard_admitted,
                "kills": state.kills_seen,
                "restarts": state.restarts,
                "redispatched": state.redispatched,
                "duplicates": state.duplicates,
                "checkpoints": state.checkpoints,
                "heartbeats": state.heartbeats,
                "incarnations": state.incarnation + 1,
                "clean_exit": state.report is not None,
            }

        terminal: dict[str, object] = {
            "expected": len(order),
            "recorded": len(outcomes),
            "lost": len(lost),
            "lost_indices": lost,
            "duplicates": sum(s.duplicates for s in states),
            "shard_lost": sum(
                1 for o in outcomes if o.shed_reason == SHED_SHARD_LOST
            ),
        }

        report = ShardServeReport(
            **_summarise(outcomes, len(order)),
            n_shards=self.config.n_shards,
            router_shed=len(plan.shed),
            horizon=horizon,
            tenants=self._slo.rollup(),
            shards=shards,
            recovery=tuple(recovery),
            terminal=terminal,
            router=plan.describe(),
            outcomes=outcomes,
            shard_reports=shard_reports,
        )
        PROFILER.stop("serve.shard.merge", tok)
        return report
