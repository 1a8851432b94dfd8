"""The benchmark's workloads: what each one builds and how one run executes.

A workload is prepared once per subprocess (``prepare`` = the part of
``setup_s`` after the imports: request generation from ``--seed`` plus
whatever the serve path constructs once) and then run several times, each
run on a *fresh* server/supervisor/policy set so every repeat produces the
identical report. ``--seed`` reaches only ``LoadGenerator`` and
``run_experiment``; the servers only ever see generated requests.

Sizes are the full-scale ``n``; ``--smoke`` divides every one by 20.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.core import CedarPolicy, IdealPolicy, ProportionalSplitPolicy
from repro.core.waitbatch import WaitCacheConfig
from repro.serve import (
    CedarServer,
    LoadGenerator,
    ShardConfig,
    ShardSupervisor,
    pinned_config,
    pinned_workload,
)
from repro.serve.request import QueryRequest, ServeConfig
from repro.simulation import run_experiment
from repro.traces import facebook_workload
from repro.traces.catalog import diurnal_workload

DEADLINE = 60.0
RATE_AMPLITUDE = 0.5
REPLAY_DEADLINE = 1000.0
REPLAY_GRID = 256
#: bottom subtrees simulated per replayed query. 1 (not the figure
#: scripts' 10) buys 10x more queries per second of run: per-query cost
#: on the facebook population has a coefficient of variation of ~0.6, so
#: the query count, not the subtree count, is what makes two seeds agree.
REPLAY_AGG_SAMPLE = 1
#: likewise on the wide tree: 2 of its 10 bottom subtrees per query, so
#: 400 queries fit where 80 full ones would (work per query differs by
#: 2.5% between seeds at 150 full queries, 1.2% at 400 sampled ones). The
#: per-arrival refit + sweep that the workload exists for is unchanged.
WIDE_AGG_SAMPLE = 2


@dataclasses.dataclass(frozen=True)
class RunOutcome:
    """What one run of a workload produced (all simulated, none timed)."""

    #: sha256 of the canonical JSON of the full report, outcomes included:
    #: the identity every repeat, traced or not, must reproduce.
    sha256: str
    #: host wall / CPU seconds of the serve or replay call alone: server
    #: construction before it and report serialisation after it are not
    #: in the timed interval.
    wall_s: float
    cpu_s: float
    offered: int
    #: on-time non-empty answers (the rest were shed, missed or empty).
    answered: int
    mean_quality: float
    deadline_hit_rate: float
    #: the report object itself, for the per-layer counters it carries.
    report: Any
    #: per-request terminal outcomes (serve workloads) for the ledger check.
    outcomes: Sequence[Any] = ()
    #: per-policy quality arrays (replay workload only).
    qualities: Optional[dict[str, np.ndarray]] = None


def requests_digest(requests: Sequence[QueryRequest]) -> str:
    """Digest of a generated request list, exact to the last float bit."""
    h = hashlib.sha256()
    for r in requests:
        stages = [
            (s.fanout, s.duration.family, sorted(s.duration.params().items()))
            for s in r.tree.stages
        ]
        h.update(
            repr(
                (r.index, r.arrival, r.deadline, r.seed, r.tenant,
                 r.workload_key, stages)
            ).encode("utf-8")
        )
    return h.hexdigest()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _timed(fn: Callable[[], Any]) -> tuple[Any, float, float]:
    wall, cpu = time.perf_counter(), time.process_time()
    result = fn()
    return result, time.perf_counter() - wall, time.process_time() - cpu


class _Serve:
    """A request stream served by one ``CedarServer`` per run."""

    #: the span every other span of a traced run sits under.
    root = "serve.server.run"

    def __init__(
        self,
        seed: int,
        n: int,
        workload: Any,
        qps: float,
        config: ServeConfig,
        tenants: Sequence[str] = ("default",),
    ):
        self.generator = LoadGenerator(
            workload=workload,
            qps=qps,
            n_requests=n,
            deadline=DEADLINE,
            seed=seed,
            tenants=tenants,
            rate_amplitude=RATE_AMPLITUDE,
        )
        self.requests = self.generator.generate()
        self.offline = workload.offline_tree()
        self.config = config
        self.inputs_digest = requests_digest(self.requests)
        # a learned server loads its table in the constructor; build one
        # here so that load is part of setup_s, as a long-lived server
        # would pay it once.
        self._build()

    def _build(self, tracer: Any = None, metrics: Any = None) -> Any:
        return CedarServer(
            offline_tree=self.offline,
            config=self.config,
            tracer=tracer,
            metrics=metrics,
        )

    def run(
        self, n: Optional[int] = None, tracer: Any = None, metrics: Any = None
    ) -> RunOutcome:
        requests = self.requests if n is None else self.requests[:n]
        server = self._build(tracer, metrics)
        report, wall_s, cpu_s = _timed(lambda: server.run(requests))
        outcomes = report.outcomes
        return RunOutcome(
            sha256=_sha256(report.to_json(include_outcomes=True)),
            wall_s=wall_s,
            cpu_s=cpu_s,
            offered=report.n_requests,
            answered=sum(1 for o in outcomes if o.deadline_hit),
            mean_quality=report.mean_quality,
            deadline_hit_rate=report.deadline_hit_rate,
            report=report,
            outcomes=outcomes,
        )


class _Sharded(_Serve):
    """The same stream behind a two-shard inline ``ShardSupervisor``."""

    root = "serve.shard.run"

    def _build(self, tracer: Any = None, metrics: Any = None) -> Any:
        return ShardSupervisor(
            self.offline,
            ShardConfig(n_shards=2, serve=self.config, inline=True),
            tracer=tracer,
            metrics=metrics,
        )


class _Replay:
    """The Fig. 7b inner loop: paired replay under three policies."""

    root = "simulation.runner.run_experiment"

    def __init__(self, seed: int, n: int):
        self.seed = seed
        self.n = n
        self.workload = facebook_workload()
        # the inputs are drawn inside run_experiment from the seed alone
        self.inputs_digest = _sha256(
            repr(("facebook", seed, n, REPLAY_DEADLINE, REPLAY_AGG_SAMPLE))
        )

    def run(
        self, n: Optional[int] = None, tracer: Any = None, metrics: Any = None
    ) -> RunOutcome:
        n_queries = self.n if n is None else n
        policies = [
            ProportionalSplitPolicy(),
            CedarPolicy(grid_points=REPLAY_GRID),
            IdealPolicy(grid_points=REPLAY_GRID),
        ]
        # looked up at call time: the traced run patches this module global
        result, wall_s, cpu_s = _timed(
            lambda: run_experiment(
                self.workload,
                policies,
                deadline=REPLAY_DEADLINE,
                n_queries=n_queries,
                seed=self.seed,
                agg_sample=REPLAY_AGG_SAMPLE,
                tracer=tracer,
                metrics=metrics,
            )
        )
        cedar = result.qualities["cedar"]
        answered = int(np.count_nonzero(cedar > 0.0))
        doc = {name: [repr(float(q)) for q in qs] for name, qs in result.qualities.items()}
        return RunOutcome(
            sha256=_sha256(repr(sorted(doc.items()))),
            wall_s=wall_s,
            cpu_s=cpu_s,
            offered=n_queries,
            answered=answered,
            mean_quality=float(np.mean(cedar)),
            deadline_hit_rate=answered / n_queries,
            report=result,
            qualities=result.qualities,
        )


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    #: full-scale stream length (requests, or replayed queries).
    n: int
    prepare: Callable[[int, int], Any]
    #: which optional layers this workload has; a per-layer metric whose
    #: scope is not listed here is reported as absent, not as zero.
    scopes: frozenset[str]


def _narrow(config: ServeConfig, qps: float = 0.02) -> Callable[[int, int], Any]:
    return lambda seed, n: _Serve(seed, n, pinned_workload(), qps, config)


_EXACT = pinned_config()
_SERVE = frozenset({"serve"})

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("narrow_exact", 3000, _narrow(_EXACT), _SERVE | {"obs"}),
        Workload(
            "narrow_cache",
            3000,
            _narrow(dataclasses.replace(_EXACT, wait_cache=WaitCacheConfig())),
            _SERVE | {"cache"},
        ),
        Workload(
            "narrow_learned",
            3000,
            _narrow(dataclasses.replace(_EXACT, learned=True)),
            _SERVE | {"learned"},
        ),
        Workload(
            "wide_exact",
            400,
            lambda seed, n: _Serve(
                seed,
                n,
                diurnal_workload(k1=30, k2=10),
                0.02,
                dataclasses.replace(_EXACT, agg_sample=WIDE_AGG_SAMPLE),
            ),
            _SERVE,
        ),
        Workload("overload_exact", 8000, _narrow(_EXACT, qps=0.25), _SERVE),
        Workload(
            "sharded_inline",
            3000,
            lambda seed, n: _Sharded(
                seed, n, pinned_workload(), 0.1, _EXACT, tenants=("a", "b", "c", "d")
            ),
            _SERVE | {"sharded"},
        ),
        Workload("paper_replay", 800, _Replay, frozenset()),
    )
}
