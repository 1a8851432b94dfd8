"""The ``cedar-repro serve-bench`` QPS sweep.

Drives a :class:`~repro.serve.CedarServer` at a ladder of offered loads
over a pinned diurnal workload and reports, per load point: achieved
QPS, deadline-hit rate of admitted queries, mean quality, shed fraction,
and latency percentiles. A separate warm-vs-cold pass quantifies the
cross-query warm-start gain at low load (where quality differences come
from learning, not shedding).

The pinned workload/config below are the repo's serving perf trajectory:
``tests/test_benches.py`` regenerates this document and diffs it against
the committed ``benchmarks/BENCH_serve.json`` (see the "Pinned benches"
table in EXPERIMENTS.md). The pieces every pinned bench repeats — the
request stream, the ``config``/``workload`` echo, profiler call counting,
the planner work-unit model, the warm-store reset count — live here and
are shared by the chaos, shard, wait-path and learned harnesses.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Mapping, Optional, Sequence, TypeVar

from ..errors import ConfigError
from ..obs.profile import PROFILER
from ..traces import DiurnalWorkload
from ..traces.base import LogNormalStageSpec
from .loadgen import LoadGenerator
from .request import QueryRequest, ServeConfig
from .server import CedarServer, ServeReport

__all__ = [
    "pinned_workload",
    "pinned_config",
    "pinned_requests",
    "config_doc",
    "workload_doc",
    "counted",
    "planner_work",
    "work_model_doc",
    "warm_resets",
    "run_serve_bench",
    "DEFAULT_QPS_POINTS",
]

_T = TypeVar("_T")

#: offered-load ladder straddling the pinned config's saturation point
#: (~ max_concurrent / mean service time ≈ 0.08 q/unit): comfortably
#: under, right at, and 3x over.
DEFAULT_QPS_POINTS = (0.02, 0.08, 0.25)


def pinned_workload() -> DiurnalWorkload:
    """The benchmark's fixed diurnal workload (4x8 tree, 0.8 mu swing).

    The bottom fanout is deliberately small (4): each bottom-level
    aggregator sees at most 4 online samples per query, so the
    cross-query warm-start prior — pooled over all 8 aggregators and
    every past query — carries real information the per-query online
    learner cannot recover on its own. This is the regime where warm
    start earns its keep; with wide bottom stages the online learner
    converges within a single query and the prior is redundant.
    """
    return DiurnalWorkload(
        base=LogNormalStageSpec(mu=3.0, sigma=0.8, fanout=4, mu_jitter=0.25),
        upper=LogNormalStageSpec(mu=2.2, sigma=0.35, fanout=8),
        amplitude=0.8,
        period=40,
    )


def pinned_config(grid_points: int = 96) -> ServeConfig:
    """The benchmark's fixed server configuration.

    ``min_deadline_fraction=0.6`` makes admission strict enough that
    queries dispatched under overload still hold a workable budget:
    across seeds, the deadline-hit rate of *admitted* queries stays at
    1.0 well past saturation while the shed fraction absorbs the excess
    load — degradation shows up as refusals, not broken promises.
    """
    return ServeConfig(
        max_concurrent=4,
        max_queue=8,
        min_deadline_fraction=0.6,
        contention_coeff=0.5,
        grid_points=grid_points,
    )


def pinned_requests(
    qps: float,
    n_requests: int,
    deadline: float,
    seed: int,
    rate_amplitude: float = 0.5,
    **stream: Any,
) -> list[QueryRequest]:
    """The pinned workload's open-loop request stream (``stream`` passes
    ``drift`` / ``tenants`` through to :class:`LoadGenerator`)."""
    return LoadGenerator(
        workload=pinned_workload(),
        qps=qps,
        n_requests=n_requests,
        deadline=deadline,
        seed=seed,
        rate_amplitude=rate_amplitude,
        **stream,
    ).generate()


def config_doc(cfg: ServeConfig) -> dict[str, object]:
    """The ``"config"`` echo every pinned document carries."""
    return {
        "max_concurrent": cfg.max_concurrent,
        "max_queue": cfg.max_queue,
        "min_deadline_fraction": cfg.min_deadline_fraction,
        "contention_coeff": cfg.contention_coeff,
        "grid_points": cfg.grid_points,
    }


def workload_doc() -> dict[str, object]:
    """The ``"workload"`` echo of :func:`pinned_workload`."""
    workload = pinned_workload()
    return {
        "name": workload.name,
        "base_mu": workload.base.mu,
        "base_sigma": workload.base.sigma,
        "k1": workload.base.fanout,
        "upper_mu": workload.upper.mu,
        "upper_sigma": workload.upper.sigma,
        "k2": workload.upper.fanout,
        "amplitude": workload.amplitude,
        "period": workload.period,
    }


def counted(fn: Callable[[], _T]) -> tuple[_T, dict[str, int]]:
    """Run ``fn`` under the profiler; return its result and per-site call
    counts (wall clocks are never byte-stable; call counts are)."""
    was_enabled = PROFILER.enabled
    PROFILER.reset()
    PROFILER.enable()
    try:
        result = fn()
    finally:
        if not was_enabled:
            PROFILER.disable()
    calls = {
        name: int(stat["calls"]) for name, stat in PROFILER.snapshot().items()
    }
    PROFILER.reset()
    return result, calls


def planner_work(
    calls: Mapping[str, int], grid_points: int, solved_rows: int, probes: int
) -> dict[str, int]:
    """Deterministic work-unit accounting for one counted run: a scalar
    sweep row and a batched solved row each touch ``grid_points`` cells,
    a tail-grid build ``grid_points**2``, any O(1) probe (wait-cache hit,
    learned-table read) costs 1."""
    sweeps = calls.get("core.wait.sweep", 0) + calls.get(
        "core.wait.calculate_wait", 0
    )
    tail_builds = calls.get("core.quality.tail_grid", 0)
    return {
        "sweeps": sweeps,
        "tail_builds": tail_builds,
        "work_units": sweeps * grid_points
        + solved_rows * grid_points
        + tail_builds * grid_points * grid_points
        + probes,
    }


def work_model_doc(grid_points: int) -> dict[str, int]:
    """The ``"work_model"`` echo of :func:`planner_work`'s prices."""
    return {
        "sweep_row": grid_points,
        "solved_row": grid_points,
        "tail_build": grid_points * grid_points,
        "cache_hit": 1,
    }


def warm_resets(report: ServeReport) -> int:
    """Total warm-store drift resets across a report's workload keys."""
    total = 0
    for entry in report.warm.values():
        resets = entry.get("resets", 0)
        if isinstance(resets, int):
            total += resets
    return total


def _point_doc(qps: float, report: ServeReport) -> dict[str, object]:
    return {
        "offered_qps": qps,
        "achieved_qps": report.achieved_qps,
        "n_requests": report.n_requests,
        "admitted": report.admitted,
        "completed": report.completed,
        "shed_fraction": report.shed_fraction,
        "deadline_hit_rate": report.deadline_hit_rate,
        "mean_quality": report.mean_quality,
        "latency_p50": report.latency_p50,
        "latency_p95": report.latency_p95,
        "latency_p99": report.latency_p99,
        "mean_queue_delay": report.mean_queue_delay,
    }


def run_serve_bench(
    qps_points: Optional[Sequence[float]] = None,
    n_requests: int = 60,
    deadline: float = 60.0,
    seed: int = 2608,
    config: Optional[ServeConfig] = None,
    warm_compare: bool = True,
    warm_requests: int = 120,
    warm_qps: float = 0.01,
    rate_amplitude: float = 0.5,
) -> dict[str, object]:
    """Run the QPS sweep and return the JSON-ready report document."""
    points = tuple(float(q) for q in (qps_points or DEFAULT_QPS_POINTS))
    if not points:
        raise ConfigError("need at least one QPS point")
    cfg = config if config is not None else pinned_config()
    offline = pinned_workload().offline_tree()

    point_docs: list[dict[str, object]] = []
    for qps in points:
        requests = pinned_requests(
            qps, n_requests, deadline, seed, rate_amplitude
        )
        report = CedarServer(offline_tree=offline, config=cfg).run(requests)
        point_docs.append(_point_doc(qps, report))

    doc: dict[str, object] = {
        "bench": "serve",
        "seed": seed,
        "deadline": deadline,
        "rate_amplitude": rate_amplitude,
        "workload": workload_doc(),
        "config": config_doc(cfg),
        "points": point_docs,
    }

    if warm_compare:
        requests = pinned_requests(
            warm_qps, warm_requests, deadline, seed, rate_amplitude
        )
        warm_report = CedarServer(offline_tree=offline, config=cfg).run(
            requests
        )
        # the cold arm differs from the warm one in warm_start only
        cold_cfg = dataclasses.replace(cfg, warm_start=False)
        cold_report = CedarServer(offline_tree=offline, config=cold_cfg).run(
            requests
        )
        doc["warm_start"] = {
            "qps": warm_qps,
            "n_requests": warm_requests,
            "warm_mean_quality": warm_report.mean_quality,
            "cold_mean_quality": cold_report.mean_quality,
            "quality_gain": warm_report.mean_quality - cold_report.mean_quality,
            "warm_deadline_hit_rate": warm_report.deadline_hit_rate,
            "cold_deadline_hit_rate": cold_report.deadline_hit_rate,
            "store_resets": warm_resets(warm_report),
        }
    return doc
