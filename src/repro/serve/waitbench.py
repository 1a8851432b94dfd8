"""The ``cedar-repro serve-bench --waitpath`` planner-cost benchmark.

Measures what the batched wait solver and the cross-query
:class:`~repro.core.waitbatch.WaitTableCache` buy the serving loop, in a
**deterministic work-unit model** rather than wall clocks (the committed
``benchmarks/BENCH_waitpath.json`` must be byte-identical across reruns,
which wall time never is). Costs are counted in grid-cell operations
(:func:`~repro.serve.bench.planner_work`):

* one scalar sweep row (``core.wait.sweep``) touches ``grid_points``
  cells;
* one batched solved row costs the same ``grid_points`` cells (row ``i``
  of the ``(N, m+1)`` matrix — the batching win is shared Python/tail
  overhead, which the tail term below captures);
* one tail-grid build (``core.quality.tail_grid``) costs
  ``grid_points**2`` cells (the :func:`~repro.core.quality._fold_stage`
  recursion);
* one cache hit costs 1 (a dict probe).

Four arms, two per configuration: a **cold** run on a fresh server and a
**warm** rerun of the same stream on the same server. The warm arms are
the steady-state serving regime — the scalar path keeps paying a sweep
per arrival forever, while the saturated cache answers every arrival
with a hit — and that is where the pinned ``>= 10x`` planner-throughput
multiple lives. The cold arms are reported alongside so the cache's
build-out cost is visible, not hidden.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional

from ..core.waitbatch import WaitCacheConfig, WaitTableCache
from ..core.wait import WaitOptimizer
from .bench import (
    config_doc,
    counted,
    pinned_config,
    pinned_requests,
    pinned_workload,
    planner_work,
    work_model_doc,
    workload_doc,
)
from .request import ServeConfig
from .server import CedarServer, ServeReport

__all__ = ["run_waitpath_bench"]

#: probe box for the quantization-error bound: the pinned workload's
#: bottom-stage parameter range (mu 3.0 +- jitter 0.25 +- diurnal swing
#: 0.8, sigma fixed at 0.8) with margin.
_ERROR_MU_RANGE = (2.0, 4.0)
_ERROR_SIGMA_RANGE = (0.4, 1.2)


def _arm_doc(
    report: ServeReport, calls: dict[str, int], grid_points: int
) -> dict[str, Any]:
    """Work-unit accounting for one run (see the module docstring)."""
    stats = report.wait_cache
    doc: dict[str, Any] = {
        **planner_work(
            calls,
            grid_points,
            solved_rows=stats.get("solved_rows", 0),
            probes=stats.get("hits", 0),
        ),
        "admitted": report.admitted,
        "mean_quality": report.mean_quality,
        "deadline_hit_rate": report.deadline_hit_rate,
    }
    if stats:
        doc["wait_cache"] = dict(stats)
    return doc


def run_waitpath_bench(
    qps: float = 0.08,
    n_requests: int = 60,
    deadline: float = 60.0,
    seed: int = 2608,
    rate_amplitude: float = 0.5,
    config: Optional[ServeConfig] = None,
    cache_config: Optional[WaitCacheConfig] = None,
) -> dict[str, object]:
    """Run the four-arm planner-cost comparison; JSON-ready, byte-stable."""
    cfg = config if config is not None else pinned_config()
    cache_cfg = cache_config if cache_config is not None else WaitCacheConfig()
    offline = pinned_workload().offline_tree()
    grid_points = cfg.grid_points
    requests = pinned_requests(qps, n_requests, deadline, seed, rate_amplitude)

    def counted_run(server: CedarServer) -> tuple[ServeReport, dict[str, int]]:
        return counted(lambda: server.run(requests))

    # -- baseline: exact per-arrival sweeps ----------------------------
    baseline = CedarServer(offline_tree=offline, config=cfg)
    base_cold, base_cold_calls = counted_run(baseline)
    base_warm, base_warm_calls = counted_run(baseline)

    # -- cached: shared quantized wait-table cache ---------------------
    cached_cfg = dataclasses.replace(cfg, wait_cache=cache_cfg)
    cached = CedarServer(offline_tree=offline, config=cached_cfg)
    cache_cold, cache_cold_calls = counted_run(cached)
    cache_warm, cache_warm_calls = counted_run(cached)

    arms = {
        "baseline_cold": _arm_doc(base_cold, base_cold_calls, grid_points),
        "baseline_warm": _arm_doc(base_warm, base_warm_calls, grid_points),
        "cached_cold": _arm_doc(cache_cold, cache_cold_calls, grid_points),
        "cached_warm": _arm_doc(cache_warm, cache_warm_calls, grid_points),
    }

    # -- equivalence claims (recomputed, not trusted) ------------------
    rerun = CedarServer(offline_tree=offline, config=cached_cfg)
    rerun_cold, _ = counted_run(rerun)
    rerun_identical = _strip_cache(rerun_cold) == _strip_cache(
        cache_cold
    ) and rerun_cold.wait_cache == cache_cold.wait_cache

    prewarm_off_cfg = dataclasses.replace(
        cfg, wait_cache=dataclasses.replace(cache_cfg, prewarm=False)
    )
    prewarm_off = CedarServer(offline_tree=offline, config=prewarm_off_cfg)
    prewarm_off_cold, _ = counted_run(prewarm_off)
    prewarm_identical = _strip_cache(prewarm_off_cold) == _strip_cache(
        cache_cold
    )

    # quantization error bound over the workload's parameter box: the
    # cached wait vs the exact optimizer at the probe parameters.
    probe_cache = WaitTableCache(cache_cfg)
    exact = WaitOptimizer(offline.stages[1:], deadline, grid_points)
    max_err = probe_cache.max_abs_error_vs(
        exact,
        k=offline.stages[0].fanout,
        mu_range=_ERROR_MU_RANGE,
        sigma_range=_ERROR_SIGMA_RANGE,
        probe_points=64,
        seed=seed,
    )

    def work(arm: str) -> int:
        return int(arms[arm]["work_units"])

    warm_stats = cache_warm.wait_cache
    warm_lookups = warm_stats.get("hits", 0) + warm_stats.get("misses", 0)
    claims: dict[str, object] = {
        "warm_planner_work_reduction_x": work("baseline_warm")
        / work("cached_warm"),
        "cold_planner_work_reduction_x": work("baseline_cold")
        / work("cached_cold"),
        "warm_mean_quality_delta": cache_warm.mean_quality
        - base_warm.mean_quality,
        "cold_mean_quality_delta": cache_cold.mean_quality
        - base_cold.mean_quality,
        "cache_hit_rate_warm": (
            warm_stats.get("hits", 0) / warm_lookups if warm_lookups else 0.0
        ),
        "max_wait_error_vs_exact": max_err,
        "max_wait_error_fraction_of_deadline": max_err / deadline,
        "cache_rerun_bit_identical": rerun_identical,
        "prewarm_off_bit_identical": prewarm_identical,
    }

    return {
        "bench": "waitpath",
        "seed": seed,
        "qps": qps,
        "n_requests": n_requests,
        "deadline": deadline,
        "rate_amplitude": rate_amplitude,
        "workload": workload_doc(),
        "config": config_doc(cfg),
        "cache_config": {
            "mu_step": cache_cfg.mu_step,
            "sigma_step": cache_cfg.sigma_step,
            "deadline_rel_step": cache_cfg.deadline_rel_step,
            "prewarm": cache_cfg.prewarm,
        },
        "work_model": work_model_doc(grid_points),
        "arms": arms,
        "claims": claims,
    }


def _strip_cache(report: ServeReport) -> dict[str, object]:
    doc = report.to_dict(include_outcomes=True)
    doc.pop("wait_cache", None)
    return doc
