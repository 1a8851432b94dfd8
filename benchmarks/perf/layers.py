"""Per-layer metrics: their names, units and scopes, and how one traced
run's spans, report and profiler snapshot turn into their values.

``_s`` metrics are host self times (span duration minus child spans) of
the traced run unless the comment says inclusive; counts and the
``virt_*`` / ``*_mean`` values are simulated and repeat exactly.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from .trace import SpanRecorder

#: name -> (unit, scope). A workload reports a metric only when the scope
#: is ``"all"`` or one of the workload's scopes; otherwise it is absent.
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "serve.loadgen.busy_s": ("s", "serve"),
    "serve.loadgen.requests": ("count", "serve"),
    "serve.admission.offers": ("count", "serve"),
    "serve.admission.busy_s": ("s", "serve"),
    "serve.admission.shed_queue_full": ("count", "serve"),
    "serve.admission.shed_infeasible": ("count", "serve"),
    "serve.admission.shed_stale": ("count", "serve"),
    "serve.admission.queue_delay_mean": ("virtual_s", "serve"),
    "serve.server.run_s": ("s", "serve"),
    "serve.server.self_s": ("s", "serve"),
    "serve.server.dispatches": ("count", "serve"),
    "serve.server.report_json_s": ("s", "serve"),
    "serve.slo.record_s": ("s", "serve"),
    "serve.slo.virt_latency_p50": ("virtual_s", "serve"),
    "serve.slo.virt_latency_p99": ("virtual_s", "serve"),
    "serve.warmstart.prior_calls": ("count", "serve"),
    "serve.warmstart.harvest_s": ("s", "serve"),
    "serve.warmstart.warm_share": ("share", "serve"),
    "serve.warmstart.resets": ("count", "serve"),
    "estimation.online.estimates": ("count", "all"),
    "estimation.online.estimate_s": ("s", "all"),
    "estimation.tracker.observe_s": ("s", "serve"),
    "estimation.tracker.refits": ("count", "serve"),
    "simulation.query.calls": ("count", "all"),
    "simulation.query.self_s": ("s", "all"),
    "simulation.query.arrivals": ("count", "all"),
    "distributions.sample_s": ("s", "all"),
    "core.policies.controller_builds": ("count", "all"),
    "core.policies.controller_self_s": ("s", "all"),
    "core.policies.builds_per_query": ("1/query", "all"),
    "core.aggregator.on_arrival_calls": ("count", "all"),
    "core.aggregator.on_arrival_self_s": ("s", "all"),
    "core.wait.optimize_calls": ("count", "all"),
    "core.wait.optimize_s": ("s", "all"),
    "core.wait.decisions_per_query": ("1/query", "all"),
    "core.wait.decision_us_p50": ("us", "all"),
    "core.wait.decision_us_p99": ("us", "all"),
    "core.quality.sweeps": ("count", "all"),
    "core.quality.tail_builds": ("count", "all"),
    "core.quality.tail_build_s": ("s", "all"),
    "core.waitbatch.hits": ("count", "cache"),
    "core.waitbatch.misses": ("count", "cache"),
    "core.waitbatch.solved_rows": ("count", "cache"),
    "core.waitbatch.hit_ratio": ("share", "cache"),
    "core.waitbatch.lookup_s": ("s", "cache"),
    "core.waitbatch.prewarm_s": ("s", "cache"),
    "learn.policy.lookups": ("count", "learned"),
    "learn.policy.fallbacks": ("count", "learned"),
    "learn.policy.fallback_rate": ("share", "learned"),
    "learn.policy.lookup_s": ("s", "learned"),
    "serve.router.route_s": ("s", "sharded"),
    "serve.shard.supervisor_self_s": ("s", "sharded"),
    "serve.shard.checkpoints": ("count", "sharded"),
    "serve.shard.merge_s": ("s", "sharded"),
    "serve.shard.overhead_share": ("share", "sharded"),
    "obs.enabled_overhead_share": ("share", "obs"),
    "obs.spans_emitted": ("count", "obs"),
    "trace.overhead_share": ("share", "all"),
}

#: PROFILER site -> span name whose call count it must equal in a traced
#: run (checked for every site the profiler saw).
PROFILER_TWINS = {
    "serve.admission.offer": "serve.admission.offer",
    "serve.dispatch": "simulation.query",
    "core.wait.sweep": "core.wait.sweep",
    "core.quality.tail_grid": "core.quality.tail_grid",
    "estimation.streaming.estimate": "estimation.online.estimate",
    "core.waitbatch.lookup": "core.waitbatch.wait_for",
    "serve.warmstart.observe": "serve.warmstart.observe_query",
    "serve.shard.route": "serve.router.route",
}

_ON_ARRIVAL = (
    "core.aggregator.on_arrival",
    "core.aggregator.static_on_arrival",
    "learn.policy.on_arrival",
)
_DECISIONS = ("core.wait.optimize", "core.waitbatch.optimize", "learn.policy.on_arrival")


def applies(name: str, scopes: frozenset[str]) -> bool:
    scope = LAYER_METRICS[name][1]
    return scope == "all" or scope in scopes


def _warm_docs(report: Any) -> list[Mapping[str, Mapping[str, Any]]]:
    """Warm-store snapshots: the server's own, or one per shard."""
    if hasattr(report, "shard_reports"):
        return [doc.get("warm", {}) for doc in report.shard_reports.values()]
    return [report.warm]


def layer_values(
    rec: SpanRecorder,
    root: str,
    outcome: Any,
    profile: Mapping[str, Mapping[str, float]],
) -> dict[str, float]:
    """Every metric one traced run can supply (scope filtering, the obs
    pair and ``trace.overhead_share`` are the worker's job)."""
    report = outcome.report
    outcomes = outcome.outcomes
    admitted = [o for o in outcomes if o.admitted]
    queries = rec.calls("simulation.query", root)
    wait_cache = getattr(report, "wait_cache", None) or {}
    learned = getattr(report, "learned", None) or {}
    warm = [entry for doc in _warm_docs(report) for entry in doc.values()] if outcomes else []
    decisions = np.asarray(rec.durations(*_DECISIONS)) * 1e6
    lookups = wait_cache.get("hits", 0) + wait_cache.get("misses", 0)

    def shed(reason: str) -> int:
        return sum(1 for o in outcomes if o.shed_reason == reason)

    def profiled(site: str, field: str) -> float:
        return float(profile.get(site, {}).get(field, 0.0))

    def per_query(count: float) -> float:
        return count / queries if queries else 0.0

    values: dict[str, float] = {
        "serve.loadgen.busy_s": rec.total_s("serve.loadgen.generate"),
        "serve.loadgen.requests": outcome.offered,
        "serve.admission.offers": rec.calls("serve.admission.offer", root),
        "serve.admission.busy_s": sum(
            rec.self_s(f"serve.admission.{op}", root)
            for op in ("offer", "pop_ready", "finish")
        ),
        "serve.admission.shed_queue_full": shed("queue_full"),
        "serve.admission.shed_infeasible": shed("infeasible"),
        "serve.admission.shed_stale": shed("stale"),
        "serve.admission.queue_delay_mean": (
            float(np.mean([o.queue_delay for o in admitted])) if admitted else 0.0
        ),
        "serve.server.run_s": rec.total_s("serve.server.run", root),
        "serve.server.self_s": rec.self_s("serve.server.run", root),
        "serve.server.dispatches": queries,
        "serve.server.report_json_s": rec.total_s("serve.server.report_json"),
        "serve.slo.record_s": rec.self_s("serve.slo.record", root),
        "serve.slo.virt_latency_p50": getattr(report, "latency_p50", 0.0),
        "serve.slo.virt_latency_p99": getattr(report, "latency_p99", 0.0),
        "serve.warmstart.prior_calls": rec.calls("serve.warmstart.prior", root),
        "serve.warmstart.harvest_s": rec.self_s("serve.warmstart.harvest", root)
        + rec.self_s("serve.warmstart.observe_query", root),
        "serve.warmstart.warm_share": (
            sum(1 for o in admitted if o.warm) / len(admitted) if admitted else 0.0
        ),
        "serve.warmstart.resets": sum(int(e["resets"]) for e in warm),
        "estimation.online.estimates": rec.calls("estimation.online.estimate", root),
        "estimation.online.estimate_s": rec.self_s("estimation.online.estimate", root),
        "estimation.tracker.observe_s": rec.self_s("estimation.tracker.observe_many", root),
        "estimation.tracker.refits": sum(int(e["tracker_refits"]) for e in warm),
        "simulation.query.calls": queries,
        "simulation.query.self_s": rec.self_s("simulation.query", root),
        "simulation.query.arrivals": sum(rec.calls(site, root) for site in _ON_ARRIVAL),
        "distributions.sample_s": rec.self_s("distributions.sample", root),
        "core.policies.controller_builds": rec.calls("core.policies.controller", root),
        "core.policies.controller_self_s": rec.self_s("core.policies.controller", root),
        "core.policies.builds_per_query": per_query(
            rec.calls("core.policies.controller", root)
        ),
        "core.aggregator.on_arrival_calls": rec.calls("core.aggregator.on_arrival", root),
        "core.aggregator.on_arrival_self_s": rec.self_s("core.aggregator.on_arrival", root),
        "core.wait.optimize_calls": rec.calls("core.wait.optimize", root),
        # the exact planner's own time: optimize() plus the sweep it runs
        # (tail-grid builds are core.quality's)
        "core.wait.optimize_s": rec.self_s("core.wait.optimize", root)
        + rec.self_s("core.wait.sweep", root),
        "core.wait.decisions_per_query": per_query(len(decisions)),
        "core.wait.decision_us_p50": (
            float(np.percentile(decisions, 50)) if len(decisions) else 0.0
        ),
        "core.wait.decision_us_p99": (
            float(np.percentile(decisions, 99)) if len(decisions) else 0.0
        ),
        # scalar sweeps plus the rows the wait cache solved in batches
        "core.quality.sweeps": rec.calls("core.wait.sweep", root)
        + wait_cache.get("solved_rows", 0),
        "core.quality.tail_builds": rec.calls("core.quality.tail_grid", root),
        "core.quality.tail_build_s": rec.self_s("core.quality.tail_grid", root),
        "core.waitbatch.hits": wait_cache.get("hits", 0),
        "core.waitbatch.misses": wait_cache.get("misses", 0),
        "core.waitbatch.solved_rows": wait_cache.get("solved_rows", 0),
        "core.waitbatch.hit_ratio": (
            wait_cache.get("hits", 0) / lookups if lookups else 0.0
        ),
        "core.waitbatch.lookup_s": rec.self_s("core.waitbatch.wait_for", root)
        + rec.self_s("core.waitbatch.optimize", root),
        "core.waitbatch.prewarm_s": rec.self_s("core.waitbatch.prewarm", root),
        "learn.policy.lookups": learned.get("lookups", 0),
        "learn.policy.fallbacks": learned.get("fallbacks", 0),
        "learn.policy.fallback_rate": learned.get("fallback_rate", 0.0),
        # inclusive, from the profiler site inside LearnedController
        "learn.policy.lookup_s": profiled("learn.policy.lookup", "total_s"),
        "serve.router.route_s": rec.total_s("serve.router.route", root),
        "serve.shard.supervisor_self_s": rec.self_s("serve.shard.run", root),
        "serve.shard.checkpoints": sum(
            int(s["checkpoints"]) for s in getattr(report, "shards", {}).values()
        ),
        # inclusive, from the profiler site around ShardSupervisor._merge
        "serve.shard.merge_s": profiled("serve.shard.merge", "total_s"),
        "serve.shard.overhead_share": 0.0,
    }
    supervisor_s = rec.total_s("serve.shard.run", root)
    if supervisor_s > 0.0:
        values["serve.shard.overhead_share"] = (
            1.0 - values["serve.server.run_s"] / supervisor_s
        )
    return values


def profiler_mismatches(
    rec: SpanRecorder, profile: Mapping[str, Mapping[str, float]]
) -> list[str]:
    """Sites where the recorder and PROFILER disagree on the call count."""
    bad = []
    for site, span in PROFILER_TWINS.items():
        if site in profile:
            seen, expected = rec.calls(span), int(profile[site]["calls"])
            if seen != expected:
                bad.append(f"{site}: {seen} spans vs {expected} profiler calls")
    return bad


def layer_table(rec: SpanRecorder, root: str) -> list[tuple[str, int, float]]:
    """(span name, calls, self seconds) under ``root``, largest first."""
    rows: dict[str, list[float]] = {}
    for (agg_root, name, _), agg in rec.aggs.items():
        if agg_root == root:
            row = rows.setdefault(name, [0, 0.0])
            row[0] += agg.calls
            row[1] += agg.self_s
    return sorted(
        ((name, int(c), s) for name, (c, s) in rows.items()),
        key=lambda r: -r[2],
    )
