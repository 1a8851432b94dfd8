"""One workload in one fresh single-threaded subprocess.

``run.py`` starts this module with ``python -m benchmarks.perf.worker``;
it sets up the workload, warms up, runs the timed repeats (tracing off),
optionally the traced repeats, checks the outputs and prints one JSON
document as its last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import statistics
import sys
import time
from typing import Any, Callable, NamedTuple, Optional

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

#: host metrics move with the machine; simulated ones repeat exactly for
#: a fixed seed, so they double as the check that a change kept behaviour.
END_TO_END = {
    "queries_per_s": ("1/s", "host"),
    "cpu_ms_per_query": ("ms", "host"),
    "peak_rss_mb": ("MB", "host"),
    "setup_s": ("s", "host"),
    "mean_quality": ("share", "simulated"),
    "deadline_hit_rate": ("share", "simulated"),
    "answered_share": ("share", "simulated"),
}


def calibration_kernel_s() -> float:
    """Median of nine timings of a fixed numpy kernel (matmul, elementwise
    math, cumsum, sort): the machine-speed yardstick. Information only -
    at ~20 ms it sees far more of the sandbox's short-term speed changes
    than a multi-second run does."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((192, 192))
    timings = []
    for _ in range(9):
        start = time.perf_counter()
        for _ in range(40):
            b = a @ a.T
            b = np.cumsum(np.exp(-np.abs(b) / 192.0), axis=1)
            np.sort(b, axis=1)
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)


class Sample(NamedTuple):
    """What is kept of a run once it is over: holding every repeat's full
    report would make peak RSS grow with the repeat count."""

    wall_s: float
    cpu_s: float
    offered: int
    sha256: str

    @classmethod
    def of(cls, outcome: Any) -> "Sample":
        return cls(outcome.wall_s, outcome.cpu_s, outcome.offered, outcome.sha256)


def repeat(
    fn: Callable[[], Any], repeats: Optional[int], seconds: float
) -> list[Any]:
    """Call ``fn`` ``repeats`` times, or - with no count given - as many
    times as fit in ``seconds`` (at least once)."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(fn())
        if repeats is not None:
            if len(results) >= repeats:
                return results
        else:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(results) > seconds:
                return results


def work_units(profile: dict, report: Any, grid_points: int) -> int:
    """Planner work by the repo's work-unit model (``serve/waitbench.py``,
    ``learn/bench.py``): grid cells per sweep row and per solved row,
    grid_points^2 per tail build, 1 per cache hit or table lookup."""
    def calls(site: str) -> int:
        return int(profile.get(site, {}).get("calls", 0))

    cache = getattr(report, "wait_cache", None) or {}
    learned = getattr(report, "learned", None) or {}
    sweeps = calls("core.wait.sweep") + calls("core.wait.calculate_wait")
    return (
        sweeps * grid_points
        + cache.get("solved_rows", 0) * grid_points
        + calls("core.quality.tail_grid") * grid_points * grid_points
        + cache.get("hits", 0)
        + learned.get("lookups", 0)
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--scale", type=int, default=1, help="divide every n by this")
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.time()

    # ---- set-up: imports, request generation, construction ------------
    from . import checks as chk
    from .workloads import WORKLOADS

    spec = WORKLOADS[args.workload]
    n = max(2, spec.n // args.scale)
    prepared = spec.prepare(args.seed, n)
    setup_s = time.time() - spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    calib_s = calibration_kernel_s()
    # untimed warm-up on the first tenth of the stream: fills lru_caches,
    # finishes numpy/scipy lazy initialisation
    prepared.run(n=max(1, n // 10))

    # ---- timed repeats, tracing off ------------------------------------
    first: Any = None
    failed = 0

    def run_once(**kwargs: Any) -> Sample:
        nonlocal first, failed
        # start every repeat from the same collector state, so a full
        # collection lands in the same place in each
        gc.collect()
        outcome = prepared.run(**kwargs)
        failed += chk.ledger_failures(outcome)
        if first is None:
            first = outcome
        return Sample.of(outcome)

    # the driver's traced form spends its seconds on traced repeats
    traced_for_seconds = bool(args.trace) and args.repeats is None
    timed = repeat(run_once, 1 if traced_for_seconds else args.repeats, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = chk.run_checks(first)
    checks.append(chk.identical_reports("report_identical_across_repeats", timed))
    answered_share = first.answered / first.offered
    measured = {
        "queries_per_s": [o.offered / o.wall_s for o in timed],
        "cpu_ms_per_query": [1e3 * o.cpu_s / o.offered for o in timed],
        "peak_rss_mb": [peak_rss_mb],
        "setup_s": [setup_s],
        "mean_quality": [first.mean_quality],
        "deadline_hit_rate": [first.deadline_hit_rate],
        "answered_share": [answered_share],
    }
    end_to_end = {
        name: {
            "value": statistics.median(values),
            "unit": END_TO_END[name][0],
            "kind": END_TO_END[name][1],
            "repeats": values,
        }
        for name, values in measured.items()
    }
    info: dict[str, Any] = {
        "n": n,
        "repeats": len(timed),
        "inputs_digest": prepared.inputs_digest,
        "report_sha256": first.sha256,
        "calib_kernel_s": calib_s,
        "queries_per_calib": end_to_end["queries_per_s"]["value"] * calib_s,
        "ops_attempted": first.offered,
        "ops_failed": first.offered - first.answered,
        "failed_share": 1.0 - answered_share,
    }

    per_layer: dict[str, dict[str, Any]] = {}
    table: list[list[Any]] = []
    if args.trace:
        per_layer, table, traced_checks = traced_phase(
            args, spec, prepared, timed, run_once, info
        )
        checks += traced_checks

    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "layer_table": table,
        "info": info,
        "checks": [list(c) for c in checks],
        "attempted": sum(o.offered for o in timed),
        "failed": failed,
    }
    print(json.dumps(doc))
    return 0


def traced_phase(
    args: argparse.Namespace,
    spec: Any,
    prepared: Any,
    timed: list[Sample],
    run_once: Callable[..., Sample],
    info: dict[str, Any],
) -> tuple[dict[str, dict[str, Any]], list[list[Any]], list[Any]]:
    """The traced repeats: per-layer metrics, the layer table of the last
    repeat, and the checks only a traced run can make. Adds ``work_units``
    and ``traced_repeats`` to ``info``."""
    from repro.obs import PROFILER, MetricsRegistry, SpanTracer

    from . import checks as chk
    from .layers import (
        LAYER_METRICS,
        applies,
        layer_table,
        layer_values,
        profiler_mismatches,
    )
    from .trace import SpanRecorder
    from .workloads import requests_digest

    root = prepared.root
    walls = [o.wall_s for o in timed]
    rec = SpanRecorder()
    runs: list[dict[str, float]] = []
    traced: list[Sample] = []
    sums: list[tuple[float, float]] = []
    mismatches: list[str] = []
    regenerated_ok = True

    def traced_run() -> None:
        nonlocal regenerated_ok
        rec.reset()
        PROFILER.reset()
        generator = getattr(prepared, "generator", None)
        if generator is not None:
            regenerated_ok &= (
                requests_digest(generator.generate()) == prepared.inputs_digest
            )
        outcome = prepared.run()
        profile = PROFILER.snapshot()
        runs.append(layer_values(rec, root, outcome, profile))
        traced.append(Sample.of(outcome))
        sums.append((rec.root_self_sum(root), rec.total_s(root)))
        mismatches.extend(profiler_mismatches(rec, profile))
        config = getattr(prepared, "config", None)
        if config is not None:
            info["work_units"] = work_units(profile, outcome.report, config.grid_points)

    rec.install()
    PROFILER.enable()
    try:
        repeat(
            traced_run,
            1 if args.repeats is not None else None,
            args.seconds - sum(walls),
        )
        rec.write(OUT_DIR / f"trace-{args.workload}.jsonl")
        root_s = rec.total_s(root)
        table = [
            [name, calls, self_s, self_s / root_s]
            for name, calls, self_s in layer_table(rec, root)
        ]
    finally:
        PROFILER.disable()
        PROFILER.reset()
        rec.uninstall()
    info["traced_repeats"] = len(runs)

    wall_s = statistics.median(walls)
    values = {name: statistics.median(run[name] for run in runs) for name in runs[0]}
    values["trace.overhead_share"] = (
        statistics.median(o.wall_s for o in traced) / wall_s - 1.0
    )
    if "obs" in spec.scopes:
        tracer = SpanTracer()
        observed = run_once(tracer=tracer, metrics=MetricsRegistry())
        values["obs.enabled_overhead_share"] = 1.0 - wall_s / observed.wall_s
        values["obs.spans_emitted"] = len(tracer.spans)
        traced.append(observed)
    per_layer = {
        name: {
            "value": values[name] if applies(name, spec.scopes) else None,
            "unit": unit,
        }
        for name, (unit, _) in LAYER_METRICS.items()
    }
    counts = [k for k in runs[0] if LAYER_METRICS[k][0] == "count"]
    checks = [
        chk.identical_reports("traced_report_equals_untraced", [timed[0], *traced]),
        ("regenerated_requests_identical", regenerated_ok, ""),
        (
            "self_times_sum_to_root_within_1pct",
            all(abs(s - t) <= 0.01 * t for s, t in sums),
            ", ".join(f"{s:.4f}/{t:.4f}" for s, t in sums),
        ),
        ("span_counts_match_profiler", not mismatches, "; ".join(mismatches)),
        (
            "counts_repeat_exactly",
            all(run[k] == runs[0][k] for run in runs for k in counts),
            f"{len(runs)} traced runs",
        ),
    ]
    return per_layer, table, checks


if __name__ == "__main__":
    sys.exit(main())
