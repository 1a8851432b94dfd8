#!/usr/bin/env python3
"""Wall-clock serve/replay benchmark: one command, every metric by name.

    python3 benchmarks/perf/run.py [--workload NAME] [--seed 2608]
        [--seconds 10 | --repeats 3] [--trace] [--smoke]

Each workload runs in its own fresh single-threaded subprocess
(``benchmarks.perf.worker``), one after another - never in parallel, the
sandbox has two cores. Prints every metric with its unit, verifies the
outputs, exits non-zero on any failed check, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.

This file uses only the standard library: names, units and bounds come
from ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time
from typing import Any, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: set-ups per run (the measuring subprocess plus set-up-only ones);
#: ``setup_s`` is their median.
SETUP_SAMPLES = 3
SMOKE_SCALE = 20
WORKER_TIMEOUT_S = 170
NARROW = ("narrow_exact", "narrow_cache", "narrow_learned")


def spawn_worker(extra: list[str]) -> dict[str, Any]:
    """Run one worker subprocess to completion; return its JSON document."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    for var in ("OMP_NUM_THREADS", "MKL_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        env[var] = "1"
    # a per-process random hash seed moves throughput by a few percent
    # between otherwise identical subprocesses
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf.worker",
         "--spawned-at", repr(time.time()), *extra],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {extra} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, args: argparse.Namespace) -> dict[str, Any]:
    common = ["--workload", name, "--seed", str(args.seed),
              "--scale", str(SMOKE_SCALE if args.smoke else 1)]
    measure = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.repeats is not None:
        measure += ["--repeats", str(args.repeats)]
    doc = spawn_worker(measure)
    if not layers_only(args) and not args.smoke:
        setup = doc["end_to_end"]["setup_s"]
        for _ in range(SETUP_SAMPLES - 1):
            setup["repeats"].append(spawn_worker([*common, "--setup-only"])["setup_s"])
        setup["value"] = statistics.median(setup["repeats"])
    return doc


def layers_only(args: argparse.Namespace) -> bool:
    """The driver's traced form (``--trace 1`` with ``--seconds``): the run's
    time goes to traced repeats and the last line carries the per-layer
    metrics, so set-up is sampled once and end-to-end metrics are not gated."""
    return bool(args.trace) and args.repeats is None


def fmt(value: Optional[float]) -> str:
    return "absent" if value is None else f"{value:.6g}"


def print_workload(doc: dict[str, Any], spec: dict[str, Any]) -> None:
    info = doc["info"]
    print(f"== {doc['workload']}  seed={doc['seed']} n={info['n']} "
          f"repeats={info['repeats']} ==")
    directions = {m["name"]: m for m in spec["end_to_end"]}
    for name, m in doc["end_to_end"].items():
        bound = directions.get(name, {})
        print(f"metric {name} = {fmt(m['value'])} {m['unit']}  [{m['kind']}; "
              f"{bound.get('better', '?')} is better; bound {bound.get('bound', '?')}]"
              f"  repeats=[{', '.join(fmt(v) for v in m['repeats'])}]")
    for key in ("ops_attempted", "ops_failed", "failed_share", "inputs_digest",
                "report_sha256", "calib_kernel_s", "queries_per_calib", "work_units"):
        if key in info:
            print(f"info {key} = {info[key]}")
    for name, m in doc["per_layer"].items():
        print(f"layer {name} = {fmt(m['value'])}"
              + ("" if m["value"] is None else f" {m['unit']}"))
    if doc["layer_table"]:
        print(f"layer-table (host self time in the traced run; "
              f"{info['traced_repeats']} traced repeats, last one shown)")
        for name, calls, self_s, share in doc["layer_table"]:
            print(f"  {name:<36} calls={calls:<9} self_s={self_s:<10.4f} share={share:.3f}")
        print(f"  {'sum':<36} {'':<15} self_s="
              f"{sum(r[2] for r in doc['layer_table']):<10.4f} "
              f"share={sum(r[3] for r in doc['layer_table']):.3f}")
    for name, ok, detail in doc["checks"]:
        print(f"check {name}: {'ok' if ok else 'FAIL'}" + (f"  ({detail})" if detail else ""))


def cross_checks(docs: dict[str, dict[str, Any]]) -> list[tuple[str, bool, str]]:
    """Checks that need more than one workload's results."""
    narrow = [docs[n]["info"]["inputs_digest"] for n in NARROW if n in docs]
    if len(narrow) < 2:
        return []
    return [("narrow_workloads_offered_identical_requests",
             len(set(narrow)) == 1, f"{len(narrow)} workloads compared")]


def print_ratio_table(docs: dict[str, dict[str, Any]]) -> None:
    """Wall-clock vs work-unit planner ratios, narrow_exact as the base."""
    if not all(n in docs and "work_units" in docs[n]["info"] for n in NARROW):
        return
    base = docs["narrow_exact"]
    print("== wall-clock vs work-unit ratios (base: narrow_exact) ==")
    for name in NARROW:
        doc = docs[name]
        wall = (doc["end_to_end"]["queries_per_s"]["value"]
                / base["end_to_end"]["queries_per_s"]["value"])
        work = base["info"]["work_units"] / doc["info"]["work_units"]
        print(f"ratio {name}: wall-clock throughput x{wall:.2f}, "
              f"work-unit model x{work:.1f}  "
              f"(work_units={doc['info']['work_units']})")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=2608)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure for this long (as many repeats as fit)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="measure exactly this many repeats instead")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="also run the traced repeats (per-layer metrics)")
    parser.add_argument("--smoke", action="store_true",
                        help="every n / 20, one repeat, trace on")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} is not a checkout of the repository "
              "(src/repro or BENCHMARK.json missing)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.smoke:
        args.repeats, args.trace = 1, 1
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
        if args.repeats is None and args.workload is None:
            args.repeats = 3
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; choose from {names}")
        names = [args.workload]

    docs = {name: run_workload(name, args) for name in names}
    for doc in docs.values():
        print_workload(doc, spec)
    extra = cross_checks(docs)
    for name, ok, detail in extra:
        print(f"check {name}: {'ok' if ok else 'FAIL'}  ({detail})")
    print_ratio_table(docs)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"results-seed{args.seed}.json").write_text(json.dumps(docs, indent=1))

    correct = all(ok for doc in docs.values() for _, ok, _ in doc["checks"]) and all(
        ok for _, ok, _ in extra
    )
    # the last line: end-to-end metrics without --trace, per-layer with it
    # (a layer the workload does not have reads 0 here, "absent" above)
    section = "per_layer" if layers_only(args) else "end_to_end"
    metrics = {
        name: {
            metric: {"value": m["value"] if m["value"] is not None else 0, "unit": m["unit"]}
            for metric, m in doc[section].items()
        }
        for name, doc in docs.items()
    }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(doc["attempted"] for doc in docs.values()),
        "failed": sum(doc["failed"] for doc in docs.values()),
        "metrics": metrics[args.workload] if args.workload else metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
