"""Smoke test of the perf benchmark (``pytest benchmarks/perf``; not part
of the tier-1 ``testpaths``): the ``--smoke`` run prints every metric
``BENCHMARK.json`` names, with its unit, and every check passes."""

import json
import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
LINE = re.compile(r"^(metric|layer) (\S+) = (\S+)(?: (\S+))?")


def test_smoke_prints_every_metric_and_passes_every_check():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        stdout=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    lines = proc.stdout.splitlines()
    failed = [ln for ln in lines if ln.startswith("check ") and ": ok" not in ln]
    assert proc.returncode == 0 and not failed, failed

    # name -> unit, per workload section
    sections: dict[str, dict[str, str]] = {}
    for line in lines:
        if line.startswith("== ") and "seed=" in line:
            current = sections.setdefault(line.split()[1], {})
        elif match := LINE.match(line):
            _, name, value, unit = match.groups()
            current[name] = "absent" if value == "absent" else unit
    assert list(sections) == [w["name"] for w in SPEC["workloads"]]

    for workload, printed in sections.items():
        for metric in SPEC["end_to_end"]:
            assert printed.get(metric["name"]) == metric["unit"], (workload, metric)
        for metric in SPEC["per_layer"]:
            assert printed.get(metric["name"]) in (metric["unit"], "absent"), (
                workload,
                metric,
            )
    # no layer metric is absent everywhere
    for metric in SPEC["per_layer"]:
        assert any(p[metric["name"]] != "absent" for p in sections.values()), metric

    summary = json.loads(lines[-1])
    assert summary["correct"] is True and summary["failed"] == 0
    assert summary["attempted"] >= len(sections)
