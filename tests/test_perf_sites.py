"""The perf harness's patch sites still resolve against ``src/``.

``benchmarks/perf/trace.py::SITES`` names the classes, methods and module
globals the wall-clock benchmark wraps, and looks each one up with
``vars(owner)[attr]`` — so a method renamed, moved to a base class or
dropped in a refactor fails only when somebody runs the benchmark
(``KeyError`` in ``SpanRecorder.install``). The benchmark is not part of
tier-1; this tripwire is.
"""

import importlib

from benchmarks.perf.trace import SITES, SpanRecorder


def _site_objects():
    found = []
    for _, module_name, path, _, _ in SITES:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        found.append(vars(owner)[attr])
    return found


def test_every_site_installs_and_is_restored():
    before = _site_objects()
    recorder = SpanRecorder()
    try:
        recorder.install()
        patched = _site_objects()
    finally:
        recorder.uninstall()
    assert all(now is not was for now, was in zip(patched, before))
    assert all(now is was for now, was in zip(_site_objects(), before))
