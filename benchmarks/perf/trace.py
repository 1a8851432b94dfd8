"""Span recorder: wraps the public callables at each layer boundary.

Installed for the traced run only, from outside ``src/``: every site in
:data:`SITES` is replaced by a wrapper that pushes a frame on one stack,
times the call with ``perf_counter`` and pops. A span's *self time* is its
duration minus the time its child spans cover, so the self times of
everything under a root add up to the root's duration by construction
(the wrappers' own cost lands in the parent's self time and is reported
separately as ``trace.overhead_share``).

Request-level sites (``whole=True``) keep every span: name, start, end,
span id, parent span id and the query index that spans of one request
share. Per-arrival sites are called ~10^5-10^6 times per run, so they are
aggregated per ``(root, name, parent name)`` - calls, total and self
seconds - and the decision sites additionally keep a per-call duration
array for percentiles. Everything stays in memory until :meth:`write`.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import pathlib
import time
from typing import Any, Callable, Iterable, Optional

#: (span name, module, attribute path, whole, keep per-call durations).
#: ``Class.method`` paths patch the class attribute; bare names patch the
#: module global, once per module that imported the function by name.
SITES: tuple[tuple[str, str, str, bool, bool], ...] = (
    ("serve.loadgen.generate", "repro.serve.loadgen", "LoadGenerator.generate", True, False),
    ("serve.server.run", "repro.serve.server", "CedarServer.run", True, False),
    ("serve.server.report_json", "repro.serve.server", "ServeReport.to_json", True, False),
    ("serve.server.report_json", "repro.serve.shard", "ShardServeReport.to_json", True, False),
    ("serve.admission.offer", "repro.serve.admission", "AdmissionController.offer", True, False),
    ("serve.admission.pop_ready", "repro.serve.admission", "AdmissionController.pop_ready", False, False),
    ("serve.admission.finish", "repro.serve.admission", "AdmissionController.finish", False, False),
    ("serve.slo.record", "repro.serve.slo", "SLOAccountant.record_arrival", False, False),
    ("serve.slo.record", "repro.serve.slo", "SLOAccountant.record_shed", False, False),
    ("serve.slo.record", "repro.serve.slo", "SLOAccountant.record_completion", False, False),
    ("serve.slo.record", "repro.serve.slo", "SLOAccountant.record_queue_depth", False, False),
    ("serve.slo.record", "repro.serve.slo", "SLOAccountant.record_wait_cache", False, False),
    ("serve.slo.record", "repro.serve.slo", "SLOAccountant.record_learned", False, False),
    ("serve.slo.record", "repro.serve.slo", "SLOAccountant.record_shard_checkpoint", False, False),
    ("serve.slo.record", "repro.serve.slo", "SLOAccountant.record_shard_heartbeat", False, False),
    ("serve.warmstart.prior", "repro.serve.warmstart", "WarmStartStore.prior", False, False),
    ("serve.warmstart.observe_query", "repro.serve.warmstart", "WarmStartStore.observe_query", False, False),
    ("serve.warmstart.harvest", "repro.serve.warmstart", "CedarWarmPolicy.harvest", True, False),
    ("serve.warmstart.harvest", "repro.learn.policy", "LearnedWaitPolicy.harvest", True, False),
    ("serve.router.route", "repro.serve.router", "TenantRouter.route", True, False),
    ("serve.shard.run", "repro.serve.shard", "ShardSupervisor.run", True, False),
    # SimBackend.run imports simulate_query at call time; the runner binds
    # it at import time, so both module globals are patched.
    ("simulation.query", "repro.simulation.query", "simulate_query", True, False),
    ("simulation.query", "repro.simulation.runner", "simulate_query", True, False),
    # run_experiment is a function, bound by name in the workload module
    ("simulation.runner.run_experiment", f"{__package__}.workloads", "run_experiment", True, False),
    ("distributions.sample", "repro.distributions", "LogNormal.sample", False, False),
    ("distributions.sample", "repro.distributions", "Scaled.sample", False, False),
    ("core.policies.controller", "repro.core.policies", "CedarPolicy.controller", False, False),
    ("core.policies.controller", "repro.core.policies", "ProportionalSplitPolicy.controller", False, False),
    ("core.policies.controller", "repro.core.policies", "IdealPolicy.controller", False, False),
    ("core.policies.controller", "repro.serve.warmstart", "CedarWarmPolicy.controller", False, False),
    ("core.policies.controller", "repro.learn.policy", "LearnedWaitPolicy.controller", False, False),
    ("core.aggregator.on_arrival", "repro.core.aggregator", "AdaptiveController.on_arrival", False, False),
    ("core.aggregator.static_on_arrival", "repro.core.aggregator", "StaticController.on_arrival", False, False),
    ("learn.policy.on_arrival", "repro.learn.policy", "LearnedController.on_arrival", False, True),
    ("core.wait.optimize", "repro.core.wait", "WaitOptimizer.optimize", False, True),
    ("core.waitbatch.optimize", "repro.core.waitbatch", "CachedWaitOptimizer.optimize", False, True),
    ("core.waitbatch.wait_for", "repro.core.waitbatch", "WaitTableCache.wait_for", False, False),
    ("core.waitbatch.prewarm", "repro.core.waitbatch", "WaitTableCache.prewarm", False, False),
    ("core.wait.sweep", "repro.core.wait", "sweep_wait", False, False),
    ("core.quality.tail_grid", "repro.core.wait", "tail_quality_grid", False, False),
    ("core.quality.tail_grid", "repro.core.waitbatch", "tail_quality_grid", False, False),
    ("estimation.online.estimate", "repro.estimation.online", "StreamingEstimator.estimate_distribution", False, False),
    ("estimation.tracker.observe_many", "repro.estimation.tracker", "DistributionTracker.observe_many", False, False),
)


def _query_index(name: str, args: tuple, kwargs: dict) -> Optional[int]:
    """The request identifier a whole span can read off its arguments."""
    if name == "serve.admission.offer":
        return args[1].index
    if name == "simulation.query":
        attrs = kwargs.get("span_attrs")
        return attrs.get("query_index") if attrs else None
    return None


@dataclasses.dataclass
class Agg:
    """Aggregate of every call of one site under one parent and root."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: Optional[list[float]] = None


class SpanRecorder:
    """One in-memory trace; install() patches, uninstall() restores."""

    def __init__(self) -> None:
        #: frames: [name, child seconds, id of the nearest whole span]
        self._stack: list[list[Any]] = []
        self._patched: list[tuple[Any, str, Any]] = []
        self._next_id = 0
        self._query: Optional[int] = None
        #: (name, start, end, span id, parent id, query index)
        self.spans: list[tuple[str, float, float, int, Optional[int], Optional[int]]] = []
        self.aggs: dict[tuple[str, str, Optional[str]], Agg] = {}

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        for name, module_name, path, whole, keep in SITES:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            # vars(), not getattr: the class's own function, never an
            # inherited one that another site already wraps.
            original = vars(owner)[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, whole, keep))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.aggs.clear()
        self._next_id = 0
        self._query = None

    def _wrap(
        self, fn: Callable[..., Any], name: str, whole: bool, keep: bool
    ) -> Callable[..., Any]:
        stack = self._stack
        aggs = self.aggs
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            # frame[2]: id of the nearest whole span, this one included
            parent_id = stack[-1][2] if stack else None
            span_id = parent_id
            if whole:
                span_id = self._next_id
                self._next_id += 1
                found = _query_index(name, args, kwargs)
                if found is not None:
                    self._query = found
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent_name = None
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    parent_name = parent[0]
                root = stack[0][0] if stack else name
                key = (root, name, parent_name)
                agg = aggs.get(key)
                if agg is None:
                    agg = aggs[key] = Agg(durations=[] if keep else None)
                agg.calls += 1
                agg.total_s += duration
                agg.self_s += duration - frame[1]
                if keep:
                    agg.durations.append(duration)
                if whole:
                    self.spans.append(
                        (name, start, end, span_id, parent_id, self._query)
                    )

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # -- queries ---------------------------------------------------------
    def select(self, name: str, root: Optional[str] = None) -> Iterable[tuple[Optional[str], Agg]]:
        for (agg_root, agg_name, parent), agg in self.aggs.items():
            if agg_name == name and (root is None or agg_root == root):
                yield parent, agg

    def calls(self, name: str, root: Optional[str] = None) -> int:
        """Outermost calls of ``name`` (a site nested in itself - a
        subclass's method calling ``super()`` - counts once)."""
        return sum(a.calls for p, a in self.select(name, root) if p != name)

    def self_s(self, name: str, root: Optional[str] = None) -> float:
        return sum(a.self_s for _, a in self.select(name, root))

    def total_s(self, name: str, root: Optional[str] = None) -> float:
        """Inclusive seconds of the outermost calls of ``name``."""
        return sum(a.total_s for p, a in self.select(name, root) if p != name)

    def durations(self, *names: str) -> list[float]:
        out: list[float] = []
        for (_, agg_name, _), agg in self.aggs.items():
            if agg_name in names and agg.durations:
                out.extend(agg.durations)
        return out

    def root_self_sum(self, root: str) -> float:
        """Sum of self times of every span under (and including) ``root``."""
        return sum(a.self_s for (r, _, _), a in self.aggs.items() if r == root)

    # -- output ----------------------------------------------------------
    def write(self, path: pathlib.Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, span_id, parent_id, query in self.spans:
                fh.write(
                    json.dumps(
                        {"kind": "span", "name": name, "start": start, "end": end,
                         "id": span_id, "parent": parent_id, "query": query}
                    )
                    + "\n"
                )
            for (root, name, parent), agg in sorted(
                self.aggs.items(), key=lambda kv: tuple(str(p) for p in kv[0])
            ):
                fh.write(
                    json.dumps(
                        {"kind": "agg", "root": root, "name": name,
                         "parent": parent, "calls": agg.calls,
                         "total_s": agg.total_s, "self_s": agg.self_s}
                    )
                    + "\n"
                )
