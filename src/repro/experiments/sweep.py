"""User-defined sweeps from a JSON spec.

The per-figure modules are fixed reproductions; real users want their
own sweeps ("my workload, these deadlines, those policies"). A sweep
spec is a small JSON document::

    {
      "name": "my-sweep",
      "workload": {"name": "facebook", "kwargs": {"k1": 25, "k2": 25}},
      "policies": ["proportional-split", "cedar", "ideal"],
      "deadlines": [500, 1000, 2000],
      "n_queries": 50,
      "agg_sample": 10,
      "seed": 7,
      "grid_points": 256
    }

``workload.name`` resolves through :data:`repro.traces.WORKLOADS`;
policies through :data:`POLICY_FACTORIES` below. The result is a normal
:class:`~repro.experiments.common.ExperimentReport`, so sweeps print,
plot, and CSV-export exactly like the paper figures.
"""

from __future__ import annotations

import json
import pathlib
from typing import Mapping

from ..core import (
    CedarDeepPolicy,
    CedarEmpiricalPolicy,
    CedarFailureAwarePolicy,
    CedarOfflinePolicy,
    CedarPolicy,
    EqualSplitPolicy,
    IdealPolicy,
    MeanSubtractPolicy,
    ProportionalSplitPolicy,
    WaitCacheConfig,
)
from ..errors import ConfigError, SimulationError
from ..simulation import run_experiment
from ..traces import make_workload
from .common import ExperimentReport

__all__ = ["POLICY_FACTORIES", "load_spec", "run_sweep", "run_sweep_file"]

POLICY_FACTORIES = {
    "proportional-split": lambda gp: ProportionalSplitPolicy(),
    "equal-split": lambda gp: EqualSplitPolicy(),
    "mean-subtract": lambda gp: MeanSubtractPolicy(),
    "cedar": lambda gp: CedarPolicy(grid_points=gp),
    "cedar-deep": lambda gp: CedarDeepPolicy(grid_points=gp),
    "cedar-empirical": lambda gp: CedarEmpiricalPolicy(grid_points=gp),
    "cedar-offline": lambda gp: CedarOfflinePolicy(grid_points=gp),
    "cedar-tabulated": lambda gp: _tabulated_policy(gp),
    # default rates; a sweep's "faults" block overrides them (run_sweep
    # rebuilds the policy from the spec's fault model).
    "cedar-failure-aware": lambda gp: CedarFailureAwarePolicy(
        ship_loss_prob=0.05,
        agg_crash_prob=0.05,
        worker_crash_prob=0.05,
        grid_points=gp,
    ),
    "ideal": lambda gp: IdealPolicy(grid_points=gp),
    "cedar-learned": lambda gp: _learned_policy(gp),
}


def _tabulated_policy(grid_points: int) -> CedarPolicy:
    """§4.3.3 "simply precompute these wait-durations": Cedar with waits
    served from the quantised cross-query cache instead of a sweep per
    arrival, under its own name so it can race plain ``cedar``."""
    policy = CedarPolicy(grid_points=grid_points, wait_cache=WaitCacheConfig())
    policy.name = "cedar-tabulated"
    return policy


def _learned_policy(grid_points: int):
    """Serve wait decisions from the shipped pinned table (lazy import:
    repro.learn pulls in the serving layer, which sweeps don't need
    unless this policy is actually requested)."""
    from ..learn.policy import LearnedWaitPolicy
    from ..learn.table import load_table
    from ..serve.warmstart import WarmStartStore

    return LearnedWaitPolicy(
        load_table(), store=WarmStartStore(), grid_points=grid_points
    )

_REQUIRED = ("workload", "policies", "deadlines")


def load_spec(doc: Mapping) -> dict:
    """Validate a sweep spec document; return normalized fields."""
    for field in _REQUIRED:
        if field not in doc:
            raise ConfigError(f"sweep spec missing required field {field!r}")
    workload = doc["workload"]
    if not isinstance(workload, Mapping) or "name" not in workload:
        raise ConfigError("sweep spec 'workload' needs at least a 'name'")
    policies = list(doc["policies"])
    if not policies:
        raise ConfigError("sweep spec needs at least one policy")
    unknown = [p for p in policies if p not in POLICY_FACTORIES]
    if unknown:
        raise ConfigError(
            f"unknown policies {unknown}; choose from {sorted(POLICY_FACTORIES)}"
        )
    deadlines = [float(d) for d in doc["deadlines"]]
    if not deadlines or any(d <= 0.0 for d in deadlines):
        raise ConfigError("sweep spec needs positive deadlines")
    n_queries = int(doc.get("n_queries", 50))
    if n_queries < 1:
        raise ConfigError("n_queries must be >= 1")
    faults_doc = doc.get("faults")
    if faults_doc is not None and not isinstance(faults_doc, Mapping):
        raise ConfigError("sweep spec 'faults' must be an object of rates")
    return {
        "name": str(doc.get("name", "sweep")),
        "workload_name": str(workload["name"]),
        "workload_kwargs": dict(workload.get("kwargs", {})),
        "policies": policies,
        "deadlines": deadlines,
        "n_queries": n_queries,
        "agg_sample": doc.get("agg_sample"),
        "seed": doc.get("seed"),
        "grid_points": int(doc.get("grid_points", 256)),
        "faults": dict(faults_doc) if faults_doc else None,
    }


def run_sweep(doc: Mapping, tracer=None, metrics=None) -> ExperimentReport:
    """Run a sweep from an in-memory spec document.

    ``tracer``/``metrics`` (a :class:`repro.obs.SpanTracer` /
    :class:`repro.obs.MetricsRegistry`) record every simulated query of
    the sweep — spans across all policies and deadlines land in the one
    tracer, and metric series are labeled by policy.
    """
    spec = load_spec(doc)
    workload = make_workload(spec["workload_name"], **spec["workload_kwargs"])
    gp = spec["grid_points"]
    faults = None
    if spec["faults"]:
        from ..faults import FaultModel

        try:
            faults = FaultModel(**spec["faults"])
        except (TypeError, SimulationError) as exc:
            raise ConfigError(f"bad sweep 'faults' block: {exc}") from exc
    policies = [POLICY_FACTORIES[name](gp) for name in spec["policies"]]
    if faults is not None:
        # the failure-aware policy should plan for the rates this sweep
        # actually injects, not its catalog defaults
        policies = [
            CedarFailureAwarePolicy.from_fault_model(faults, grid_points=gp)
            if isinstance(p, CedarFailureAwarePolicy)
            else p
            for p in policies
        ]
    if "ideal" in spec["policies"] and not hasattr(workload, "sample_query"):
        raise ConfigError("ideal policy needs a generative workload")

    headers = ["deadline"] + spec["policies"]
    if len(spec["policies"]) >= 2:
        headers.append(f"{spec['policies'][1]}_vs_{spec['policies'][0]}_%")
    rows = []
    for deadline in spec["deadlines"]:
        res = run_experiment(
            workload,
            policies,
            deadline,
            spec["n_queries"],
            seed=spec["seed"],
            agg_sample=spec["agg_sample"],
            faults=faults,
            tracer=tracer,
            metrics=metrics,
        )
        row = [deadline] + [
            round(res.mean_quality(name), 3) for name in spec["policies"]
        ]
        if len(spec["policies"]) >= 2:
            row.append(
                round(
                    res.improvement(spec["policies"][1], spec["policies"][0]), 1
                )
            )
        rows.append(tuple(row))
    return ExperimentReport(
        experiment=spec["name"],
        title=(
            f"Sweep {spec['name']!r} — workload {spec['workload_name']!r}, "
            f"{spec['n_queries']} queries per deadline"
        ),
        headers=tuple(headers),
        rows=tuple(rows),
    )


def run_sweep_file(
    path: str | pathlib.Path, tracer=None, metrics=None
) -> ExperimentReport:
    """Run a sweep from a JSON file."""
    try:
        doc = json.loads(pathlib.Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read sweep spec {path}: {exc}") from exc
    return run_sweep(doc, tracer=tracer, metrics=metrics)
