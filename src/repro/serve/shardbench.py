"""The ``cedar-repro serve-bench --shards`` kill × load sweep.

Three questions, one pinned document (``benchmarks/BENCH_shard_serve.json``):

* **Is supervision free when nothing fails?** A single-shard, no-kill
  supervised run must produce a worker report *byte-identical* to a
  plain :class:`~repro.serve.CedarServer` over the same requests
  (``single_shard_bit_identical``).
* **Does crash recovery lose queries?** Every cell — flush kills, hard
  kills, every load point — must end with ``terminal.lost == 0``: each
  admitted query reaches exactly one terminal outcome, however many
  times its shard dies (``zero_lost``).
* **Do the bulkheads hold?** Tenants are pinned one-per-shard, so
  killing one tenant's shard must leave the other tenants' latency
  untouched: the claim bounds the worst non-killed-tenant p99
  degradation at < 10% versus the no-kill arm of the same load point
  (``max_nonkilled_p99_degradation``; with independent per-shard event
  loops the measured value is exactly 0).

The sweep runs the supervisor in inline mode — the identical worker
code path, minus process spawn — so the pinned document is fast to
regenerate and deterministic even for hard kills (see
``repro.serve.shardworker``); the multi-process path is exercised by
``tests/serve/test_shard.py``.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Optional, Sequence

from ..errors import ConfigError
from .bench import (
    config_doc,
    pinned_config,
    pinned_requests,
    pinned_workload,
)
from .request import QueryRequest, ServeConfig
from .router import TenantBudget
from .server import CedarServer
from .shard import (
    ShardConfig,
    ShardKill,
    ShardKillSchedule,
    ShardServeReport,
    ShardSupervisor,
)

__all__ = [
    "DEFAULT_SHARD_QPS_POINTS",
    "KILL_ARMS",
    "pinned_shard_tenants",
    "run_shard_serve_bench",
]

#: offered-load ladder for the sharded sweep: light and near-saturated
#: (per shard — three tenants split the stream three ways).
DEFAULT_SHARD_QPS_POINTS = (0.02, 0.06)

#: kill arms: no kill, flush kill, hard (``os._exit``-style) kill.
KILL_ARMS = ("none", "flush", "hard")

#: the sweep's tenants, pinned one per shard so a kill is a bulkhead
#: experiment: exactly one tenant's queries live on the dying shard.
_TENANTS = ("t0", "t1", "t2")
#: the shard the kill arms target (tenant t1's bulkhead).
_KILLED_SHARD = 1


def pinned_shard_tenants() -> dict[str, int]:
    """Tenant -> shard pins for the benchmark topology."""
    return {tenant: shard for shard, tenant in enumerate(_TENANTS)}


def _kill_time(requests: Sequence[QueryRequest]) -> float:
    """Mid-run kill point: 40% through the arrival span (deterministic
    in the generated stream, scale-free across load points)."""
    last = max(r.arrival for r in requests)
    return max(1.0, 0.4 * last)


def _tenant_doc(report: ShardServeReport) -> dict[str, dict[str, object]]:
    out: dict[str, dict[str, object]] = {}
    for tenant, entry in report.tenants.items():
        out[tenant] = {
            "arrivals": entry["arrivals"],
            "completed": entry["completed"],
            "shed": entry["shed"],
            "deadline_hit_rate": entry["deadline_hit_rate"],
            "mean_quality": entry["mean_quality"],
            "latency_p99": entry["latency_p99"],
        }
    return out


def _cell_doc(
    qps: float, arm: str, kill_at: Optional[float], report: ShardServeReport
) -> dict[str, object]:
    killed = report.shards.get(str(_KILLED_SHARD), {})
    return {
        "qps": qps,
        "arm": arm,
        "kill": (
            None
            if kill_at is None
            else {"shard": _KILLED_SHARD, "at": kill_at, "hard": arm == "hard"}
        ),
        "admitted": report.admitted,
        "completed": report.completed,
        "shed": report.shed,
        "shed_fraction": report.shed_fraction,
        "router_shed": report.router_shed,
        "deadline_hit_rate": report.deadline_hit_rate,
        "mean_quality": report.mean_quality,
        "latency_p50": report.latency_p50,
        "latency_p99": report.latency_p99,
        "terminal": report.terminal,
        "recovery_events": len(report.recovery),
        "killed_shard": {
            "kills": killed.get("kills", 0),
            "restarts": killed.get("restarts", 0),
            "redispatched": killed.get("redispatched", 0),
            "checkpoints": killed.get("checkpoints", 0),
            "incarnations": killed.get("incarnations", 0),
        },
        "tenants": _tenant_doc(report),
    }


def run_shard_serve_bench(
    qps_points: Optional[Sequence[float]] = None,
    n_requests: int = 36,
    deadline: float = 60.0,
    seed: int = 2608,
    config: Optional[ServeConfig] = None,
    n_shards: int = 3,
    checkpoint_every: float = 50.0,
    heartbeat_every: float = 25.0,
    restart_delay: float = 5.0,
    bulkhead_requests: int = 36,
    bulkhead_qps: float = 0.06,
) -> dict[str, object]:
    """Run the kill x load sweep and return the JSON-ready document."""
    points = tuple(float(q) for q in (qps_points or DEFAULT_SHARD_QPS_POINTS))
    if not points:
        raise ConfigError("need at least one QPS point")
    if n_shards < len(_TENANTS):
        raise ConfigError(
            f"the sweep pins {len(_TENANTS)} tenants one-per-shard; "
            f"n_shards={n_shards} is too small"
        )
    cfg = config if config is not None else pinned_config()
    offline = pinned_workload().offline_tree()
    assignments = pinned_shard_tenants()

    def generate(qps: float, n: int) -> list[QueryRequest]:
        return pinned_requests(qps, n, deadline, seed, tenants=_TENANTS)

    # every supervised run below is this topology with one field changed
    topology = ShardConfig(
        n_shards=n_shards,
        serve=cfg,
        checkpoint_every=checkpoint_every,
        heartbeat_every=heartbeat_every,
        restart_delay=restart_delay,
        inline=True,
        assignments=assignments,
    )

    cells: list[dict[str, object]] = []
    max_degradation = 0.0
    zero_lost = True
    kills_fired = True
    for qps in points:
        requests = generate(qps, n_requests)
        kill_at = _kill_time(requests)
        baseline_p99: dict[str, float] = {}
        for arm in KILL_ARMS:
            if arm == "none":
                kills = ShardKillSchedule()
            else:
                kills = ShardKillSchedule.of(
                    ShardKill(_KILLED_SHARD, kill_at, hard=arm == "hard")
                )
            report = ShardSupervisor(
                offline, dataclasses.replace(topology, kills=kills)
            ).run(requests)
            lost = report.terminal["lost"]
            zero_lost = zero_lost and lost == 0
            if arm == "none":
                for tenant, entry in report.tenants.items():
                    p99 = entry["latency_p99"]
                    baseline_p99[tenant] = (
                        float(p99) if isinstance(p99, (int, float)) else 0.0
                    )
            else:
                killed = report.shards[str(_KILLED_SHARD)]
                kills_fired = kills_fired and int(str(killed["kills"])) > 0
                killed_tenant = _TENANTS[_KILLED_SHARD]
                for tenant, entry in report.tenants.items():
                    if tenant == killed_tenant:
                        continue
                    base = baseline_p99.get(tenant, 0.0)
                    p99 = entry["latency_p99"]
                    now = float(p99) if isinstance(p99, (int, float)) else 0.0
                    if base > 0.0:
                        max_degradation = max(
                            max_degradation, (now - base) / base
                        )
            cells.append(
                _cell_doc(
                    qps, arm, None if arm == "none" else kill_at, report
                )
            )

    # ---- single-shard, no-kill byte-identity -------------------------
    solo_requests = generate(points[0], max(8, n_requests // 3))
    solo = ShardSupervisor(
        offline, dataclasses.replace(topology, n_shards=1, assignments=None)
    ).run(solo_requests)
    plain = CedarServer(offline_tree=offline, config=cfg).run(solo_requests)
    supervised_doc = solo.shard_reports["0"]
    bit_identical = json.dumps(supervised_doc, sort_keys=True) == json.dumps(
        plain.to_dict(include_outcomes=True), sort_keys=True
    )

    # ---- bulkhead budgets: a noisy tenant cannot starve the others ---
    noisy_requests = generate(bulkhead_qps, bulkhead_requests)
    noisy_tenant = _TENANTS[_KILLED_SHARD]
    capped = dataclasses.replace(
        topology, budgets={noisy_tenant: TenantBudget(qps=0.005, burst=2.0)}
    )
    capped_report = ShardSupervisor(offline, capped).run(noisy_requests)
    uncapped_report = ShardSupervisor(offline, topology).run(noisy_requests)
    bulkhead_doc: dict[str, object] = {
        "qps": bulkhead_qps,
        "n_requests": bulkhead_requests,
        "capped_tenant": noisy_tenant,
        "budget": {"qps": 0.005, "burst": 2.0},
        "router_shed": capped_report.router_shed,
        "capped_tenants": _tenant_doc(capped_report),
        "uncapped_tenants": _tenant_doc(uncapped_report),
        "others_unaffected": all(
            capped_report.tenants[t]["latency_p99"]
            == uncapped_report.tenants[t]["latency_p99"]
            for t in _TENANTS
            if t != noisy_tenant
        ),
    }

    return {
        "bench": "shard-serve",
        "seed": seed,
        "deadline": deadline,
        "n_requests": n_requests,
        "qps_points": list(points),
        "kill_arms": list(KILL_ARMS),
        "topology": {
            "n_shards": n_shards,
            "assignments": assignments,
            "killed_shard": _KILLED_SHARD,
            "checkpoint_every": checkpoint_every,
            "heartbeat_every": heartbeat_every,
            "restart_delay": restart_delay,
        },
        "config": config_doc(cfg),
        "cells": cells,
        "claims": {
            "zero_lost": zero_lost,
            "kills_fired": kills_fired,
            "max_nonkilled_p99_degradation": max_degradation,
            "single_shard_bit_identical": bit_identical,
        },
        "bulkhead": bulkhead_doc,
    }
