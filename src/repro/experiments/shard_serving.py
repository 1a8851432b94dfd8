"""Sharded serving: crash recovery and bulkhead isolation, end to end.

Not a paper figure — the paper serves one query per process; this panel
stresses the serving *process* itself. Each row is one cell of
:func:`repro.serve.run_shard_serve_bench`: a multi-shard supervised run
at one load point under one kill arm (none, flush kill, hard kill on
tenant t1's shard), with tenants pinned one-per-shard.

Shape targets: the exactly-one-terminal-outcome contract holds in every
cell (``lost == 0``, the ``shard_lost`` valve never opens); the kill
arms actually kill and restart the shard; the non-killed tenants' p99
latency is untouched by another tenant's shard dying (bulkhead); and a
single-shard no-kill supervised run is byte-identical to a plain
``CedarServer``.
"""

from __future__ import annotations

from ..benches import BENCHES
from ..rng import SeedLike
from ..serve import pinned_config, run_shard_serve_bench
from .common import ExperimentReport, pick

__all__ = ["run"]


def run(scale: str = "quick", seed: SeedLike = None) -> ExperimentReport:
    """Kill x load sweep: supervised shards under injected crashes."""
    if scale == "quick":
        spec = dict(BENCHES["shards"].smoke)
    else:
        spec = {"config": pinned_config(grid_points=pick(scale, 48, 96))}
    doc = run_shard_serve_bench(
        seed=int(seed) if seed is not None else 2608, **spec
    )
    cells = doc["cells"]
    assert isinstance(cells, list)
    rows = []
    for cell in cells:
        terminal = cell["terminal"]
        killed = cell["killed_shard"]
        rows.append(
            (
                cell["qps"],
                cell["arm"],
                int(terminal["expected"]),
                int(terminal["lost"]),
                int(terminal["shard_lost"]),
                int(killed["restarts"]),
                int(killed["redispatched"]),
                round(float(cell["deadline_hit_rate"]), 4),
                round(float(cell["mean_quality"]), 4),
                round(float(cell["latency_p99"]), 2),
            )
        )
    claims = doc["claims"]
    bulkhead = doc["bulkhead"]
    assert isinstance(claims, dict)
    assert isinstance(bulkhead, dict)
    return ExperimentReport(
        experiment="shard-serving",
        title="Sharded serving — crash recovery and bulkhead isolation",
        headers=(
            "qps",
            "kill_arm",
            "expected",
            "lost",
            "shard_lost",
            "restarts",
            "redispatched",
            "hit_rate",
            "mean_quality",
            "latency_p99",
        ),
        rows=tuple(rows),
        notes=(
            "tenants pinned one per shard; kill arms target tenant t1's "
            "shard mid-run; lost must be 0 in every cell (every admitted "
            "query reaches exactly one terminal outcome)"
        ),
        summary={
            "zero_lost": bool(claims["zero_lost"]),
            "kills_fired": bool(claims["kills_fired"]),
            "max_nonkilled_p99_degradation": float(
                claims["max_nonkilled_p99_degradation"]
            ),
            "single_shard_bit_identical": bool(
                claims["single_shard_bit_identical"]
            ),
            "bulkhead_others_unaffected": bool(
                bulkhead["others_unaffected"]
            ),
        },
    )
