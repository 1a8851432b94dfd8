"""Chaos serving: Cedar vs hedged requests under injected fault storms.

Not a paper figure — the paper's threat model is performance *variation*
(§3); this panel extends it to outright faults on the serve path. Each
row is one cell of :func:`repro.serve.run_chaos_serve_bench`: the
failure-aware Cedar policy with graceful degradation races the
tail-tolerant hedged-request baseline (Dean & Barroso via the
Tail-Tolerant Search line of work) on the same request stream under the
same seeded fault schedule, with and without a mid-run regime shift.

Shape targets: at fault rate zero the arms tie exactly (the hedge bar
never trips, and zero-rate chaos is bit-identical to plain serving); at
moderate rates Cedar's replanning holds more quality than duplicate
work; the dedicated brownout scenario keeps its widened-deadline promise
(hit rate >= 0.99 over brownout completions); and the regime shift
produces warm-store drift resets while the stationary control does not.
"""

from __future__ import annotations

from ..benches import BENCHES
from ..rng import SeedLike
from ..serve import pinned_config, run_chaos_serve_bench
from .common import ExperimentReport, pick

__all__ = ["run"]


def run(scale: str = "quick", seed: SeedLike = None) -> ExperimentReport:
    """Fault x drift sweep: Cedar + degradation vs the hedging baseline."""
    if scale == "quick":
        spec = dict(BENCHES["chaos"].smoke)
    else:
        spec = {"config": pinned_config(grid_points=pick(scale, 48, 96))}
    doc = run_chaos_serve_bench(
        seed=int(seed) if seed is not None else 2608, **spec
    )
    cells = doc["cells"]
    assert isinstance(cells, list)
    rows = []
    for cell in cells:
        cedar = cell["cedar"]
        hedging = cell["hedging"]
        rows.append(
            (
                cell["fault_rate"],
                "yes" if cell["drift"] else "no",
                round(float(cedar["mean_quality"]), 4),
                round(float(hedging["mean_quality"]), 4),
                round(float(cell["quality_edge"]), 4),
                int(cedar["retries"]),
                int(hedging["hedge_reissued"]),
                int(hedging["hedge_wins"]),
            )
        )
    brownout = doc["brownout"]
    warm_drift = doc["warm_drift"]
    assert isinstance(brownout, dict)
    assert isinstance(warm_drift, dict)
    return ExperimentReport(
        experiment="chaos-serving",
        title="Chaos serving — Cedar + degradation vs hedged requests",
        headers=(
            "fault_rate",
            "drift",
            "cedar_quality",
            "hedge_quality",
            "quality_edge",
            "cedar_retries",
            "hedge_reissued",
            "hedge_wins",
        ),
        rows=tuple(rows),
        notes=(
            "identical request streams and seeded fault schedules per cell; "
            "quality_edge = cedar - hedging mean quality; brownout and "
            "drift-reset checks summarised below"
        ),
        summary={
            "zero_rate_bit_identical": bool(doc["zero_rate_bit_identical"]),
            "brownout_hit_rate": float(brownout["brownout_hit_rate"]),
            "breaker_opens": int(brownout["breaker_opens"]),
            "warm_resets_with_drift": int(warm_drift["resets_with_drift"]),
            "warm_resets_without_drift": int(
                warm_drift["resets_without_drift"]
            ),
        },
    )
