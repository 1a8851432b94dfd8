"""The ``cedar-repro serve-bench --chaos`` fault × drift sweep.

Four questions, one pinned document (``benchmarks/BENCH_chaos_serve.json``):

* **Does chaos plumbing cost anything when quiet?** A zero-rate
  :class:`~repro.serve.FaultSchedule` plus an attached degrade controller
  must leave the serve run *bit-identical* to a plain one
  (``zero_rate_bit_identical``).
* **Cedar vs hedging under identical fault schedules.** Each cell runs
  the failure-aware Cedar policy and the tail-tolerant hedging baseline
  on the *same* request stream with the *same* seeded fault draws (the
  shared child-stream contract), so ``quality_edge`` isolates the policy.
* **Does graceful degradation keep its promise?** A dedicated brownout
  scenario — an annihilation storm that opens the breaker, then a
  straggler-heavy recovery window that drives brownout — must serve its
  brownout-dispatched completions with a deadline-hit rate >= 0.99.
* **Does drift reach the warm store?** A mid-run regime shift
  (:class:`~repro.serve.DriftSpec`) must trigger
  :class:`~repro.serve.WarmStartStore` drift resets; without drift there
  must be none.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from ..core.policies import CedarFailureAwarePolicy
from ..errors import ConfigError
from ..faults import FaultDomainMap, FaultModel
from .bench import (
    config_doc,
    pinned_config,
    pinned_requests,
    pinned_workload,
    warm_resets,
)
from .chaos import FaultSchedule, FaultWindow
from .degrade import MODE_CIRCUIT_OPEN, SHED_CIRCUIT_OPEN, DegradeConfig
from .hedging import HedgingConfig, HedgingPolicy
from .loadgen import DriftSpec
from .request import ServeConfig
from .server import CedarServer, ServeReport

__all__ = [
    "DEFAULT_FAULT_RATES",
    "pinned_fault_schedule",
    "pinned_degrade_config",
    "pinned_hedging_config",
    "pinned_drift",
    "brownout_schedule",
    "run_chaos_serve_bench",
]

#: fault-rate ladder: none (the bit-identity arm), mild, storm-grade.
DEFAULT_FAULT_RATES = (0.0, 0.05, 0.15)


def pinned_fault_schedule(rate: float) -> FaultSchedule:
    """The benchmark's fault schedule at intensity ``rate``.

    Mild always-on background faults, an annihilation window (domain
    failures + aggregator crashes) mid-run, and a straggler/worker-crash
    window later. ``rate=0`` is the all-null schedule.
    """
    if rate < 0.0:
        raise ConfigError(f"fault rate must be >= 0, got {rate}")
    if rate == 0.0:
        return FaultSchedule()
    base = FaultModel(
        worker_crash_prob=rate / 3.0,
        straggler_prob=rate,
        straggler_factor=3.0,
        ship_loss_prob=rate / 4.0,
    )
    annihilate = FaultModel(
        agg_crash_prob=min(0.9, 2.0 * rate),
        domain_fail_prob=min(0.6, 4.0 * rate),
        domains=FaultDomainMap.contiguous(8, 4),
    )
    stragglers = FaultModel(
        straggler_prob=min(1.0, 4.0 * rate),
        straggler_factor=8.0,
        worker_crash_prob=min(1.0, 2.0 * rate),
    )
    return FaultSchedule(
        base=base,
        windows=(
            FaultWindow(200.0, 400.0, annihilate),
            FaultWindow(500.0, 800.0, stragglers),
        ),
    )


def pinned_degrade_config() -> DegradeConfig:
    """The benchmark's graceful-degradation knobs.

    ``retry_quality_floor=0.3`` (below the library default): a retry
    answers no earlier than its second attempt's finish, so retrying
    merely-damaged answers trades a guaranteed in-deadline response for a
    chance at a better one — worth it only when the first answer is
    close to worthless.
    """
    return DegradeConfig(retry_quality_floor=0.3)


def pinned_hedging_config() -> HedgingConfig:
    """The benchmark's hedging knobs.

    ``hedge_quantile=0.8`` because the pinned workload's offline 0.95
    quantile (~75) exceeds the 60-unit deadline — a bar the deadline
    forbids would make the baseline a no-op.
    """
    return HedgingConfig(hedge_quantile=0.8)


def pinned_drift() -> DriftSpec:
    """The benchmark's mid-run regime shift.

    A jump to much lighter work, wider in log-space. The shift must
    clear the warm store's drift bar (``drift_nsigmas * sigma ~ 2.4``
    for the pinned workload) *after* the diurnal mu swing (+-0.8) and
    per-query jitter are netted out — hence the -5.0 margin; a heavier
    shift of the same size would push durations past the deadline and
    censor the very estimates the detector watches.
    """
    return DriftSpec(at_fraction=0.5, mu_shift=-5.0, sigma_factor=1.25)


def brownout_schedule() -> FaultSchedule:
    """The dedicated brownout scenario's storm sequence.

    Ordering is the point: the annihilation window comes *first*, so the
    breaker opens from healthy mode and the quality-zero completions are
    never dispatched under brownout; the recovery window that follows
    damages answers (stragglers, a few lost shipments) without destroying
    them, which is exactly the regime brownout is for — and why its
    completions can hold a >= 0.99 hit rate against widened deadlines.
    """
    annihilate = FaultModel(agg_crash_prob=0.9)
    recovery = FaultModel(
        straggler_prob=0.35,
        straggler_factor=4.0,
        ship_loss_prob=0.1,
    )
    return FaultSchedule(
        windows=(
            FaultWindow(0.0, 250.0, annihilate),
            FaultWindow(250.0, 1e9, recovery),
        )
    )


# ----------------------------------------------------------------------
def _arm_doc(report: ServeReport) -> dict[str, object]:
    chaos = report.chaos
    return {
        "admitted": report.admitted,
        "completed": report.completed,
        "shed": report.shed,
        "shed_fraction": report.shed_fraction,
        "deadline_hit_rate": report.deadline_hit_rate,
        "mean_quality": report.mean_quality,
        "latency_p95": report.latency_p95,
        "degraded": chaos["degraded"],
        "retries": chaos["retries"],
        "brownout_completions": chaos["brownout_completions"],
        "hedge_reissued": chaos["hedge_reissued"],
        "hedge_wins": chaos["hedge_wins"],
        "mode_transitions": len(report.chaos["mode_transitions"]),  # type: ignore[arg-type]
        "final_mode": chaos["final_mode"],
    }


def run_chaos_serve_bench(
    fault_rates: Optional[Sequence[float]] = None,
    n_requests: int = 40,
    qps: float = 0.05,
    deadline: float = 60.0,
    seed: int = 2608,
    config: Optional[ServeConfig] = None,
    brownout_requests: int = 60,
    brownout_qps: float = 0.05,
    drift_requests: int = 80,
    drift_qps: float = 0.01,
) -> dict[str, object]:
    """Run the fault x drift sweep and return the JSON-ready document."""
    rates = tuple(float(r) for r in (fault_rates or DEFAULT_FAULT_RATES))
    if not rates:
        raise ConfigError("need at least one fault rate")
    cfg = config if config is not None else pinned_config()
    offline = pinned_workload().offline_tree()
    degrade = pinned_degrade_config()
    hedging = pinned_hedging_config()
    drift = pinned_drift()

    def cedar_policy(schedule: FaultSchedule) -> CedarFailureAwarePolicy:
        return CedarFailureAwarePolicy.from_fault_model(
            schedule.base, grid_points=cfg.grid_points
        )

    cells: list[dict[str, object]] = []
    zero_rate_bit_identical: Optional[bool] = None
    for rate in rates:
        schedule = pinned_fault_schedule(rate)
        for use_drift in (False, True):
            requests = pinned_requests(
                qps,
                n_requests,
                deadline,
                seed,
                drift=drift if use_drift else None,
            )
            cedar_cfg = dataclasses.replace(
                cfg, faults=schedule, degrade=degrade
            )
            cedar_report = CedarServer(
                offline_tree=offline,
                config=cedar_cfg,
                policy=cedar_policy(schedule),
            ).run(requests)
            hedge_report = CedarServer(
                offline_tree=offline,
                config=cfg,
                policy=cedar_policy(FaultSchedule()),
                backend=HedgingPolicy(schedule, hedging),
            ).run(requests)
            cedar_doc = _arm_doc(cedar_report)
            hedge_doc = _arm_doc(hedge_report)
            cells.append(
                {
                    "fault_rate": rate,
                    "drift": use_drift,
                    "schedule": schedule.describe(),
                    "cedar": cedar_doc,
                    "hedging": hedge_doc,
                    "quality_edge": (
                        cedar_report.mean_quality - hedge_report.mean_quality
                    ),
                }
            )
            if rate == 0.0 and not use_drift:
                plain_report = CedarServer(
                    offline_tree=offline,
                    config=cfg,
                    policy=cedar_policy(FaultSchedule()),
                ).run(requests)
                zero_rate_bit_identical = plain_report.to_json(
                    include_outcomes=True
                ) == cedar_report.to_json(include_outcomes=True)

    # ---- dedicated brownout scenario ---------------------------------
    storm = brownout_schedule()
    brown_requests = pinned_requests(
        brownout_qps, brownout_requests, deadline, seed
    )
    brown_cfg = dataclasses.replace(cfg, faults=storm, degrade=degrade)
    brown_report = CedarServer(
        offline_tree=offline,
        config=brown_cfg,
        policy=cedar_policy(storm),
    ).run(brown_requests)
    brown = [o for o in brown_report.outcomes if o.admitted and o.brownout]
    brown_hits = sum(1 for o in brown if o.deadline_hit)
    breaker_opens = sum(
        1
        for t in brown_report.chaos["mode_transitions"]  # type: ignore[union-attr]
        if t["mode"] == MODE_CIRCUIT_OPEN
    )
    shed_circuit = sum(
        1
        for o in brown_report.outcomes
        if not o.admitted and o.shed_reason == SHED_CIRCUIT_OPEN
    )
    brownout_doc: dict[str, object] = {
        "n_requests": brownout_requests,
        "qps": brownout_qps,
        "engaged": bool(brown),
        "brownout_completions": len(brown),
        "brownout_hit_rate": brown_hits / len(brown) if brown else 0.0,
        "retries": brown_report.chaos["retries"],
        "breaker_opens": breaker_opens,
        "shed_circuit_open": shed_circuit,
        "mode_transitions": brown_report.chaos["mode_transitions"],
        "final_mode": brown_report.chaos["final_mode"],
    }

    # ---- drift must reach the warm store -----------------------------
    # warm_min_samples must sit below the bottom fan-out (4): with a warm
    # prior installed, the online learner only refits after that many
    # arrivals, and the drift detector watches refitted estimates — at
    # the library default of 5 a 4-wide aggregator never refits and no
    # drift, however large, is visible to the store.
    warm_cfg = dataclasses.replace(cfg, warm_min_samples=3)

    def warm_run(use_drift: bool) -> ServeReport:
        requests = pinned_requests(
            drift_qps,
            drift_requests,
            deadline,
            seed,
            drift=drift if use_drift else None,
        )
        return CedarServer(offline_tree=offline, config=warm_cfg).run(requests)

    drifted = warm_run(True)
    undrifted = warm_run(False)
    warm_drift_doc: dict[str, object] = {
        "n_requests": drift_requests,
        "qps": drift_qps,
        "drift": {
            "at_fraction": drift.at_fraction,
            "mu_shift": drift.mu_shift,
            "sigma_factor": drift.sigma_factor,
        },
        "resets_with_drift": warm_resets(drifted),
        "resets_without_drift": warm_resets(undrifted),
        "drifted_mean_quality": drifted.mean_quality,
        "undrifted_mean_quality": undrifted.mean_quality,
    }

    return {
        "bench": "chaos-serve",
        "seed": seed,
        "deadline": deadline,
        "qps": qps,
        "n_requests": n_requests,
        "fault_rates": list(rates),
        "config": config_doc(cfg),
        "degrade": dataclasses.asdict(degrade),
        "hedging": dataclasses.asdict(hedging),
        "cells": cells,
        "zero_rate_bit_identical": zero_rate_bit_identical,
        "brownout": brownout_doc,
        "warm_drift": warm_drift_doc,
    }
