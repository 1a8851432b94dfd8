"""Correctness checks on what a run produced; a failed check fails the
benchmark (non-zero exit), whatever the timings say."""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from .workloads import RunOutcome

#: (check name, passed, detail)
Check = tuple[str, bool, str]


def ledger_failures(outcome: RunOutcome) -> int:
    """Requests that did not reach exactly one terminal outcome."""
    if outcome.qualities is not None:
        return 0
    indices = [o.index for o in outcome.outcomes]
    return abs(outcome.offered - len(indices)) + len(indices) - len(set(indices))


def run_checks(outcome: RunOutcome) -> list[Check]:
    """Structural checks on a single run's outputs."""
    if outcome.qualities is not None:
        return _replay_checks(outcome)
    report = outcome.report
    outcomes = outcome.outcomes
    admitted = sum(1 for o in outcomes if o.admitted)
    checks = [
        (
            "one_terminal_outcome_per_request",
            ledger_failures(outcome) == 0,
            f"{len(outcomes)} outcomes for {outcome.offered} requests",
        ),
        (
            "admitted_plus_shed_is_offered",
            admitted == report.admitted
            and report.admitted + report.shed == outcome.offered,
            f"admitted {report.admitted} + shed {report.shed} vs offered {outcome.offered}",
        ),
    ]
    terminal = getattr(report, "terminal", None)
    if terminal is not None:
        checks.append(
            (
                "supervisor_lost_or_duplicated_nothing",
                terminal["lost"] == 0 and terminal["duplicates"] == 0,
                f"lost {terminal['lost']}, duplicates {terminal['duplicates']}",
            )
        )
    return checks


def _replay_checks(outcome: RunOutcome) -> list[Check]:
    q = outcome.qualities
    assert q is not None
    means = {name: float(np.mean(v)) for name, v in q.items()}
    in_range = all(np.all((v >= 0.0) & (v <= 1.0)) for v in q.values())
    return [
        ("qualities_in_unit_interval", bool(in_range), ""),
        (
            "cedar_at_least_proportional_split",
            means["cedar"] >= means["proportional-split"],
            f"cedar {means['cedar']:.4f} vs split {means['proportional-split']:.4f}",
        ),
        (
            "ideal_at_least_cedar",
            means["ideal"] >= means["cedar"] - 0.01,
            f"ideal {means['ideal']:.4f} vs cedar {means['cedar']:.4f}",
        ),
    ]


def identical_reports(label: str, runs: Sequence[Any]) -> Check:
    """Every run (anything with a ``sha256``) produced the same report."""
    digests = {run.sha256 for run in runs}
    return (label, len(digests) == 1, f"{len(runs)} runs, {len(digests)} distinct sha256")
