"""Request reissue guided by Cedar's learned distribution (paper §6).

"Kwiken improves performance of request-response workflows using ...
request reissues ... Cedar's online learning algorithm using
order-statistics can aid in determining reissue budget across stages in a
better way."

This module realizes that suggestion for a two-level tree: once an
aggregator has a per-query fit of ``X1``, any process whose elapsed age
exceeds the ``reissue_percentile`` of the fitted distribution is
*reissued* — a duplicate request is sent whose duration is a fresh draw —
subject to a per-aggregator budget. The earlier of original/duplicate
wins (the §2.2 speculation semantics, but at the request layer and driven
by Cedar's estimate instead of a static rule of thumb).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from ..core import AdaptiveController, QueryContext
from ..core.aggregator import AggregatorController
from ..core.policies import CedarPolicy
from ..distributions import Distribution
from ..errors import SimulationError
from ..rng import SeedLike
from .query import _walk_query

__all__ = [
    "ReissueConfig",
    "ReissueQueryResult",
    "run_aggregator_with_reissue",
    "simulate_query_with_reissue",
]


@dataclasses.dataclass(frozen=True)
class ReissueConfig:
    """Reissue policy knobs."""

    #: reissue a pending process once its age passes this percentile of
    #: the aggregator's *current fitted* duration distribution.
    reissue_percentile: float = 0.9
    #: at most this fraction of k1 may be reissued per aggregator.
    budget_fraction: float = 0.1

    def __post_init__(self) -> None:
        if not 0.5 < self.reissue_percentile < 1.0:
            raise SimulationError(
                f"reissue_percentile must be in (0.5, 1), got "
                f"{self.reissue_percentile}"
            )
        if not 0.0 < self.budget_fraction <= 1.0:
            raise SimulationError(
                f"budget_fraction must be in (0, 1], got {self.budget_fraction}"
            )


@dataclasses.dataclass(frozen=True)
class ReissueQueryResult:
    """Outcome of one query with reissue enabled."""

    quality: float
    included_outputs: int
    total_outputs: int
    reissued: int
    reissue_wins: int


def run_aggregator_with_reissue(
    controller: AggregatorController,
    durations: np.ndarray,
    fresh_source: Distribution,
    rng: np.random.Generator,
    budget: int,
    threshold_age: Optional[float] = None,
    reissue_percentile: float = 0.9,
) -> tuple[float, int, int, int]:
    """Drive one aggregator; returns (depart, collected, reissued, wins).

    Arrival times start as ``durations``; when a reissue fires at time
    ``t`` for a pending process, a duplicate duration is drawn from
    ``fresh_source`` and the effective completion becomes
    ``min(original, t + fresh_draw)``. At most ``budget`` processes are
    reissued.

    Two trigger modes share this loop:

    * **dynamic** (``threshold_age=None``) — the Cedar-guided reissue of
      :func:`simulate_query_with_reissue`: the age bar is the
      ``reissue_percentile`` of the controller's *current fitted*
      distribution, so it needs an adaptive controller;
    * **static** (``threshold_age`` given) — the classic tail-tolerant
      hedged request: a fixed delay precomputed from the offline
      distribution. Used by :mod:`repro.serve.hedging`, where the fixed
      bar is what makes the reissue count provably monotone in the hedge
      quantile.
    """
    k = durations.size
    completion = durations.copy()
    delivered = np.zeros(k, dtype=bool)
    reissued: set[int] = set()
    wins = 0
    collected = 0
    last_arrival = 0.0

    # event loop over completion times; reissue checks happen at each
    # arrival (the moments the controller re-plans anyway).
    while collected < k:
        live = [(completion[i], i) for i in range(k) if not delivered[i]]
        t_next, idx = min(live)
        if t_next > controller.stop_time:
            break
        controller.on_arrival(float(t_next))
        collected += 1
        delivered[idx] = True
        last_arrival = float(t_next)
        if collected == k:
            break
        if len(reissued) >= budget:
            continue
        if threshold_age is None:
            # dynamic bar: consult the current fitted distribution
            est = getattr(controller, "last_estimate", None)
            if est is None:
                continue
            bar = float(est.quantile(reissue_percentile))
        else:
            bar = threshold_age
        now = float(t_next)
        if now < bar:
            continue  # every pending process is still younger than the bar
        for j in range(k):
            if delivered[j] or j in reissued:
                continue
            if completion[j] <= now:
                continue  # already arriving; nothing to save
            fresh = now + float(np.asarray(fresh_source.sample(1, seed=rng))[0])
            if fresh < completion[j]:
                completion[j] = fresh
                wins += 1
            reissued.add(j)
            if len(reissued) >= budget:
                break

    stop = controller.stop_time
    if collected == k:
        stop = min(stop, last_arrival)
    return stop, collected, len(reissued), wins


class _ReissueDriver:
    """Bottom-aggregator driver for the tree walk: runs every aggregator
    through :func:`run_aggregator_with_reissue` and carries the budget
    state across them (``per_aggregator`` each, ``total`` per query)."""

    def __init__(
        self,
        ctx: QueryContext,
        what: str,
        budget_fraction: float,
        total: Optional[int] = None,
        threshold_age: Optional[float] = None,
        reissue_percentile: float = 0.9,
    ):
        tree = ctx.true_tree if ctx.true_tree is not None else ctx.offline_tree
        # duplicates are drawn mid-walk, which is only order-safe against
        # the walk's up-front ship draws when there is one aggregator level
        if tree.n_stages != 2:
            raise SimulationError(
                f"{what} simulation currently covers two-level trees; "
                f"got {tree.n_stages} stages"
            )
        k1, k2 = tree.fanouts
        self.fresh_source = tree.distributions[0]
        self.per_aggregator = max(1, int(budget_fraction * k1))
        self.budget_left = total if total is not None else k1 * k2
        self.threshold_age = threshold_age
        self.reissue_percentile = reissue_percentile
        self.reissued = 0
        self.wins = 0

    def __call__(
        self,
        controller: AggregatorController,
        durations: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[float, int, int]:
        if self.threshold_age is None and not isinstance(
            controller, AdaptiveController
        ):
            raise SimulationError(
                "reissue requires an adaptive bottom-level controller"
            )
        depart, collected, reissued, wins = run_aggregator_with_reissue(
            controller,
            durations,
            self.fresh_source,
            rng,
            budget=min(self.per_aggregator, max(0, self.budget_left)),
            threshold_age=self.threshold_age,
            reissue_percentile=self.reissue_percentile,
        )
        self.budget_left -= reissued
        self.reissued += reissued
        self.wins += wins
        return depart, collected, collected


def simulate_query_with_reissue(
    ctx: QueryContext,
    config: ReissueConfig,
    policy: CedarPolicy | None = None,
    seed: SeedLike = None,
) -> ReissueQueryResult:
    """Two-level query with Cedar-guided request reissue.

    Requires an adaptive (Cedar-style) policy — the reissue trigger is
    the learned distribution itself.
    """
    driver = _ReissueDriver(
        ctx,
        "reissue",
        config.budget_fraction,
        reissue_percentile=config.reissue_percentile,
    )
    result, _ = _walk_query(ctx, policy or CedarPolicy(), seed, bottom=driver)
    return ReissueQueryResult(
        quality=result.quality,
        included_outputs=result.included_outputs,
        total_outputs=result.total_outputs,
        reissued=driver.reissued,
        reissue_wins=driver.wins,
    )
