"""Wait-duration policies: Cedar, the paper's baselines, and ablations.

A :class:`WaitPolicy` is instantiated once per experiment and asked, per
query, to produce one :class:`AggregatorController` per aggregator level.
The :class:`QueryContext` gives it everything the corresponding real
system would know:

* ``deadline`` — the end-to-end deadline ``D`` (common knowledge, §3);
* ``offline_tree`` — population-level stage distributions learned from
  *previous* queries (what Proportional-split and Cedar's upper-stage
  model use);
* ``true_tree`` — this query's actual stage distributions. Only the
  **Ideal** scheme may read it (§3: "a priori information about the
  distribution of process as well as aggregator durations of every
  query"); Cedar must learn the bottom stage online instead.

Expensive per-(deadline, tail) artifacts — quality grids and wait
schedules — are cached across queries, since experiments replay thousands
of queries at the same deadline.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Any, Callable, Optional

from ..distributions import Distribution
from ..errors import ConfigError
from ..estimation import (
    EmpiricalEstimator,
    Estimator,
    OrderStatisticEstimator,
)
from .aggregator import AdaptiveController, AggregatorController, StaticController
from .config import Stage, TreeSpec
from .quality import DEFAULT_GRID_POINTS
from .wait import (
    FailureAwareWaitOptimizer,
    WaitOptimizer,
    WaitSchedule,
    wait_schedule,
)
from .waitbatch import CachedWaitOptimizer, WaitCacheLike, as_wait_cache

__all__ = [
    "QueryContext",
    "WaitPolicy",
    "ProportionalSplitPolicy",
    "EqualSplitPolicy",
    "MeanSubtractPolicy",
    "FixedStopPolicy",
    "IdealPolicy",
    "CedarPolicy",
    "CedarDeepPolicy",
    "CedarEmpiricalPolicy",
    "CedarOfflinePolicy",
    "CedarFailureAwarePolicy",
    "default_policies",
]


@dataclasses.dataclass(frozen=True)
class QueryContext:
    """Everything a policy may legitimately consult for one query."""

    deadline: float
    offline_tree: TreeSpec
    true_tree: Optional[TreeSpec] = None

    def __post_init__(self) -> None:
        if self.deadline <= 0.0:
            raise ConfigError(f"deadline must be positive, got {self.deadline}")
        if self.true_tree is not None and (
            self.true_tree.n_stages != self.offline_tree.n_stages
        ):
            raise ConfigError(
                "true_tree and offline_tree must have the same number of stages"
            )

    @property
    def n_levels(self) -> int:
        """Number of aggregator levels."""
        return self.offline_tree.n_aggregator_levels


class WaitPolicy(abc.ABC):
    """Produces per-aggregator controllers for each query."""

    #: short identifier used in experiment reports.
    name: str = "abstract"

    @abc.abstractmethod
    def controller(self, ctx: QueryContext, level: int) -> AggregatorController:
        """Controller for one aggregator at ``level`` (1 = bottom-most)."""

    def begin_query(self, ctx: QueryContext) -> None:
        """Hook called once per query before any controller is built."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


def _check_level(ctx: QueryContext, level: int) -> None:
    if not 1 <= level <= ctx.n_levels:
        raise ConfigError(f"level must be in [1, {ctx.n_levels}], got {level}")


# ----------------------------------------------------------------------
# straw-man baselines (§3.1)
# ----------------------------------------------------------------------
class ProportionalSplitPolicy(WaitPolicy):
    """Split the deadline proportionally to the stage means (§3.1).

    The level-``i`` aggregator stops at ``D * sum(mu_1..mu_i) / sum(mu_1..mu_n)``
    using the population (offline) means — the scheme reported as deployed
    in Google's clusters [18].
    """

    name = "proportional-split"

    def controller(self, ctx: QueryContext, level: int) -> AggregatorController:
        _check_level(ctx, level)
        means = [stage.duration.mean() for stage in ctx.offline_tree.stages]
        total = sum(means)
        if total <= 0.0:
            raise ConfigError("stage means must sum to a positive value")
        frac = sum(means[:level]) / total
        return StaticController(ctx.deadline * frac)


class EqualSplitPolicy(WaitPolicy):
    """Divide the deadline equally between the stages (footnote-3 baseline)."""

    name = "equal-split"

    def controller(self, ctx: QueryContext, level: int) -> AggregatorController:
        _check_level(ctx, level)
        n = ctx.offline_tree.n_stages
        return StaticController(ctx.deadline * level / n)


class MeanSubtractPolicy(WaitPolicy):
    """Stop at ``D`` minus the mean durations of the stages above
    (footnote-3 baseline: "subtracting the mean of X2 from the deadline")."""

    name = "mean-subtract"

    def controller(self, ctx: QueryContext, level: int) -> AggregatorController:
        _check_level(ctx, level)
        means = [stage.duration.mean() for stage in ctx.offline_tree.stages]
        upstream = sum(means[level:])
        return StaticController(max(0.0, ctx.deadline - upstream))


class FixedStopPolicy(WaitPolicy):
    """Explicit absolute stop times per level — for tests and what-ifs."""

    name = "fixed"

    def __init__(self, stops: tuple[float, ...]):
        if not stops:
            raise ConfigError("need at least one stop time")
        self.stops = tuple(float(s) for s in stops)

    def controller(self, ctx: QueryContext, level: int) -> AggregatorController:
        _check_level(ctx, level)
        if level > len(self.stops):
            raise ConfigError(
                f"no stop configured for level {level} (have {len(self.stops)})"
            )
        return StaticController(self.stops[level - 1])


# ----------------------------------------------------------------------
# schedule-based policies (Ideal, offline Cedar)
# ----------------------------------------------------------------------
class _ScheduleCache:
    """Memoizes wait schedules keyed by (tree, deadline)."""

    def __init__(self, grid_points: int):
        self.grid_points = grid_points
        self._cache: dict[tuple, WaitSchedule] = {}

    def schedule(self, tree: TreeSpec, deadline: float) -> WaitSchedule:
        key = (tree.stages, round(deadline, 12))
        found = self._cache.get(key)
        if found is None:
            found = wait_schedule(tree, deadline, self.grid_points)
            self._cache[key] = found
        return found


class IdealPolicy(WaitPolicy):
    """Upper bound: optimal waits from the *true* per-query distributions.

    The idealized scheme of §3.1 — it "has a priori information about the
    distribution of process as well as aggregator durations of every
    query" and picks the quality-maximizing wait.
    """

    name = "ideal"

    def __init__(self, grid_points: int = DEFAULT_GRID_POINTS):
        self._cache = _ScheduleCache(grid_points)

    def controller(self, ctx: QueryContext, level: int) -> AggregatorController:
        _check_level(ctx, level)
        if ctx.true_tree is None:
            raise ConfigError("IdealPolicy needs ctx.true_tree")
        sched = self._cache.schedule(ctx.true_tree, ctx.deadline)
        return StaticController(min(sched.stop_for_level(level), ctx.deadline))


class CedarOfflinePolicy(WaitPolicy):
    """Cedar's optimizer fed only population distributions — no online
    learning. This is "Cedar without online learning" in Figure 11 and the
    mode forced on the Cosmos workload (Figure 15, where per-job durations
    are unavailable)."""

    name = "cedar-offline"

    def __init__(self, grid_points: int = DEFAULT_GRID_POINTS):
        self._cache = _ScheduleCache(grid_points)

    def controller(self, ctx: QueryContext, level: int) -> AggregatorController:
        _check_level(ctx, level)
        sched = self._cache.schedule(ctx.offline_tree, ctx.deadline)
        return StaticController(min(sched.stop_for_level(level), ctx.deadline))


# ----------------------------------------------------------------------
# Cedar proper
# ----------------------------------------------------------------------
class CedarPolicy(WaitPolicy):
    """Cedar (§4): online order-statistic learning of the bottom stage plus
    the recursive wait optimization.

    Bottom-level aggregators get an :class:`AdaptiveController`; upper
    levels use the offline-distribution schedule (the paper learns upper
    stage distributions offline because they vary little across queries,
    §4.1).

    ``wait_cache`` (a :class:`~repro.core.waitbatch.WaitTableCache`, a
    :class:`~repro.core.waitbatch.WaitCacheConfig`, or ``None``) switches
    the per-arrival re-optimization and the upper static schedules to the
    shared quantized-bucket cache, so concurrent queries with similar
    regimes reuse each other's solves instead of each paying the full
    sweep. ``None`` (the default) keeps the exact per-policy caches.
    """

    name = "cedar"

    def __init__(
        self,
        estimator_factory: Callable[[], Estimator] | None = None,
        grid_points: int = DEFAULT_GRID_POINTS,
        min_samples: int = 2,
        reoptimize_every: int = 1,
        wait_cache: WaitCacheLike = None,
    ):
        self._estimator_factory = estimator_factory or (
            lambda: OrderStatisticEstimator(family="lognormal")
        )
        self.grid_points = int(grid_points)
        self.min_samples = int(min_samples)
        self.reoptimize_every = int(reoptimize_every)
        self.wait_cache = as_wait_cache(wait_cache)
        self._schedules = _ScheduleCache(grid_points)
        self._optimizers: dict[tuple, WaitOptimizer] = {}

    def _optimizer(self, ctx: QueryContext) -> WaitOptimizer:
        key = (ctx.offline_tree.stages[1:], round(ctx.deadline, 12))
        found = self._optimizers.get(key)
        if found is None:
            if self.wait_cache is not None:
                found = CachedWaitOptimizer(
                    ctx.offline_tree.stages[1:],
                    ctx.deadline,
                    self.grid_points,
                    cache=self.wait_cache,
                )
            else:
                found = WaitOptimizer(
                    ctx.offline_tree.stages[1:], ctx.deadline, self.grid_points
                )
            self._optimizers[key] = found
        return found

    def _schedule(self, tree: TreeSpec, deadline: float) -> WaitSchedule:
        """Upper-level static schedule — from the shared quantized cache
        when one is wired, exact (per-policy memo) otherwise."""
        if self.wait_cache is not None:
            return self.wait_cache.schedule_for(tree, deadline, self.grid_points)
        return self._schedules.schedule(tree, deadline)

    def controller(self, ctx: QueryContext, level: int) -> AggregatorController:
        _check_level(ctx, level)
        if level == 1:
            return AdaptiveController(
                estimator=self._estimator_factory(),
                optimizer=self._optimizer(ctx),
                k=ctx.offline_tree.stages[0].fanout,
                deadline=ctx.deadline,
                min_samples=self.min_samples,
                reoptimize_every=self.reoptimize_every,
            )
        sched = self._schedule(ctx.offline_tree, ctx.deadline)
        return StaticController(min(sched.stop_for_level(level), ctx.deadline))


class CedarDeepPolicy(CedarPolicy):
    """Cedar with online learning at *every* aggregator level.

    The paper learns upper-stage distributions offline because "higher
    levels ... have little variation across queries" (§4.1). This
    extension drops that assumption: a level-``i`` aggregator fits its
    own arrival-time distribution online (its arrivals are its children's
    departure plus the stage duration — approximately log-normal when the
    stage is) and re-optimizes against the remaining upper subtree. When
    upper stages do drift per query, this recovers what the static
    schedule leaves on the table; when they don't, it matches plain
    Cedar (asserted in the tests).
    """

    name = "cedar-deep"

    def controller(self, ctx: QueryContext, level: int) -> AggregatorController:
        _check_level(ctx, level)
        if level == 1:
            return super().controller(ctx, 1)
        key = (ctx.offline_tree.stages[level:], round(ctx.deadline, 12))
        found = self._optimizers.get(key)
        if found is None:
            found = WaitOptimizer(
                ctx.offline_tree.stages[level:], ctx.deadline, self.grid_points
            )
            self._optimizers[key] = found
        return AdaptiveController(
            estimator=self._estimator_factory(),
            optimizer=found,
            k=ctx.offline_tree.stages[level - 1].fanout,
            deadline=ctx.deadline,
            min_samples=self.min_samples,
            reoptimize_every=self.reoptimize_every,
        )


class CedarFailureAwarePolicy(CedarPolicy):
    """Cedar that knows its infrastructure loses things.

    Takes the (measured or configured) per-query failure rates and folds
    them into the wait optimization:

    * the expected gain of waiting (Eqn 3) is discounted by the shipment
      survival probability ``(1 - ship_loss)(1 - agg_crash)`` — waiting
      longer only pays off if the shipment survives, while the outputs
      already held stay exposed either way (see
      :class:`~repro.core.wait.FailureAwareWaitOptimizer`);
    * upper-level *static* schedules — the levels with no online signal —
      are solved on a planning tree whose fan-outs are deflated to the
      inputs expected to survive (``round(k * survival)`` at each level).

    Deliberately **not** applied at the learning level: thinning or
    fan-out deflation of the online estimate. The ``i``-th-of-``k``
    order-statistic mapping applied to a stream with crashed (never
    arriving) leaves *already* estimates the defective arrival
    distribution — dead workers push the fitted tail out exactly as a
    :class:`~repro.distributions.Thinned` model would. Correcting again
    (deflating the assumed fan-in, thinning the estimate, posterior futility
    caps) double-counts the missing mass and measurably loses quality
    under injected crashes; see ``benchmarks/test_robustness_faults.py``.

    With all failure rates zero this is exactly :class:`CedarPolicy`.
    """

    name = "cedar-failure-aware"

    def __init__(
        self,
        ship_loss_prob: float = 0.0,
        agg_crash_prob: float = 0.0,
        worker_crash_prob: float = 0.0,
        **kwargs: Any,
    ):
        super().__init__(**kwargs)
        for label, p in (
            ("ship_loss_prob", ship_loss_prob),
            ("agg_crash_prob", agg_crash_prob),
            ("worker_crash_prob", worker_crash_prob),
        ):
            if not 0.0 <= p < 1.0:
                raise ConfigError(f"{label} must be in [0, 1), got {p}")
        self.ship_loss_prob = float(ship_loss_prob)
        self.agg_crash_prob = float(agg_crash_prob)
        self.worker_crash_prob = float(worker_crash_prob)

    @classmethod
    def from_fault_model(
        cls, faults: Any, **kwargs: Any
    ) -> "CedarFailureAwarePolicy":
        """Build from a :class:`repro.faults.FaultModel` (duck-typed —
        anything with the three ``*_prob`` attributes works)."""
        return cls(
            ship_loss_prob=faults.ship_loss_prob,
            agg_crash_prob=faults.agg_crash_prob,
            worker_crash_prob=faults.worker_crash_prob,
            **kwargs,
        )

    # ------------------------------------------------------------------
    @property
    def shipment_survival(self) -> float:
        """Probability one aggregator's shipment reaches its parent."""
        return (1.0 - self.ship_loss_prob) * (1.0 - self.agg_crash_prob)

    @property
    def worker_survival(self) -> float:
        """Probability one leaf worker's output ever arrives."""
        return 1.0 - self.worker_crash_prob

    @staticmethod
    def _deflate(k: int, survival: float) -> int:
        return max(1, int(round(k * survival)))

    def _deflated_tree(self, tree: TreeSpec) -> TreeSpec:
        """The tree upper-level schedules plan for: fan-outs shrunk to
        the inputs expected to actually show up."""
        stages = [
            Stage(
                tree.stages[0].duration,
                self._deflate(tree.stages[0].fanout, self.worker_survival),
            )
        ]
        for stage in tree.stages[1:]:
            stages.append(
                Stage(
                    stage.duration,
                    self._deflate(stage.fanout, self.shipment_survival),
                )
            )
        return TreeSpec(stages)

    def _optimizer(self, ctx: QueryContext) -> WaitOptimizer:
        key = (
            ctx.offline_tree.stages[1:],
            round(ctx.deadline, 12),
            self.shipment_survival,
        )
        found = self._optimizers.get(key)
        if found is None:
            found = FailureAwareWaitOptimizer(
                ctx.offline_tree.stages[1:],
                ctx.deadline,
                self.grid_points,
                shipment_survival=self.shipment_survival,
            )
            self._optimizers[key] = found
        return found

    def controller(self, ctx: QueryContext, level: int) -> AggregatorController:
        _check_level(ctx, level)
        if level == 1:
            return AdaptiveController(
                estimator=self._estimator_factory(),
                optimizer=self._optimizer(ctx),
                k=ctx.offline_tree.stages[0].fanout,
                deadline=ctx.deadline,
                min_samples=self.min_samples,
                reoptimize_every=self.reoptimize_every,
            )
        sched = self._schedule(
            self._deflated_tree(ctx.offline_tree), ctx.deadline
        )
        return StaticController(min(sched.stop_for_level(level), ctx.deadline))


class CedarEmpiricalPolicy(CedarPolicy):
    """Cedar's pipeline with the biased empirical estimator swapped in —
    the Figure 10 ablation quantifying the value of order statistics."""

    name = "cedar-empirical"

    def __init__(self, grid_points: int = DEFAULT_GRID_POINTS, **kwargs: Any):
        super().__init__(
            estimator_factory=lambda: EmpiricalEstimator(family="lognormal"),
            grid_points=grid_points,
            **kwargs,
        )


def default_policies(include_ideal: bool = True) -> list[WaitPolicy]:
    """The standard contestant set used throughout the evaluation."""
    policies: list[WaitPolicy] = [ProportionalSplitPolicy(), CedarPolicy()]
    if include_ideal:
        policies.append(IdealPolicy())
    return policies
