"""Wait-duration selection (paper §4.3.3, Pseudocode 2).

Two implementations:

* :func:`calculate_wait` — a direct, scalar transcription of Pseudocode 2
  (incremental ε-search accumulating gain minus loss). Readable, used as
  the reference in tests.
* :class:`WaitOptimizer` — the production path: precomputes the upper
  subtree's quality grid ``q_{n-1}`` once per (tree tail, deadline), then
  answers per-query/per-arrival re-optimizations of the bottom stage with
  a single vectorized sweep. This is what makes Cedar's "completes within
  tens of milliseconds" practical in pure Python.

:func:`wait_schedule` extends the optimization to every aggregator level
of an ``n``-level tree: level ``i``'s inputs are modeled as departing at
level ``i-1``'s optimal stop time plus the stage-``i`` duration (a shifted
distribution), mirroring the recursive structure of §4.3.2.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional, Sequence

import numpy as np

from ..distributions import Distribution, Shifted
from ..errors import ConfigError
from ..obs.profile import PROFILER
from .config import Stage, TreeSpec
from .quality import (
    DEFAULT_GRID_POINTS,
    QualityGrid,
    WaitCurve,
    sweep_wait,
    tail_quality_grid,
)

__all__ = [
    "calculate_wait",
    "WaitOptimizer",
    "wait_schedule",
    "WaitSchedule",
]


def calculate_wait(
    tree: TreeSpec,
    deadline: float,
    epsilon: Optional[float] = None,
    tail_quality: Optional[Callable[[float], float]] = None,
) -> float:
    """Pseudocode 2, literally: serial ε-sweep returning the optimal wait.

    ``tail_quality`` overrides ``q_{n-1}``; by default it is computed from
    the tree's upper stages on a grid. Ties break toward the longer wait
    (the pseudocode updates on ``q >= bestQ``).
    """
    if deadline <= 0.0:
        return 0.0
    if epsilon is None:
        epsilon = deadline / DEFAULT_GRID_POINTS
    if epsilon <= 0.0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    x1 = tree.stages[0].duration
    k1 = tree.stages[0].fanout
    if tail_quality is None:
        grid = tail_quality_grid(
            tree.stages[1:], deadline, max(2, int(round(deadline / epsilon)))
        )
        tail_quality = grid.at

    tok = PROFILER.start()
    wait = 0.0
    q = 0.0
    best_q = 0.0
    c = 0.0
    while c + epsilon <= deadline + 1e-12:
        f_c = float(x1.cdf(c))
        f_next = float(x1.cdf(c + epsilon))
        gain = (f_next - f_c) * tail_quality(deadline - (c + epsilon))
        held = f_c - f_c**k1
        loss = held * (
            tail_quality(deadline - c) - tail_quality(deadline - (c + epsilon))
        )
        q += gain - loss
        c += epsilon
        if q >= best_q:
            best_q = q
            wait = c
    PROFILER.stop("core.wait.calculate_wait", tok)
    return wait


class WaitOptimizer:
    """Precomputed-tail optimizer for one (upper-tree, deadline) pair.

    Construct once with the stages *above* the learning aggregator and the
    end-to-end deadline; then :meth:`optimize` re-solves the bottom sweep
    for any (estimated) bottom distribution in ``O(grid_points)``.

    ``shipment_survival`` folds a known loss probability into Eqn 3: on
    infrastructure that loses this aggregator's *own* shipment with
    probability ``1 - shipment_survival`` (aggregator crash or dropped
    upstream message), the expected payoff of waiting for one more output
    is discounted by the survival probability, while the quality already
    held stays fully exposed to the deadline - Equation 3 is scaled,
    Equation 4 is not. The optimum shifts toward shorter waits as the
    infrastructure degrades; at the default 1 the discount is ``1.0 * x``,
    which is exact.
    """

    def __init__(
        self,
        tail_stages: Sequence[Stage],
        deadline: float,
        grid_points: int = DEFAULT_GRID_POINTS,
        shipment_survival: float = 1.0,
    ):
        if deadline <= 0.0:
            raise ConfigError(f"deadline must be positive, got {deadline}")
        if not 0.0 < shipment_survival <= 1.0:
            raise ConfigError(
                f"shipment_survival must be in (0, 1], got {shipment_survival}"
            )
        self.tail_stages = tuple(tail_stages)
        if len(self.tail_stages) == 0:
            raise ConfigError("need at least one stage")
        self.deadline = float(deadline)
        self.grid_points = int(grid_points)
        self.shipment_survival = float(shipment_survival)
        self._tail: Optional[QualityGrid] = None

    @property
    def tail(self) -> QualityGrid:
        """Upper-subtree quality grid ``q_{n-1}``, built on first use.

        Lazy so that wrappers answering from a shared cache (see
        :class:`~repro.core.waitbatch.CachedWaitOptimizer`) never pay the
        ``O(levels * grid_points^2)`` recursion for deadlines they only
        ever serve from quantized buckets.
        """
        if self._tail is None:
            self._tail = tail_quality_grid(
                self.tail_stages, self.deadline, self.grid_points
            )
        return self._tail

    @property
    def epsilon(self) -> float:
        """Grid step of the sweep."""
        return self.tail.epsilon

    def curve(self, x1: Distribution, k1: int) -> WaitCurve:
        """Full wait-vs-quality curve for bottom stage ``(x1, k1)``."""
        tok = PROFILER.start()
        curve = sweep_wait(
            x1, k1, self.tail, gain_discount=self.shipment_survival
        )
        PROFILER.stop("core.wait.sweep", tok)
        return curve

    def optimize(self, x1: Distribution, k1: int) -> float:
        """Optimal wait duration for bottom stage ``(x1, k1)``."""
        return self.curve(x1, k1).optimal_wait

    def max_quality(self, x1: Distribution, k1: int) -> float:
        """Expected quality at the optimal wait."""
        return self.curve(x1, k1).max_quality


@dataclasses.dataclass(frozen=True)
class WaitSchedule:
    """Absolute stop times (since query start) for each aggregator level.

    ``stops[i]`` is when a level-``i+1`` aggregator (0-indexed from the
    bottom) stops waiting and ships upstream. Monotone nondecreasing.
    """

    stops: tuple[float, ...]
    expected_quality: float

    def stop_for_level(self, level: int) -> float:
        """Stop time for aggregator level ``level`` (1 = bottom-most)."""
        if not 1 <= level <= len(self.stops):
            raise ConfigError(
                f"level must be in [1, {len(self.stops)}], got {level}"
            )
        return self.stops[level - 1]


def wait_schedule(
    tree: TreeSpec,
    deadline: float,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> WaitSchedule:
    """Optimal absolute stop times for every aggregator level, bottom-up.

    Level 1 solves the full-tree sweep. Level ``i > 1`` models its input
    arrivals as ``stop_{i-1} + X_i`` (children depart at their stop time,
    then take the stage-``i`` duration to combine and ship), and optimizes
    the remaining subtree — the recursive decomposition of §4.3.2 made
    operational.
    """
    if deadline <= 0.0:
        return WaitSchedule(
            stops=tuple(0.0 for _ in range(tree.n_aggregator_levels)),
            expected_quality=0.0,
        )
    stops: list[float] = []
    opt = WaitOptimizer(tree.stages[1:], deadline, grid_points)
    curve = opt.curve(tree.stages[0].duration, tree.stages[0].fanout)
    stops.append(curve.optimal_wait)
    quality = curve.max_quality

    for level in range(2, tree.n_stages):
        arrival = Shifted(tree.stages[level - 1].duration, stops[-1])
        tail_stages = tree.stages[level:]
        opt_i = WaitOptimizer(tail_stages, deadline, grid_points)
        curve_i = opt_i.curve(arrival, tree.stages[level - 1].fanout)
        # an upper aggregator can never stop before its children depart
        stop = max(curve_i.optimal_wait, stops[-1])
        stops.append(stop)
    return WaitSchedule(stops=tuple(stops), expected_quality=quality)
