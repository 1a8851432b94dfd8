"""Streaming wrapper: feed arrivals one at a time, query the current fit.

This is the shape an aggregator actually uses (Pseudocode 1): every
PROCESSHANDLER invocation appends one arrival time and may re-estimate.
The wrapper enforces monotone arrival order, caches the last estimate, and
only recomputes when new data arrived since.
"""

from __future__ import annotations

from typing import Optional

from ..distributions import Distribution
from ..errors import EstimationError
from ..obs.profile import PROFILER
from .base import Estimator, ParameterEstimate

__all__ = ["StreamingEstimator"]


class StreamingEstimator:
    """Incremental facade over any batch :class:`Estimator`."""

    def __init__(self, estimator: Estimator, k: int):
        if k < 1:
            raise EstimationError(f"fan-out k must be >= 1, got {k}")
        self._estimator = estimator
        self._k = int(k)
        self._arrivals: list[float] = []
        self._cached: Optional[ParameterEstimate] = None
        self._dirty = True

    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """Fan-out (total number of expected outputs)."""
        return self._k

    @property
    def n_observed(self) -> int:
        """Number of arrivals observed so far."""
        return len(self._arrivals)

    @property
    def arrivals(self) -> tuple[float, ...]:
        """The arrival times observed so far, in order."""
        return tuple(self._arrivals)

    @property
    def complete(self) -> bool:
        """True once all ``k`` outputs have arrived."""
        return len(self._arrivals) >= self._k

    @property
    def ready(self) -> bool:
        """True once enough arrivals exist for an estimate."""
        return len(self._arrivals) >= self._estimator.min_samples

    # ------------------------------------------------------------------
    def observe(self, arrival_time: float) -> None:
        """Record the next output's arrival time (must be nondecreasing)."""
        if self.complete:
            raise EstimationError(f"already observed all k={self._k} arrivals")
        if self._arrivals and arrival_time < self._arrivals[-1]:
            raise EstimationError(
                f"arrival {arrival_time} precedes last seen {self._arrivals[-1]}"
            )
        self._arrivals.append(float(arrival_time))
        self._dirty = True

    def estimate(self) -> ParameterEstimate:
        """Return the current estimate (cached until new data arrives)."""
        if not self.ready:
            raise EstimationError(
                f"need {self._estimator.min_samples} arrivals, have {self.n_observed}"
            )
        if self._dirty or self._cached is None:
            tok = PROFILER.start()
            self._cached = self._estimator.estimate(self._arrivals, self._k)
            PROFILER.stop("estimation.streaming.estimate", tok)
            self._dirty = False
        return self._cached

    def estimate_distribution(self) -> Distribution:
        """Materialize the current estimate as a Distribution."""
        return self.estimate().to_distribution()

    def reset(self) -> None:
        """Forget all arrivals (reuse across queries)."""
        self._arrivals.clear()
        self._cached = None
        self._dirty = True
