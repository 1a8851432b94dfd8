"""Aggregator runtime (paper §4.1, Pseudocode 1).

An :class:`AggregatorController` is the per-query, per-aggregator decision
object the simulator (or a real system) drives: it exposes the current
absolute *stop time* (when the aggregator will give up waiting and ship
upstream) and is notified of each arrival so adaptive implementations can
re-plan.

:class:`AdaptiveController` is Cedar's Pseudocode 1: start with the full
deadline as the timer, re-estimate the arrival distribution on every
output via order statistics, and reset the timer to the re-optimized wait.
:class:`StaticController` covers every baseline whose stop time is decided
up front (Proportional-split, Equal-split, Ideal, offline Cedar...).
"""

from __future__ import annotations

import abc
from typing import Optional

from ..distributions import Distribution
from ..errors import ConfigError
from ..estimation import Estimator, StreamingEstimator
from .wait import WaitOptimizer

__all__ = ["AggregatorController", "StaticController", "AdaptiveController"]


class AggregatorController(abc.ABC):
    """Decides how long one aggregator waits for its ``k`` inputs."""

    @property
    @abc.abstractmethod
    def stop_time(self) -> float:
        """Current absolute time (since query start) to stop waiting."""

    @abc.abstractmethod
    def on_arrival(self, t: float) -> None:
        """Notify that one input arrived at absolute time ``t``."""

    @property
    @abc.abstractmethod
    def n_received(self) -> int:
        """Number of inputs that have arrived so far."""


class StaticController(AggregatorController):
    """Fixed stop time decided before the query starts."""

    def __init__(self, stop: float):
        if stop < 0.0:
            raise ConfigError(f"stop time must be >= 0, got {stop}")
        self._stop = float(stop)
        self._received = 0

    @property
    def stop_time(self) -> float:
        return self._stop

    def on_arrival(self, t: float) -> None:
        self._received += 1

    @property
    def n_received(self) -> int:
        return self._received


class AdaptiveController(AggregatorController):
    """Cedar's online controller (Pseudocode 1).

    Parameters
    ----------
    estimator:
        Batch estimator used to fit the arrival distribution (Cedar uses
        :class:`~repro.estimation.OrderStatisticEstimator`; the Figure 10
        ablation swaps in the biased empirical one).
    optimizer:
        Precomputed :class:`~repro.core.wait.WaitOptimizer` for the upper
        subtree at this query's deadline.
    k:
        Fan-in of this aggregator (``k1``).
    deadline:
        End-to-end deadline ``D``; also the initial timer value.
    min_samples:
        Arrivals required before the first re-optimization (>= 2, since
        two parameters must be identified).
    reoptimize_every:
        Re-plan after every ``r``-th arrival (1 = every arrival, the
        paper's default; larger values are an ablation knob).
    prior:
        Optional warm-start distribution (e.g. from a
        :class:`~repro.serve.WarmStartStore`). When given, the initial
        timer is the prior-optimal wait instead of the full deadline, and
        ``last_estimate`` reports the prior until the online fit takes
        over at ``min_samples`` arrivals. ``None`` (the default) keeps
        Pseudocode 1's cold start bit-for-bit.
    """

    def __init__(
        self,
        estimator: Estimator,
        optimizer: WaitOptimizer,
        k: int,
        deadline: float,
        min_samples: int = 2,
        reoptimize_every: int = 1,
        prior: Optional[Distribution] = None,
    ):
        if deadline <= 0.0:
            raise ConfigError(f"deadline must be positive, got {deadline}")
        if min_samples < estimator.min_samples:
            raise ConfigError(
                f"min_samples {min_samples} below estimator requirement "
                f"{estimator.min_samples}"
            )
        if reoptimize_every < 1:
            raise ConfigError(
                f"reoptimize_every must be >= 1, got {reoptimize_every}"
            )
        self._stream = StreamingEstimator(estimator, int(k))
        self._optimizer = optimizer
        self._k = int(k)
        self._received = 0
        self._deadline = float(deadline)
        self._min_samples = int(min_samples)
        self._reoptimize_every = int(reoptimize_every)
        # Pseudocode 1: SetTimer(D, TimerExpire) before any output arrives.
        self._stop = float(deadline)
        self._last_estimate: Optional[Distribution] = None
        if prior is not None:
            # Warm start: plan the timer from the prior immediately, as
            # if the distribution were known up front; online arrivals
            # overwrite both once `min_samples` have been observed.
            self._last_estimate = prior
            wait = self._optimizer.optimize(prior, self._k)
            self._stop = min(max(wait, 0.0), self._deadline)

    # ------------------------------------------------------------------
    @property
    def stop_time(self) -> float:
        return self._stop

    @property
    def n_received(self) -> int:
        return self._received

    @property
    def last_estimate(self) -> Optional[Distribution]:
        """Most recent fitted arrival distribution (None before warm-up)."""
        return self._last_estimate

    # ------------------------------------------------------------------
    def on_arrival(self, t: float) -> None:
        self._received += 1
        self._stream.observe(t)
        if self._received == self._k:
            # all outputs received: SetTimer(0) — ship immediately.
            self._stop = t
            return
        n = self._stream.n_observed
        if n < self._min_samples:
            return
        if (n - self._min_samples) % self._reoptimize_every != 0:
            return
        est = self._stream.estimate_distribution()
        self._last_estimate = est
        wait = self._optimizer.optimize(est, self._k)
        # the wait is measured from query start; never stop before `t`
        # (we are still processing this arrival) nor after the deadline.
        self._stop = min(max(wait, t), self._deadline)
