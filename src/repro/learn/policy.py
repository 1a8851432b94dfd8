"""Serving-side learned wait policy: one table lookup per decision.

:class:`LearnedWaitPolicy` is a drop-in :class:`~repro.core.WaitPolicy`
(and a :class:`~repro.serve.warmstart.CedarWarmPolicy`, so the serving
frontend's ``current_key``/``harvest`` hooks and warm-start store keep
working) whose bottom-level controllers answer every wait decision by

1. featurizing the live state — current regime estimate, arrivals so
   far, elapsed deadline fraction (:mod:`repro.learn.features`);
2. reading the trained wait fraction out of the
   :class:`~repro.learn.table.LearnedWaitTable` — **O(1)**: no
   CALCULATEWAIT sweep, no tail-grid build, not even on a cold bucket;
3. clamping to ``[now, deadline]``, exactly like the adaptive controller.

The lookup is *guarded*: when the observed state leaves the trained
envelope (out-of-distribution bucket) or the warm-start store just
recorded a drift reset for this workload key, the controller builds the
exact Cedar :class:`~repro.core.aggregator.AdaptiveController`, replays
every arrival it has seen into it, and delegates from then on — the
learned path can be wrong only where it was trained, never silently
outside it. Fallback counts are tracked per policy and surfaced in serve
reports.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from ..core.aggregator import AdaptiveController, AggregatorController
from ..core.policies import QueryContext
from ..core.quality import DEFAULT_GRID_POINTS
from ..core.waitbatch import WaitCacheLike
from ..distributions import Distribution
from ..errors import ConfigError
from ..estimation import Estimator, StreamingEstimator
from ..obs.profile import PROFILER
from ..serve.warmstart import CedarWarmPolicy, WarmStartStore
from .features import StateFeaturizer
from .table import LearnedWaitTable

__all__ = ["LearnedPolicyStats", "LearnedController", "LearnedWaitPolicy"]

#: fallback causes, as they appear in stats/report dicts.
FALLBACK_OOD = "ood"
FALLBACK_DRIFT = "drift_reset"


class LearnedPolicyStats:
    """Decision accounting for one policy instance."""

    __slots__ = ("decisions", "lookups", "fallbacks", "fallback_decisions", "reasons")

    def __init__(self) -> None:
        #: planning points: one up-front per controller plus one per arrival.
        self.decisions = 0
        #: decisions answered by a table lookup.
        self.lookups = 0
        #: controllers that switched to the exact Cedar fallback.
        self.fallbacks = 0
        #: decisions delegated to the fallback controller.
        self.fallback_decisions = 0
        self.reasons: dict[str, int] = {}

    @property
    def fallback_rate(self) -> float:
        return self.fallback_decisions / self.decisions if self.decisions else 0.0

    def count_fallback(self, reason: str) -> None:
        self.fallbacks += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def counters(self) -> dict[str, int]:
        """Flat integer view, fallback causes as ``reason:<cause>`` — the
        shape a serve run diffs against its run-start snapshot."""
        flat = {
            name: getattr(self, name)
            for name in ("decisions", "lookups", "fallbacks", "fallback_decisions")
        }
        for reason, count in self.reasons.items():
            flat[f"reason:{reason}"] = count
        return flat

    @classmethod
    def from_counters(cls, counters: Mapping[str, int]) -> "LearnedPolicyStats":
        """Inverse of :meth:`counters`; causes with a zero count (a
        per-run delta has them) are dropped."""
        stats = cls()
        for key, count in counters.items():
            if not key.startswith("reason:"):
                setattr(stats, key, count)
            elif count:
                stats.reasons[key.split(":", 1)[1]] = count
        return stats

    def as_dict(self) -> dict[str, object]:
        return {
            "decisions": self.decisions,
            "lookups": self.lookups,
            "fallbacks": self.fallbacks,
            "fallback_decisions": self.fallback_decisions,
            "fallback_rate": self.fallback_rate,
            "reasons": {k: self.reasons[k] for k in sorted(self.reasons)},
        }


class LearnedController(AggregatorController):
    """One aggregator's controller: table lookups with a guarded fallback.

    Mirrors :class:`~repro.core.aggregator.AdaptiveController`'s
    observable contract (``stop_time``/``n_received``/``last_estimate``)
    and its estimation cadence — the online fit takes over the regime
    estimate after ``min_samples`` arrivals, refreshed every
    ``reoptimize_every``-th — but plans each stop with one O(1) lookup
    instead of a wait sweep.
    """

    def __init__(
        self,
        table: LearnedWaitTable,
        featurizer: StateFeaturizer,
        k: int,
        deadline: float,
        regime: Optional[Distribution],
        estimator: Estimator,
        fallback_factory: Callable[[], AdaptiveController],
        stats: LearnedPolicyStats,
        min_samples: int = 2,
        reoptimize_every: int = 1,
        force_fallback: Optional[str] = None,
    ):
        if deadline <= 0.0:
            raise ConfigError(f"deadline must be positive, got {deadline}")
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        if min_samples < estimator.min_samples:
            raise ConfigError(
                f"min_samples {min_samples} below estimator requirement "
                f"{estimator.min_samples}"
            )
        if reoptimize_every < 1:
            raise ConfigError(
                f"reoptimize_every must be >= 1, got {reoptimize_every}"
            )
        self._table = table
        self._featurizer = featurizer
        self._k = int(k)
        self._deadline = float(deadline)
        self._stream = StreamingEstimator(estimator, int(k))
        self._min_samples = int(min_samples)
        self._reoptimize_every = int(reoptimize_every)
        self._fallback_factory = fallback_factory
        self._stats = stats
        self._received = 0
        self._stop = float(deadline)
        self._regime = regime
        self._initial_estimate = regime
        self._last_estimate: Optional[Distribution] = regime
        self._fallback: Optional[AdaptiveController] = None
        #: every arrival seen, in order — replayed into the fallback
        #: controller on activation and harvested by the policy.
        self.arrivals: list[float] = []

        self._stats.decisions += 1
        if force_fallback is not None:
            self._activate_fallback(force_fallback)
        else:
            self._plan(0.0)
        if self._fallback is not None:
            # the up-front decision was answered by the fallback (forced,
            # or the initial regime was already out of envelope).
            self._stats.fallback_decisions += 1

    # ------------------------------------------------------------------
    @property
    def stop_time(self) -> float:
        if self._fallback is not None:
            return self._fallback.stop_time
        return self._stop

    @property
    def n_received(self) -> int:
        return self._received

    @property
    def last_estimate(self) -> Optional[Distribution]:
        if self._fallback is not None:
            return self._fallback.last_estimate
        return self._last_estimate

    @property
    def fell_back(self) -> bool:
        return self._fallback is not None

    def online_estimate(self) -> Optional[Distribution]:
        """The fitted distribution if the *online* learner produced one
        (the injected prior/offline regime does not count)."""
        est = self.last_estimate
        return None if est is self._initial_estimate else est

    # ------------------------------------------------------------------
    def _activate_fallback(self, reason: str) -> None:
        fallback = self._fallback_factory()
        for t in self.arrivals:
            fallback.on_arrival(t)
        self._fallback = fallback
        self._stats.count_fallback(reason)

    def _plan(self, now: float) -> None:
        """One wait decision at absolute time ``now``: featurize, look
        the wait fraction up, clamp — or fall back when out of envelope."""
        mu = getattr(self._regime, "mu", None)
        sigma = getattr(self._regime, "sigma", None)
        if mu is None or sigma is None:
            self._activate_fallback(FALLBACK_OOD)
            return
        index = self._featurizer.state_index(
            float(mu),
            float(sigma),
            self._received,
            self._k,
            now,
            self._deadline,
        )
        if index is None:
            self._activate_fallback(FALLBACK_OOD)
            return
        tok = PROFILER.start()
        fraction = self._table.wait_fraction(index)
        PROFILER.stop("learn.policy.lookup", tok)
        self._stats.lookups += 1
        self._stop = min(max(fraction * self._deadline, now), self._deadline)

    def on_arrival(self, t: float) -> None:
        self._received += 1
        self.arrivals.append(t)
        self._stats.decisions += 1
        if self._fallback is not None:
            self._stats.fallback_decisions += 1
            self._fallback.on_arrival(t)
            return
        if not self._stream.complete:
            self._stream.observe(t)
        if self._received == self._k:
            # all outputs received: ship immediately, like Pseudocode 1.
            self._stop = t
            return
        n = self._stream.n_observed
        if (
            n >= self._min_samples
            and (n - self._min_samples) % self._reoptimize_every == 0
        ):
            est = self._stream.estimate_distribution()
            self._regime = est
            self._last_estimate = est
        self._plan(t)
        if self._fallback is not None:
            # this decision crossed the envelope: it was served by Cedar.
            self._stats.fallback_decisions += 1


class LearnedWaitPolicy(CedarWarmPolicy):
    """Cedar-compatible policy serving wait decisions from a trained table.

    Bottom-level aggregators get a :class:`LearnedController`; upper
    levels keep Cedar's static offline schedule (optionally through the
    shared :class:`~repro.core.waitbatch.WaitTableCache`). The warm-start
    store supplies the initial regime estimate per workload key and the
    drift-reset signal that forces a query onto the exact fallback.
    """

    name = "cedar-learned"

    def __init__(
        self,
        table: LearnedWaitTable,
        store: Optional[WarmStartStore] = None,
        estimator_factory: Optional[Callable[[], Estimator]] = None,
        grid_points: int = DEFAULT_GRID_POINTS,
        min_samples: int = 2,
        warm_min_samples: int = 5,
        reoptimize_every: int = 1,
        wait_cache: WaitCacheLike = None,
    ):
        super().__init__(
            store=store,
            estimator_factory=estimator_factory,
            grid_points=grid_points,
            min_samples=min_samples,
            warm_min_samples=warm_min_samples,
            reoptimize_every=reoptimize_every,
            wait_cache=wait_cache,
        )
        self.table = table
        self.stats = LearnedPolicyStats()
        self._featurizer = table.featurizer()
        self._seen_resets: dict[str, int] = {}

    # ------------------------------------------------------------------
    def controller(self, ctx: QueryContext, level: int) -> AggregatorController:
        if level != 1:
            return super().controller(ctx, level)
        key = self.current_key
        prior = self.store.prior(key)
        resets = self.store.resets_for(key)
        drifted = resets > self._seen_resets.get(key, 0)
        self._seen_resets[key] = resets
        effective_min = self._min_samples_for(prior)
        regime = (
            prior if prior is not None else ctx.offline_tree.stages[0].duration
        )
        controller = LearnedController(
            table=self.table,
            featurizer=self._featurizer,
            k=ctx.offline_tree.stages[0].fanout,
            deadline=ctx.deadline,
            regime=regime,
            estimator=self._estimator_factory(),
            fallback_factory=lambda: self._learning_controller(
                ctx, prior=prior, min_samples=effective_min
            ),
            stats=self.stats,
            min_samples=effective_min,
            reoptimize_every=self.reoptimize_every,
            force_fallback=FALLBACK_DRIFT if drifted else None,
        )
        self._bottom.append(controller)
        return controller

    # Its own attribute, not the inherited one: the wall-clock harness
    # (benchmarks/perf/trace.py) wraps each policy class's harvest by name.
    def harvest(self) -> None:
        """Feed the finished query's online estimates back into the store
        (same loop as :meth:`CedarWarmPolicy.harvest`)."""
        self._fold_bottom()
