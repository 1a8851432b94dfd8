"""Cross-query warm start: per-workload-key ``(mu, sigma)`` priors.

Cedar's online learner (§4.2) starts every query cold: the timer sits at
the full deadline until ``min_samples`` arrivals identify the
distribution, and the first few estimates are noisy. A serving frontend
sees the *same* workload over and over — the previous query's fitted
bottom-stage distribution is an excellent prior for the next one. The
:class:`WarmStartStore` keeps one exponentially-decayed ``(mu, sigma)``
pair per workload key, harvested from completed queries' online
estimates, and a :class:`~repro.estimation.DistributionTracker` window of
raw arrival durations per key for family-level drift diagnostics and as
a fallback prior before any online estimate exists.

Drift reset: when a completed query's estimate jumps more than
``drift_nsigmas`` standard deviations from the decayed prior (a regime
change, e.g. Figure 11's load step), the store discards the prior and the
tracker window instead of slowly averaging across two regimes.

:class:`CedarWarmPolicy` is Cedar with the store plugged in: bottom-level
controllers start from the prior-optimal wait (see
:class:`~repro.core.aggregator.AdaptiveController`'s ``prior``) and hold
it until ``warm_min_samples`` online arrivals take over — avoiding both
the cold deadline-sized timer and the noisy 2-sample estimates.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping, Optional

from ..core import QueryContext
from ..core.aggregator import AggregatorController
from ..core.policies import CedarPolicy
from ..core.quality import DEFAULT_GRID_POINTS
from ..core.waitbatch import WaitCacheLike
from ..distributions import Distribution, LogNormal
from ..errors import ConfigError
from ..estimation import DistributionTracker, Estimator
from ..obs.profile import PROFILER

__all__ = ["WarmStartStore", "CedarWarmPolicy"]


class _KeyState:
    """Decayed prior + raw-duration window for one workload key."""

    __slots__ = ("mu", "sigma", "tracker", "n_queries", "resets")

    def __init__(self, tracker: DistributionTracker) -> None:
        self.mu: Optional[float] = None
        self.sigma: Optional[float] = None
        self.tracker = tracker
        self.n_queries = 0
        self.resets = 0


class WarmStartStore:
    """Per-workload-key warm-start priors with decay and drift reset."""

    def __init__(
        self,
        decay: float = 0.3,
        drift_nsigmas: float = 3.0,
        sigma_floor: float = 0.05,
        tracker_window: int = 512,
        tracker_refit_every: int = 64,
        tracker_min_samples: int = 64,
    ):
        if not 0.0 < decay <= 1.0:
            raise ConfigError(f"decay must be in (0, 1], got {decay}")
        if drift_nsigmas <= 0.0:
            raise ConfigError(
                f"drift_nsigmas must be positive, got {drift_nsigmas}"
            )
        if sigma_floor <= 0.0:
            raise ConfigError(f"sigma_floor must be positive, got {sigma_floor}")
        self.decay = float(decay)
        self.drift_nsigmas = float(drift_nsigmas)
        self.sigma_floor = float(sigma_floor)
        self._tracker_args = (
            int(tracker_window),
            int(tracker_refit_every),
            int(tracker_min_samples),
        )
        self._states: dict[str, _KeyState] = {}

    # ------------------------------------------------------------------
    def _state(self, key: str) -> _KeyState:
        state = self._states.get(key)
        if state is None:
            window, refit_every, min_samples = self._tracker_args
            state = self._states[key] = _KeyState(
                DistributionTracker(
                    window=window,
                    refit_every=refit_every,
                    min_samples=min_samples,
                    candidates=("lognormal",),
                )
            )
        return state

    def prior(self, key: str) -> Optional[Distribution]:
        """Warm-start distribution for ``key`` (None = start cold)."""
        state = self._states.get(key)
        if state is None:
            return None
        if state.mu is not None and state.sigma is not None:
            return LogNormal(state.mu, max(state.sigma, self.sigma_floor))
        if state.tracker.ready:
            return state.tracker.current_distribution()
        return None

    # ------------------------------------------------------------------
    def observe_query(
        self,
        key: str,
        mus: list[float],
        sigmas: list[float],
        durations: Optional[list[float]] = None,
    ) -> None:
        """Fold one completed query's bottom-stage online estimates (and
        optionally its raw arrival durations) into the key's prior.

        ``mus``/``sigmas`` are the per-aggregator fitted parameters at
        fold time — already censoring-corrected by the order-statistic
        estimator, which is why the prior averages *estimates* rather
        than refitting the (stop-time-truncated) raw arrivals.
        """
        tok = PROFILER.start()
        state = self._state(key)
        state.n_queries += 1
        if durations:
            state.tracker.observe_many(
                [d for d in durations if math.isfinite(d) and d >= 0.0]
            )
        if mus and sigmas:
            mu_q = sum(mus) / len(mus)
            sigma_q = max(sum(sigmas) / len(sigmas), self.sigma_floor)
            if state.mu is None or state.sigma is None:
                state.mu, state.sigma = mu_q, sigma_q
            elif (
                abs(mu_q - state.mu)
                > self.drift_nsigmas * max(state.sigma, self.sigma_floor)
            ):
                # regime change: jump, don't average across two regimes.
                state.mu, state.sigma = mu_q, sigma_q
                state.tracker.reset()
                if durations:
                    state.tracker.observe_many(
                        [d for d in durations if math.isfinite(d) and d >= 0.0]
                    )
                state.resets += 1
            else:
                a = self.decay
                state.mu = (1.0 - a) * state.mu + a * mu_q
                state.sigma = max(
                    (1.0 - a) * state.sigma + a * sigma_q, self.sigma_floor
                )
        PROFILER.stop("serve.warmstart.observe", tok)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, dict[str, object]]:
        """Deterministic per-key state summary (for reports/tests)."""
        out: dict[str, dict[str, object]] = {}
        for key in sorted(self._states):
            state = self._states[key]
            out[key] = {
                "mu": state.mu,
                "sigma": state.sigma,
                "n_queries": state.n_queries,
                "resets": state.resets,
                "tracker_samples": state.tracker.n_samples,
                "tracker_refits": state.tracker.n_refits,
            }
        return out

    def resets_for(self, key: str) -> int:
        """Drift resets recorded for ``key`` so far (0 = never seen).

        The learned policy polls this per query: a freshly incremented
        counter means the regime just jumped, and the next query is served
        by the exact Cedar fallback instead of the (now stale-keyed)
        table lookup.
        """
        state = self._states.get(key)
        return 0 if state is None else state.resets

    @property
    def n_keys(self) -> int:
        return len(self._states)

    @property
    def total_resets(self) -> int:
        return sum(s.resets for s in self._states.values())

    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, object]:
        """JSON-serializable full state (priors, decay config, drift
        counters, and each key's tracker window) for checkpoints."""
        keys: dict[str, dict[str, object]] = {}
        for key in sorted(self._states):
            state = self._states[key]
            keys[key] = {
                "mu": state.mu,
                "sigma": state.sigma,
                "n_queries": state.n_queries,
                "resets": state.resets,
                "tracker": state.tracker.state_dict(),
            }
        return {
            "decay": self.decay,
            "drift_nsigmas": self.drift_nsigmas,
            "sigma_floor": self.sigma_floor,
            "tracker_args": list(self._tracker_args),
            "keys": keys,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "WarmStartStore":
        """Rebuild a store bit-identically from :meth:`state_dict`."""
        window, refit_every, min_samples = (
            int(v) for v in state["tracker_args"]
        )
        store = cls(
            decay=float(state["decay"]),
            drift_nsigmas=float(state["drift_nsigmas"]),
            sigma_floor=float(state["sigma_floor"]),
            tracker_window=window,
            tracker_refit_every=refit_every,
            tracker_min_samples=min_samples,
        )
        for key, entry in state["keys"].items():
            key_state = _KeyState(
                DistributionTracker.from_state(entry["tracker"])
            )
            mu = entry["mu"]
            sigma = entry["sigma"]
            key_state.mu = float(mu) if mu is not None else None
            key_state.sigma = float(sigma) if sigma is not None else None
            key_state.n_queries = int(entry["n_queries"])
            key_state.resets = int(entry["resets"])
            store._states[str(key)] = key_state
        return store


class CedarWarmPolicy(CedarPolicy):
    """Cedar with cross-query warm start from a :class:`WarmStartStore`.

    The serving frontend sets :attr:`current_key` before each query and
    calls :meth:`harvest` after it completes; outside a server this works
    like :class:`~repro.core.CedarPolicy` with an extra memory.
    """

    name = "cedar-warm"

    def __init__(
        self,
        store: Optional[WarmStartStore] = None,
        estimator_factory: Optional[Callable[[], Estimator]] = None,
        grid_points: int = DEFAULT_GRID_POINTS,
        min_samples: int = 2,
        warm_min_samples: int = 5,
        reoptimize_every: int = 1,
        wait_cache: WaitCacheLike = None,
    ):
        super().__init__(
            estimator_factory=estimator_factory,
            grid_points=grid_points,
            min_samples=min_samples,
            reoptimize_every=reoptimize_every,
            wait_cache=wait_cache,
        )
        if warm_min_samples < 2:
            raise ConfigError(
                f"warm_min_samples must be >= 2, got {warm_min_samples}"
            )
        self.store = store if store is not None else WarmStartStore()
        self.warm_min_samples = int(warm_min_samples)
        self.current_key = "default"
        #: this query's bottom-level controllers, folded back by harvest.
        self._bottom: list[Any] = []

    def begin_query(self, ctx: QueryContext) -> None:
        super().begin_query(ctx)
        self._bottom = []

    def _min_samples_for(self, prior: Optional[Distribution]) -> int:
        """Arrivals before the online fit takes over: a prior is held
        until ``warm_min_samples``; a cold start uses ``min_samples``."""
        return self.warm_min_samples if prior is not None else self.min_samples

    def controller(self, ctx: QueryContext, level: int) -> AggregatorController:
        if level != 1:
            return super().controller(ctx, level)
        prior = self.store.prior(self.current_key)
        controller = self._learning_controller(
            ctx, prior=prior, min_samples=self._min_samples_for(prior)
        )
        self._bottom.append(controller)
        return controller

    def _fold_bottom(self) -> None:
        """Feed this query's bottom controllers - their arrivals and
        online estimates - back into the store, for the current key."""
        mus: list[float] = []
        sigmas: list[float] = []
        durations: list[float] = []
        for controller in self._bottom:
            durations.extend(controller.arrivals)
            est = controller.online_estimate()
            mu = getattr(est, "mu", None)
            sigma = getattr(est, "sigma", None)
            if mu is not None and sigma is not None:
                mus.append(float(mu))
                sigmas.append(float(sigma))
        self._bottom = []
        self.store.observe_query(
            self.current_key, mus, sigmas, durations=durations
        )

    def harvest(self) -> None:
        """Feed the just-finished query's estimates back into the store."""
        self._fold_bottom()
