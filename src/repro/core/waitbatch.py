"""Batched CALCULATEWAIT and the cross-query wait-table cache.

At serving scale the per-query cost of Pseudocode 2 is not the sweep
itself (already a vectorized ``O(m)`` pass in
:func:`~repro.core.quality.sweep_wait`) but its *multiplicity*: every
dispatch sees a different remaining deadline, so every query rebuilds an
``O(levels * m^2)`` tail grid and every arrival re-runs its own sweep.
This module removes the multiplicity in two moves:

* :class:`BatchWaitSolver` evaluates the gain/loss sweep for **all**
  in-flight queries as one ``(N, m+1)`` numpy grid operation. Row ``i``
  performs exactly the element-wise operations of
  :func:`~repro.core.quality.sweep_wait` on distribution ``i``, so the
  batched waits are bit-identical to the scalar path (asserted by the
  Hypothesis suite in ``tests/core/test_waitbatch_properties.py``).
* :class:`WaitTableCache` memoizes solves across queries, keyed on
  quantized ``(mu, sigma, deadline, fanout)`` buckets. A lookup maps its
  parameters to the bucket representative, solves **once** at the
  representative, and returns that exact value on every subsequent hit —
  a hit can therefore never change an admitted query's terminal outcome
  (it returns the same float a miss would have). The quality cost of
  answering from the representative instead of the exact parameters is
  bounded by the bucket widths and pinned empirically in
  ``benchmarks/BENCH_waitpath.json``.

The cache is thread-safe (one :class:`threading.RLock` guards all state,
the same pattern as :class:`~repro.estimation.DistributionTracker`) so
concurrent queries in one serving process can share it.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from typing import Optional, Sequence, Union

import numpy as np
from scipy import special

from ..distributions import Distribution, LogNormal
from ..errors import ConfigError
from ..obs.profile import PROFILER
from . import quantize
from .config import Stage, TreeSpec
from .quality import DEFAULT_GRID_POINTS, QualityGrid, tail_quality_grid
from .wait import WaitOptimizer, WaitSchedule, wait_schedule

__all__ = [
    "WaitCacheConfig",
    "BatchWaitSolver",
    "WaitTableCache",
    "CachedWaitOptimizer",
]

_SQRT2 = math.sqrt(2.0)

#: cache keys quantize parameters to integer buckets; a bucket key is the
#: rounded ratio parameter/step, and the representative the cache solves
#: at is bucket * step.
_LOGNORMAL = "lognormal"


@dataclasses.dataclass(frozen=True)
class WaitCacheConfig:
    """Quantization steps of the :class:`WaitTableCache` buckets.

    ``mu_step``/``sigma_step`` are absolute widths in log-duration space
    (the natural scale for log-normal parameters). ``deadline_rel_step``
    buckets deadlines multiplicatively: two deadlines within a factor of
    ``1 + deadline_rel_step`` of each other share a tail grid — this is
    where the serving win comes from, since every dispatch otherwise
    carries a unique remaining deadline. ``prewarm`` lets the serve loop
    batch-solve the buckets of queued queries per tick; turning it off
    solves the same buckets one at a time on the hot path instead, with
    byte-identical outcomes (asserted in the serve identity tests).
    """

    mu_step: float = 0.1
    sigma_step: float = 0.1
    deadline_rel_step: float = 0.02
    prewarm: bool = True

    def __post_init__(self) -> None:
        if self.mu_step <= 0.0:
            raise ConfigError(f"mu_step must be positive, got {self.mu_step}")
        if self.sigma_step <= 0.0:
            raise ConfigError(
                f"sigma_step must be positive, got {self.sigma_step}"
            )
        if self.deadline_rel_step <= 0.0:
            raise ConfigError(
                "deadline_rel_step must be positive, got "
                f"{self.deadline_rel_step}"
            )


class BatchWaitSolver:
    """One tail grid, many bottom-stage sweeps — as a single matrix op.

    Construct per (upper-tree tail, deadline); :meth:`solve` then answers
    the optimal wait for ``N`` bottom distributions at once. The sweep is
    the exact arithmetic of :func:`~repro.core.quality.sweep_wait`
    broadcast over rows, including the argmax tie-break toward the longer
    wait, so each row is bit-identical to the scalar optimizer.
    """

    def __init__(
        self,
        tail_stages: Sequence[Stage],
        deadline: float,
        grid_points: int = DEFAULT_GRID_POINTS,
    ):
        if deadline <= 0.0:
            raise ConfigError(f"deadline must be positive, got {deadline}")
        self.deadline = float(deadline)
        self.tail_stages = tuple(tail_stages)
        self.grid_points = int(grid_points)
        self.tail: QualityGrid = tail_quality_grid(
            self.tail_stages, self.deadline, self.grid_points
        )
        self._grid = np.arange(len(self.tail.values)) * self.tail.epsilon

    @property
    def epsilon(self) -> float:
        """Grid step of the sweep."""
        return self.tail.epsilon

    # ------------------------------------------------------------------
    def _cdf_rows(self, dists: Sequence[Distribution]) -> np.ndarray:
        """CDF matrix ``F[i, j] = F_i(j * eps)``, clipped to [0, 1].

        Log-normal-only batches take a fully vectorized path that mirrors
        :meth:`repro.distributions.LogNormal.cdf` operation-for-operation
        (one ``log`` of the shared grid, broadcast normalize, one
        ``erf``), so it produces the same bits as the per-distribution
        path while touching Python once per *batch* instead of per query.
        """
        if all(isinstance(d, LogNormal) for d in dists):
            grid = self._grid
            mus = np.asarray([d.mu for d in dists], dtype=float)
            sigmas = np.asarray([d.sigma for d in dists], dtype=float)
            out = np.zeros((len(dists), len(grid)))
            pos = grid > 0.0
            lg = np.log(grid, where=pos, out=np.zeros_like(grid))
            z = (lg[None, :] - mus[:, None]) / sigmas[:, None]
            out[:, pos] = 0.5 * (1.0 + special.erf(z[:, pos] / _SQRT2))
            return np.clip(out, 0.0, 1.0)
        return np.stack(
            [
                np.clip(np.asarray(d.cdf(self._grid), dtype=float), 0.0, 1.0)
                for d in dists
            ]
        )

    def sweep_batch(
        self,
        dists: Sequence[Distribution],
        ks: Sequence[int],
        gain_discount: float = 1.0,
    ) -> np.ndarray:
        """Accumulated net-quality curves, shape ``(N, m+1)``.

        Row ``i`` equals ``sweep_wait(dists[i], ks[i], tail).quality``
        bit-for-bit: the gains/losses/cumsum below are the same
        element-wise float operations applied along axis 1.
        """
        if len(dists) != len(ks):
            raise ConfigError(
                f"got {len(dists)} distributions but {len(ks)} fan-outs"
            )
        if len(dists) == 0:
            return np.zeros((0, len(self.tail.values)))
        for k in ks:
            if k < 1:
                raise ConfigError(f"k1 must be >= 1, got {k}")
        if not 0.0 < gain_discount <= 1.0:
            raise ConfigError(
                f"gain_discount must be in (0, 1], got {gain_discount}"
            )
        tok = PROFILER.start()
        q_tail = self.tail.values
        f = self._cdf_rows(dists)
        kcol = np.asarray([int(k) for k in ks])[:, None]
        held = f - f**kcol
        q_rev = q_tail[::-1]
        gains = gain_discount * np.diff(f, axis=1) * q_rev[None, 1:]
        losses = held[:, :-1] * (q_rev[None, :-1] - q_rev[None, 1:])
        net = np.concatenate(
            [np.zeros((len(dists), 1)), np.cumsum(gains - losses, axis=1)],
            axis=1,
        )
        PROFILER.stop("core.waitbatch.solve", tok)
        return net

    def solve(
        self,
        dists: Sequence[Distribution],
        ks: Sequence[int],
        gain_discount: float = 1.0,
    ) -> np.ndarray:
        """Optimal wait per row, ties toward the longer wait — the batch
        form of :attr:`~repro.core.quality.WaitCurve.optimal_index`."""
        net = self.sweep_batch(dists, ks, gain_discount)
        if net.shape[0] == 0:
            return np.zeros(0)
        idx = net.shape[1] - 1 - np.argmax(net[:, ::-1], axis=1)
        return idx * self.tail.epsilon


# ----------------------------------------------------------------------
class _CacheStats:
    __slots__ = ("hits", "misses", "uncached", "batch_solves", "solved_rows")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        #: exact solves for parameters the cache does not quantize
        #: (non-log-normal bottom distributions).
        self.uncached = 0
        #: vectorized multi-bucket solve calls issued by prewarm.
        self.batch_solves = 0
        #: total bucket representatives solved (singly or batched).
        self.solved_rows = 0


class WaitTableCache:
    """Cross-query memo of optimal waits over quantized parameter buckets.

    One instance is meant to be shared process-wide (or per
    :class:`~repro.serve.CedarServer`): every policy/controller wired to
    it maps its ``(mu, sigma, deadline, fanout)`` onto a bucket, and
    concurrent queries in similar regimes reuse each other's solves.
    Misses solve at the bucket *representative* — hits return the
    identical float, so caching can shift a wait by at most the
    quantization resolution and can never make two lookups of the same
    regime disagree.

    Thread safety: all state is guarded by one re-entrant lock, the
    :class:`~repro.estimation.DistributionTracker` pattern; the
    concurrency suite hammers one instance from many threads and asserts
    torn-read freedom and determinism.
    """

    def __init__(self, config: Optional[WaitCacheConfig] = None):
        self.config = config if config is not None else WaitCacheConfig()
        self._lock = threading.RLock()
        self._waits: dict[tuple, float] = {}
        self._schedules: dict[tuple, WaitSchedule] = {}
        self._solvers: dict[tuple, BatchWaitSolver] = {}
        self._stats = _CacheStats()

    # -- quantization (shared arithmetic: repro.core.quantize) ---------
    def _deadline_bucket(self, deadline: float) -> int:
        return quantize.deadline_bucket(deadline, self.config.deadline_rel_step)

    def deadline_representative(self, deadline: float) -> float:
        """The deadline the cache actually solves at for ``deadline``."""
        return quantize.deadline_representative(
            deadline, self.config.deadline_rel_step
        )

    def _bucket(self, dist: LogNormal) -> tuple[str, int, int]:
        mu_b, sigma_b = quantize.lognormal_bucket(
            dist, self.config.mu_step, self.config.sigma_step
        )
        return (_LOGNORMAL, mu_b, sigma_b)

    def representative(self, dist: LogNormal) -> LogNormal:
        """The bucket-representative distribution solved for ``dist``."""
        return quantize.lognormal_representative(
            dist, self.config.mu_step, self.config.sigma_step
        )

    # -- solver pool ---------------------------------------------------
    def _solver_key(
        self, tail_stages: tuple[Stage, ...], deadline: float, grid_points: int
    ) -> tuple[object, ...]:
        return (tail_stages, self._deadline_bucket(deadline), int(grid_points))

    def _solver(
        self, tail_stages: tuple[Stage, ...], deadline: float, grid_points: int
    ) -> BatchWaitSolver:
        key = self._solver_key(tail_stages, deadline, grid_points)
        found = self._solvers.get(key)
        if found is None:
            found = BatchWaitSolver(
                tail_stages, self.deadline_representative(deadline), grid_points
            )
            self._solvers[key] = found
        return found

    # -- lookups -------------------------------------------------------
    def wait_for(
        self,
        tail_stages: Sequence[Stage],
        deadline: float,
        dist: Distribution,
        k: int,
        grid_points: int = DEFAULT_GRID_POINTS,
    ) -> float:
        """Optimal wait for bottom stage ``(dist, k)`` under ``deadline``.

        Log-normal parameters are quantized onto the bucket grid and the
        bucket representative is solved once; other families are solved
        exactly (and not memoized — the serving path only produces
        log-normals). Callers clamp the result to their actual remaining
        deadline, as the representative deadline may differ by up to one
        relative step.
        """
        if deadline <= 0.0:
            return 0.0
        if k < 1:
            raise ConfigError(f"k1 must be >= 1, got {k}")
        tok = PROFILER.start()
        stages = tuple(tail_stages)
        try:
            with self._lock:
                solver = self._solver(stages, deadline, grid_points)
                if not isinstance(dist, LogNormal):
                    self._stats.uncached += 1
                    self._stats.solved_rows += 1
                    return float(solver.solve([dist], [int(k)])[0])
                key = self._solver_key(stages, deadline, grid_points) + (
                    int(k),
                    self._bucket(dist),
                )
                found = self._waits.get(key)
                if found is not None:
                    self._stats.hits += 1
                    return found
                self._stats.misses += 1
                self._stats.solved_rows += 1
                rep = self.representative(dist)
                wait = float(solver.solve([rep], [int(k)])[0])
                self._waits[key] = wait
                return wait
        finally:
            PROFILER.stop("core.waitbatch.lookup", tok)

    def prewarm(
        self,
        entries: Sequence[
            tuple[Sequence[Stage], float, Distribution, int, int]
        ],
    ) -> int:
        """Batch-solve the buckets of ``entries`` that are not yet cached.

        Each entry is ``(tail_stages, deadline, dist, k, grid_points)``.
        Missing buckets are grouped per solver (tail x deadline bucket x
        resolution) and solved as one ``(N, m+1)`` grid operation. The
        values stored are exactly what :meth:`wait_for` would have
        computed one at a time, so prewarming changes CPU cost only,
        never outcomes. Returns the number of buckets solved.
        """
        groups: dict[tuple, dict[tuple, LogNormal]] = {}
        with self._lock:
            for tail_stages, deadline, dist, k, grid_points in entries:
                if deadline <= 0.0 or k < 1:
                    continue
                if not isinstance(dist, LogNormal):
                    continue
                stages = tuple(tail_stages)
                skey = self._solver_key(stages, deadline, grid_points)
                key = skey + (int(k), self._bucket(dist))
                if key in self._waits:
                    continue
                group = groups.setdefault(skey, {})
                if key not in group:
                    group[key] = self.representative(dist)
                    # the solver must exist before the batched solve
                    self._solver(stages, deadline, grid_points)
            solved = 0
            for skey in sorted(groups, key=repr):
                group = groups[skey]
                keys = list(group)
                reps = [group[key] for key in keys]
                ks = [int(key[-2]) for key in keys]
                waits = self._solvers[skey].solve(reps, ks)
                for key, wait in zip(keys, waits):
                    self._waits[key] = float(wait)
                self._stats.batch_solves += 1
                self._stats.misses += len(keys)
                self._stats.solved_rows += len(keys)
                solved += len(keys)
        return solved

    def schedule_for(
        self,
        tree: TreeSpec,
        deadline: float,
        grid_points: int = DEFAULT_GRID_POINTS,
    ) -> WaitSchedule:
        """Upper-level static schedule, shared across deadline buckets.

        The serving path otherwise re-solves the full multi-level
        schedule for every distinct remaining deadline; bucketing the
        deadline collapses that to one solve per bucket. Stop times may
        exceed the true deadline by up to one relative step — callers
        clamp per level, exactly as they already clamp exact schedules.
        """
        if deadline <= 0.0:
            return WaitSchedule(
                stops=tuple(0.0 for _ in range(tree.n_aggregator_levels)),
                expected_quality=0.0,
            )
        with self._lock:
            key = (tree.stages, self._deadline_bucket(deadline), int(grid_points))
            found = self._schedules.get(key)
            if found is not None:
                self._stats.hits += 1
                return found
            self._stats.misses += 1
            sched = wait_schedule(
                tree, self.deadline_representative(deadline), grid_points
            )
            self._schedules[key] = sched
            return sched

    # -- diagnostics ---------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Deterministically-ordered counters (hits, misses, sizes)."""
        with self._lock:
            return {
                "batch_solves": self._stats.batch_solves,
                "hits": self._stats.hits,
                "misses": self._stats.misses,
                "schedule_entries": len(self._schedules),
                "solved_rows": self._stats.solved_rows,
                "solver_builds": len(self._solvers),
                "uncached": self._stats.uncached,
                "wait_entries": len(self._waits),
            }

    def clear(self) -> None:
        """Drop all cached solves and counters."""
        with self._lock:
            self._waits.clear()
            self._schedules.clear()
            self._solvers.clear()
            self._stats = _CacheStats()

    def max_abs_error_vs(
        self,
        optimizer: WaitOptimizer,
        k: int,
        mu_range: tuple[float, float],
        sigma_range: tuple[float, float],
        probe_points: int = 64,
        seed: int = 0,
    ) -> float:
        """Max |cached - exact| wait over random in-range probes.

        The cached answer comes from the bucket representative at the
        bucket deadline; the exact one from ``optimizer`` at the probe
        parameters — so this measures the full quantization error.
        """
        if not mu_range[0] < mu_range[1]:
            raise ConfigError(f"bad mu_range {mu_range}")
        if not 0.0 < sigma_range[0] < sigma_range[1]:
            raise ConfigError(f"bad sigma_range {sigma_range}")
        rng = np.random.default_rng(seed)
        mus = rng.uniform(mu_range[0], mu_range[1], probe_points)
        sigmas = rng.uniform(sigma_range[0], sigma_range[1], probe_points)
        worst = 0.0
        for mu, sigma in zip(mus, sigmas):
            dist = LogNormal(float(mu), float(sigma))
            exact = optimizer.optimize(dist, k)
            cached = self.wait_for(
                optimizer.tail_stages,
                optimizer.deadline,
                dist,
                k,
                optimizer.grid_points,
            )
            worst = max(worst, abs(exact - cached))
        return worst


class CachedWaitOptimizer(WaitOptimizer):
    """Drop-in :class:`~repro.core.wait.WaitOptimizer` answering
    :meth:`optimize` from a shared :class:`WaitTableCache`.

    Construction is cheap — the exact tail grid is only built if the
    exact :meth:`curve` path is ever used (diagnostics, failure-aware
    sweeps); the hot :meth:`optimize` path quantizes and delegates.
    """

    def __init__(
        self,
        tail_stages: Sequence[Stage],
        deadline: float,
        grid_points: int = DEFAULT_GRID_POINTS,
        cache: Optional[WaitTableCache] = None,
    ):
        super().__init__(tail_stages, deadline, grid_points)
        self.cache = cache if cache is not None else WaitTableCache()

    def optimize(self, x1: Distribution, k1: int) -> float:
        return self.cache.wait_for(
            self.tail_stages, self.deadline, x1, k1, self.grid_points
        )


#: type accepted by policies for their ``wait_cache`` knob.
WaitCacheLike = Union[WaitTableCache, WaitCacheConfig, None]


def as_wait_cache(value: WaitCacheLike) -> Optional[WaitTableCache]:
    """Normalize a policy ``wait_cache`` argument to a cache instance."""
    if value is None or isinstance(value, WaitTableCache):
        return value
    return WaitTableCache(value)
