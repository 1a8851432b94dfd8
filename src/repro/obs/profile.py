"""Profiling hooks for the hot paths (observability subsystem).

Cedar's pitch is that CALCULATEWAIT "completes within tens of
milliseconds"; this module makes that claim *measurable* without taxing
the paths it measures. The pattern is a token-based start/stop pair::

    tok = PROFILER.start()
    ... hot work ...
    PROFILER.stop("core.wait.sweep", tok)

When profiling is disabled (the default) :meth:`Profiler.start` returns
``None`` after a single attribute check and :meth:`Profiler.stop` is an
immediate no-op — no clock read, no allocation, no dict lookup — so the
instrumented code costs one branch per call site. Timings never feed
back into any decision, so enabling the profiler cannot perturb a
seeded run (determinism is asserted by the bit-identity tests).
"""

from __future__ import annotations

import time
from typing import Optional

__all__ = ["Profiler", "ProfileStat", "PROFILER", "KNOWN_PROFILE_SITES"]

#: every profiling site name in the codebase. ``Profiler.stop`` accepts
#: any string (it must stay zero-overhead), so a typo at a call site
#: silently splits one site's timings into two rows; cedarlint rule
#: CDR006 checks literal site names against this set. Add new sites here
#: in the same change that instruments them.
KNOWN_PROFILE_SITES = frozenset(
    {
        "core.quality.tail_grid",
        "core.wait.calculate_wait",
        "core.wait.sweep",
        "core.waitbatch.lookup",
        "core.waitbatch.solve",
        "estimation.streaming.estimate",
        "learn.policy.lookup",
        "learn.train.iteration",
        "serve.admission.offer",
        "serve.degrade.decide",
        "serve.dispatch",
        "serve.hedge.query",
        "serve.shard.checkpoint",
        "serve.shard.merge",
        "serve.shard.route",
        "serve.waitcache.prewarm",
        "serve.warmstart.observe",
    }
)


class ProfileStat:
    """Aggregated timings for one named site."""

    __slots__ = ("calls", "total", "max")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.max = 0.0

    @property
    def mean(self) -> float:
        """Mean seconds per call."""
        return self.total / self.calls if self.calls else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "calls": self.calls,
            "total_s": self.total,
            "mean_s": self.mean,
            "max_s": self.max,
        }


class Profiler:
    """Named wall-time accumulator with a zero-overhead disabled state.

    Wall-clock reads happen only here, never in the simulation's decision
    path: the measured code's *outputs* remain bit-identical whether the
    profiler is on or off.
    """

    __slots__ = ("enabled", "_stats")

    def __init__(self) -> None:
        self.enabled = False
        self._stats: dict[str, ProfileStat] = {}

    # ------------------------------------------------------------------
    def enable(self) -> None:
        """Start collecting timings."""
        self.enabled = True

    def disable(self) -> None:
        """Stop collecting timings (recorded stats are kept)."""
        self.enabled = False

    def reset(self) -> None:
        """Drop all recorded stats."""
        self._stats.clear()

    # ------------------------------------------------------------------
    def start(self) -> Optional[float]:
        """Begin one timing; ``None`` (and no clock read) when disabled."""
        if not self.enabled:
            return None
        return time.perf_counter()

    def stop(self, name: str, token: Optional[float]) -> None:
        """Finish the timing opened by :meth:`start` under ``name``."""
        if token is None:
            return
        elapsed = time.perf_counter() - token
        stat = self._stats.get(name)
        if stat is None:
            stat = self._stats[name] = ProfileStat()
        stat.calls += 1
        stat.total += elapsed
        if elapsed > stat.max:
            stat.max = elapsed

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, dict[str, float]]:
        """Per-site aggregates, keyed by site name."""
        return {name: stat.as_dict() for name, stat in sorted(self._stats.items())}

    def report(self) -> str:
        """Monospace table of the snapshot (for the CLI)."""
        if not self._stats:
            return "(no profile samples recorded)"
        rows = [
            (
                name,
                stat.calls,
                stat.total * 1e3,
                stat.mean * 1e6,
                stat.max * 1e3,
            )
            for name, stat in sorted(self._stats.items())
        ]
        width = max(len(r[0]) for r in rows)
        lines = [
            f"{'site':<{width}}  {'calls':>8}  {'total ms':>10}  "
            f"{'mean us':>10}  {'max ms':>9}"
        ]
        for name, calls, total_ms, mean_us, max_ms in rows:
            lines.append(
                f"{name:<{width}}  {calls:>8}  {total_ms:>10.2f}  "
                f"{mean_us:>10.1f}  {max_ms:>9.3f}"
            )
        return "\n".join(lines)


#: process-wide profiler all hot paths report to (disabled by default).
PROFILER = Profiler()
