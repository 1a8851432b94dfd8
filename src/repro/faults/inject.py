"""N-level query simulation under fault injection.

:func:`simulate_query_with_faults` is the shared tree walk of
:mod:`repro.simulation.query` run with a :class:`~repro.faults.FaultModel`:
arbitrary tree depths, the full fault-class catalog, and every fault
indicator drawn from a child stream (see the draw-order contract in
:mod:`repro.faults.model`) — so with every probability at zero the result
equals the fault-free simulator's on the same seed.

Failure semantics:

* a crashed worker's output never arrives (its duration becomes ``inf``);
* a straggler's duration is multiplied by ``straggler_factor``;
* a crashed aggregator (directly or via its fault domain) ships nothing —
  everything it collected is lost, at any level;
* a lost shipment vanishes between an aggregator and its parent;
* the root includes whatever still arrives by the deadline.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional

from ..core import QueryContext, WaitPolicy
from ..obs import MetricsRegistry, SpanTracer
from ..rng import SeedLike
from ..simulation.query import _walk_query
from .model import FaultModel

__all__ = ["FaultyQueryResult", "simulate_query_with_faults"]


class _FaultCounts:
    """What the faulty and hedged result types share: which fault counts
    make a result degraded (stragglers slow a query down but lose no data)."""

    crashed_aggregators: int
    lost_shipments: int
    crashed_workers: int
    failed_domains: int

    @property
    def degraded(self) -> bool:
        """Whether any data-losing fault fired on this query."""
        return bool(
            self.crashed_aggregators
            or self.lost_shipments
            or self.crashed_workers
            or self.failed_domains
        )


@dataclasses.dataclass(frozen=True)
class FaultyQueryResult(_FaultCounts):
    """Outcome of one query under fault injection."""

    quality: float
    included_outputs: int
    total_outputs: int
    crashed_aggregators: int
    lost_shipments: int
    crashed_workers: int = 0
    straggler_workers: int = 0
    failed_domains: int = 0
    #: per-level mean stop time (crashed aggregators included — the crash
    #: happens after the wait decision, so the stop is still meaningful).
    mean_stops: tuple[float, ...] = ()
    #: shipments that survived every fault but reached the root too late.
    late_at_root: int = 0
    #: virtual time at which the root's response was complete: the last
    #: on-time arrival if every shipment made it, else the deadline (the
    #: root cannot distinguish a crashed subtree from a slow one, so any
    #: missing or late shipment forces it to wait out the full budget).
    elapsed: float = 0.0


def simulate_query_with_faults(
    ctx: QueryContext,
    policy: WaitPolicy,
    faults: FaultModel,
    seed: SeedLike = None,
    tracer: Optional[SpanTracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    span_attrs: Optional[dict[str, Any]] = None,
) -> FaultyQueryResult:
    """Simulate one n-level query end-to-end under ``faults``.

    ``tracer``/``metrics`` are the observability hooks of
    :func:`repro.simulation.simulate_query`; here each aggregator span
    additionally carries the fault that destroyed its shipment (if any),
    and every fault class that fired increments
    ``cedar_faults_injected_total{kind=...}`` — so a degraded chaos run
    attributes each lost output to its cause.
    """
    result, tally = _walk_query(
        ctx,
        policy,
        seed,
        tracer=tracer,
        metrics=metrics,
        span_attrs=span_attrs,
        faults=faults,
    )
    return FaultyQueryResult(
        quality=result.quality,
        included_outputs=result.included_outputs,
        total_outputs=result.total_outputs,
        mean_stops=result.mean_stops,
        late_at_root=result.late_at_root,
        elapsed=result.elapsed,
        **vars(tally),
    )
