"""Simulate one aggregation query under a wait policy.

Semantics (matching the paper's model, Figure 5):

* Each bottom aggregator receives ``k1`` process outputs whose durations
  are i.i.d. draws from this query's true ``X1``.
* An aggregator processes arrivals chronologically; its controller may
  move the stop time after each arrival (Cedar does). Outputs arriving
  after the final stop time are dropped at that aggregator.
* When the aggregator stops (or everything arrived), it departs and takes
  a draw of the next stage's duration to combine + ship upstream.
* The root includes a subtree's payload iff it arrives by the deadline —
  a late aggregator loses *all* of its collected outputs, which is the
  crux of the hold-'em-or-fold-'em trade-off.
* Response quality = included process outputs / total processes.

:func:`_walk_query` is the one tree walk in the package: the fault
injector (:func:`repro.faults.simulate_query_with_faults`), the hedging
baseline (:func:`repro.serve.simulate_query_hedged`) and Cedar-guided
reissue (:func:`repro.simulation.simulate_query_with_reissue`) hand it a
:class:`~repro.faults.FaultModel` and/or a bottom-aggregator driver and
build their own result type from what it returns. The generator contract
it follows is written down in :mod:`repro.faults.model`.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, Optional

import numpy as np

from ..core import QueryContext, WaitPolicy
from ..core.aggregator import AggregatorController
from ..distributions import Distribution
from ..errors import SimulationError
from ..faults.model import FaultDraws, FaultModel, draw_faults
from ..obs.metrics import ERROR_BUCKETS, MetricsRegistry
from ..obs.span import (
    CAUSE_AGG_CRASHED,
    CAUSE_ALL_ARRIVED,
    CAUSE_DOMAIN_FAILED,
    CAUSE_INCLUDED,
    CAUSE_LATE_AT_ROOT,
    CAUSE_NEVER_ARRIVED,
    CAUSE_SHIP_LOST,
    CAUSE_TIMER_EXPIRED,
    Span,
    SpanTracer,
)
from ..rng import SeedLike, resolve_rng

__all__ = ["QueryResult", "simulate_query"]

#: Drives one bottom aggregator over its sorted arrival times, drawing any
#: duplicate requests from the given generator; returns (depart_time,
#: collected_payload, arrivals_seen).
_BottomDriver = Callable[
    [AggregatorController, np.ndarray, np.random.Generator],
    tuple[float, int, int],
]


def _estimate_params(
    controller: object,
) -> tuple[Optional[float], Optional[float]]:
    """(mu, sigma) of the controller's last online estimate, if any.

    Pure attribute reads — never perturbs the controller or the RNG, so
    observability code may call this freely.
    """
    est = getattr(controller, "last_estimate", None)
    if est is None:
        return None, None
    return getattr(est, "mu", None), getattr(est, "sigma", None)


def _observe_estimator_error(
    metrics: MetricsRegistry,
    policy_name: str,
    controller: AggregatorController,
    true_x1: Distribution,
) -> None:
    """Record |estimate - truth| for the online (mu, sigma) fit."""
    est_mu, est_sigma = _estimate_params(controller)
    true_mu = getattr(true_x1, "mu", None)
    true_sigma = getattr(true_x1, "sigma", None)
    if est_mu is None or true_mu is None:
        return
    metrics.histogram(
        "estimator_mu_abs_error",
        buckets=ERROR_BUCKETS,
        help="absolute error of the online mu estimate at fold time",
    ).observe(abs(est_mu - true_mu), policy=policy_name)
    if est_sigma is not None and true_sigma is not None:
        metrics.histogram(
            "estimator_sigma_abs_error",
            buckets=ERROR_BUCKETS,
            help="absolute error of the online sigma estimate at fold time",
        ).observe(abs(est_sigma - true_sigma), policy=policy_name)


@dataclasses.dataclass(frozen=True)
class QueryResult:
    """Outcome of one simulated query."""

    quality: float
    included_outputs: int
    total_outputs: int
    #: per-level mean stop time across that level's aggregators.
    mean_stops: tuple[float, ...]
    #: number of top-level shipments that arrived at the root too late
    #: (their entire collected payload was discarded).
    late_at_root: int
    #: virtual time at which the root's response was complete: the last
    #: on-time arrival when everything made it, else the deadline (the
    #: root cannot answer earlier — it must wait out stragglers).
    elapsed: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.quality <= 1.0:
            raise SimulationError(f"quality out of range: {self.quality}")


@dataclasses.dataclass
class _FaultTally:
    """Fault events that fired during one walk, keyed by the field names
    the faulty/hedged result types and the query span share."""

    crashed_aggregators: int = 0
    lost_shipments: int = 0
    crashed_workers: int = 0
    straggler_workers: int = 0
    failed_domains: int = 0


def _child_stream(rng: np.random.Generator) -> np.random.Generator:
    """A child stream spawned off the simulation generator's seed sequence:
    whatever it draws never perturbs the parent's duration draws (which
    is why spawning after those draws is safe here)."""
    return np.random.default_rng(rng.bit_generator.seed_seq.spawn(1)[0])


def _run_aggregator(
    controller: AggregatorController,
    arrivals: np.ndarray,
    payloads: Optional[np.ndarray] = None,
) -> tuple[float, int, int]:
    """Drive one aggregator; return (depart_time, collected_payload, seen).

    ``arrivals`` must be sorted ascending. ``payloads`` gives the process
    count carried by each arrival (None = 1 each, the bottom level).
    ``seen`` counts the arrivals accepted before the stop time — the
    tracer uses it to attribute dropped inputs to the fold.
    """
    k = arrivals.size
    collected = 0
    seen = 0
    for idx in range(k):
        t = float(arrivals[idx])
        if t > controller.stop_time:
            break
        controller.on_arrival(t)
        seen += 1
        collected += 1 if payloads is None else int(payloads[idx])
    stop = controller.stop_time
    if seen == k:
        # everything arrived: depart at the last arrival (SetTimer(0) on
        # numOutputs == k), never later than the planned stop.
        stop = min(stop, float(arrivals[-1])) if k > 0 else 0.0
    return stop, collected, seen


def _walk_query(
    ctx: QueryContext,
    policy: WaitPolicy,
    seed: SeedLike = None,
    agg_sample: Optional[int] = None,
    tracer: Optional[SpanTracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    span_attrs: Optional[dict[str, Any]] = None,
    faults: Optional[FaultModel] = None,
    bottom: Optional[_BottomDriver] = None,
) -> tuple[QueryResult, _FaultTally]:
    """Walk one query's tree bottom-up; every simulator entry point is
    this function plus a result type.

    ``faults`` switches on fault injection: worker crashes and straggler
    slowdowns edit the duration matrix, crashed/lost shipments never reach
    their parent, and the spans/metrics gain the fault attribution. With
    ``None`` no child stream is spawned and nothing fault-related is
    emitted. ``bottom`` replaces the plain hold-or-fold loop at level 1;
    it is handed the generator duplicates may draw from (the second child
    stream under ``faults``, else the simulation generator).
    """
    tree = ctx.true_tree if ctx.true_tree is not None else ctx.offline_tree
    rng = resolve_rng(seed)
    policy.begin_query(ctx)

    fanouts = tree.fanouts
    dists = tree.distributions
    n_stages = tree.n_stages
    deadline = ctx.deadline
    k1 = fanouts[0]

    # ---- how many aggregators are simulated at each level ------------
    n_bottom = tree.aggregators_at_level(1)
    simulated_bottom = n_bottom
    if agg_sample is not None and agg_sample < n_bottom:
        if agg_sample < 1:
            raise SimulationError(f"agg_sample must be >= 1, got {agg_sample}")
        # for deeper trees, keep whole parent groups so upper levels stay
        # well-formed; for two-level trees shipments feed the root directly
        # and any subset is a valid (unbiased) sample.
        group = fanouts[1] if n_stages > 2 else 1
        groups = max(1, agg_sample // group) if group > 1 else agg_sample
        candidate = groups * group
        if n_bottom % candidate == 0:
            simulated_bottom = candidate
    scale = n_bottom // simulated_bottom
    counts = [simulated_bottom]
    for level in range(2, n_stages):
        if counts[-1] % fanouts[level - 1]:
            raise SimulationError(
                f"level {level}: {counts[-1]} shipments not divisible by "
                f"fan-out {fanouts[level - 1]}"
            )
        counts.append(counts[-1] // fanouts[level - 1])
    if (
        faults is not None
        and faults.domains is not None
        and faults.domains.n_aggregators != simulated_bottom
    ):
        raise SimulationError(
            f"fault domain map covers {faults.domains.n_aggregators} "
            f"aggregators, tree has {simulated_bottom} bottom-level aggregators"
        )

    # ---- duration draws, then the fault and duplicate child streams ---
    durations = np.asarray(
        dists[0].sample((simulated_bottom, k1), seed=rng), dtype=float
    )
    ship_durations = [
        np.asarray(dists[level].sample(counts[level - 1], seed=rng), dtype=float)
        for level in range(1, n_stages)
    ]
    tally = _FaultTally()
    draws: Optional[FaultDraws] = None
    duplicate_rng = rng
    if faults is not None:
        fault_rng = _child_stream(rng)
        if bottom is not None:
            duplicate_rng = _child_stream(rng)
        draws = draw_faults(fault_rng, faults, simulated_bottom, k1, counts)
        tally.straggler_workers = int(np.count_nonzero(draws.stragglers))
        tally.crashed_workers = int(np.count_nonzero(draws.worker_crashes))
        tally.failed_domains = int(np.count_nonzero(draws.domain_failures))
        if faults.straggler_factor != 1.0:
            durations = np.where(
                draws.stragglers, durations * faults.straggler_factor, durations
            )
        durations = np.where(draws.worker_crashes, np.inf, durations)
        crashed_per_agg = np.count_nonzero(draws.worker_crashes, axis=1)
        if faults.domains is not None:
            domain_dead = draws.domain_failures[
                np.asarray(faults.domains.assignment, dtype=int)
            ]
        else:
            domain_dead = np.zeros(simulated_bottom, dtype=bool)
    durations = np.sort(durations, axis=1)

    # ---- spans: pre-build the tree skeleton top-down ------------------
    # (span ids are allocated in a fixed order, and filling attributes
    # later mutates the registered Span objects in place)
    query_span: Optional[Span] = None
    level_spans: list[list[Span]] = [[] for _ in counts]
    if tracer is not None:
        query_attrs: dict[str, Any] = {"policy": policy.name, "deadline": deadline}
        if faults is not None:
            query_attrs["faulty"] = True
        query_span = tracer.begin_span(
            "query", n_stages, None, 0.0, **query_attrs, **(span_attrs or {})
        )
        for level in range(n_stages - 1, 0, -1):
            for a in range(counts[level - 1]):
                if level == n_stages - 1:
                    parent = query_span.span_id
                else:
                    parent = level_spans[level][a // fanouts[level]].span_id
                level_spans[level - 1].append(
                    tracer.begin_span("aggregator", level, parent, 0.0, index=a)
                )

    # ---- levels 1 .. n-1: processes -> aggregators -> aggregators -----
    # `shipped[i]` is when level-(l-1) aggregator i's message reaches its
    # parent (inf when a fault destroyed it); `carried[i]` is its payload.
    shipped: list[float] = []
    carried: list[int] = []
    mean_stops: list[float] = []
    for level in range(1, n_stages):
        group = fanouts[level - 1]
        ship = ship_durations[level - 1]
        next_shipped: list[float] = []
        next_carried: list[int] = []
        stops_acc = 0.0
        for a in range(counts[level - 1]):
            controller = policy.controller(ctx, level)
            if level == 1:
                arrivals = durations[a]
                if bottom is None:
                    depart, payload, seen = _run_aggregator(controller, arrivals)
                else:
                    depart, payload, seen = bottom(
                        controller, arrivals, duplicate_rng
                    )
            else:
                batch = shipped[a * group : (a + 1) * group]
                order = np.argsort(batch, kind="stable")
                arrivals = np.array(batch)[order]
                payloads = np.array(carried[a * group : (a + 1) * group])[order]
                depart, payload, seen = _run_aggregator(
                    controller, arrivals, payloads
                )
            stops_acc += depart
            fault: Optional[str] = None
            if draws is not None:
                if draws.agg_crashes[level - 1][a]:
                    fault = CAUSE_AGG_CRASHED
                elif level == 1 and domain_dead[a]:
                    fault = CAUSE_DOMAIN_FAILED
                elif draws.ship_losses[level - 1][a]:
                    fault = CAUSE_SHIP_LOST
            if fault is None:
                next_shipped.append(depart + float(ship[a]))
                next_carried.append(payload)
            else:
                # a crashed aggregator (or dead domain) ships nothing; a
                # lost shipment vanishes on the way up
                next_shipped.append(math.inf)
                next_carried.append(0)
                if fault == CAUSE_SHIP_LOST:
                    tally.lost_shipments += 1
                else:
                    tally.crashed_aggregators += 1
            if tracer is not None:
                span = level_spans[level - 1][a]
                est_mu, est_sigma = _estimate_params(controller)
                span.end = depart
                span.attrs.update(
                    wait=depart,
                    n_arrived=seen,
                    dropped=group - seen,
                    collected=payload,
                    ship_arrival=next_shipped[-1] if fault is None else None,
                    cause=(
                        CAUSE_ALL_ARRIVED if seen == group else CAUSE_TIMER_EXPIRED
                    ),
                    est_mu=est_mu,
                    est_sigma=est_sigma,
                )
                if faults is not None:
                    span.attrs["fault"] = fault
                    if level == 1:
                        span.attrs["crashed_workers"] = int(crashed_per_agg[a])
                if level == 1 and tracer.record_workers:
                    for t in map(float, arrivals):
                        worker_attrs = {"included": bool(t <= depart)}
                        if faults is not None:
                            worker_attrs["crashed"] = t == math.inf
                        tracer.add_worker_span(
                            span.span_id,
                            0.0,
                            deadline if t == math.inf else t,
                            **worker_attrs,
                        )
            if metrics is not None:
                metrics.histogram(
                    "wait_fraction",
                    help="committed aggregator stop time as a fraction of "
                    "the deadline",
                ).observe(
                    min(1.0, depart / deadline),
                    policy=policy.name,
                    level=str(level),
                )
                if level == 1:
                    _observe_estimator_error(
                        metrics, policy.name, controller, dists[0]
                    )
        mean_stops.append(stops_acc / max(1, counts[level - 1]))
        shipped = next_shipped
        carried = next_carried

    # ---- root: include shipments arriving by the deadline -------------
    included = 0
    late_count = 0
    missing = 0
    last_arrival = 0.0
    for idx, arrival in enumerate(shipped):
        if arrival <= deadline:
            verdict = CAUSE_INCLUDED
            included += carried[idx]
            if arrival > last_arrival:
                last_arrival = arrival
        elif arrival != math.inf:
            verdict = CAUSE_LATE_AT_ROOT
            late_count += 1
        else:
            verdict = CAUSE_NEVER_ARRIVED
            missing += 1
        if tracer is not None:
            level_spans[-1][idx].attrs["root_verdict"] = verdict

    total_simulated = simulated_bottom * k1
    result = QueryResult(
        quality=included / total_simulated if total_simulated else 0.0,
        included_outputs=included * scale,
        total_outputs=tree.total_processes,
        mean_stops=tuple(mean_stops),
        late_at_root=late_count,
        # the root cannot tell a crashed subtree from a slow one, so any
        # missing or late shipment makes it wait out the full budget
        elapsed=deadline if (late_count or missing) else last_arrival,
    )
    if query_span is not None:
        query_span.end = deadline
        query_span.attrs.update(
            quality=result.quality,
            included_outputs=result.included_outputs,
            total_outputs=result.total_outputs,
            late_at_root=late_count,
        )
        if faults is not None:
            query_span.attrs.update(vars(tally))
    if metrics is not None:
        metrics.counter(
            "queries_total", help="simulated queries"
        ).inc(policy=policy.name)
        metrics.histogram(
            "response_quality", help="per-query response quality"
        ).observe(result.quality, policy=policy.name)
        metrics.counter(
            "deadline_misses_total",
            help="top-level shipments that reached the root after the deadline",
        ).inc(late_count, policy=policy.name)
        if faults is not None:
            faults_counter = metrics.counter(
                "faults_injected_total", help="fault events that fired, by kind"
            )
            for kind, n in (
                ("worker_crash", tally.crashed_workers),
                ("straggler", tally.straggler_workers),
                ("agg_crash", tally.crashed_aggregators),
                ("ship_loss", tally.lost_shipments),
                ("domain_failure", tally.failed_domains),
            ):
                if n:
                    faults_counter.inc(n, policy=policy.name, kind=kind)
        metrics.counter(
            "outputs_included_total", help="process outputs included at the root"
        ).inc(result.included_outputs, policy=policy.name)
        metrics.counter(
            "outputs_dropped_total",
            help="process outputs missing from the response, by cause",
        ).inc(
            result.total_outputs - result.included_outputs,
            policy=policy.name,
            cause="fold_or_late" if faults is None else "fault_fold_or_late",
        )
    return result, tally


def simulate_query(
    ctx: QueryContext,
    policy: WaitPolicy,
    seed: SeedLike = None,
    agg_sample: Optional[int] = None,
    tracer: Optional[SpanTracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    span_attrs: Optional[dict[str, Any]] = None,
) -> QueryResult:
    """Simulate one query end-to-end and return its response quality.

    ``agg_sample`` caps how many bottom-level subtrees are simulated; the
    quality estimate then uses only those subtrees (they are i.i.d., so
    this is an unbiased speedup for wide trees). ``None`` simulates all.

    ``tracer`` (a :class:`repro.obs.SpanTracer`) records one span per
    worker/aggregator plus a query root span; ``metrics`` (a
    :class:`repro.obs.MetricsRegistry`) accumulates wait/quality/
    estimator-error distributions. Both observe simulation time only and
    draw no randomness: a traced run is bit-identical to a bare run on
    the same seed. ``span_attrs`` merges extra attributes (e.g. a query
    index) into the query span.
    """
    return _walk_query(
        ctx, policy, seed, agg_sample, tracer, metrics, span_attrs
    )[0]
