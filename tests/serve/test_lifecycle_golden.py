"""Golden pin of the serving request lifecycle, end to end.

Every way a request can travel through ``CedarServer`` — admitted and
answered, shed at the door, shed stale at dispatch, retried and answered
with the best attempt, retried and shed with an answer in hand, served
under brownout, refused by an open breaker, hedged, planned from the wait
cache or the learned table, re-dispatched after a shard kill — must keep
producing the same report JSON (outcomes included), the same span JSONL
and the same metrics JSON for a given seed. The pinned benches cover most
of these paths too, but only through derived summary numbers; this file
pins the bytes.

Each scenario x seed stores three sha256 digests. The coverage test at
the bottom keeps the scenarios honest: it re-derives from the report and
the trace that the paths named above really are taken.

To bless an intentional change::

    pytest tests/serve/test_lifecycle_golden.py --update-goldens
"""

import collections
import functools
import hashlib
import itertools
import json
import pathlib

import pytest

from repro.core.waitbatch import WaitCacheConfig
from repro.faults import FaultModel
from repro.obs import MetricsRegistry, SpanTracer
from repro.serve import (
    MODE_BROWNOUT,
    MODE_CIRCUIT_OPEN,
    SHED_CIRCUIT_OPEN,
    SHED_INFEASIBLE,
    SHED_QUEUE_FULL,
    SHED_STALE,
    CedarServer,
    DegradeConfig,
    FaultSchedule,
    FaultWindow,
    HedgingPolicy,
    ServeConfig,
    ShardConfig,
    ShardKill,
    ShardKillSchedule,
    ShardSupervisor,
    pinned_fault_schedule,
    pinned_hedging_config,
    pinned_workload,
)
from repro.serve.bench import pinned_requests

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "lifecycle.json"
OFFLINE = pinned_workload().offline_tree()
DEADLINE = 60.0
SEEDS = (1, 2)


def _base(**overrides) -> ServeConfig:
    knobs = dict(
        max_concurrent=4,
        max_queue=4,
        min_deadline_fraction=0.3,
        contention_coeff=0.5,
        grid_points=32,
    )
    knobs.update(overrides)
    return ServeConfig(**knobs)


#: worker crashes damage answers without delaying them (so a retry still
#: has budget: both retry endings occur), a straggler storm then drives
#: brownout, an aggregator-crash storm opens the breaker.
CHAOS_SCHEDULE = FaultSchedule(
    base=FaultModel(
        worker_crash_prob=0.5, straggler_prob=0.2, straggler_factor=3.0
    ),
    windows=(
        FaultWindow(
            400.0,
            520.0,
            FaultModel(
                straggler_prob=0.9, straggler_factor=6.0, ship_loss_prob=0.3
            ),
        ),
        FaultWindow(520.0, 640.0, FaultModel(agg_crash_prob=0.95)),
    ),
)
CHAOS_DEGRADE = DegradeConfig(
    retry_quality_floor=0.6,
    max_attempts=3,
    retry_budget=50,
    cooldown=60.0,
    brownout_enter=0.9,
    brownout_exit=0.1,
)

#: name -> (qps, n_requests, server keywords)
SERVER_SCENARIOS = {
    "warm": (0.05, 24, lambda: dict(config=_base())),
    "cold": (0.05, 24, lambda: dict(config=_base(warm_start=False))),
    # ~4x the pinned saturation point (~0.08 q/unit)
    "overload": (0.32, 60, lambda: dict(config=_base(max_queue=8))),
    "chaos": (
        0.05,
        60,
        lambda: dict(
            config=_base(faults=CHAOS_SCHEDULE, degrade=CHAOS_DEGRADE)
        ),
    ),
    "hedging": (
        0.05,
        30,
        lambda: dict(
            config=_base(),
            backend=HedgingPolicy(
                pinned_fault_schedule(0.15), pinned_hedging_config()
            ),
        ),
    ),
    "wait_cache": (
        0.08,
        24,
        lambda: dict(config=_base(wait_cache=WaitCacheConfig())),
    ),
    "learned": (0.05, 24, lambda: dict(config=_base(learned=True))),
}
SCENARIOS = (*SERVER_SCENARIOS, "sharded")
CASES = [f"{name}-{seed}" for name, seed in itertools.product(SCENARIOS, SEEDS)]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def _run(case: str):
    """Serve one scenario; return (report, tracer, metrics, report JSON)."""
    name, seed_text = case.split("-")
    seed = int(seed_text)
    tracer, metrics = SpanTracer(), MetricsRegistry()
    if name == "sharded":
        requests = pinned_requests(
            0.04, 16, DEADLINE, seed, tenants=("t0", "t1")
        )
        config = ShardConfig(
            n_shards=2,
            serve=_base(max_queue=8),
            inline=True,
            assignments={"t0": 0, "t1": 1},
            checkpoint_every=40.0,
            heartbeat_every=20.0,
            kills=ShardKillSchedule.of(ShardKill(0, 120.0)),
        )
        report = ShardSupervisor(
            OFFLINE, config, tracer=tracer, metrics=metrics
        ).run(requests)
        text = report.to_json(include_outcomes=True, include_shard_reports=True)
    else:
        qps, n_requests, build = SERVER_SCENARIOS[name]
        requests = pinned_requests(qps, n_requests, DEADLINE, seed)
        server = CedarServer(OFFLINE, tracer=tracer, metrics=metrics, **build())
        report = server.run(requests)
        text = report.to_json(include_outcomes=True)
    return report, tracer, metrics, text


def _case_doc(case: str) -> dict:
    _, tracer, metrics, text = _run(case)
    return {
        "report_sha256": _sha(text),
        "spans_sha256": _sha(tracer.to_jsonl()),
        "metrics_sha256": _sha(metrics.render_json()),
    }


@pytest.fixture(scope="module")
def golden(request):
    if request.config.getoption("--update-goldens"):
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        doc = {case: _case_doc(case) for case in CASES}
        GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return json.loads(GOLDEN.read_text())


def test_golden_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_lifecycle_matches_golden(case, golden):
    assert _case_doc(case) == golden[case], (
        f"{case} drifted from tests/serve/goldens/lifecycle.json"
    )


# ----------------------------------------------------------------------
def _shed_reasons(report) -> collections.Counter:
    return collections.Counter(
        o.shed_reason for o in report.outcomes if not o.admitted
    )


def _retry_endings(report, tracer) -> collections.Counter:
    """How each retried query ended, read off the trace: every attempt
    that ran left a "query" span carrying its own quality."""
    attempts = collections.defaultdict(list)
    for span in tracer.spans:
        if span.kind == "query":
            attempts[span.attrs["query_index"]].append(span.attrs["quality"])
    endings: collections.Counter = collections.Counter()
    for outcome in report.outcomes:
        if not outcome.retries:
            continue
        ran = attempts[outcome.index]
        if len(ran) == outcome.retries:
            # the last admitted retry never ran: shed with an answer in hand
            endings["shed_with_answer"] += 1
        elif ran[-1] < outcome.quality:
            endings["best_beats_last"] += 1
        else:
            endings["last_stands"] += 1
        assert outcome.quality == max(ran)
    return endings


@pytest.mark.parametrize("seed", SEEDS)
def test_scenarios_cover_what_they_claim(seed):
    warm, *_ = _run(f"warm-{seed}")
    assert warm.warm and any(o.warm for o in warm.outcomes)
    cold, *_ = _run(f"cold-{seed}")
    assert cold.warm == {} and not any(o.warm for o in cold.outcomes)

    overload, *_ = _run(f"overload-{seed}")
    assert {SHED_QUEUE_FULL, SHED_INFEASIBLE, SHED_STALE} <= set(
        _shed_reasons(overload)
    )
    assert any(o.slowdown > 1.0 for o in overload.outcomes)

    chaos, tracer, _, _ = _run(f"chaos-{seed}")
    endings = _retry_endings(chaos, tracer)
    assert endings["shed_with_answer"] >= 1
    assert endings["best_beats_last"] >= 1
    modes = {t["mode"] for t in chaos.chaos["mode_transitions"]}
    assert {MODE_BROWNOUT, MODE_CIRCUIT_OPEN} <= modes
    assert chaos.chaos["brownout_completions"] > 0
    assert _shed_reasons(chaos)[SHED_CIRCUIT_OPEN] > 0

    hedging, *_ = _run(f"hedging-{seed}")
    assert hedging.chaos["hedge_reissued"] > 0
    cached, *_ = _run(f"wait_cache-{seed}")
    assert cached.wait_cache["hits"] > 0
    learned, *_ = _run(f"learned-{seed}")
    assert learned.learned["lookups"] > 0

    sharded, tracer, _, _ = _run(f"sharded-{seed}")
    assert sharded.shards["0"]["kills"] == 1
    assert sharded.shards["0"]["redispatched"] > 0
    assert sharded.terminal["lost"] == 0
    assert any(span.kind == "supervisor" for span in tracer.spans)
