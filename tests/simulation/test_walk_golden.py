"""Golden pin of the tree walk behind every simulator entry point.

``simulate_query``, ``simulate_query_with_faults``, ``simulate_query_hedged``
and ``simulate_query_with_reissue`` must keep producing the same result
fields, the same span JSONL and the same metrics JSON for a given seed —
at null *and* non-null fault rates, on 2- and 3-level trees, with and
without ``agg_sample``. The benchmarks pin non-zero fault rates too, but
tier-1 (``testpaths = ["tests"]``) never runs them; this file does.

Result fields are compared exactly (JSON round-trips Python floats);
traces and metrics are compared by sha256 of the rendered text.

To bless an intentional change::

    pytest tests/simulation/test_walk_golden.py --update-goldens
"""

import dataclasses
import hashlib
import itertools
import json
import pathlib

import pytest

from repro.core import (
    CedarPolicy,
    ProportionalSplitPolicy,
    QueryContext,
    Stage,
    TreeSpec,
)
from repro.distributions import LogNormal
from repro.faults import FaultDomainMap, FaultModel, simulate_query_with_faults
from repro.obs import MetricsRegistry, SpanTracer
from repro.serve import HedgingConfig, simulate_query_hedged
from repro.simulation import (
    ReissueConfig,
    simulate_query,
    simulate_query_with_reissue,
)

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "walk.json"

#: name -> (tree, deadline, agg_sample that really subsamples)
TREES = {
    "2lvl": (
        TreeSpec.two_level(LogNormal(1.0, 0.8), 8, LogNormal(0.5, 0.4), 6),
        9.0,
        3,
    ),
    "3lvl": (
        TreeSpec(
            [
                Stage(LogNormal(0.0, 0.8), 6),
                Stage(LogNormal(0.3, 0.5), 4),
                Stage(LogNormal(0.5, 0.5), 3),
            ]
        ),
        8.0,
        4,
    ),
}
POLICIES = {
    "prop": ProportionalSplitPolicy,
    "cedar": lambda: CedarPolicy(grid_points=48, min_samples=3),
}
FAULT_MODES = ("none", "null", "storm")
SEEDS = (0, 1, 2)

CASES = [
    "-".join(map(str, parts))
    for parts in itertools.product(TREES, POLICIES, FAULT_MODES, SEEDS)
]


def _fault_model(mode: str, tree: TreeSpec) -> FaultModel:
    if mode == "null":
        return FaultModel()
    return FaultModel(
        ship_loss_prob=0.1,
        agg_crash_prob=0.1,
        worker_crash_prob=0.1,
        straggler_prob=0.2,
        straggler_factor=4.0,
        domain_fail_prob=0.2,
        domains=FaultDomainMap.contiguous(tree.aggregators_at_level(1), 2),
    )


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _observed(run) -> dict:
    """Run ``run(tracer, metrics)``; record result fields + both hashes."""
    tracer, metrics = SpanTracer(), MetricsRegistry()
    result = run(tracer, metrics)
    return {
        "result": dataclasses.asdict(result),
        "spans_sha256": _sha(tracer.to_jsonl()),
        "metrics_sha256": _sha(metrics.render_json()),
    }


def _case_doc(case: str) -> dict:
    tree_name, policy_name, mode, seed_text = case.split("-")
    tree, deadline, agg_sample = TREES[tree_name]
    seed = int(seed_text)
    ctx = QueryContext(deadline=deadline, offline_tree=tree, true_tree=tree)
    policy = POLICIES[policy_name]
    attrs = {"query_index": seed}
    doc: dict = {}
    if mode == "none":
        for label, sample in (("plain", None), ("plain_sampled", agg_sample)):
            doc[label] = _observed(
                lambda tracer, metrics: simulate_query(
                    ctx,
                    policy(),
                    seed=seed,
                    agg_sample=sample,
                    tracer=tracer,
                    metrics=metrics,
                    span_attrs=attrs,
                )
            )
        if tree_name == "2lvl" and policy_name == "cedar":
            doc["reissue"] = dataclasses.asdict(
                simulate_query_with_reissue(
                    ctx,
                    ReissueConfig(reissue_percentile=0.7, budget_fraction=0.5),
                    policy=policy(),
                    seed=seed,
                )
            )
    else:
        model = _fault_model(mode, tree)
        doc["faulty"] = _observed(
            lambda tracer, metrics: simulate_query_with_faults(
                ctx,
                policy(),
                model,
                seed=seed,
                tracer=tracer,
                metrics=metrics,
                span_attrs=attrs,
            )
        )
        if tree_name == "2lvl":
            config = HedgingConfig(hedge_quantile=0.6, budget_fraction=0.5)
            for label, budget in (("hedged", None), ("hedged_budget3", 3)):
                doc[label] = dataclasses.asdict(
                    simulate_query_hedged(
                        ctx, policy(), model, config, seed=seed, budget=budget
                    )
                )
    # tuples -> lists, exactly as the committed file reads back
    return json.loads(json.dumps(doc))


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
def test_walk_matches_golden(case, golden):
    fresh = _case_doc(case)
    assert fresh.keys() == golden[case].keys()
    for entry_point, pinned in golden[case].items():
        assert fresh[entry_point] == pinned, (
            f"{case}/{entry_point} drifted from tests/simulation/goldens/"
            "walk.json"
        )
