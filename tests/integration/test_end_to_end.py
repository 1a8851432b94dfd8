"""Cross-module integration: the paper's headline claims on small configs."""

import numpy as np
import pytest

from repro.core import (
    CedarPolicy,
    EqualSplitPolicy,
    IdealPolicy,
    MeanSubtractPolicy,
    ProportionalSplitPolicy,
    QueryContext,
    Stage,
    TreeSpec,
    calculate_wait,
    max_quality,
)
from repro.distributions import LogNormal
from repro.experiments import POLICY_FACTORIES
from repro.simulation import run_experiment, simulate_query
from repro.traces.base import LogNormalStageSpec, LogNormalWorkload


@pytest.fixture(scope="module")
def workload():
    # a compressed version of the Facebook setup: strong per-query mu
    # drift at the bottom, stable upper stage
    return LogNormalWorkload(
        [
            LogNormalStageSpec(mu=2.0, sigma=0.84, fanout=20, mu_jitter=1.5),
            LogNormalStageSpec(mu=0.7, sigma=0.5, fanout=10, mu_jitter=0.1),
        ],
        name="mini-facebook",
        history_queries=60,
        history_samples_per_query=25,
    )


@pytest.fixture(scope="module")
def result(workload):
    policies = [
        ProportionalSplitPolicy(),
        EqualSplitPolicy(),
        MeanSubtractPolicy(),
        CedarPolicy(grid_points=160),
        POLICY_FACTORIES["cedar-empirical"](160),
        IdealPolicy(grid_points=160),
    ]
    return run_experiment(
        workload, policies, deadline=30.0, n_queries=40, seed=77, agg_sample=5
    )


class TestHeadlineClaims:
    def test_cedar_beats_proportional_split(self, result):
        assert result.mean_quality("cedar") > result.mean_quality(
            "proportional-split"
        )

    def test_cedar_close_to_ideal(self, result):
        gap = result.mean_quality("ideal") - result.mean_quality("cedar")
        assert gap < 0.05

    def test_ideal_dominates_every_baseline(self, result):
        ideal = result.mean_quality("ideal")
        for name in ("proportional-split", "equal-split", "mean-subtract"):
            assert ideal >= result.mean_quality(name) - 0.02

    def test_cedar_at_least_empirical_variant(self, result):
        assert (
            result.mean_quality("cedar")
            >= result.mean_quality("cedar-empirical") - 0.03
        )


class TestModelVsSimulationConsistency:
    def test_expected_quality_predicts_simulation(self, rng):
        """q_n(D) from the analytic model should track simulated Ideal."""
        tree = TreeSpec.two_level(LogNormal(1.0, 0.8), 20, LogNormal(0.5, 0.5), 20)
        deadline = 15.0
        predicted = max_quality(tree, deadline, grid_points=256)
        ctx = QueryContext(deadline=deadline, offline_tree=tree, true_tree=tree)
        policy = IdealPolicy(grid_points=256)
        sims = [
            simulate_query(ctx, policy, seed=s).quality for s in range(25)
        ]
        simulated = float(np.mean(sims))
        # the model ignores early departure, so simulation can only be
        # slightly better; it must never be drastically worse
        assert simulated >= predicted - 0.05
        assert simulated <= predicted + 0.15

    def test_wait_duration_sane_for_known_setup(self):
        tree = TreeSpec.two_level(LogNormal(1.0, 0.5), 20, LogNormal(0.5, 0.3), 20)
        deadline = 10.0
        wait = calculate_wait(tree, deadline, epsilon=0.05)
        # must leave room for the upper stage (median ~1.65)
        assert wait <= deadline - 1.0
        # and collect the bulk of X1 (median e ~ 2.7)
        assert wait >= 2.0


class TestDeterminism:
    def test_full_pipeline_reproducible(self, workload):
        policies = [ProportionalSplitPolicy(), CedarPolicy(grid_points=96)]
        a = run_experiment(workload, policies, 30.0, 6, seed=5, agg_sample=5)
        b = run_experiment(workload, policies, 30.0, 6, seed=5, agg_sample=5)
        for name in ("proportional-split", "cedar"):
            np.testing.assert_array_equal(a.qualities[name], b.qualities[name])
