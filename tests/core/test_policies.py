"""Wait policies: baselines, Cedar, Ideal."""

import pytest

from repro.core import (
    AdaptiveController,
    CedarOfflinePolicy,
    CedarPolicy,
    EqualSplitPolicy,
    FixedStopPolicy,
    IdealPolicy,
    MeanSubtractPolicy,
    ProportionalSplitPolicy,
    QueryContext,
    Stage,
    StaticController,
    TreeSpec,
)
from repro.distributions import LogNormal
from repro.errors import ConfigError

X1 = LogNormal(0.0, 0.8)
X2 = LogNormal(0.5, 0.5)
TREE = TreeSpec.two_level(X1, 20, X2, 10)
CTX = QueryContext(deadline=10.0, offline_tree=TREE, true_tree=TREE)


class TestQueryContext:
    def test_valid(self):
        assert CTX.n_levels == 1

    def test_invalid_deadline(self):
        with pytest.raises(ConfigError):
            QueryContext(deadline=0.0, offline_tree=TREE)

    def test_mismatched_trees(self):
        three = TreeSpec([Stage(X1, 5), Stage(X2, 5), Stage(X2, 5)])
        with pytest.raises(ConfigError):
            QueryContext(deadline=1.0, offline_tree=TREE, true_tree=three)


class TestProportionalSplit:
    def test_two_level_formula(self):
        # wait = D * mu1 / (mu1 + mu2), the paper's definition
        policy = ProportionalSplitPolicy()
        c = policy.controller(CTX, 1)
        mu1, mu2 = X1.mean(), X2.mean()
        assert c.stop_time == pytest.approx(10.0 * mu1 / (mu1 + mu2))

    def test_three_level_cumulative(self):
        three = TreeSpec([Stage(X1, 5), Stage(X2, 5), Stage(X2, 5)])
        ctx = QueryContext(deadline=9.0, offline_tree=three)
        policy = ProportionalSplitPolicy()
        s1 = policy.controller(ctx, 1).stop_time
        s2 = policy.controller(ctx, 2).stop_time
        assert 0.0 < s1 < s2 < 9.0

    def test_level_validation(self):
        with pytest.raises(ConfigError):
            ProportionalSplitPolicy().controller(CTX, 2)


class TestOtherStrawMen:
    def test_equal_split(self):
        c = EqualSplitPolicy().controller(CTX, 1)
        assert c.stop_time == pytest.approx(5.0)

    def test_mean_subtract(self):
        c = MeanSubtractPolicy().controller(CTX, 1)
        assert c.stop_time == pytest.approx(max(0.0, 10.0 - X2.mean()))

    def test_mean_subtract_floors_at_zero(self):
        slow = TreeSpec.two_level(X1, 5, LogNormal(5.0, 0.5), 5)
        ctx = QueryContext(deadline=1.0, offline_tree=slow)
        assert MeanSubtractPolicy().controller(ctx, 1).stop_time == 0.0

    def test_fixed_stop(self):
        policy = FixedStopPolicy(stops=(3.0,))
        assert policy.controller(CTX, 1).stop_time == 3.0
        with pytest.raises(ConfigError):
            FixedStopPolicy(stops=())

    def test_fixed_stop_missing_level(self):
        three = TreeSpec([Stage(X1, 5), Stage(X2, 5), Stage(X2, 5)])
        ctx = QueryContext(deadline=9.0, offline_tree=three)
        with pytest.raises(ConfigError):
            FixedStopPolicy(stops=(3.0,)).controller(ctx, 2)


class TestIdeal:
    def test_requires_true_tree(self):
        ctx = QueryContext(deadline=10.0, offline_tree=TREE)
        with pytest.raises(ConfigError):
            IdealPolicy().controller(ctx, 1)

    def test_static_and_within_deadline(self):
        c = IdealPolicy(grid_points=128).controller(CTX, 1)
        assert isinstance(c, StaticController)
        assert 0.0 <= c.stop_time <= 10.0

    def test_uses_true_not_offline(self):
        fast_true = TreeSpec.two_level(LogNormal(-2.0, 0.3), 20, X2, 10)
        ctx = QueryContext(deadline=10.0, offline_tree=TREE, true_tree=fast_true)
        policy = IdealPolicy(grid_points=128)
        stop_fast = policy.controller(ctx, 1).stop_time
        stop_base = policy.controller(CTX, 1).stop_time
        assert stop_fast != stop_base

    def test_schedule_cached_across_calls(self):
        policy = IdealPolicy(grid_points=128)
        c1 = policy.controller(CTX, 1)
        c2 = policy.controller(CTX, 1)
        assert c1.stop_time == c2.stop_time


class TestCedar:
    def test_bottom_level_adaptive(self):
        policy = CedarPolicy(grid_points=128)
        c = policy.controller(CTX, 1)
        assert isinstance(c, AdaptiveController)
        assert c.stop_time == 10.0  # initial timer = D

    def test_upper_level_static_from_offline(self):
        three = TreeSpec([Stage(X1, 5), Stage(X2, 5), Stage(X2, 5)])
        ctx = QueryContext(deadline=9.0, offline_tree=three, true_tree=three)
        policy = CedarPolicy(grid_points=128)
        c2 = policy.controller(ctx, 2)
        assert isinstance(c2, StaticController)
        assert c2.stop_time <= 9.0

    def test_optimizer_cache_reused(self):
        policy = CedarPolicy(grid_points=128)
        policy.controller(CTX, 1)
        policy.controller(CTX, 1)
        assert len(policy._optimizers) == 1

    def test_empirical_variant_name(self):
        from repro.experiments import POLICY_FACTORIES

        assert POLICY_FACTORIES["cedar-empirical"](128).name == "cedar-empirical"

    def test_offline_variant_static(self):
        policy = CedarOfflinePolicy(grid_points=128)
        c = policy.controller(CTX, 1)
        assert isinstance(c, StaticController)


class TestDefaultPolicies:
    def test_contents(self):
        from repro.core import default_policies

        names = [p.name for p in default_policies()]
        assert names == ["proportional-split", "cedar", "ideal"]
        names = [p.name for p in default_policies(include_ideal=False)]
        assert names == ["proportional-split", "cedar"]
