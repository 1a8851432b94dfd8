"""The failure-aware Cedar variant."""

import numpy.testing as npt
import pytest

from repro.core import (
    CedarFailureAwarePolicy,
    CedarPolicy,
    QueryContext,
    Stage,
    TreeSpec,
    WaitOptimizer,
)
from repro.distributions import LogNormal
from repro.errors import ConfigError
from repro.experiments import POLICY_FACTORIES
from repro.faults import FaultModel
from repro.simulation import run_experiment
from repro.traces import facebook_workload

TREE = TreeSpec.two_level(LogNormal(0.0, 0.8), 10, LogNormal(0.5, 0.5), 6)
THREE_LEVEL = TreeSpec(
    [
        Stage(LogNormal(0.0, 0.8), 8),
        Stage(LogNormal(0.3, 0.5), 4),
        Stage(LogNormal(0.5, 0.5), 3),
    ]
)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ConfigError):
            CedarFailureAwarePolicy(ship_loss_prob=-0.1)
        with pytest.raises(ConfigError):
            CedarFailureAwarePolicy(agg_crash_prob=1.0)
        with pytest.raises(ConfigError):
            CedarFailureAwarePolicy(worker_crash_prob=2.0)
        with pytest.raises(ConfigError):
            WaitOptimizer(
                TREE.stages[1:], 20.0, 64, shipment_survival=1.5
            )

    def test_from_fault_model(self):
        faults = FaultModel(
            ship_loss_prob=0.1, agg_crash_prob=0.2, worker_crash_prob=0.3
        )
        policy = CedarFailureAwarePolicy.from_fault_model(
            faults, grid_points=64
        )
        assert policy.ship_loss_prob == 0.1
        assert policy.agg_crash_prob == 0.2
        assert policy.worker_crash_prob == 0.3
        assert policy.shipment_survival == pytest.approx(0.9 * 0.8)
        assert policy.worker_survival == pytest.approx(0.7)

    def test_registered_in_catalog(self):
        policy = POLICY_FACTORIES["cedar-failure-aware"](128)
        assert policy.name == "cedar-failure-aware"
        assert isinstance(policy, CedarFailureAwarePolicy)


class TestZeroRateEquivalence:
    def test_matches_plain_cedar_exactly(self):
        """All rates zero -> bit-identical to CedarPolicy on a paired run."""
        workload = facebook_workload(k1=10, k2=5, offline_seed=0)
        res = run_experiment(
            workload,
            [
                CedarPolicy(grid_points=96),
                CedarFailureAwarePolicy(grid_points=96),
            ],
            deadline=800.0,
            n_queries=8,
            seed=3,
        )
        npt.assert_array_equal(
            res.qualities["cedar"], res.qualities["cedar-failure-aware"]
        )


class TestDeflatedPlanning:
    def test_static_levels_plan_on_deflated_tree(self):
        """On a 3-level tree the upper (static) stop shifts once crashes
        are expected, while plain Cedar's does not."""
        ctx = QueryContext(deadline=30.0, offline_tree=THREE_LEVEL)
        plain = CedarPolicy(grid_points=96)
        aware = CedarFailureAwarePolicy(
            ship_loss_prob=0.4, worker_crash_prob=0.4, grid_points=96
        )
        zero = CedarFailureAwarePolicy(grid_points=96)
        plain_stop = plain.controller(ctx, 2).stop_time
        zero_stop = zero.controller(ctx, 2).stop_time
        aware_stop = aware.controller(ctx, 2).stop_time
        assert zero_stop == pytest.approx(plain_stop)
        assert aware_stop != pytest.approx(plain_stop)

    def test_deflation_floors_at_one(self):
        aware = CedarFailureAwarePolicy(
            ship_loss_prob=0.9, worker_crash_prob=0.9, grid_points=64
        )
        deflated = aware._planning_tree(TREE)
        assert all(s.fanout >= 1 for s in deflated.stages)

    def test_gain_discount_shortens_wait(self):
        """A discounted gain can only argue for stopping sooner: the
        failure-aware optimizer's wait never exceeds the plain one's."""
        opt_plain = WaitOptimizer(
            TREE.stages[1:], 20.0, 128, shipment_survival=1.0
        )
        opt_aware = WaitOptimizer(
            TREE.stages[1:], 20.0, 128, shipment_survival=0.5
        )
        x1 = LogNormal(0.0, 0.8)
        assert opt_aware.optimize(x1, 10) <= opt_plain.optimize(x1, 10) + 1e-9

