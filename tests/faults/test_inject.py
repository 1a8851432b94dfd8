"""Bit-identity and failure semantics of the fault injector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CedarPolicy,
    FixedStopPolicy,
    ProportionalSplitPolicy,
    QueryContext,
    Stage,
    TreeSpec,
)
from repro.distributions import LogNormal, Uniform
from repro.errors import SimulationError
from repro.faults import FaultDomainMap, FaultModel, simulate_query_with_faults
from repro.simulation import simulate_query

TWO_LEVEL = TreeSpec.two_level(LogNormal(0.0, 0.8), 8, LogNormal(0.5, 0.5), 6)
THREE_LEVEL = TreeSpec(
    [
        Stage(LogNormal(0.0, 0.8), 6),
        Stage(LogNormal(0.3, 0.5), 4),
        Stage(LogNormal(0.5, 0.5), 3),
    ]
)


def _ctx(tree, deadline=12.0):
    return QueryContext(deadline=deadline, offline_tree=tree, true_tree=tree)


def _policy(name, tree):
    if name == "fixed":
        stops = tuple(3.0 + lv for lv in range(tree.n_aggregator_levels))
        return FixedStopPolicy(stops=stops)
    if name == "proportional-split":
        return ProportionalSplitPolicy()
    return CedarPolicy(grid_points=64, min_samples=3)


class TestBitIdentity:
    """FaultModel with every probability zero == the plain simulator,
    field for field, on the same seed."""

    @pytest.mark.parametrize("tree", [TWO_LEVEL, THREE_LEVEL], ids=["2lvl", "3lvl"])
    @pytest.mark.parametrize("policy_name", ["fixed", "proportional-split", "cedar"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_zero_rates_bit_identical(self, tree, policy_name, seed):
        ctx = _ctx(tree)
        faulty = simulate_query_with_faults(
            ctx, _policy(policy_name, tree), FaultModel(), seed=seed
        )
        plain = simulate_query(ctx, _policy(policy_name, tree), seed=seed)
        assert faulty.quality == plain.quality  # exact, not approx
        assert faulty.included_outputs == plain.included_outputs
        assert faulty.total_outputs == plain.total_outputs
        assert faulty.mean_stops == plain.mean_stops
        assert faulty.late_at_root == plain.late_at_root
        assert faulty.crashed_aggregators == 0
        assert faulty.lost_shipments == 0
        assert faulty.crashed_workers == 0
        assert faulty.straggler_workers == 0

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        fanouts=st.lists(
            st.integers(min_value=1, max_value=6), min_size=2, max_size=4
        ),
        policy_name=st.sampled_from(["fixed", "proportional-split", "cedar"]),
    )
    def test_zero_rates_bit_identical_property(self, seed, fanouts, policy_name):
        tree = TreeSpec(
            [
                Stage(LogNormal(0.1 * lv, 0.8 - 0.1 * lv), k)
                for lv, k in enumerate(fanouts)
            ]
        )
        ctx = _ctx(tree)
        faulty = simulate_query_with_faults(
            ctx, _policy(policy_name, tree), FaultModel(), seed=seed
        )
        plain = simulate_query(ctx, _policy(policy_name, tree), seed=seed)
        assert faulty.quality == plain.quality
        assert faulty.included_outputs == plain.included_outputs
        assert faulty.total_outputs == plain.total_outputs
        assert faulty.mean_stops == plain.mean_stops
        assert faulty.late_at_root == plain.late_at_root
        assert faulty.elapsed == plain.elapsed

    def test_nonzero_rates_leave_durations_paired(self):
        """Fault draws come from a child stream: the underlying duration
        draws (visible through mean_stops of a fixed-stop policy) are
        unchanged by enabling faults."""
        ctx = _ctx(TWO_LEVEL)
        policy = FixedStopPolicy(stops=(4.0,))
        clean = simulate_query_with_faults(ctx, policy, FaultModel(), seed=3)
        shaken = simulate_query_with_faults(
            ctx, policy, FaultModel(ship_loss_prob=0.5), seed=3
        )
        assert clean.mean_stops == shaken.mean_stops


class TestFailureSemantics:
    def test_worker_crashes_thin_arrivals(self):
        tree = TreeSpec.two_level(Uniform(0, 1.0), 20, Uniform(0, 0.1), 10)
        ctx = _ctx(tree, deadline=100.0)
        policy = FixedStopPolicy(stops=(50.0,))
        results = [
            simulate_query_with_faults(
                ctx, policy, FaultModel(worker_crash_prob=0.4), seed=s
            )
            for s in range(20)
        ]
        mean_q = float(np.mean([r.quality for r in results]))
        assert mean_q == pytest.approx(0.6, abs=0.05)
        assert all(r.crashed_workers > 0 for r in results)

    def test_straggler_slowdown_misses_stop(self):
        # all durations ~1; stragglers run 100x and miss the stop at t=50
        tree = TreeSpec.two_level(Uniform(0.5, 1.0), 20, Uniform(0, 0.1), 10)
        ctx = _ctx(tree, deadline=100.0)
        policy = FixedStopPolicy(stops=(50.0,))
        res = simulate_query_with_faults(
            ctx,
            policy,
            FaultModel(straggler_prob=0.3, straggler_factor=100.0),
            seed=2,
        )
        assert res.straggler_workers > 0
        expected = 1.0 - res.straggler_workers / res.total_outputs
        assert res.quality == pytest.approx(expected)

    def test_domain_failure_takes_out_members(self):
        tree = TreeSpec.two_level(Uniform(0, 0.1), 5, Uniform(0, 0.1), 6)
        ctx = _ctx(tree, deadline=100.0)
        policy = FixedStopPolicy(stops=(50.0,))
        res = simulate_query_with_faults(
            ctx,
            policy,
            FaultModel(
                domain_fail_prob=1.0,
                domains=FaultDomainMap.contiguous(6, 3),
            ),
            seed=0,
        )
        # both domains fail -> every bottom aggregator crashes
        assert res.failed_domains == 2
        assert res.crashed_aggregators == 6
        assert res.quality == 0.0

    def test_domain_map_size_must_match_tree(self):
        ctx = _ctx(TWO_LEVEL)
        model = FaultModel(
            domain_fail_prob=0.5, domains=FaultDomainMap.contiguous(4, 2)
        )
        with pytest.raises(SimulationError):
            simulate_query_with_faults(
                ctx, FixedStopPolicy(stops=(4.0,)), model, seed=0
            )

    def test_three_level_crash_at_middle_level(self):
        """agg_crash applies at every aggregator level, not just the
        bottom: with certain crash everything dies."""
        ctx = _ctx(THREE_LEVEL, deadline=100.0)
        policy = FixedStopPolicy(stops=(50.0, 60.0))
        res = simulate_query_with_faults(
            ctx, policy, FaultModel(agg_crash_prob=1.0), seed=0
        )
        assert res.quality == 0.0
        # 12 bottom + 3 middle aggregators all crash
        assert res.crashed_aggregators == 15
