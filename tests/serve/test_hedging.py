"""The hedged-request baseline: budgets and the monotonicity property.

The static hedge bar makes one property provable and therefore testable:
raising the hedge quantile only raises the bar, and until the first
reissue fires the trajectory is independent of the bar, so the reissue
count is monotone non-increasing in the quantile (Hypothesis sweeps
seeds x quantile pairs). The budget properties are the other half of the
contract: no query spends more than its aggregator fraction allows, and
no tenant spends more than its per-run allowance — under any fault mix.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import QueryContext, TreeSpec
from repro.core.policies import CedarPolicy
from repro.distributions import LogNormal
from repro.errors import ConfigError, SimulationError
from repro.faults import FaultDomainMap, FaultModel, simulate_query_with_faults
from repro.serve import (
    CedarServer,
    DegradeConfig,
    FaultSchedule,
    HedgedQueryResult,
    HedgingConfig,
    HedgingPolicy,
    LoadGenerator,
    ServeConfig,
    pinned_workload,
    simulate_query_hedged,
)

TREE = TreeSpec.two_level(LogNormal(1.0, 0.8), 8, LogNormal(0.5, 0.4), 6)
FAULTS = FaultModel(
    worker_crash_prob=0.1,
    straggler_prob=0.3,
    straggler_factor=4.0,
    ship_loss_prob=0.05,
)


def _ctx(deadline=25.0):
    return QueryContext(deadline=deadline, offline_tree=TREE, true_tree=TREE)


def _hedged(quantile, seed, budget=None, faults=FAULTS):
    return simulate_query_hedged(
        _ctx(),
        CedarPolicy(grid_points=48, min_samples=3),
        faults,
        HedgingConfig(hedge_quantile=quantile, budget_fraction=0.5),
        seed=seed,
        budget=budget,
    )


class TestMonotonicity:
    """Satellite S3a: reissues are monotone non-increasing in the bar."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        lo=st.floats(min_value=0.55, max_value=0.9),
        gap=st.floats(min_value=0.0, max_value=0.09),
    )
    def test_reissues_never_increase_with_the_quantile(self, seed, lo, gap):
        hi = min(lo + gap, 0.99)
        low_bar = _hedged(lo, seed)
        high_bar = _hedged(hi, seed)
        assert low_bar.reissued >= high_bar.reissued

    def test_the_ladder_actually_exercises_both_regimes(self):
        # guard against the property passing vacuously (all zeros)
        counts = [_hedged(q, seed=11).reissued for q in (0.55, 0.7, 0.98)]
        assert counts[0] > 0
        assert counts == sorted(counts, reverse=True)


class TestBudgets:
    """Satellite S3b: no budget — per query or per tenant — is ever
    exceeded."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        budget=st.integers(min_value=0, max_value=6),
    )
    def test_query_budget_caps_reissues(self, seed, budget):
        result = _hedged(0.6, seed, budget=budget)
        assert result.reissued <= budget
        assert result.hedge_wins <= result.reissued

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        tenant_budget=st.integers(min_value=1, max_value=5),
    )
    def test_tenant_budget_holds_across_a_serve_run(self, seed, tenant_budget):
        workload = pinned_workload()
        requests = LoadGenerator(
            workload=workload,
            qps=0.05,
            n_requests=16,
            deadline=60.0,
            seed=seed,
            tenants=("alpha", "beta"),
        ).generate()
        config = HedgingConfig(hedge_quantile=0.8, tenant_budget=tenant_budget)
        backend = HedgingPolicy(FaultSchedule.constant(FAULTS), config)
        report = CedarServer(
            offline_tree=workload.offline_tree(),
            config=ServeConfig(),
            backend=backend,
        ).run(requests)
        spent: dict[str, int] = {}
        for outcome in report.outcomes:
            if outcome.admitted:
                spent[outcome.tenant] = (
                    spent.get(outcome.tenant, 0) + outcome.reissued
                )
        for tenant, total in spent.items():
            assert total <= tenant_budget
            assert backend.tokens_left(tenant) == tenant_budget - total

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        retry_budget=st.integers(min_value=0, max_value=3),
    )
    def test_retry_budget_holds_across_a_serve_run(self, seed, retry_budget):
        workload = pinned_workload()
        requests = LoadGenerator(
            workload=workload,
            qps=0.05,
            n_requests=16,
            deadline=60.0,
            seed=seed,
            tenants=("alpha", "beta"),
        ).generate()
        config = ServeConfig(
            faults=FaultSchedule.constant(FAULTS),
            degrade=DegradeConfig(
                retry_budget=retry_budget,
                max_attempts=3,
                retry_quality_floor=0.9,
            ),
        )
        report = CedarServer(
            offline_tree=workload.offline_tree(), config=config
        ).run(requests)
        spent: dict[str, int] = {}
        for outcome in report.outcomes:
            if outcome.admitted:
                spent[outcome.tenant] = (
                    spent.get(outcome.tenant, 0) + outcome.retries
                )
        for total in spent.values():
            assert total <= retry_budget
        assert report.chaos["retry_tokens_used"] == {
            t: n for t, n in sorted(spent.items()) if n > 0
        }


class TestDeterminismAndShape:
    def test_same_seed_same_result(self):
        assert _hedged(0.7, seed=42) == _hedged(0.7, seed=42)

    @pytest.mark.parametrize("seed", [0, 7, 2608])
    def test_zero_budget_equals_the_fault_injector(self, seed):
        """No hedge can fire at budget 0, so what is left is the fault
        schedule itself: identical, field for field, to the injector's on
        the same seed and model."""
        faults = dataclasses.replace(
            FAULTS,
            agg_crash_prob=0.1,
            domain_fail_prob=0.2,
            domains=FaultDomainMap.contiguous(TREE.fanouts[1], 2),
        )
        hedged = _hedged(0.6, seed, budget=0, faults=faults)
        injected = simulate_query_with_faults(
            _ctx(), CedarPolicy(grid_points=48, min_samples=3), faults, seed=seed
        )
        assert hedged.reissued == hedged.hedge_wins == 0
        for field in (
            "quality",
            "included_outputs",
            "total_outputs",
            "elapsed",
            "late_at_root",
            "crashed_workers",
            "straggler_workers",
            "crashed_aggregators",
            "lost_shipments",
            "failed_domains",
            "degraded",
        ):
            assert getattr(hedged, field) == getattr(injected, field), field

    def test_three_level_trees_rejected(self):
        from repro.core import Stage

        deep = TreeSpec(
            [
                Stage(LogNormal(0.0, 0.8), 4),
                Stage(LogNormal(0.3, 0.5), 3),
                Stage(LogNormal(0.5, 0.5), 2),
            ]
        )
        ctx = QueryContext(deadline=12.0, offline_tree=deep, true_tree=deep)
        with pytest.raises(SimulationError, match="two-level"):
            simulate_query_hedged(
                ctx,
                CedarPolicy(grid_points=48, min_samples=3),
                FaultModel(),
                HedgingConfig(),
                seed=1,
            )

    def test_degraded_property(self):
        clean = HedgedQueryResult(
            quality=1.0,
            included_outputs=4,
            total_outputs=4,
            elapsed=3.0,
            reissued=1,
            hedge_wins=1,
            straggler_workers=2,  # slow-only faults do not lose data
        )
        assert not clean.degraded
        assert dataclasses.replace(clean, lost_shipments=1).degraded
        assert dataclasses.replace(clean, crashed_workers=1).degraded

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="hedge_quantile"):
            HedgingConfig(hedge_quantile=0.5)
        with pytest.raises(ConfigError, match="hedge_quantile"):
            HedgingConfig(hedge_quantile=1.0)
        with pytest.raises(ConfigError, match="budget_fraction"):
            HedgingConfig(budget_fraction=0.0)
        with pytest.raises(ConfigError, match="tenant_budget"):
            HedgingConfig(tenant_budget=0)

    def test_hedge_can_rescue_a_crashed_worker(self):
        # with crash-only faults and a low bar, a hedge duplicate of a
        # crashed worker's task can still deliver its payload
        faults = FaultModel(worker_crash_prob=0.4)
        rescued = _hedged(0.55, seed=3, faults=faults)
        assert rescued.crashed_workers > 0
        assert rescued.hedge_wins > 0
