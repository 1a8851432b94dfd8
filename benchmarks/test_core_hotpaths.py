"""Microbenchmarks of the hot paths.

§5.2 claims "Cedar's algorithm also completes within tens of milliseconds
even without the parallelization proposed in §4.3.3" — these benches hold
our implementation to the same bar: a full online re-plan (estimate +
CALCULATEWAIT sweep) must be far under 10 ms at the default grid.
"""

import numpy as np
import pytest

from repro.core import (
    Stage,
    TreeSpec,
    WaitOptimizer,
    WaitTableCache,
    calculate_wait,
)
from repro.distributions import LogNormal
from repro.estimation import OrderStatisticEstimator

X1 = LogNormal(6.0, 0.84)
X2 = LogNormal(4.7, 0.5)
DEADLINE = 1000.0


@pytest.fixture(scope="module")
def optimizer():
    return WaitOptimizer([Stage(X2, 50)], DEADLINE, grid_points=512)


def test_wait_sweep_latency(benchmark, optimizer):
    """One vectorized CALCULATEWAIT sweep (the per-arrival re-plan)."""
    wait = benchmark(lambda: optimizer.optimize(X1, 50))
    assert 0.0 <= wait <= DEADLINE
    assert benchmark.stats["mean"] < 0.010  # the paper's tens-of-ms bar


def test_live_sweep_latency(benchmark, optimizer):
    """The sweep the §4.3.3 cache below replaces, at its probe point."""
    dist = LogNormal(6.1, 0.9)
    benchmark(lambda: optimizer.optimize(dist, 50))


def test_cache_lookup_latency_and_error_bound(benchmark, optimizer):
    """§4.3.3 "simply precompute these wait-durations": a hot lookup in
    the quantized cache is a dict probe, and the worst |cached - exact|
    wait over the probe box stays within 5% of the deadline."""
    tail = optimizer.tail_stages
    cache = WaitTableCache()
    dist = LogNormal(6.1, 0.9)
    cache.wait_for(tail, DEADLINE, dist, 50, 512)  # populate the bucket
    wait = benchmark(lambda: cache.wait_for(tail, DEADLINE, dist, 50, 512))
    assert 0.0 <= wait <= cache.deadline_representative(DEADLINE)
    err = cache.max_abs_error_vs(
        optimizer, 50, mu_range=(3.0, 9.0), sigma_range=(0.3, 2.0),
        probe_points=32,
    )
    assert err <= 0.05 * DEADLINE


def test_full_replan_latency(benchmark, optimizer):
    """Estimate from 10 arrivals + sweep: the whole PROCESSHANDLER cost."""
    est = OrderStatisticEstimator("lognormal")
    rng = np.random.default_rng(0)
    arrivals = np.sort(X1.sample(50, seed=rng))[:10]

    def replan():
        dist = est.estimate(arrivals, 50).to_distribution()
        return optimizer.optimize(dist, 50)

    benchmark(replan)
    assert benchmark.stats["mean"] < 0.010


def test_scalar_pseudocode2_latency(benchmark):
    """The readable serial sweep (reference implementation)."""
    tree = TreeSpec.two_level(X1, 50, X2, 50)
    benchmark.pedantic(
        lambda: calculate_wait(tree, DEADLINE, epsilon=DEADLINE / 512),
        rounds=3,
        iterations=1,
    )


def test_optimizer_construction_latency(benchmark):
    """Building the tail quality grid (once per deadline, cached after)."""
    benchmark(lambda: WaitOptimizer([Stage(X2, 50)], DEADLINE, grid_points=512))


def test_simulate_query_throughput(benchmark):
    """End-to-end single-query simulation with adaptive Cedar."""
    from repro.core import CedarPolicy, QueryContext
    from repro.simulation import simulate_query

    tree = TreeSpec.two_level(X1, 50, X2, 50)
    ctx = QueryContext(deadline=DEADLINE, offline_tree=tree, true_tree=tree)
    policy = CedarPolicy(grid_points=256)
    benchmark.pedantic(
        lambda: simulate_query(ctx, policy, seed=1, agg_sample=5),
        rounds=3,
        iterations=1,
    )


def test_cluster_query_throughput(benchmark):
    """End-to-end deployed query on the miniature cluster."""
    from repro.cluster import Deployment, DeploymentConfig
    from repro.core import CedarPolicy

    dep = Deployment(DeploymentConfig(profile_queries=5), seed=3)
    dep.offline_tree()
    policy = CedarPolicy(grid_points=256)
    benchmark.pedantic(
        lambda: dep.run_query(policy, deadline=DEADLINE, rng=7),
        rounds=3,
        iterations=1,
    )
