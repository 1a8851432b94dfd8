"""Warm-start store: priors, decay, drift reset, and the echo guard."""

import pytest

from repro.core import QueryContext
from repro.distributions import LogNormal
from repro.errors import ConfigError
from repro.serve import CedarServer, CedarWarmPolicy, LoadGenerator, ServeConfig, WarmStartStore
from repro.serve import pinned_workload


class TestStoreLifecycle:
    def test_no_prior_before_any_query(self):
        store = WarmStartStore()
        assert store.prior("k") is None
        assert store.n_keys == 0

    def test_prior_from_first_estimates(self):
        store = WarmStartStore()
        store.observe_query("k", [3.0], [0.5])
        prior = store.prior("k")
        assert isinstance(prior, LogNormal)
        assert prior.mu == 3.0
        assert prior.sigma == 0.5

    def test_sigma_floor(self):
        store = WarmStartStore(sigma_floor=0.05)
        store.observe_query("k", [3.0], [1e-6])
        prior = store.prior("k")
        assert prior.sigma == 0.05

    def test_exponential_decay(self):
        store = WarmStartStore(decay=0.3)
        store.observe_query("k", [3.0], [0.5])
        store.observe_query("k", [4.0], [0.5])  # |4-3| <= 3*0.5: no drift
        prior = store.prior("k")
        assert prior.mu == pytest.approx(0.7 * 3.0 + 0.3 * 4.0)

    def test_drift_reset_jumps(self):
        store = WarmStartStore(decay=0.3, drift_nsigmas=3.0)
        store.observe_query("k", [3.0], [0.3], durations=[10.0, 20.0])
        store.observe_query("k", [9.0], [0.3])  # 6 sigma jump: regime change
        prior = store.prior("k")
        assert prior.mu == 9.0  # jumped, not averaged
        assert store.total_resets == 1
        snap = store.snapshot()["k"]
        assert snap["resets"] == 1
        assert snap["tracker_samples"] == 0  # window discarded with the prior

    def test_tracker_fallback_prior(self):
        """Before any online estimate lands, the raw-duration window can
        still supply a prior once it has enough samples."""
        store = WarmStartStore(
            tracker_window=64, tracker_refit_every=16, tracker_min_samples=16
        )
        durations = [float(x) for x in LogNormal(2.0, 0.5).sample(32, seed=3)]
        store.observe_query("k", [], [], durations=durations)
        prior = store.prior("k")
        assert prior is not None

    def test_keys_are_independent(self):
        store = WarmStartStore()
        store.observe_query("a", [3.0], [0.5])
        assert store.prior("b") is None

    def test_validation(self):
        with pytest.raises(ConfigError):
            WarmStartStore(decay=0.0)
        with pytest.raises(ConfigError):
            WarmStartStore(drift_nsigmas=0.0)
        with pytest.raises(ConfigError):
            WarmStartStore(sigma_floor=0.0)
        with pytest.raises(ConfigError):
            CedarWarmPolicy(warm_min_samples=1)


class TestPolicyIntegration:
    def _ctx(self, workload, deadline=60.0):
        tree = workload.offline_tree()
        return QueryContext(deadline=deadline, offline_tree=tree, true_tree=tree)

    def test_cold_controller_holds_at_deadline(self):
        workload = pinned_workload()
        policy = CedarWarmPolicy(grid_points=64)
        ctx = self._ctx(workload)
        policy.begin_query(ctx)
        controller = policy.controller(ctx, 1)
        assert controller.stop_time == ctx.deadline  # hold 'em until samples

    def test_warm_controller_starts_from_prior(self):
        workload = pinned_workload()
        policy = CedarWarmPolicy(grid_points=64)
        policy.store.observe_query("default", [3.0], [0.8])
        ctx = self._ctx(workload)
        policy.begin_query(ctx)
        controller = policy.controller(ctx, 1)
        assert controller.stop_time < ctx.deadline  # prior-optimal stop

    def test_harvest_without_online_fit_is_no_echo(self):
        """A query that never produced an online estimate must not fold
        the injected prior back into the store (feedback echo)."""
        workload = pinned_workload()
        policy = CedarWarmPolicy(grid_points=64)
        policy.store.observe_query("default", [3.0], [0.8])
        before = policy.store.snapshot()["default"]
        ctx = self._ctx(workload)
        policy.begin_query(ctx)
        policy.controller(ctx, 1)  # no arrivals delivered
        policy.harvest()
        after = policy.store.snapshot()["default"]
        assert after["mu"] == before["mu"]
        assert after["sigma"] == before["sigma"]
        assert after["n_queries"] == before["n_queries"] + 1

    def test_served_queries_populate_store(self):
        workload = pinned_workload()
        generator = LoadGenerator(
            workload=workload, qps=0.01, n_requests=6, deadline=60.0, seed=5
        )
        server = CedarServer(
            offline_tree=workload.offline_tree(),
            config=ServeConfig(warm_start=True),
        )
        report = server.run(generator.generate())
        assert report.warm  # snapshot is non-empty
        snap = report.warm[workload.name]
        assert snap["n_queries"] == 6
        assert snap["mu"] is not None
        # later queries saw the prior built by earlier ones
        assert any(o.warm for o in report.outcomes)
        assert not report.outcomes[0].warm  # the very first is always cold

    def test_explicit_warm_policy_reports_its_own_store(self):
        """Regression: ``policy=CedarWarmPolicy()`` served warm but left
        ``report.warm`` empty (the server never looked at the policy's
        store) — and a shard built that way checkpointed ``warm: None``."""
        workload = pinned_workload()
        generator = LoadGenerator(
            workload=workload, qps=0.01, n_requests=6, deadline=60.0, seed=5
        )
        policy = CedarWarmPolicy()
        server = CedarServer(workload.offline_tree(), policy=policy)
        report = server.run(generator.generate())
        assert sum(o.warm for o in report.outcomes) == 5
        assert server.store is policy.store
        assert report.warm[workload.name]["n_queries"] == 6
