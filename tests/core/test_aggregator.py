"""Aggregator controllers (Pseudocode 1 runtime)."""

import numpy as np
import pytest

from repro.core import AdaptiveController, Stage, StaticController, WaitOptimizer
from repro.distributions import LogNormal
from repro.errors import ConfigError
from repro.estimation import EmpiricalEstimator, OrderStatisticEstimator

X2 = LogNormal(0.5, 0.5)


@pytest.fixture
def optimizer():
    return WaitOptimizer([Stage(X2, 10)], deadline=10.0, grid_points=128)


class TestStaticController:
    def test_fixed_stop(self):
        c = StaticController(3.0)
        assert c.stop_time == 3.0
        c.on_arrival(1.0)
        c.on_arrival(2.0)
        assert c.stop_time == 3.0
        assert c.n_received == 2

    def test_rejects_negative(self):
        with pytest.raises(ConfigError):
            StaticController(-1.0)


class TestAdaptiveController:
    def test_initial_timer_is_deadline(self, optimizer):
        c = AdaptiveController(
            OrderStatisticEstimator("lognormal"), optimizer, k=20, deadline=10.0
        )
        assert c.stop_time == 10.0

    def test_replans_after_min_samples(self, optimizer):
        c = AdaptiveController(
            OrderStatisticEstimator("lognormal"), optimizer, k=20, deadline=10.0
        )
        c.on_arrival(0.5)
        assert c.stop_time == 10.0  # one arrival: not ready yet
        c.on_arrival(0.8)
        assert c.stop_time < 10.0 or c.last_estimate is not None

    def test_all_arrived_ships_immediately(self, optimizer):
        c = AdaptiveController(
            OrderStatisticEstimator("lognormal"), optimizer, k=3, deadline=10.0
        )
        for t in (0.5, 0.9, 1.4):
            c.on_arrival(t)
        assert c.stop_time == 1.4

    def test_stop_never_before_current_arrival(self, optimizer):
        c = AdaptiveController(
            EmpiricalEstimator("lognormal"), optimizer, k=20, deadline=10.0
        )
        for t in (1.0, 1.01, 1.02, 5.0):
            c.on_arrival(t)
            assert c.stop_time >= t

    def test_stop_never_after_deadline(self, optimizer):
        c = AdaptiveController(
            OrderStatisticEstimator("lognormal"), optimizer, k=20, deadline=10.0
        )
        rng = np.random.default_rng(0)
        for t in np.sort(LogNormal(2.5, 0.3).sample(10, seed=rng)):
            if t > c.stop_time:
                break
            c.on_arrival(float(t))
        assert c.stop_time <= 10.0

    def test_reoptimize_every_limits_replans(self, optimizer):
        lazy = AdaptiveController(
            OrderStatisticEstimator("lognormal"),
            optimizer,
            k=20,
            deadline=10.0,
            min_samples=2,
            reoptimize_every=100,
        )
        lazy.on_arrival(0.5)
        lazy.on_arrival(0.7)  # first estimate at min_samples
        stop_after_first = lazy.stop_time
        lazy.on_arrival(0.9)  # within reoptimize_every window: no replan
        assert lazy.stop_time == stop_after_first

    def test_converges_to_good_wait_on_true_distribution(self, optimizer, rng):
        truth = LogNormal(1.0, 0.6)
        c = AdaptiveController(
            OrderStatisticEstimator("lognormal"), optimizer, k=30, deadline=10.0
        )
        arrivals = np.sort(truth.sample(30, seed=rng))
        for t in arrivals:
            if t > c.stop_time:
                break
            c.on_arrival(float(t))
        reference = optimizer.optimize(truth, 30)
        # learned stop should be in the same ballpark as the oracle wait
        assert abs(c.stop_time - reference) < 3.0

    def test_arrivals_are_the_observed_times(self, optimizer):
        c = AdaptiveController(
            OrderStatisticEstimator("lognormal"), optimizer, k=20, deadline=10.0
        )
        assert c.arrivals == ()
        times = [0.5, 0.7, 0.7, 1.3]
        for t in times:
            c.on_arrival(t)
        assert list(c.arrivals) == times

    def test_online_estimate_none_before_fit(self, optimizer):
        c = AdaptiveController(
            OrderStatisticEstimator("lognormal"), optimizer, k=20, deadline=10.0
        )
        assert c.online_estimate() is None
        c.on_arrival(0.5)
        assert c.online_estimate() is None
        c.on_arrival(0.8)
        assert c.online_estimate() is not None
        assert c.online_estimate() is c.last_estimate

    def test_online_estimate_never_the_prior(self, optimizer):
        prior = LogNormal(0.2, 0.4)
        c = AdaptiveController(
            OrderStatisticEstimator("lognormal"),
            optimizer,
            k=20,
            deadline=10.0,
            min_samples=4,
            prior=prior,
        )
        assert c.last_estimate is prior
        for t in (0.5, 0.7, 0.9):
            c.on_arrival(t)
            assert c.last_estimate is prior
            assert c.online_estimate() is None
        c.on_arrival(1.1)  # min_samples reached: the online fit takes over
        assert c.online_estimate() is not None
        assert c.online_estimate() is not prior

    def test_validation(self, optimizer):
        with pytest.raises(ConfigError):
            AdaptiveController(
                OrderStatisticEstimator("lognormal"), optimizer, k=5, deadline=0.0
            )
        with pytest.raises(ConfigError):
            AdaptiveController(
                OrderStatisticEstimator("lognormal"),
                optimizer,
                k=5,
                deadline=1.0,
                min_samples=1,
            )
        with pytest.raises(ConfigError):
            AdaptiveController(
                OrderStatisticEstimator("lognormal"),
                optimizer,
                k=5,
                deadline=1.0,
                reoptimize_every=0,
            )
