"""Wait optimization: Pseudocode 2 scalar reference vs vectorized path."""

import numpy as np
import pytest

from repro.core import (
    Stage,
    TreeSpec,
    WaitOptimizer,
    calculate_wait,
    wait_schedule,
)
from repro.core.quality import sweep_wait
from repro.distributions import LogNormal
from repro.errors import ConfigError

X1 = LogNormal(0.0, 0.8)
X2 = LogNormal(0.5, 0.5)
TREE = TreeSpec.two_level(X1, 20, X2, 10)


class TestCalculateWait:
    def test_zero_for_nonpositive_deadline(self):
        assert calculate_wait(TREE, 0.0) == 0.0
        assert calculate_wait(TREE, -1.0) == 0.0

    def test_within_deadline(self):
        w = calculate_wait(TREE, 5.0, epsilon=0.05)
        assert 0.0 <= w <= 5.0

    def test_matches_vectorized_sweep(self):
        deadline = 6.0
        m = 120
        opt = WaitOptimizer([Stage(X2, 10)], deadline, grid_points=m)
        scalar = calculate_wait(TREE, deadline, epsilon=deadline / m)
        vector = opt.optimize(X1, 20)
        assert scalar == pytest.approx(vector, abs=deadline / m + 1e-9)

    def test_invalid_epsilon(self):
        with pytest.raises(ConfigError):
            calculate_wait(TREE, 5.0, epsilon=0.0)

    def test_custom_tail_quality(self):
        # a tail that collapses at remaining < 1.0 forces wait <= D - 1
        deadline = 5.0

        def cliff(d: float) -> float:
            return 1.0 if d >= 1.0 else 0.0

        w = calculate_wait(TREE, deadline, epsilon=0.05, tail_quality=cliff)
        assert w <= 4.0 + 0.05 + 1e-9


class TestWaitOptimizer:
    def test_reuse_across_bottom_distributions(self):
        opt = WaitOptimizer([Stage(X2, 10)], 6.0, grid_points=128)
        w_fast = opt.optimize(LogNormal(-1.0, 0.5), 20)
        w_slow = opt.optimize(LogNormal(1.0, 0.5), 20)
        assert 0.0 <= w_fast <= 6.0
        assert 0.0 <= w_slow <= 6.0

    def test_max_quality_higher_for_faster_processes(self):
        opt = WaitOptimizer([Stage(X2, 10)], 6.0, grid_points=128)
        q_fast = opt.max_quality(LogNormal(-1.0, 0.5), 20)
        q_slow = opt.max_quality(LogNormal(2.0, 0.5), 20)
        assert q_fast > q_slow

    def test_epsilon_property(self):
        opt = WaitOptimizer([Stage(X2, 10)], 8.0, grid_points=100)
        assert opt.epsilon == pytest.approx(0.08)

    def test_invalid_deadline(self):
        with pytest.raises(ConfigError):
            WaitOptimizer([Stage(X2, 10)], 0.0)

    def test_full_survival_curve_is_bit_identical(self):
        """``shipment_survival=1.0`` discounts the gain by ``1.0 * x``, so
        the curve equals the default one and the undiscounted sweep."""
        plain = WaitOptimizer([Stage(X2, 10)], 6.0, grid_points=128)
        full = WaitOptimizer(
            [Stage(X2, 10)], 6.0, grid_points=128, shipment_survival=1.0
        )
        for x1 in (X1, LogNormal(1.0, 0.3)):
            a = plain.curve(x1, 20)
            b = full.curve(x1, 20)
            c = sweep_wait(x1, 20, plain.tail)
            assert a.quality.tobytes() == b.quality.tobytes()
            assert a.quality.tobytes() == c.quality.tobytes()
            assert a.epsilon == b.epsilon == c.epsilon

    @pytest.mark.parametrize("survival", [0.0, -0.5, 1.0 + 1e-12, 2.0])
    def test_survival_outside_unit_interval_rejected(self, survival):
        with pytest.raises(ConfigError):
            WaitOptimizer([Stage(X2, 10)], 6.0, shipment_survival=survival)


class TestWaitSchedule:
    def test_two_level_single_stop(self):
        sched = wait_schedule(TREE, 6.0, grid_points=128)
        assert len(sched.stops) == 1
        assert 0.0 <= sched.stop_for_level(1) <= 6.0
        assert 0.0 <= sched.expected_quality <= 1.0

    def test_three_level_stops_monotone(self):
        tree = TreeSpec([Stage(X1, 10), Stage(X2, 10), Stage(X2, 10)])
        sched = wait_schedule(tree, 10.0, grid_points=128)
        assert len(sched.stops) == 2
        assert sched.stops[0] <= sched.stops[1]

    def test_zero_deadline(self):
        sched = wait_schedule(TREE, 0.0)
        assert sched.stops == (0.0,)
        assert sched.expected_quality == 0.0

    def test_level_validation(self):
        sched = wait_schedule(TREE, 6.0, grid_points=64)
        with pytest.raises(ConfigError):
            sched.stop_for_level(0)
        with pytest.raises(ConfigError):
            sched.stop_for_level(2)

    def test_schedule_quality_matches_max_quality(self):
        from repro.core import max_quality

        sched = wait_schedule(TREE, 6.0, grid_points=256)
        assert sched.expected_quality == pytest.approx(
            max_quality(TREE, 6.0, grid_points=256), abs=1e-9
        )


class TestOptimalityAgainstBruteForce:
    def test_grid_optimum_beats_random_fixed_waits(self, rng):
        """The chosen wait should (in expectation) beat arbitrary waits.

        Evaluate expected quality of a two-level tree analytically:
        Q(w) ~ F1(w) * F2(D - w) ignoring early-departure, which is what
        the model optimizes before the (F-F^k) refinement; we use the
        model's own curve to confirm argmax consistency instead.
        """
        deadline = 6.0
        opt = WaitOptimizer([Stage(X2, 10)], deadline, grid_points=256)
        curve = opt.curve(X1, 20)
        best = curve.max_quality
        assert np.all(curve.quality <= best + 1e-12)
