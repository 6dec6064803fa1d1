import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwvi.errors import InvalidParameters
from bwvi.schedules import StepSchedule, constant_schedule, theorem_schedule


class TestStepAt:
    def test_warmup_value(self):
        sched = StepSchedule(base_step=0.05, strong_convexity=1.0, switch_time=10, offset=0.0)
        assert sched.step_at(0) == 0.05
        assert sched.step_at(9) == 0.05

    def test_decay_arithmetic_simple(self):
        sched = StepSchedule(base_step=1.0, strong_convexity=1.0, switch_time=0, offset=0.0)
        assert sched.step_at(0) == 1.0  # (2*0 + 1) / 1^2

    def test_decay_arithmetic_with_offset(self):
        sched = StepSchedule(base_step=1.0, strong_convexity=2.0, switch_time=0, offset=3.0)
        np.testing.assert_allclose(sched.step_at(1), 0.18)  # (1/2) * 9 / 25

    def test_rejects_negative_iteration(self):
        with pytest.raises(InvalidParameters):
            constant_schedule(0.1).step_at(-1)


class TestConstantSchedule:
    def test_constant_everywhere(self):
        sched = constant_schedule(0.01)
        assert sched.step_at(0) == 0.01
        assert sched.step_at(123456) == 0.01

    def test_tiny_step_far_out(self):
        assert constant_schedule(1e-8).step_at(10**6) == 1e-8

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParameters):
            constant_schedule(0.0)


class TestTheoremSchedule:
    def test_unit_condition_number(self):
        sched = theorem_schedule(1.0, 1.0, dim=1, delta_sq=1.0)
        np.testing.assert_allclose(sched.base_step, 0.1)
        np.testing.assert_allclose(sched.offset, 8.0)
        assert sched.switch_time == 0  # log argument is exactly 1

    def test_condition_ten(self):
        sched = theorem_schedule(1.0, 10.0, dim=5, delta_sq=20.0)
        np.testing.assert_allclose(sched.base_step, 1.0 / 1000.0)
        np.testing.assert_allclose(sched.offset, 80.0)
        rate = math.log(1.0 / (1.0 - 1.0 / 1000.0))
        expected = math.ceil(math.log(10.0 * 20.0 / 5.0) / rate)
        assert sched.switch_time == expected

    def test_small_initial_distance_skips_warmup(self):
        sched = theorem_schedule(1.0, 10.0, dim=5, delta_sq=0.1)  # kappa d_sq / d < 1
        assert sched.switch_time == 0

    @pytest.mark.parametrize(
        "mu, smoothness, delta_sq", [(1.0, 1e8, 1.0), (1e-300, 1.0, 1.0), (1.0, 10.0, math.inf)]
    )
    def test_switch_beyond_float_range_never_comes(self, mu, smoothness, delta_sq):
        # 1/(10 kappa^2) rounds away against 1, kappa^2 overflows, or the log does
        sched = theorem_schedule(mu, smoothness, dim=1, delta_sq=delta_sq)
        assert sched.switch_time == math.inf
        assert sched.step_at(10**6) == sched.base_step

    def test_rejects_smoothness_below_convexity(self):
        with pytest.raises(InvalidParameters):
            theorem_schedule(2.0, 1.0, dim=1, delta_sq=1.0)


class TestScheduleShape:
    def test_monotone_nonincreasing_after_switch(self):
        sched = theorem_schedule(0.7, 4.2, dim=3, delta_sq=50.0)
        t_star = int(sched.switch_time)
        steps = [sched.step_at(t) for t in range(t_star, t_star + 500)]
        assert all(b <= a for a, b in zip(steps, steps[1:]))

    def test_bounded_by_base_step_with_large_offset(self):
        mu, gamma0 = 0.5, 0.02
        sched = StepSchedule(
            base_step=gamma0, strong_convexity=mu, switch_time=5, offset=2.0 / (gamma0 * mu)
        )
        steps = [sched.step_at(t) for t in range(2000)]
        assert max(steps) == gamma0

    def test_asymptote(self):
        mu = 0.8
        sched = StepSchedule(base_step=0.1, strong_convexity=mu, switch_time=0, offset=12.0)
        t = 10**6
        assert abs(t * sched.step_at(t) - 2.0 / mu) <= 0.01 * (2.0 / mu)

    @settings(max_examples=200, deadline=None)
    @given(
        mu=st.floats(1e-3, 1e3),
        gamma0=st.floats(1e-8, 10.0),
        offset=st.floats(0.0, 1e4),
        switch=st.integers(0, 1000),
        t=st.integers(0, 10**7),
    )
    def test_steps_always_positive(self, mu, gamma0, offset, switch, t):
        sched = StepSchedule(
            base_step=gamma0, strong_convexity=mu, switch_time=switch, offset=offset
        )
        assert sched.step_at(t) > 0.0
