"""Unit tests for annealing temperature schedules."""

import numpy as np
import pytest

from repro.dynamics.acceptance import acceptance_probability
from repro.dynamics.schedule import (
    ConstantSchedule,
    ExponentialSchedule,
    GeometricSchedule,
    LinearSchedule,
)


class TestGeometricSchedule:
    def test_endpoints(self):
        schedule = GeometricSchedule(start_temperature=10.0, end_temperature=0.1)
        assert schedule.temperature(0, 100) == pytest.approx(10.0)
        assert schedule.temperature(99, 100) == pytest.approx(0.1)

    def test_monotonically_decreasing(self):
        schedule = GeometricSchedule(start_temperature=5.0, end_temperature=0.01)
        temps = [schedule.temperature(k, 50) for k in range(50)]
        assert all(a >= b for a, b in zip(temps, temps[1:]))

    def test_single_iteration(self):
        schedule = GeometricSchedule(start_temperature=3.0, end_temperature=1.0)
        assert schedule.temperature(0, 1) == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            GeometricSchedule(start_temperature=-1.0)
        with pytest.raises(ValueError):
            GeometricSchedule(start_temperature=1.0, end_temperature=2.0)
        schedule = GeometricSchedule()
        with pytest.raises(ValueError):
            schedule.temperature(5, 5)
        with pytest.raises(ValueError):
            schedule.temperature(0, 0)


class TestOtherSchedules:
    def test_linear_endpoints_and_midpoint(self):
        schedule = LinearSchedule(start_temperature=10.0, end_temperature=2.0)
        assert schedule.temperature(0, 5) == pytest.approx(10.0)
        assert schedule.temperature(4, 5) == pytest.approx(2.0)
        assert schedule.temperature(2, 5) == pytest.approx(6.0)

    def test_exponential_decay_factor(self):
        schedule = ExponentialSchedule(start_temperature=8.0, decay=0.5)
        assert schedule.temperature(0, 10) == pytest.approx(8.0)
        assert schedule.temperature(3, 10) == pytest.approx(1.0)

    def test_exponential_validation(self):
        with pytest.raises(ValueError):
            ExponentialSchedule(decay=1.5)

    def test_constant(self):
        schedule = ConstantSchedule(value=2.5)
        assert schedule.temperature(0, 10) == 2.5
        assert schedule.temperature(9, 10) == 2.5
        with pytest.raises(ValueError):
            ConstantSchedule(value=0.0)


class TestAcceptanceProbability:
    def test_downhill_always_accepted(self):
        assert acceptance_probability(-5.0, 1.0) == 1.0
        assert acceptance_probability(0.0, 1.0) == 1.0

    def test_uphill_follows_metropolis(self):
        assert acceptance_probability(1.0, 1.0) == pytest.approx(np.exp(-1.0))
        assert acceptance_probability(2.0, 4.0) == pytest.approx(np.exp(-0.5))

    def test_zero_temperature_rejects_uphill(self):
        assert acceptance_probability(1.0, 0.0) == 0.0

    def test_extreme_delta_underflow_is_zero(self):
        assert acceptance_probability(1e6, 1.0) == 0.0
