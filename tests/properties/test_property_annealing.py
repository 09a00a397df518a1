"""Hypothesis property tests for move generators and temperature schedules."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics.acceptance import acceptance_probability
from repro.dynamics.moves import (
    KnapsackNeighborhoodMove,
    MultiFlipMove,
    OneHotGroupMove,
    SingleFlipMove,
)
from repro.dynamics.schedule import (
    ExponentialSchedule,
    GeometricSchedule,
    LinearSchedule,
)


def binary_vectors(min_size=1, max_size=24):
    return st.lists(st.integers(0, 1), min_size=min_size, max_size=max_size).map(
        lambda bits: np.array(bits, dtype=float)
    )


class TestMoveProperties:
    @given(binary_vectors(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_single_flip_changes_exactly_one_bit(self, x, seed):
        rng = np.random.default_rng(seed)
        candidate = SingleFlipMove().propose(x, rng)
        assert candidate.shape == x.shape
        assert int(np.sum(candidate != x)) == 1

    @given(binary_vectors(min_size=2), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_multi_flip_changes_requested_bits(self, x, flips, seed):
        rng = np.random.default_rng(seed)
        candidate = MultiFlipMove(num_flips=flips).propose(x, rng)
        assert int(np.sum(candidate != x)) == min(flips, x.shape[0])

    @given(binary_vectors(min_size=2), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_knapsack_move_output_is_binary_and_near(self, x, seed):
        rng = np.random.default_rng(seed)
        candidate = KnapsackNeighborhoodMove().propose(x, rng)
        assert np.all((candidate == 0) | (candidate == 1))
        assert 0 <= int(np.sum(candidate != x)) <= 2
        # The input vector is never mutated.
        assert np.all((x == 0) | (x == 1))

    @given(st.integers(2, 6), st.integers(2, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_one_hot_group_move_keeps_groups_one_hot(self, num_groups, group_size, seed):
        rng = np.random.default_rng(seed)
        move = OneHotGroupMove(group_sizes=[group_size] * num_groups)
        x = np.zeros(num_groups * group_size)
        for g in range(num_groups):
            x[g * group_size + int(rng.integers(0, group_size))] = 1.0
        for _ in range(5):
            x = move.propose(x, rng)
            blocks = x.reshape(num_groups, group_size)
            assert np.all(blocks.sum(axis=1) == 1)


class TestScheduleProperties:
    @given(st.floats(0.01, 100.0), st.floats(1e-4, 1.0), st.integers(2, 500))
    @settings(max_examples=60, deadline=None)
    def test_geometric_schedule_is_monotone_and_bounded(self, start, end_fraction, steps):
        end = start * end_fraction
        schedule = GeometricSchedule(start_temperature=start, end_temperature=end)
        temps = [schedule.temperature(k, steps) for k in range(steps)]
        assert all(a >= b - 1e-12 for a, b in zip(temps, temps[1:]))
        assert np.isclose(temps[0], start)
        assert np.isclose(temps[-1], end)
        assert all(end - 1e-9 <= t <= start + 1e-9 for t in temps)

    @given(st.floats(0.01, 100.0), st.floats(1e-4, 1.0), st.integers(2, 500))
    @settings(max_examples=40, deadline=None)
    def test_linear_schedule_endpoints(self, start, end_fraction, steps):
        end = start * end_fraction
        schedule = LinearSchedule(start_temperature=start, end_temperature=end)
        assert np.isclose(schedule.temperature(0, steps), start)
        assert np.isclose(schedule.temperature(steps - 1, steps), end)

    @given(st.floats(0.01, 100.0), st.floats(0.5, 0.999), st.integers(1, 200))
    @settings(max_examples=40, deadline=None)
    def test_exponential_schedule_decays(self, start, decay, steps):
        schedule = ExponentialSchedule(start_temperature=start, decay=decay)
        temps = [schedule.temperature(k, steps) for k in range(steps)]
        assert all(a >= b for a, b in zip(temps, temps[1:]))

    @given(st.floats(-1e3, 1e3, allow_nan=False), st.floats(1e-6, 1e3))
    @settings(max_examples=80, deadline=None)
    def test_acceptance_probability_is_a_probability(self, delta, temperature):
        p = acceptance_probability(delta, temperature)
        assert 0.0 <= p <= 1.0
        if delta <= 0:
            assert p == 1.0

    @given(st.floats(0.1, 100.0), st.floats(1e-3, 100.0))
    @settings(max_examples=40, deadline=None)
    def test_acceptance_probability_monotone_in_temperature(self, delta, temperature):
        hotter = acceptance_probability(delta, temperature * 2)
        colder = acceptance_probability(delta, temperature)
        assert hotter >= colder - 1e-12
