"""Unit tests for the quadratic knapsack problem."""

import numpy as np
import pytest

from repro.problems.qkp import QuadraticKnapsackProblem


class TestConstruction:
    def test_symmetry_required(self):
        with pytest.raises(ValueError):
            QuadraticKnapsackProblem(np.array([[1.0, 2.0], [3.0, 1.0]]),
                                     np.array([1.0, 1.0]), 2.0)

    def test_symmetry_is_exact(self):
        # Symmetric to np.allclose's rtol, yet objective (200002.5 for
        # x = (1, 1)) and the upper-triangle QUBO (-200002.0) would disagree.
        with pytest.raises(ValueError, match="exactly symmetric"):
            QuadraticKnapsackProblem(
                np.array([[1.0, 200000.0], [200001.0, 1.0]]),
                np.array([1.0, 1.0]), 2.0)

    def test_positive_weights_required(self):
        with pytest.raises(ValueError):
            QuadraticKnapsackProblem(np.eye(2), np.array([1.0, 0.0]), 2.0)

    def test_positive_capacity_required(self):
        with pytest.raises(ValueError):
            QuadraticKnapsackProblem(np.eye(2), np.array([1.0, 1.0]), 0.0)

    def test_weight_length_must_match(self):
        with pytest.raises(ValueError):
            QuadraticKnapsackProblem(np.eye(3), np.array([1.0, 1.0]), 2.0)


class TestObjectiveAndFeasibility:
    def test_objective_counts_pairwise_profit_once(self, tiny_qkp):
        assert tiny_qkp.objective([1, 0, 1]) == pytest.approx(10 + 8 + 7)
        assert tiny_qkp.objective([1, 1, 1]) == pytest.approx(10 + 6 + 8 + 3 + 7 + 2)
        assert tiny_qkp.objective([0, 0, 0]) == 0.0

    def test_total_weight_and_feasibility(self, tiny_qkp):
        assert tiny_qkp.total_weight([1, 1, 0]) == pytest.approx(11)
        assert not tiny_qkp.is_feasible([1, 1, 0])
        assert tiny_qkp.is_feasible([0, 1, 1])  # exactly at capacity

    def test_brute_force_best(self, tiny_qkp):
        best_x, best_value = tiny_qkp.brute_force_best()
        assert best_value == pytest.approx(25.0)
        np.testing.assert_array_equal(best_x, [1.0, 0.0, 1.0])

    def test_constraint_object(self, tiny_qkp):
        constraint = tiny_qkp.constraint()
        assert constraint.bound == 9.0
        np.testing.assert_array_equal(constraint.weight_vector, tiny_qkp.weights)

    def test_density(self, tiny_qkp, small_qkp):
        assert tiny_qkp.density() == pytest.approx(1.0)
        assert 0.0 < small_qkp.density() < 1.0


class TestQUBOConversions:
    def test_to_qubo_energy_is_negated_objective(self, tiny_qkp, rng):
        qubo = tiny_qkp.to_qubo()
        for _ in range(8):
            x = rng.integers(0, 2, size=3).astype(float)
            assert qubo.energy(x) == pytest.approx(-tiny_qkp.objective(x))

    def test_to_inequality_qubo_matches_eq6(self, tiny_qkp, rng):
        model = tiny_qkp.to_inequality_qubo()
        for bits in range(8):
            x = np.array([(bits >> k) & 1 for k in range(3)], dtype=float)
            if tiny_qkp.is_feasible(x):
                assert model.energy(x) == pytest.approx(-tiny_qkp.objective(x))
            else:
                assert model.energy(x) == 0.0

    def test_inequality_qubo_max_coefficient_is_problem_scale(self, small_qkp):
        # HyCiM's Q_max equals the largest profit, independent of the capacity.
        model = small_qkp.to_inequality_qubo()
        assert model.qubo.max_abs_coefficient == pytest.approx(
            float(np.max(np.abs(small_qkp.profits)))
        )


class TestSampling:
    def test_random_feasible_configuration_is_feasible(self, small_qkp, rng):
        for _ in range(50):
            x = small_qkp.random_feasible_configuration(rng)
            assert small_qkp.is_feasible(x)

    def test_random_infeasible_configuration_is_infeasible(self, small_qkp, rng):
        for _ in range(50):
            x = small_qkp.random_infeasible_configuration(rng)
            assert not small_qkp.is_feasible(x)

    def test_infeasible_sampling_fails_when_capacity_exceeds_total_weight(self, rng):
        problem = QuadraticKnapsackProblem(np.eye(3), np.ones(3), capacity=10.0)
        with pytest.raises(RuntimeError):
            problem.random_infeasible_configuration(rng, max_tries=20)
