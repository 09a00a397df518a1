"""Unit tests for the multi-dimensional quadratic knapsack problem."""

import numpy as np
import pytest

from repro.annealing.hycim import HyCiMSolver
from repro.dynamics.moves import KnapsackNeighborhoodMove
from repro.dynamics.schedule import GeometricSchedule
from repro.exact.brute_force import solve_brute_force
from repro.problems.multidim_knapsack import (
    MultiDimensionalKnapsackProblem,
    generate_mdqkp_instance,
)


@pytest.fixture
def small_mdqkp():
    """3 items, 2 resource dimensions, optimum computable by hand.

    Profits: diag (10, 6, 8), p02 = 7.  Weights: dimension 0 = (4, 7, 2) with
    C0 = 9, dimension 1 = (5, 1, 5) with C1 = 8.  Items {0, 2} fit dimension 0
    (6 <= 9) but not dimension 1 (10 > 8), so the optimum drops to item 0
    alone or items {1, 2}: profit({1,2}) = 6 + 8 = 14 beats 10.
    """
    profits = np.array([
        [10.0, 0.0, 7.0],
        [0.0, 6.0, 0.0],
        [7.0, 0.0, 8.0],
    ])
    weights = np.array([
        [4.0, 7.0, 2.0],
        [5.0, 1.0, 5.0],
    ])
    capacities = np.array([9.0, 8.0])
    return MultiDimensionalKnapsackProblem(profits=profits, weights=weights,
                                           capacities=capacities, name="small_md")


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            MultiDimensionalKnapsackProblem(np.array([[1.0, 2.0], [3.0, 1.0]]),
                                            np.ones((1, 2)), np.array([1.0]))
        with pytest.raises(ValueError):
            MultiDimensionalKnapsackProblem(np.eye(2), np.ones((1, 3)), np.array([1.0]))
        with pytest.raises(ValueError):
            MultiDimensionalKnapsackProblem(np.eye(2), np.ones((2, 2)), np.array([1.0]))
        with pytest.raises(ValueError):
            MultiDimensionalKnapsackProblem(np.eye(2), -np.ones((1, 2)), np.array([1.0]))
        with pytest.raises(ValueError):
            MultiDimensionalKnapsackProblem(np.eye(2), np.ones((1, 2)), np.array([0.0]))

    def test_symmetry_is_exact(self):
        # Symmetric to np.allclose's rtol, yet objective and the
        # upper-triangle QUBO would disagree by half the asymmetry.
        with pytest.raises(ValueError, match="exactly symmetric"):
            MultiDimensionalKnapsackProblem(
                np.array([[1.0, 200000.0], [200001.0, 1.0]]),
                np.ones((1, 2)), np.array([2.0]))

    def test_dimensions(self, small_mdqkp):
        assert small_mdqkp.num_items == 3
        assert small_mdqkp.num_constraints == 2


class TestObjectiveAndFeasibility:
    def test_objective(self, small_mdqkp):
        assert small_mdqkp.objective([1, 0, 1]) == pytest.approx(25.0)
        assert small_mdqkp.objective([0, 1, 1]) == pytest.approx(14.0)

    def test_resource_usage_and_feasibility(self, small_mdqkp):
        np.testing.assert_allclose(small_mdqkp.resource_usage([1, 0, 1]), [6.0, 10.0])
        assert not small_mdqkp.is_feasible([1, 0, 1])   # violates dimension 1
        assert small_mdqkp.is_feasible([0, 1, 1])
        assert small_mdqkp.is_feasible([1, 0, 0])

    def test_brute_force_optimum(self, small_mdqkp):
        result = solve_brute_force(small_mdqkp)
        assert result.best_value == pytest.approx(14.0)
        np.testing.assert_array_equal(result.best_configuration, [0.0, 1.0, 1.0])

    def test_constraints_objects(self, small_mdqkp):
        constraints = small_mdqkp.constraints()
        assert len(constraints) == 2
        assert constraints[0].bound == 9.0
        assert constraints[1].bound == 8.0


class TestQUBOAndSolver:
    def test_inequality_qubo_has_one_constraint_per_dimension(self, small_mdqkp):
        model = small_mdqkp.to_inequality_qubo()
        assert model.num_constraints == 2
        assert model.num_variables == 3
        assert model.energy([0, 1, 1]) == pytest.approx(-14.0)
        assert model.energy([1, 0, 1]) == 0.0  # infeasible in dimension 1

    def test_hycim_builds_one_filter_per_constraint(self, small_mdqkp):
        solver = HyCiMSolver(small_mdqkp, use_hardware=True, num_iterations=10)
        assert len(solver.inequality_filters) == 2

    def test_hycim_solves_small_instance(self, small_mdqkp):
        solver = HyCiMSolver(small_mdqkp, use_hardware=True, num_iterations=200, seed=0)
        result = solver.solve()
        assert result.feasible
        assert result.best_objective == pytest.approx(14.0)

    def test_hycim_respects_all_constraints_on_random_instance(self):
        problem = generate_mdqkp_instance(num_items=16, num_constraints=3,
                                          max_weight=10, seed=4)
        solver = HyCiMSolver(problem, use_hardware=False, num_iterations=60,
                             moves_per_iteration=16,
                             move_generator=KnapsackNeighborhoodMove(),
                             schedule=GeometricSchedule(2000.0, 2.0), seed=1)
        result = solver.solve()
        assert result.feasible
        assert problem.is_feasible(result.best_configuration)
        assert result.best_objective > 0


class TestGenerator:
    def test_generator_shapes_and_tightness(self):
        problem = generate_mdqkp_instance(num_items=20, num_constraints=4,
                                          tightness=0.4, seed=1)
        assert problem.num_items == 20
        assert problem.num_constraints == 4
        # Capacities are roughly the requested fraction of the total weights.
        ratios = problem.capacities / problem.weights.sum(axis=1)
        assert np.all(ratios <= 0.45)

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            generate_mdqkp_instance(num_constraints=0)
        with pytest.raises(ValueError):
            generate_mdqkp_instance(tightness=1.5)

    def test_random_feasible_configuration(self, rng):
        problem = generate_mdqkp_instance(num_items=15, num_constraints=3, seed=2)
        for _ in range(20):
            assert problem.is_feasible(problem.random_feasible_configuration(rng))
