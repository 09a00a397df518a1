"""Unit tests for the HyCiM hybrid solver."""

import numpy as np
import pytest

from repro.annealing.hycim import HyCiMSolver
from repro.core.transformation import InequalityQUBO
from repro.core.qubo import QUBOModel
from repro.dynamics.moves import KnapsackNeighborhoodMove
from repro.dynamics.schedule import GeometricSchedule
from repro.exact.brute_force import solve_brute_force


class TestConstruction:
    def test_accepts_problem_and_model(self, tiny_qkp):
        from_problem = HyCiMSolver(tiny_qkp, num_iterations=10)
        from_model = HyCiMSolver(tiny_qkp.to_inequality_qubo(), num_iterations=10)
        assert from_problem.model.num_variables == from_model.model.num_variables == 3

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            HyCiMSolver("not a problem")

    def test_validation(self, tiny_qkp):
        with pytest.raises(ValueError):
            HyCiMSolver(tiny_qkp, num_iterations=0)
        with pytest.raises(ValueError):
            HyCiMSolver(tiny_qkp, moves_per_iteration=0)

    def test_hardware_components_built(self, tiny_qkp):
        solver = HyCiMSolver(tiny_qkp, use_hardware=True, num_iterations=10)
        assert solver.crossbar is not None
        assert len(solver.inequality_filters) == 1

    def test_software_mode_has_no_hardware(self, tiny_qkp):
        solver = HyCiMSolver(tiny_qkp, use_hardware=False, num_iterations=10)
        assert solver.crossbar is None
        assert solver.inequality_filters == {}


class TestSolving:
    def test_tiny_problem_reaches_optimum_software(self, tiny_qkp):
        solver = HyCiMSolver(tiny_qkp, use_hardware=False, num_iterations=300, seed=0)
        result = solver.solve()
        assert result.feasible
        assert result.best_objective == pytest.approx(25.0)
        assert tiny_qkp.is_feasible(result.best_configuration)

    def test_tiny_problem_reaches_optimum_hardware(self, tiny_qkp):
        solver = HyCiMSolver(tiny_qkp, use_hardware=True, num_iterations=300, seed=0)
        result = solver.solve()
        assert result.feasible
        assert result.best_objective == pytest.approx(25.0)

    def test_best_solution_is_always_feasible(self, small_qkp):
        solver = HyCiMSolver(small_qkp, use_hardware=False, num_iterations=400,
                             move_generator=KnapsackNeighborhoodMove(), seed=2)
        for run in range(5):
            result = solver.solve(rng=np.random.default_rng(run))
            assert result.feasible
            assert small_qkp.is_feasible(result.best_configuration)
            assert result.best_objective == pytest.approx(
                small_qkp.objective(result.best_configuration)
            )

    def test_reaches_near_optimum_on_small_instance(self, small_qkp):
        optimum = solve_brute_force(small_qkp).best_value
        solver = HyCiMSolver(small_qkp, use_hardware=False, num_iterations=200,
                             moves_per_iteration=small_qkp.num_items,
                             move_generator=KnapsackNeighborhoodMove(),
                             schedule=GeometricSchedule(1000.0, 1.0), seed=3)
        result = solver.solve()
        assert result.best_objective >= 0.95 * optimum

    def test_infeasible_initial_configuration_recovers(self, tiny_qkp):
        solver = HyCiMSolver(tiny_qkp, use_hardware=False, num_iterations=300, seed=1)
        result = solver.solve(initial=np.array([1.0, 1.0, 1.0]))
        assert result.feasible
        assert result.best_objective > 0.0

    def test_filter_skips_infeasible_candidates(self, tiny_qkp):
        solver = HyCiMSolver(tiny_qkp, use_hardware=True, num_iterations=300, seed=4)
        result = solver.solve()
        assert result.num_infeasible_skipped > 0
        assert result.num_feasible_evaluations + result.num_infeasible_skipped == 300

    def test_initial_length_validation(self, tiny_qkp):
        solver = HyCiMSolver(tiny_qkp, num_iterations=10)
        with pytest.raises(ValueError):
            solver.solve(initial=np.zeros(5))

    def test_history_recording(self, tiny_qkp):
        solver = HyCiMSolver(tiny_qkp, use_hardware=False, num_iterations=50,
                             record_history=True, seed=5)
        result = solver.solve()
        assert len(result.energy_history) == 50
        assert all(a >= b for a, b in zip(result.energy_history,
                                          result.energy_history[1:]))


class TestUnconstrainedProblems:
    def test_plain_qubo_model_is_supported(self, rng):
        qubo = QUBOModel(np.diag([-1.0, -2.0, 3.0, -4.0]))
        model = InequalityQUBO(qubo=qubo, constraints=())
        solver = HyCiMSolver(model, use_hardware=False, num_iterations=300, seed=7)
        result = solver.solve()
        assert result.best_energy == pytest.approx(-7.0)
        # No native problem attached, objective is unknown.
        assert result.best_objective is None

    def test_maxcut_through_hycim(self, small_maxcut):
        optimum = solve_brute_force(small_maxcut).best_value
        solver = HyCiMSolver(small_maxcut, use_hardware=False, num_iterations=200,
                             moves_per_iteration=small_maxcut.num_nodes,
                             schedule=GeometricSchedule(20.0, 0.01), seed=8)
        result = solver.solve()
        assert result.best_objective >= 0.9 * optimum
