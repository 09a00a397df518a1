"""Unit tests for the D-QUBO baseline annealer."""

import numpy as np
import pytest

from repro.annealing.dqubo_solver import DQUBOAnnealer
from repro.core.dqubo import SlackEncoding
from repro.dynamics.schedule import GeometricSchedule


class TestConstruction:
    def test_requires_knapsack_like_problem(self, small_maxcut):
        with pytest.raises(TypeError):
            DQUBOAnnealer(small_maxcut)

    def test_validation(self, tiny_qkp):
        with pytest.raises(ValueError):
            DQUBOAnnealer(tiny_qkp, num_iterations=0)
        with pytest.raises(ValueError):
            DQUBOAnnealer(tiny_qkp, moves_per_iteration=0)

    def test_transformation_exposed(self, tiny_qkp):
        annealer = DQUBOAnnealer(tiny_qkp, num_iterations=10)
        assert annealer.transformation.num_variables == 12
        assert annealer.crossbar is None

    def test_hardware_mode_builds_crossbar(self, tiny_qkp):
        annealer = DQUBOAnnealer(tiny_qkp, num_iterations=10, use_hardware=True)
        assert annealer.crossbar is not None
        assert annealer.crossbar.num_variables == 12


class TestInitialExtension:
    def test_one_hot_slack_seeded_consistently(self, tiny_qkp):
        annealer = DQUBOAnnealer(tiny_qkp, num_iterations=10, seed=0)
        extended = annealer.extend_initial(np.array([1.0, 0.0, 1.0]))  # weight 6
        assert extended.shape == (12,)
        aux = extended[3:]
        assert aux.sum() == 1.0
        assert aux[5] == 1.0  # one-hot position for weight 6

    def test_binary_slack_seeded_consistently(self, tiny_qkp):
        annealer = DQUBOAnnealer(tiny_qkp, num_iterations=10, seed=0,
                                 encoding=SlackEncoding.BINARY)
        extended = annealer.extend_initial(np.array([1.0, 0.0, 1.0]))  # slack 3
        aux = extended[3:]
        assert float(np.array([1, 2, 4, 8]) @ aux) == pytest.approx(3.0)

    def test_wrong_length_rejected(self, tiny_qkp):
        annealer = DQUBOAnnealer(tiny_qkp, num_iterations=10)
        with pytest.raises(ValueError):
            annealer.extend_initial(np.zeros(5))


class TestSolving:
    def test_decoded_configuration_has_problem_dimension(self, tiny_qkp):
        annealer = DQUBOAnnealer(tiny_qkp, num_iterations=200, seed=1)
        result = annealer.solve()
        assert result.best_configuration.shape == (3,)
        assert result.solver_name == "D-QUBO"
        assert result.metadata["qubo_dimension"] == 12

    def test_infeasible_outcome_reports_zero_objective(self, tiny_qkp):
        annealer = DQUBOAnnealer(tiny_qkp, num_iterations=200, seed=1)
        results = [annealer.solve(rng=np.random.default_rng(k)) for k in range(8)]
        for result in results:
            if not result.feasible:
                assert result.best_objective == 0.0
            else:
                assert result.best_objective == pytest.approx(
                    tiny_qkp.objective(result.best_configuration)
                )

    def test_accepts_problem_dimension_or_full_initial(self, tiny_qkp):
        annealer = DQUBOAnnealer(tiny_qkp, num_iterations=50, seed=2)
        short = annealer.solve(initial=np.zeros(3))
        long = annealer.solve(initial=np.zeros(12))
        assert short.best_configuration.shape == (3,)
        assert long.best_configuration.shape == (3,)
        with pytest.raises(ValueError):
            annealer.solve(initial=np.zeros(7))

    def test_strong_penalties_can_recover_optimum(self, tiny_qkp):
        annealer = DQUBOAnnealer(tiny_qkp, alpha=50.0, beta=50.0,
                                 num_iterations=400, moves_per_iteration=12,
                                 schedule=GeometricSchedule(200.0, 0.5), seed=3)
        best = max(
            (annealer.solve(rng=np.random.default_rng(k)) for k in range(5)),
            key=lambda r: r.best_objective or 0.0,
        )
        assert best.best_objective >= 0.8 * 25.0

    def test_hardware_mode_solves(self, tiny_qkp):
        annealer = DQUBOAnnealer(tiny_qkp, num_iterations=100, use_hardware=True, seed=5)
        result = annealer.solve()
        assert result.best_configuration.shape == (3,)
        assert result.metadata["use_hardware"] is True
