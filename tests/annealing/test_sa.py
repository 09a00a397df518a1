"""Unit tests for the generic QUBO simulated annealer."""

import numpy as np
import pytest

from repro.annealing.sa import SimulatedAnnealer
from repro.core.qubo import QUBOModel
from repro.dynamics.moves import MultiFlipMove
from repro.dynamics.schedule import GeometricSchedule
from repro.problems.generators import generate_maxcut_instance, generate_sk_instance


class TestBasicBehaviour:
    def test_finds_trivial_minimum(self):
        # Independent variables with negative diagonal: optimum is all ones.
        qubo = QUBOModel(np.diag([-1.0, -2.0, -3.0, -4.0]))
        annealer = SimulatedAnnealer(num_iterations=500, seed=0)
        result = annealer.anneal(qubo)
        assert result.best_energy == pytest.approx(-10.0)
        np.testing.assert_array_equal(result.best_configuration, np.ones(4))

    def test_respects_initial_configuration(self):
        qubo = QUBOModel(np.diag([5.0, 5.0]))
        annealer = SimulatedAnnealer(num_iterations=10, seed=0)
        result = annealer.anneal(qubo, initial=np.zeros(2))
        assert result.best_energy == pytest.approx(0.0)

    def test_initial_length_validation(self):
        annealer = SimulatedAnnealer(num_iterations=10)
        with pytest.raises(ValueError):
            annealer.anneal(QUBOModel.zeros(4), initial=np.zeros(3))

    def test_iteration_validation(self):
        with pytest.raises(ValueError):
            SimulatedAnnealer(num_iterations=0)
        with pytest.raises(ValueError):
            SimulatedAnnealer(moves_per_iteration=0)

    def test_history_recording(self):
        qubo = QUBOModel(np.diag([-1.0, -1.0]))
        annealer = SimulatedAnnealer(num_iterations=50, record_history=True, seed=1)
        result = annealer.anneal(qubo)
        assert len(result.energy_history) == 50
        # Best-so-far history is non-increasing.
        assert all(a >= b for a, b in zip(result.energy_history,
                                          result.energy_history[1:]))

    def test_moves_per_iteration_multiplies_budget(self):
        qubo = QUBOModel(np.diag([-1.0] * 6))
        annealer = SimulatedAnnealer(num_iterations=10, moves_per_iteration=6, seed=2)
        result = annealer.anneal(qubo)
        assert result.num_iterations == 60
        assert result.num_feasible_evaluations == 60


class TestSolutionQuality:
    def test_matches_brute_force_on_small_maxcut(self):
        problem = generate_maxcut_instance(num_nodes=10, edge_probability=0.6, seed=4)
        qubo = problem.to_qubo()
        _, optimum = qubo.brute_force_minimum()
        annealer = SimulatedAnnealer(num_iterations=300, moves_per_iteration=10,
                                     schedule=GeometricSchedule(20.0, 0.01), seed=5)
        result = annealer.anneal(qubo)
        assert result.best_energy <= 0.95 * optimum  # optimum is negative

    def test_spin_glass_energy_is_low(self):
        problem = generate_sk_instance(num_spins=14, seed=6)
        qubo = problem.to_qubo()
        _, optimum = qubo.brute_force_minimum()
        annealer = SimulatedAnnealer(num_iterations=400, moves_per_iteration=14,
                                     schedule=GeometricSchedule(2.0, 0.001), seed=6)
        result = annealer.anneal(qubo)
        assert result.best_energy <= 0.9 * optimum

    def test_accept_filter_blocks_configurations(self):
        # Filter that forbids selecting more than one variable.
        qubo = QUBOModel(np.diag([-1.0, -1.0, -1.0]))
        annealer = SimulatedAnnealer(num_iterations=200, seed=3)
        result = annealer.anneal(qubo, initial=np.zeros(3),
                                 accept_filter=lambda x: x.sum() <= 1)
        assert result.best_configuration.sum() <= 1
        assert result.best_energy == pytest.approx(-1.0)
        assert result.num_infeasible_skipped > 0

    def test_multi_flip_moves_supported(self):
        qubo = QUBOModel(np.diag([-1.0] * 8))
        annealer = SimulatedAnnealer(num_iterations=400,
                                     move_generator=MultiFlipMove(num_flips=2), seed=7)
        result = annealer.anneal(qubo)
        assert result.best_energy <= -6.0

    def test_deterministic_given_rng(self):
        qubo = QUBOModel(np.diag([-1.0, 2.0, -3.0]))
        annealer = SimulatedAnnealer(num_iterations=100)
        a = annealer.anneal(qubo, rng=np.random.default_rng(9))
        b = annealer.anneal(qubo, rng=np.random.default_rng(9))
        assert a.best_energy == b.best_energy
        np.testing.assert_array_equal(a.best_configuration, b.best_configuration)
