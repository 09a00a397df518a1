"""Unit tests for the Sherrington-Kirkpatrick spin glass problem."""

import numpy as np
import pytest

from repro.problems.generators import generate_sk_instance
from repro.problems.spin_glass import SherringtonKirkpatrickProblem


@pytest.fixture
def two_spin_ferromagnet():
    # J01 = -1: aligned spins are the ground state with energy -1.
    couplings = np.array([[0.0, -1.0], [-1.0, 0.0]])
    return SherringtonKirkpatrickProblem(couplings)


class TestBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            SherringtonKirkpatrickProblem(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError):
            SherringtonKirkpatrickProblem(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_spin_energy(self, two_spin_ferromagnet):
        assert two_spin_ferromagnet.spin_energy([1, 1]) == pytest.approx(-1.0)
        assert two_spin_ferromagnet.spin_energy([1, -1]) == pytest.approx(1.0)

    def test_binary_objective_matches_spin_energy(self, two_spin_ferromagnet):
        # x = 0 maps to sigma = +1.
        assert two_spin_ferromagnet.objective([0, 0]) == pytest.approx(-1.0)
        assert two_spin_ferromagnet.objective([1, 0]) == pytest.approx(1.0)

    def test_every_configuration_feasible(self, two_spin_ferromagnet):
        assert two_spin_ferromagnet.is_feasible([0, 1])

    def test_objective_reuses_the_instance_ising_model(self, rng,
                                                       monkeypatch):
        # The Ising model is built once per instance: scoring a state
        # rebuilds nothing, and its value is the fresh model's, bit for bit.
        problem = generate_sk_instance(num_spins=12, seed=6)
        states = rng.integers(0, 2, size=(10, 12)).astype(float)
        fresh = problem.to_ising()
        expected = [fresh.energy(1.0 - 2.0 * x) for x in states]

        def rebuild(self):
            raise AssertionError("objective rebuilt the Ising model")

        monkeypatch.setattr(SherringtonKirkpatrickProblem, "to_ising",
                            rebuild)
        assert [problem.objective(x) for x in states] == expected
        assert problem.spin_energy(1.0 - 2.0 * states[0]) == expected[0]


class TestConversions:
    def test_qubo_energy_matches_objective(self, rng):
        problem = generate_sk_instance(num_spins=8, seed=4)
        qubo = problem.to_qubo()
        for _ in range(20):
            x = rng.integers(0, 2, size=8).astype(float)
            assert qubo.energy(x) == pytest.approx(problem.objective(x))

    def test_ground_state_consistency(self):
        problem = generate_sk_instance(num_spins=10, seed=9)
        qubo = problem.to_qubo()
        x_best, e_qubo = qubo.brute_force_minimum()
        _, e_problem = problem.brute_force_best()
        assert e_qubo == pytest.approx(e_problem)
        assert problem.objective(x_best) == pytest.approx(e_problem)

    def test_generator_scaling(self):
        problem = generate_sk_instance(num_spins=40, seed=1)
        # Couplings scale like 1/sqrt(N); their standard deviation should be
        # well below 1 for N = 40.
        off_diagonal = problem.couplings[np.triu_indices(40, k=1)]
        assert 0.05 < np.std(off_diagonal) < 0.35
