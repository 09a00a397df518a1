"""Unit tests for the Max-Cut problem."""

import networkx as nx
import numpy as np
import pytest

from repro.problems.generators import generate_maxcut_instance
from repro.problems.maxcut import MaxCutProblem


@pytest.fixture
def triangle():
    # Triangle with weights 1, 2, 3: the best cut isolates the vertex touching
    # the two heaviest edges (2 + 3 = 5).
    adjacency = np.array([
        [0.0, 1.0, 2.0],
        [1.0, 0.0, 3.0],
        [2.0, 3.0, 0.0],
    ])
    return MaxCutProblem(adjacency)


class TestConstruction:
    def test_requires_symmetric_zero_diagonal(self):
        with pytest.raises(ValueError):
            MaxCutProblem(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError):
            MaxCutProblem(np.array([[1.0, 1.0], [1.0, 0.0]]))

    def test_from_graph(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, weight=2.0)
        graph.add_edge(1, 2)
        problem = MaxCutProblem.from_graph(graph)
        assert problem.num_nodes == 3
        assert problem.adjacency[0, 1] == 2.0
        assert problem.adjacency[1, 2] == 1.0


class TestObjective:
    def test_cut_values(self, triangle):
        assert triangle.objective([0, 0, 0]) == 0.0
        assert triangle.objective([1, 0, 0]) == pytest.approx(1 + 2)
        assert triangle.objective([0, 0, 1]) == pytest.approx(2 + 3)
        assert triangle.objective([1, 1, 0]) == pytest.approx(2 + 3)

    def test_every_configuration_is_feasible(self, triangle, rng):
        assert triangle.is_feasible(rng.integers(0, 2, size=3).astype(float))

    def test_complement_symmetry(self, triangle, rng):
        x = rng.integers(0, 2, size=3).astype(float)
        assert triangle.objective(x) == pytest.approx(triangle.objective(1 - x))

    def test_cut_is_the_pairwise_sum_on_integer_weights(self, rng):
        # One product, yet exactly the sum of the cut edges' weights.
        for seed in range(5):
            problem = generate_maxcut_instance(num_nodes=17, seed=seed)
            w = problem.adjacency
            for _ in range(10):
                x = rng.integers(0, 2, size=17).astype(float)
                cut = sum(w[i, j] for i in range(17) for j in range(i + 1, 17)
                          if x[i] != x[j])
                assert problem.objective(x) == cut


class TestQUBO:
    def test_qubo_minimum_equals_negative_max_cut(self, triangle):
        qubo = triangle.to_qubo()
        _, energy = qubo.brute_force_minimum()
        assert energy == pytest.approx(-5.0)

    def test_qubo_energy_tracks_cut_value(self, small_maxcut, rng):
        qubo = small_maxcut.to_qubo()
        for _ in range(20):
            x = rng.integers(0, 2, size=small_maxcut.num_nodes).astype(float)
            assert qubo.energy(x) == pytest.approx(-small_maxcut.objective(x))

    def test_inequality_form_has_no_constraints(self, triangle):
        model = triangle.to_inequality_qubo()
        assert model.num_constraints == 0
