"""Unit tests for the exhaustive reference solver."""

import numpy as np
import pytest

from repro.exact.brute_force import enumerate_feasible, solve_brute_force
from repro.problems import family_names, get_family
from repro.problems.generators import (
    generate_coloring_instance,
    generate_maxcut_instance,
    generate_qkp_instance,
    generate_sk_instance,
    generate_tsp_instance,
)


def scalar_search(problem):
    """The exhaustive search as one scalar ``is_feasible``/``objective`` call
    per configuration: best (first best in enumeration order), its value,
    the feasible count, and every feasible row with its value."""
    n = problem.num_variables
    rows = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(float)
    maximize = problem.is_maximization
    best_value, best_x = None, np.zeros(n)
    feasible, values = [], []
    for x in rows:
        if not problem.is_feasible(x):
            continue
        value = problem.objective(x)
        feasible.append(x)
        values.append(value)
        if best_value is None or (value > best_value if maximize
                                  else value < best_value):
            best_value, best_x = value, x
    return best_x, best_value, feasible, values


def _table1_instances():
    """The five instances Table 1 (``run_solver_summary``, seed 11) scores
    against brute force."""
    seed = 11
    return [
        generate_maxcut_instance(num_nodes=12, edge_probability=0.5, seed=seed),
        generate_sk_instance(num_spins=12, seed=seed),
        generate_tsp_instance(num_cities=4, seed=seed),
        generate_coloring_instance(num_nodes=6, edge_probability=0.4,
                                   num_colors=3, seed=seed),
        generate_qkp_instance(num_items=15, density=0.5, seed=seed),
    ]


@pytest.mark.parametrize(
    "problem",
    [get_family(name).conformance_instance(1) for name in family_names()]
    + _table1_instances(),
    ids=[f"conformance-{name}" for name in family_names()]
    + ["table1-maxcut", "table1-sk", "table1-tsp", "table1-coloring",
       "table1-qkp"])
def test_enumerator_equals_the_scalar_loop(problem):
    best_x, best_value, feasible, values = scalar_search(problem)
    result = solve_brute_force(problem)
    np.testing.assert_array_equal(result.best_configuration, best_x)
    assert result.best_value == best_value
    assert result.num_feasible == len(feasible)
    assert result.num_evaluated == 1 << problem.num_variables
    configurations, objective_values = enumerate_feasible(problem)
    np.testing.assert_array_equal(configurations, np.array(feasible))
    np.testing.assert_array_equal(objective_values, np.array(values))
    x, value = problem.brute_force_best()
    np.testing.assert_array_equal(x, best_x)
    assert value == best_value


class TestSolveBruteForce:
    def test_tiny_qkp_optimum(self, tiny_qkp):
        result = solve_brute_force(tiny_qkp)
        assert result.best_value == pytest.approx(25.0)
        np.testing.assert_array_equal(result.best_configuration, [1.0, 0.0, 1.0])
        assert result.num_evaluated == 8
        assert result.num_feasible == 6

    def test_result_is_feasible_and_maximal(self, small_qkp):
        result = solve_brute_force(small_qkp)
        assert small_qkp.is_feasible(result.best_configuration)
        # No feasible configuration sampled at random beats the reported value.
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = small_qkp.random_feasible_configuration(rng)
            assert small_qkp.objective(x) <= result.best_value + 1e-9

    def test_minimization_problem(self, small_maxcut):
        result = solve_brute_force(small_maxcut)
        # Max-Cut is a maximisation problem: complementing the best partition
        # gives the same cut, so the value must match.
        complement = 1.0 - result.best_configuration
        assert small_maxcut.objective(complement) == pytest.approx(result.best_value)

    def test_size_guard(self):
        big = generate_qkp_instance(num_items=30, seed=0)
        with pytest.raises(ValueError):
            solve_brute_force(big)

    def test_custom_size_limit(self):
        problem = generate_maxcut_instance(num_nodes=8, seed=1)
        with pytest.raises(ValueError):
            solve_brute_force(problem, max_variables=4)


class TestEnumerateFeasible:
    def test_counts_match_solver(self, tiny_qkp):
        configurations, values = enumerate_feasible(tiny_qkp)
        assert configurations.shape == (6, 3)
        assert values.max() == pytest.approx(25.0)

    def test_all_enumerated_are_feasible(self, small_qkp):
        configurations, _ = enumerate_feasible(small_qkp)
        for row in configurations:
            assert small_qkp.is_feasible(row)
