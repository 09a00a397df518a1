"""Unit tests for the instance generators."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.problems.generators import (
    generate_bin_packing_instance,
    generate_coloring_instance,
    generate_knapsack_instance,
    generate_maxcut_instance,
    generate_qkp_benchmark_suite,
    generate_qkp_instance,
    generate_sk_instance,
)


class TestQKPGenerator:
    def test_default_parameters_follow_benchmark_recipe(self):
        problem = generate_qkp_instance(num_items=100, density=0.5, seed=0)
        assert problem.num_items == 100
        assert np.all(problem.weights >= 1) and np.all(problem.weights <= 50)
        diagonal = np.diag(problem.profits)
        assert np.all(diagonal >= 1) and np.all(diagonal <= 100)
        assert 50 <= problem.capacity <= problem.weights.sum()

    def test_density_controls_pairwise_profits(self):
        sparse = generate_qkp_instance(num_items=60, density=0.25, seed=1)
        dense = generate_qkp_instance(num_items=60, density=1.0, seed=1)
        assert sparse.density() < 0.45
        assert dense.density() == pytest.approx(1.0)

    def test_reproducibility(self):
        a = generate_qkp_instance(num_items=20, density=0.5, seed=42)
        b = generate_qkp_instance(num_items=20, density=0.5, seed=42)
        np.testing.assert_array_equal(a.profits, b.profits)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.capacity == b.capacity

    def test_explicit_capacity(self):
        problem = generate_qkp_instance(num_items=10, capacity=33, seed=0)
        assert problem.capacity == 33.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            generate_qkp_instance(num_items=0)
        with pytest.raises(ValueError):
            generate_qkp_instance(density=1.5)


class TestBenchmarkSuite:
    def test_suite_size_and_density_spread(self):
        suite = generate_qkp_benchmark_suite(num_instances=8, num_items=30, seed=3)
        assert len(suite) == 8
        densities = sorted({round(p.density(), 1) for p in suite})
        assert len(densities) >= 3  # low, medium and high density present

    def test_suite_names_are_unique(self):
        suite = generate_qkp_benchmark_suite(num_instances=6, num_items=20, seed=3)
        names = [p.name for p in suite]
        assert len(set(names)) == len(names)


class TestOtherGenerators:
    def test_knapsack_generator(self):
        problem = generate_knapsack_instance(num_items=12, seed=2)
        assert problem.num_items == 12
        assert problem.capacity >= problem.weights.max()

    def test_maxcut_generator(self):
        problem = generate_maxcut_instance(num_nodes=15, edge_probability=0.4, seed=2)
        assert problem.num_nodes == 15
        assert np.allclose(problem.adjacency, problem.adjacency.T)

    def test_coloring_generator(self):
        problem = generate_coloring_instance(num_nodes=10, num_colors=3, seed=2)
        assert problem.num_nodes == 10
        assert problem.num_variables == 30

    def test_sk_generator(self):
        problem = generate_sk_instance(num_spins=9, seed=2)
        assert problem.num_spins == 9

    def test_bin_packing_generator(self):
        problem = generate_bin_packing_instance(num_items=8, num_bins=4, seed=2)
        assert problem.num_items == 8
        assert np.all(problem.sizes <= problem.capacity)


def test_import_repro_leaves_networkx_unloaded():
    # Only the Max-Cut and coloring generators use networkx, and they import
    # it when called.
    src = str(Path(repro.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import repro; "
            "print('networkx' in sys.modules)")
    child = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "False"
