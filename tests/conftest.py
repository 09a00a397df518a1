"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels import KernelUnavailableError, native
from repro.problems.generators import (
    generate_knapsack_instance,
    generate_maxcut_instance,
    generate_qkp_instance,
)
from repro.problems.qkp import QuadraticKnapsackProblem


@pytest.fixture
def c_block() -> None:
    """Skips the test where the fused kernels' C block cannot be built (no
    C compiler); CI builds it before tier-1, so there it never skips."""
    try:
        native.library()
    except KernelUnavailableError as error:
        pytest.skip(f"C block unavailable: {error}")


@pytest.fixture(params=["c", "python"])
def draw_path(request, monkeypatch) -> str:
    """Runs the test once with the C library loaded (``"c"``; skipped
    without a C compiler) and once with it unavailable (``"python"``), where
    the loop driver draws through the generators or NumPy replay."""
    if request.param == "c":
        try:
            native.library()
        except KernelUnavailableError as error:
            pytest.skip(f"C library unavailable: {error}")
    else:
        monkeypatch.setattr(native, "_loaded", "C library disabled")
    return request.param


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG shared by randomised tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_qkp() -> QuadraticKnapsackProblem:
    """A hand-written 3-item QKP whose optimum is known by inspection.

    Items: profits diag (10, 6, 8), pairwise p01=3, p02=7, p12=2;
    weights (4, 7, 2), capacity 9 -- the inequality of paper Fig. 5(f).
    The best feasible selection is items {0, 2} with profit 10+8+7 = 25.
    """
    profits = np.array([
        [10.0, 3.0, 7.0],
        [3.0, 6.0, 2.0],
        [7.0, 2.0, 8.0],
    ])
    weights = np.array([4.0, 7.0, 2.0])
    return QuadraticKnapsackProblem(profits=profits, weights=weights, capacity=9.0,
                                    name="tiny")


@pytest.fixture
def small_qkp() -> QuadraticKnapsackProblem:
    """A randomly generated 12-item QKP, small enough for brute force."""
    return generate_qkp_instance(num_items=12, density=0.5, max_weight=10,
                                 max_profit=50, seed=7, name="small")


@pytest.fixture
def medium_qkp() -> QuadraticKnapsackProblem:
    """A 30-item QKP used by solver-level tests (not brute-forceable)."""
    return generate_qkp_instance(num_items=30, density=0.5, max_weight=12,
                                 max_profit=80, seed=21, name="medium")


@pytest.fixture
def small_knapsack():
    """A linear knapsack solvable exactly by dynamic programming."""
    return generate_knapsack_instance(num_items=14, max_weight=20, seed=5)


@pytest.fixture
def small_maxcut():
    """A 10-node Max-Cut instance solvable by brute force."""
    return generate_maxcut_instance(num_nodes=10, edge_probability=0.5, seed=3)
