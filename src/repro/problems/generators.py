"""Random instance generators for the problems in :mod:`repro.problems`.

The central generator is :func:`generate_qkp_instance`, which follows the
Billionnet-Soutif protocol behind the cedric.cnam.fr QKP benchmark the paper
uses (40 instances, 100 items each):

* pairwise profit density ``d`` in {25%, 50%, 75%, 100%};
* non-zero profits drawn uniformly from 1..100;
* weights drawn uniformly from 1..50;
* capacity drawn uniformly from ``[50, sum_i w_i]``.

:func:`generate_qkp_benchmark_suite` produces the 40-instance suite
(10 instances per density) used by the Fig. 8 / 9 / 10 reproductions.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.problems.bin_packing import BinPackingProblem
from repro.problems.graph_coloring import GraphColoringProblem
from repro.problems.knapsack import KnapsackProblem
from repro.problems.maxcut import MaxCutProblem
from repro.problems.qkp import QuadraticKnapsackProblem
from repro.problems.spin_glass import SherringtonKirkpatrickProblem
from repro.problems.tsp import TravelingSalesmanProblem


def _rng(seed: Optional[int]) -> np.random.Generator:
    return np.random.default_rng(seed)


def generate_qkp_instance(
    num_items: int = 100,
    density: float = 0.5,
    max_profit: int = 100,
    max_weight: int = 50,
    capacity: Optional[int] = None,
    seed: Optional[int] = None,
    name: Optional[str] = None,
) -> QuadraticKnapsackProblem:
    """Generate a Billionnet-Soutif style QKP instance.

    Parameters
    ----------
    num_items:
        Number of items ``n`` (paper uses 100).
    density:
        Probability that a pairwise profit ``p_ij`` (``i != j``) is non-zero.
    max_profit:
        Non-zero profits are uniform integers in ``1..max_profit``.
    max_weight:
        Weights are uniform integers in ``1..max_weight``.
    capacity:
        Knapsack capacity; drawn uniformly from ``[max_weight, sum(w)]`` when
        omitted (the benchmark's recipe, guaranteeing every single item fits).
    seed:
        RNG seed for reproducibility.
    name:
        Instance label; auto-generated when omitted.
    """
    if num_items < 1:
        raise ValueError("num_items must be positive")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be in [0, 1]")
    rng = _rng(seed)
    weights = rng.integers(1, max_weight + 1, size=num_items).astype(float)
    profits = np.zeros((num_items, num_items))
    diagonal = rng.integers(1, max_profit + 1, size=num_items).astype(float)
    np.fill_diagonal(profits, diagonal)
    for i in range(num_items):
        for j in range(i + 1, num_items):
            if rng.random() < density:
                value = float(rng.integers(1, max_profit + 1))
                profits[i, j] = value
                profits[j, i] = value
    if capacity is None:
        low = int(max_weight)
        high = int(weights.sum())
        capacity = int(rng.integers(low, max(high, low + 1)))
    label = name or f"qkp_n{num_items}_d{int(round(density * 100))}_s{seed}"
    return QuadraticKnapsackProblem(profits=profits, weights=weights,
                                    capacity=float(capacity), name=label)


def generate_qkp_benchmark_suite(
    num_instances: int = 40,
    num_items: int = 100,
    densities: Sequence[float] = (0.25, 0.50, 0.75, 1.00),
    seed: int = 2024,
) -> List[QuadraticKnapsackProblem]:
    """The 40-instance QKP suite standing in for the cedric.cnam.fr dataset.

    Instances are spread evenly over the density levels; seeds are derived
    deterministically from ``seed`` so the suite is reproducible.
    """
    if num_instances < 1:
        raise ValueError("num_instances must be positive")
    suite: List[QuadraticKnapsackProblem] = []
    per_density = -(-num_instances // len(densities))  # ceil division
    index = 0
    for density in densities:
        for _ in range(per_density):
            if index >= num_instances:
                break
            suite.append(
                generate_qkp_instance(
                    num_items=num_items,
                    density=density,
                    seed=seed + index,
                    name=f"qkp_{index:02d}_d{int(round(density * 100))}",
                )
            )
            index += 1
    return suite


def generate_knapsack_instance(
    num_items: int = 20,
    max_profit: int = 100,
    max_weight: int = 50,
    capacity_ratio: float = 0.5,
    seed: Optional[int] = None,
    name: Optional[str] = None,
) -> KnapsackProblem:
    """Random linear knapsack with capacity a fixed fraction of total weight."""
    if not 0.0 < capacity_ratio <= 1.0:
        raise ValueError("capacity_ratio must be in (0, 1]")
    rng = _rng(seed)
    profits = rng.integers(1, max_profit + 1, size=num_items).astype(float)
    weights = rng.integers(1, max_weight + 1, size=num_items).astype(float)
    capacity = max(float(weights.max()), float(np.floor(weights.sum() * capacity_ratio)))
    return KnapsackProblem(profits=profits, weights=weights, capacity=capacity,
                           name=name or f"knapsack_n{num_items}_s{seed}")


def generate_maxcut_instance(
    num_nodes: int = 20,
    edge_probability: float = 0.5,
    max_weight: int = 10,
    seed: Optional[int] = None,
    name: Optional[str] = None,
) -> MaxCutProblem:
    """Random weighted Erdos-Renyi Max-Cut instance."""
    import networkx as nx

    rng = _rng(seed)
    graph = nx.gnp_random_graph(num_nodes, edge_probability, seed=int(rng.integers(0, 2**31)))
    for u, v in graph.edges():
        graph[u][v]["weight"] = float(rng.integers(1, max_weight + 1))
    return MaxCutProblem.from_graph(graph, name=name or f"maxcut_n{num_nodes}_s{seed}")


def generate_coloring_instance(
    num_nodes: int = 12,
    edge_probability: float = 0.3,
    num_colors: int = 3,
    seed: Optional[int] = None,
    name: Optional[str] = None,
) -> GraphColoringProblem:
    """Random graph coloring instance (not guaranteed to be k-colorable)."""
    import networkx as nx

    rng = _rng(seed)
    graph = nx.gnp_random_graph(num_nodes, edge_probability, seed=int(rng.integers(0, 2**31)))
    return GraphColoringProblem.from_graph(graph, num_colors=num_colors,
                                           name=name or f"coloring_n{num_nodes}_s{seed}")


def generate_tsp_instance(
    num_cities: int = 6,
    coordinate_range: float = 100.0,
    integer_distances: bool = False,
    seed: Optional[int] = None,
    name: Optional[str] = None,
) -> TravelingSalesmanProblem:
    """Euclidean TSP instance with cities uniform in a square.

    With ``integer_distances=True`` each Euclidean distance is rounded to the
    nearest positive integer (TSPLIB ``EUC_2D`` convention) so QUBO energies
    stay integer-valued — the precondition for bitwise serial↔vectorized
    parity and for exact hardware evaluation.
    """
    rng = _rng(seed)
    points = rng.uniform(0.0, coordinate_range, size=(num_cities, 2))
    distances = np.zeros((num_cities, num_cities))
    for i in range(num_cities):
        for j in range(i + 1, num_cities):
            d = float(np.linalg.norm(points[i] - points[j]))
            if integer_distances:
                d = max(1.0, float(round(d)))
            distances[i, j] = d
            distances[j, i] = d
    return TravelingSalesmanProblem(distances=distances,
                                    name=name or f"tsp_n{num_cities}_s{seed}")


def generate_sk_instance(
    num_spins: int = 15,
    discrete: bool = False,
    max_coupling: int = 10,
    seed: Optional[int] = None,
    name: Optional[str] = None,
) -> SherringtonKirkpatrickProblem:
    """Sherrington-Kirkpatrick instance with ``J_ij ~ N(0, 1/N)``.

    With ``discrete=True`` couplings are instead uniform non-zero integers in
    ``[-max_coupling, max_coupling]`` — integer-valued energies for bitwise
    backend parity (the Gaussian default keeps the canonical SK statistics).
    """
    rng = _rng(seed)
    if discrete:
        if max_coupling < 1:
            raise ValueError("max_coupling must be at least 1")
        magnitude = rng.integers(1, max_coupling + 1, size=(num_spins, num_spins))
        sign = rng.choice([-1.0, 1.0], size=(num_spins, num_spins))
        j = magnitude * sign
    else:
        j = rng.normal(0.0, 1.0 / np.sqrt(max(num_spins, 1)), size=(num_spins, num_spins))
    j = np.triu(j, k=1)
    j = j + j.T
    return SherringtonKirkpatrickProblem(couplings=j, name=name or f"sk_n{num_spins}_s{seed}")


def generate_bin_packing_instance(
    num_items: int = 10,
    num_bins: int = 4,
    capacity: float = 100.0,
    max_size_fraction: float = 0.6,
    integer_sizes: bool = True,
    seed: Optional[int] = None,
    name: Optional[str] = None,
) -> BinPackingProblem:
    """Random bin packing instance with item sizes bounded by a capacity fraction.

    Sizes default to integers (uniform in ``1..floor(C * max_size_fraction)``)
    so the per-bin capacity constraints program directly onto the integer-cell
    FeFET inequality filter; ``integer_sizes=False`` restores continuous sizes
    for software-only studies.
    """
    if not 0.0 < max_size_fraction <= 1.0:
        raise ValueError("max_size_fraction must be in (0, 1]")
    rng = _rng(seed)
    if integer_sizes:
        high = max(1, int(np.floor(capacity * max_size_fraction)))
        sizes = rng.integers(1, high + 1, size=num_items).astype(float)
    else:
        sizes = rng.uniform(1.0, capacity * max_size_fraction, size=num_items)
    return BinPackingProblem(sizes=sizes, capacity=capacity, num_bins=num_bins,
                             name=name or f"binpacking_n{num_items}_s{seed}")
