"""Multi-dimensional (quadratic) knapsack -- several inequality constraints.

The paper positions HyCiM as a solver for *general* COPs with inequality
constraints; QKP (one capacity constraint) is its representative workload.
The multi-dimensional quadratic knapsack problem (MD-QKP) generalises it to
``m`` resource dimensions:

    max  sum_{i,j} p_ij x_i x_j
    s.t. sum_i w_ik x_i <= C_k      for k = 1..m,   x_i in {0, 1}

Each constraint maps onto its own CiM inequality filter, so this problem
exercises the multi-filter path of :class:`repro.annealing.hycim.HyCiMSolver`
(one filter per row of the weight matrix), which the single-constraint QKP
cannot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from repro.core.constraints import InequalityConstraint
from repro.core.qubo import QUBOModel
from repro.core.transformation import InequalityQUBO
from repro.problems.base import CombinatorialProblem
from repro.problems.qkp import (
    _integer_profits,
    _objective_qubo,
    _selection_profit,
    _selection_profits,
)


@dataclass
class MultiDimensionalKnapsackProblem(CombinatorialProblem):
    """A quadratic knapsack with ``m`` independent capacity constraints.

    Parameters
    ----------
    profits:
        Symmetric ``n x n`` profit matrix (diagonal = individual profits,
        off-diagonal = pairwise profits counted once).  As for the QKP,
        whether :meth:`objective_batch` may use one product is decided at
        construction; in-place edits of ``profits`` are not re-checked.
    weights:
        ``m x n`` non-negative weight matrix; row ``k`` is the resource-``k``
        consumption of each item.
    capacities:
        Length-``m`` vector of resource capacities.
    name:
        Instance label.
    """

    profits: np.ndarray
    weights: np.ndarray
    capacities: np.ndarray
    name: str = "mdqkp"

    problem_class = "Multi-dimensional Quadratic Knapsack"
    is_maximization = True

    def __post_init__(self) -> None:
        p = np.asarray(self.profits, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        c = np.asarray(self.capacities, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError(f"profit matrix must be square, got {p.shape}")
        # Exactly: objective counts (p_ij + p_ji) / 2 per pair while the
        # QUBOs read the upper triangle, so any asymmetry splits them.
        if not np.array_equal(p, p.T):
            raise ValueError("profit matrix must be exactly symmetric")
        if w.ndim != 2 or w.shape[1] != p.shape[0]:
            raise ValueError("weights must be an m x n matrix matching the profit dimension")
        if c.ndim != 1 or c.shape[0] != w.shape[0]:
            raise ValueError("capacities length must equal the number of constraints")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        if np.any(c <= 0):
            raise ValueError("capacities must be positive")
        self.profits = p
        self.weights = w
        self.capacities = c
        self._integer = _integer_profits(p)
        self._linear = tuple(
            InequalityConstraint(w[k], c[k], name=f"{self.name}-resource{k}")
            for k in range(w.shape[0]))

    # ------------------------------------------------------------------ #
    # CombinatorialProblem interface
    # ------------------------------------------------------------------ #
    @property
    def num_variables(self) -> int:
        return self.profits.shape[0]

    @property
    def num_items(self) -> int:
        """Alias for :attr:`num_variables`."""
        return self.num_variables

    @property
    def num_constraints(self) -> int:
        """Number of resource dimensions ``m``."""
        return self.weights.shape[0]

    def objective(self, x: Iterable[float]) -> float:
        """Total profit of ``x``, pairwise profits counted once.

        Uses ``sum_{i<j} p_ij x_i x_j = (x.(P x) - sum_i p_ii x_i^2) / 2``
        for the symmetric ``P``; exact on integer profits.
        """
        return _selection_profit(self.profits, self._validate(x))

    def objective_batch(self, configurations: np.ndarray) -> np.ndarray:
        """Row-wise :meth:`objective`: one product on integer profits."""
        return _selection_profits(self.profits,
                                  self._validate_batch(configurations),
                                  self._integer)

    def resource_usage(self, x: Iterable[float]) -> np.ndarray:
        """Per-dimension resource consumption ``W x``: each resource
        constraint's load, the product its verdict reads."""
        row = self._validate(x)[None, :]
        return np.concatenate([c.loads(row) for c in self._linear])

    def constraints(self) -> Tuple[InequalityConstraint, ...]:
        """One detached inequality constraint per resource dimension."""
        return self._linear

    def linear_feasibility_constraints(self) -> Tuple[InequalityConstraint, ...]:
        """Feasibility is exactly the conjunction of the resource inequalities."""
        return self._linear

    def to_qubo(self) -> QUBOModel:
        """Objective-only QUBO (``Q = -P_upper``); constraints not embedded."""
        return _objective_qubo(self.profits)

    def to_inequality_qubo(self) -> InequalityQUBO:
        """HyCiM form: one inequality filter per resource dimension."""
        return InequalityQUBO(qubo=self.to_qubo(), constraints=self.constraints())

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def random_feasible_configuration(self, rng: np.random.Generator,
                                      max_tries: int = 10_000) -> np.ndarray:
        """Greedy random fill respecting every resource dimension.

        Every item, in a random order, draws one ``rng.random()`` coin and
        is taken on heads if it fits; the coins come from one
        ``rng.random(n)`` call, which consumes the same draws.
        """
        n = self.num_items
        order = rng.permutation(n)
        coins = rng.random(n)
        x = np.zeros(n)
        usage = np.zeros(self.num_constraints)
        for item, coin in zip(order, coins):
            if coin < 0.5:
                continue
            candidate_usage = usage + self.weights[:, item]
            if np.all(candidate_usage <= self.capacities):
                x[item] = 1.0
                usage = candidate_usage
        return x

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MultiDimensionalKnapsackProblem(name={self.name!r}, n={self.num_items}, "
            f"m={self.num_constraints})"
        )


def generate_mdqkp_instance(
    num_items: int = 30,
    num_constraints: int = 3,
    density: float = 0.5,
    max_profit: int = 100,
    max_weight: int = 30,
    tightness: float = 0.5,
    seed: Optional[int] = None,
    name: Optional[str] = None,
) -> MultiDimensionalKnapsackProblem:
    """Generate a random MD-QKP instance.

    Capacities are set to ``tightness * sum_i w_ik`` per dimension, the
    standard recipe for multi-dimensional knapsack benchmarks.
    """
    if num_constraints < 1:
        raise ValueError("at least one constraint is required")
    if not 0.0 < tightness <= 1.0:
        raise ValueError("tightness must be in (0, 1]")
    rng = np.random.default_rng(seed)
    profits = np.zeros((num_items, num_items))
    np.fill_diagonal(profits, rng.integers(1, max_profit + 1, size=num_items))
    for i in range(num_items):
        for j in range(i + 1, num_items):
            if rng.random() < density:
                value = float(rng.integers(1, max_profit + 1))
                profits[i, j] = value
                profits[j, i] = value
    weights = rng.integers(1, max_weight + 1, size=(num_constraints, num_items)).astype(float)
    capacities = np.floor(weights.sum(axis=1) * tightness)
    capacities = np.maximum(capacities, weights.max(axis=1))
    return MultiDimensionalKnapsackProblem(
        profits=profits, weights=weights, capacities=capacities,
        name=name or f"mdqkp_n{num_items}_m{num_constraints}_s{seed}")
