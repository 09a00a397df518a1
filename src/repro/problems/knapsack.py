"""Linear 0/1 knapsack problem -- the linear special case of QKP.

    max  sum_i p_i x_i
    s.t. sum_i w_i x_i <= C,   x_i in {0, 1}

Used by the Table 1 solver comparison (the "Knapsack" row) and by tests as a
problem whose exact optimum is cheap to compute with dynamic programming
(:func:`repro.exact.dp_knapsack.solve_knapsack_dp`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.constraints import InequalityConstraint
from repro.core.qubo import QUBOModel
from repro.core.transformation import InequalityQUBO
from repro.problems.base import CombinatorialProblem


@dataclass
class KnapsackProblem(CombinatorialProblem):
    """A 0/1 knapsack instance with linear profits."""

    profits: np.ndarray
    weights: np.ndarray
    capacity: float
    name: str = "knapsack"

    problem_class = "Knapsack"
    is_maximization = True

    def __post_init__(self) -> None:
        p = np.asarray(self.profits, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if p.ndim != 1 or w.ndim != 1 or p.shape != w.shape:
            raise ValueError("profits and weights must be 1-D arrays of equal length")
        if np.any(w <= 0):
            raise ValueError("item weights must be positive")
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        self.profits = p
        self.weights = w
        self.capacity = float(self.capacity)
        self._linear = (InequalityConstraint(w, self.capacity,
                                             name=f"{self.name}-capacity"),)

    @property
    def num_variables(self) -> int:
        return self.profits.shape[0]

    @property
    def num_items(self) -> int:
        """Alias for :attr:`num_variables`."""
        return self.num_variables

    def objective(self, x: Iterable[float]) -> float:
        vec = self._validate(x)
        return float(self.profits @ vec)

    def total_weight(self, x: Iterable[float]) -> float:
        """Total selected weight ``w . x``: the capacity constraint's load,
        the product its verdict reads."""
        return float(self._linear[0].loads(self._validate(x)[None, :])[0])

    def constraint(self) -> InequalityConstraint:
        """The capacity constraint as a standalone object."""
        return self._linear[0]

    def linear_feasibility_constraints(self) -> tuple:
        """Feasibility is exactly the capacity inequality."""
        return self._linear

    def to_qubo(self) -> QUBOModel:
        """Objective-only QUBO (diagonal ``-p_i``); constraint not embedded."""
        return QUBOModel(np.diag(-self.profits))

    def to_inequality_qubo(self) -> InequalityQUBO:
        """HyCiM form: diagonal objective QUBO + detached capacity constraint."""
        return InequalityQUBO(qubo=self.to_qubo(), constraints=self._linear)

    def to_quadratic(self) -> "QuadraticKnapsackProblem":
        """Lift to a :class:`QuadraticKnapsackProblem` with zero pairwise profits."""
        from repro.problems.qkp import QuadraticKnapsackProblem

        return QuadraticKnapsackProblem(
            profits=np.diag(self.profits),
            weights=self.weights,
            capacity=self.capacity,
            name=self.name,
        )

    def random_feasible_configuration(self, rng: np.random.Generator,
                                      max_tries: int = 10_000) -> np.ndarray:
        """Constructive feasible sample (greedy random fill)."""
        order = rng.permutation(self.num_items)
        x = np.zeros(self.num_items)
        remaining = self.capacity
        for idx in order:
            if self.weights[idx] <= remaining and rng.random() < 0.5:
                x[idx] = 1.0
                remaining -= self.weights[idx]
        return x

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KnapsackProblem(name={self.name!r}, n={self.num_items}, C={self.capacity:g})"
