"""Traveling Salesman Problem (TSP) QUBO encoding (Table 1 "TSP" row).

The standard permutation-matrix encoding is used: ``x_{v,t} = 1`` iff city
``v`` is visited at tour position ``t``.  Two families of one-hot equality
constraints (each city visited once, each position filled once) plus the tour
length objective:

    H = A * sum_v (1 - sum_t x_{v,t})^2
      + A * sum_t (1 - sum_v x_{v,t})^2
      + sum_{u,v} d_uv sum_t x_{u,t} x_{v,t+1}

Variable layout: ``x[v * n + t]`` is city ``v`` at position ``t`` (``n``
cities, ``n`` positions, positions wrap around).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

import numpy as np

from repro.core.constraints import EqualityConstraint
from repro.core.qubo import QUBOModel
from repro.core.transformation import InequalityQUBO
from repro.problems.base import CombinatorialProblem


@dataclass
class TravelingSalesmanProblem(CombinatorialProblem):
    """Symmetric TSP with a full distance matrix."""

    distances: np.ndarray
    penalty: float = 0.0
    name: str = "tsp"

    problem_class = "Traveling Salesman"
    is_maximization = False

    def __post_init__(self) -> None:
        d = np.asarray(self.distances, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError(f"distance matrix must be square, got {d.shape}")
        if not np.allclose(d, d.T):
            raise ValueError("distance matrix must be symmetric")
        if np.any(np.diag(d) != 0):
            raise ValueError("distance matrix diagonal must be zero")
        if np.any(d < 0):
            raise ValueError("distances must be non-negative")
        self.distances = d
        if self.penalty <= 0:
            # A safe default: larger than the longest possible tour edge sum
            # contribution of a single variable flip.
            self.penalty = float(2.0 * d.max() * d.shape[0] + 1.0)

    @property
    def num_cities(self) -> int:
        """Number of cities ``n``."""
        return self.distances.shape[0]

    @property
    def num_variables(self) -> int:
        return self.num_cities ** 2

    def variable_index(self, city: int, position: int) -> int:
        """Flat index of variable (city, tour position)."""
        n = self.num_cities
        if not 0 <= city < n or not 0 <= position < n:
            raise IndexError("city or position out of range")
        return city * n + position

    # ------------------------------------------------------------------ #
    # Encoding / decoding
    # ------------------------------------------------------------------ #
    def encode_tour(self, tour: Iterable[int]) -> np.ndarray:
        """One-hot encode a permutation of cities."""
        order = list(tour)
        n = self.num_cities
        if sorted(order) != list(range(n)):
            raise ValueError("tour must be a permutation of all cities")
        x = np.zeros(self.num_variables)
        for position, city in enumerate(order):
            x[self.variable_index(city, position)] = 1.0
        return x

    def decode_tour(self, x: Iterable[float]) -> List[int]:
        """City visited at each position (raises if not a valid permutation)."""
        vec = self._validate(x)
        n = self.num_cities
        tour: List[int] = []
        for position in range(n):
            cities = [city for city in range(n) if vec[self.variable_index(city, position)] == 1]
            if len(cities) != 1:
                raise ValueError(f"position {position} has {len(cities)} cities assigned")
            tour.append(cities[0])
        if sorted(tour) != list(range(n)):
            raise ValueError("decoded assignment is not a permutation")
        return tour

    def tour_length(self, tour: Iterable[int]) -> float:
        """Closed-tour length of a city permutation."""
        order = list(tour)
        n = self.num_cities
        if sorted(order) != list(range(n)):
            raise ValueError("tour must be a permutation of all cities")
        return float(sum(self.distances[order[t], order[(t + 1) % n]] for t in range(n)))

    # ------------------------------------------------------------------ #
    # CombinatorialProblem interface
    # ------------------------------------------------------------------ #
    def objective(self, x: Iterable[float]) -> float:
        """Tour length of a valid permutation-encoded configuration."""
        return self.tour_length(self.decode_tour(x))

    def is_feasible(self, x: Iterable[float]) -> bool:
        """Whether ``x`` encodes a tour (one-row :meth:`is_feasible_batch`)."""
        return bool(self.is_feasible_batch(self._validate(x))[0])

    def is_feasible_batch(self, configurations: np.ndarray) -> np.ndarray:
        """Vectorised permutation check over an ``(M, n^2)`` batch.

        A configuration is feasible iff its ``(n, n)`` city-by-position grid
        is a permutation matrix: every position has exactly one city and
        every city exactly one position (together those imply the decoded
        tour is a permutation).
        """
        batch = self._validate_batch(configurations)
        n = self.num_cities
        grid = batch.reshape(batch.shape[0], n, n)
        one_position_per_city = (grid.sum(axis=2) == 1).all(axis=1)
        one_city_per_position = (grid.sum(axis=1) == 1).all(axis=1)
        return one_position_per_city & one_city_per_position

    def permutation_constraints(self) -> Tuple[EqualityConstraint, ...]:
        """Row (per-city) and column (per-position) one-hot equality constraints."""
        n = self.num_cities
        constraints = []
        for city in range(n):
            weights = np.zeros(self.num_variables)
            for position in range(n):
                weights[self.variable_index(city, position)] = 1.0
            constraints.append(EqualityConstraint(weights, 1.0, name=f"city-{city}"))
        for position in range(n):
            weights = np.zeros(self.num_variables)
            for city in range(n):
                weights[self.variable_index(city, position)] = 1.0
            constraints.append(EqualityConstraint(weights, 1.0, name=f"pos-{position}"))
        return tuple(constraints)

    def distance_qubo(self) -> QUBOModel:
        """QUBO of the tour-length term only."""
        n = self.num_cities
        q = np.zeros((self.num_variables, self.num_variables))
        for u in range(n):
            for v in range(n):
                if u == v:
                    continue
                d = self.distances[u, v]
                if d == 0:
                    continue
                for t in range(n):
                    a = self.variable_index(u, t)
                    b = self.variable_index(v, (t + 1) % n)
                    q[min(a, b), max(a, b)] += d
        return QUBOModel(q)

    def to_qubo(self) -> QUBOModel:
        """Full penalty QUBO (distance + both one-hot penalty families)."""
        n = self.num_cities
        q = self.distance_qubo().matrix.copy()
        offset = 0.0
        a_pen = self.penalty
        groups = []
        for city in range(n):
            groups.append([self.variable_index(city, t) for t in range(n)])
        for position in range(n):
            groups.append([self.variable_index(c, position) for c in range(n)])
        for indices in groups:
            offset += a_pen
            for idx in indices:
                q[idx, idx] += -a_pen
            for i, a in enumerate(indices):
                for b in indices[i + 1:]:
                    q[min(a, b), max(a, b)] += 2.0 * a_pen
        return QUBOModel(q, offset=offset)

    def to_inequality_qubo(self) -> InequalityQUBO:
        """Distance QUBO with detached permutation equality constraints."""
        return InequalityQUBO(qubo=self.distance_qubo(),
                              constraints=self.permutation_constraints())

    def random_feasible_configuration(self, rng: np.random.Generator,
                                      max_tries: int = 10_000) -> np.ndarray:
        """Random tour (always feasible by construction)."""
        return self.encode_tour(rng.permutation(self.num_cities))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TravelingSalesmanProblem(name={self.name!r}, cities={self.num_cities})"
