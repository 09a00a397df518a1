"""Graph coloring as a QUBO problem (Table 1 "Graph Coloring" row).

Decision version: can graph ``G`` be coloured with ``k`` colours so that no
edge is monochromatic?  The standard QUBO encoding uses one-hot variables
``x_{v,c} = 1`` iff vertex ``v`` gets colour ``c``:

    H = A * sum_v (1 - sum_c x_{v,c})^2  +  B * sum_{(u,v) in E} sum_c x_{u,c} x_{v,c}

The one-hot penalty is an *equality* constraint, which the paper classes as a
special case of inequality constraints (Sec. 3.2); the HyCiM solver handles
it through its move generator (colour swaps preserve one-hot validity).

Variable layout: ``x[v * k + c]`` is vertex ``v`` / colour ``c``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Tuple

import numpy as np

from repro.core.constraints import EqualityConstraint
from repro.core.qubo import QUBOModel
from repro.core.transformation import InequalityQUBO
from repro.problems.base import CombinatorialProblem

if TYPE_CHECKING:  # annotation only; the graph generators import networkx
    import networkx as nx


@dataclass
class GraphColoringProblem(CombinatorialProblem):
    """k-coloring of an undirected graph as a constraint-satisfaction QUBO."""

    adjacency: np.ndarray
    num_colors: int
    penalty_onehot: float = 4.0
    penalty_conflict: float = 1.0
    name: str = "coloring"

    problem_class = "Graph Coloring"
    is_maximization = False

    def __post_init__(self) -> None:
        a = np.asarray(self.adjacency, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency matrix must be square, got {a.shape}")
        if not np.allclose(a, a.T):
            raise ValueError("adjacency matrix must be symmetric")
        if self.num_colors < 1:
            raise ValueError("num_colors must be at least 1")
        self.adjacency = a

    @classmethod
    def from_graph(cls, graph: nx.Graph, num_colors: int,
                   name: str = "coloring") -> "GraphColoringProblem":
        """Build from a ``networkx`` graph."""
        nodes = sorted(graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        n = len(nodes)
        a = np.zeros((n, n))
        for u, v in graph.edges():
            a[index[u], index[v]] = 1.0
            a[index[v], index[u]] = 1.0
        return cls(adjacency=a, num_colors=num_colors, name=name)

    @property
    def num_nodes(self) -> int:
        """Number of graph vertices."""
        return self.adjacency.shape[0]

    @property
    def num_variables(self) -> int:
        return self.num_nodes * self.num_colors

    # ------------------------------------------------------------------ #
    # Encoding helpers
    # ------------------------------------------------------------------ #
    def variable_index(self, vertex: int, color: int) -> int:
        """Flat index of the one-hot variable for ``(vertex, color)``."""
        if not 0 <= vertex < self.num_nodes or not 0 <= color < self.num_colors:
            raise IndexError("vertex or color out of range")
        return vertex * self.num_colors + color

    def decode(self, x: Iterable[float]) -> List[int]:
        """Colour assignment per vertex (-1 when a vertex has no colour set)."""
        vec = self._validate(x)
        assignment: List[int] = []
        for v in range(self.num_nodes):
            block = vec[v * self.num_colors:(v + 1) * self.num_colors]
            chosen = np.flatnonzero(block == 1)
            assignment.append(int(chosen[0]) if chosen.size == 1 else -1)
        return assignment

    def encode(self, assignment: Iterable[int]) -> np.ndarray:
        """One-hot encode a per-vertex colour assignment."""
        colors = list(assignment)
        if len(colors) != self.num_nodes:
            raise ValueError("assignment length must equal the number of vertices")
        x = np.zeros(self.num_variables)
        for v, c in enumerate(colors):
            if not 0 <= c < self.num_colors:
                raise ValueError(f"colour {c} out of range for vertex {v}")
            x[self.variable_index(v, c)] = 1.0
        return x

    # ------------------------------------------------------------------ #
    # CombinatorialProblem interface
    # ------------------------------------------------------------------ #
    def conflicts(self, x: Iterable[float]) -> int:
        """Number of monochromatic edges under the (decoded) assignment."""
        vec = self._validate(x)
        count = 0
        for u in range(self.num_nodes):
            for v in range(u + 1, self.num_nodes):
                if self.adjacency[u, v] == 0:
                    continue
                for c in range(self.num_colors):
                    if vec[self.variable_index(u, c)] == 1 and vec[self.variable_index(v, c)] == 1:
                        count += 1
        return count

    def objective(self, x: Iterable[float]) -> float:
        """Number of conflicts (to be minimised; 0 means a proper colouring)."""
        return float(self.conflicts(x))

    def is_feasible(self, x: Iterable[float]) -> bool:
        """Feasible means every vertex has exactly one colour."""
        return bool(self.is_feasible_batch(self._validate(x))[0])

    def is_feasible_batch(self, configurations: np.ndarray) -> np.ndarray:
        """Vectorised one-hot check over an ``(M, V*k)`` batch.

        A replica is feasible iff every vertex's colour block sums to exactly
        one; :meth:`is_feasible` is the one-row view.
        """
        batch = self._validate_batch(configurations)
        blocks = batch.reshape(batch.shape[0], self.num_nodes, self.num_colors)
        return (blocks.sum(axis=2) == 1).all(axis=1)

    def is_proper_coloring(self, x: Iterable[float]) -> bool:
        """Feasible and conflict-free."""
        return self.is_feasible(x) and self.conflicts(x) == 0

    def onehot_constraints(self) -> Tuple[EqualityConstraint, ...]:
        """One equality constraint ``sum_c x_{v,c} == 1`` per vertex."""
        constraints = []
        for v in range(self.num_nodes):
            weights = np.zeros(self.num_variables)
            weights[v * self.num_colors:(v + 1) * self.num_colors] = 1.0
            constraints.append(EqualityConstraint(weights, 1.0, name=f"onehot-v{v}"))
        return tuple(constraints)

    def conflict_qubo(self) -> QUBOModel:
        """QUBO of the conflict term only (no one-hot penalty)."""
        n = self.num_variables
        q = np.zeros((n, n))
        for u in range(self.num_nodes):
            for v in range(u + 1, self.num_nodes):
                if self.adjacency[u, v] == 0:
                    continue
                for c in range(self.num_colors):
                    a = self.variable_index(u, c)
                    b = self.variable_index(v, c)
                    q[min(a, b), max(a, b)] += self.penalty_conflict
        return QUBOModel(q)

    def to_qubo(self) -> QUBOModel:
        """Full penalty QUBO: one-hot penalty + conflict penalty."""
        n = self.num_variables
        q = self.conflict_qubo().matrix.copy()
        offset = 0.0
        a_pen = self.penalty_onehot
        for v in range(self.num_nodes):
            indices = [self.variable_index(v, c) for c in range(self.num_colors)]
            # A * (1 - sum_c x)^2 = A * (1 - 2 sum_c x + sum_c x + 2 sum_{c<d} x_c x_d)
            offset += a_pen
            for idx in indices:
                q[idx, idx] += -a_pen
            for i, a in enumerate(indices):
                for b in indices[i + 1:]:
                    q[a, b] += 2.0 * a_pen
        return QUBOModel(q, offset=offset)

    def to_inequality_qubo(self) -> InequalityQUBO:
        """Conflict QUBO with detached one-hot equality constraints."""
        return InequalityQUBO(qubo=self.conflict_qubo(), constraints=self.onehot_constraints())

    def random_feasible_configuration(self, rng: np.random.Generator,
                                      max_tries: int = 10_000) -> np.ndarray:
        """Uniformly random proper one-hot assignment (colours may conflict)."""
        assignment = rng.integers(0, self.num_colors, size=self.num_nodes)
        return self.encode(assignment)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GraphColoringProblem(name={self.name!r}, nodes={self.num_nodes}, "
            f"colors={self.num_colors})"
        )
