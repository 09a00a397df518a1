"""Max-Cut problem -- the canonical unconstrained COP (Table 1 baseline row).

Given a weighted undirected graph ``G = (V, E)``, partition the vertices into
two sets so that the total weight of edges crossing the partition is
maximised.  Max-Cut maps to QUBO without any constraints, which is why most
published Ising machines evaluate on it; here it exercises the
"no constraint" path of the HyCiM solver.

Variable layout: ``x_i = 1`` iff vertex ``i`` is in partition 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import networkx as nx
import numpy as np

from repro.core.qubo import QUBOModel
from repro.problems.base import CombinatorialProblem


@dataclass
class MaxCutProblem(CombinatorialProblem):
    """A Max-Cut instance defined by a symmetric weight matrix."""

    adjacency: np.ndarray
    name: str = "maxcut"

    problem_class = "Max-Cut"
    is_maximization = True

    def __post_init__(self) -> None:
        w = np.asarray(self.adjacency, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"adjacency matrix must be square, got {w.shape}")
        if not np.allclose(w, w.T):
            raise ValueError("adjacency matrix must be symmetric")
        if np.any(np.diag(w) != 0):
            raise ValueError("adjacency matrix must have a zero diagonal (no self loops)")
        self.adjacency = w
        # Each edge once, as its upper-triangle entry, and every vertex's
        # incident weight: the two terms of the cut (see objective).
        self._edges = np.triu(w, k=1)
        self._incident = self._edges.sum(axis=0) + self._edges.sum(axis=1)

    @classmethod
    def from_graph(cls, graph: nx.Graph, weight: str = "weight",
                   name: str = "maxcut") -> "MaxCutProblem":
        """Build an instance from a ``networkx`` graph (default edge weight 1)."""
        nodes = sorted(graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        n = len(nodes)
        w = np.zeros((n, n))
        for u, v, data in graph.edges(data=True):
            value = float(data.get(weight, 1.0))
            w[index[u], index[v]] = value
            w[index[v], index[u]] = value
        return cls(adjacency=w, name=name)

    @property
    def num_variables(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_nodes(self) -> int:
        """Alias for :attr:`num_variables`."""
        return self.num_variables

    def objective(self, x: Iterable[float]) -> float:
        """Total weight of edges cut by the partition encoded in ``x``.

        ``sum_{i<j} w_ij (x_i - x_j)^2``, which for binary ``x`` is the
        incident weight of the selected vertices minus twice the weight of
        the edges inside the selection: exact on integer weights.
        """
        vec = self._validate(x)
        return float(self._incident @ vec - 2.0 * (vec @ self._edges @ vec))

    def linear_feasibility_constraints(self) -> tuple:
        """Unconstrained: the empty conjunction."""
        return ()

    def to_sparse_qubo(self):
        """CSR Max-Cut QUBO assembled straight from the edge list.

        Skips the dense ``(n, n)`` intermediate and the Python double loop
        of :meth:`to_qubo`; coefficient values are identical.
        """
        from repro.core.sparse import SparseQUBOModel

        rows, cols = np.nonzero(self._edges)
        weights = self._edges[rows, cols]
        n = self.num_nodes
        coo_rows = np.concatenate([rows, rows, cols])
        coo_cols = np.concatenate([cols, rows, cols])
        coo_vals = np.concatenate([2.0 * weights, -weights, -weights])
        return SparseQUBOModel.from_coo(coo_rows, coo_cols, coo_vals, n)

    def to_qubo(self) -> QUBOModel:
        """Standard Max-Cut QUBO: ``min sum_{(i,j)} w_ij (2 x_i x_j - x_i - x_j)``.

        The minimum equals minus the maximum cut weight.
        """
        n = self.num_nodes
        q = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                w = self.adjacency[i, j]
                if w == 0:
                    continue
                q[i, j] += 2.0 * w
                q[i, i] += -w
                q[j, j] += -w
        return QUBOModel(q)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        edges = int(np.count_nonzero(np.triu(self.adjacency, k=1)))
        return f"MaxCutProblem(name={self.name!r}, nodes={self.num_nodes}, edges={edges})"
