"""Bin packing -- the second COP family with inequality constraints the paper
mentions (Sec. 1, Sec. 2.1).

Given ``n`` items with sizes ``s_i`` and ``m`` bins of capacity ``C``, assign
every item to exactly one bin without exceeding any bin capacity, minimising
the number of bins used.

Variable layout: ``x[i * m + b]`` = item ``i`` assigned to bin ``b``, followed
by ``m`` bin-usage indicator variables ``u_b`` at the end of the vector.

The inequality-QUBO form detaches one capacity inequality per bin (exactly the
structure the FeFET inequality filter evaluates), while the one-hot
"item assigned once" constraints stay as equality constraints handled by the
move generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

import numpy as np

from repro.core.constraints import (
    EqualityConstraint,
    InequalityConstraint,
    all_satisfied,
)
from repro.core.qubo import QUBOModel
from repro.core.transformation import InequalityQUBO
from repro.problems.base import CombinatorialProblem


@dataclass
class BinPackingProblem(CombinatorialProblem):
    """Bin packing with ``m`` identical bins of capacity ``C``."""

    sizes: np.ndarray
    capacity: float
    num_bins: int
    penalty_assign: float = 0.0
    penalty_capacity: float = 0.0
    name: str = "binpacking"

    problem_class = "Bin Packing"
    is_maximization = False

    def __post_init__(self) -> None:
        s = np.asarray(self.sizes, dtype=float)
        if s.ndim != 1:
            raise ValueError("sizes must be a 1-D array")
        if np.any(s <= 0):
            raise ValueError("item sizes must be positive")
        if self.capacity <= 0:
            raise ValueError("bin capacity must be positive")
        if np.any(s > self.capacity):
            raise ValueError("every item must fit in an empty bin")
        if self.num_bins < 1:
            raise ValueError("at least one bin is required")
        self.sizes = s
        self.capacity = float(self.capacity)
        if self.penalty_assign <= 0:
            self.penalty_assign = float(2.0 * self.num_bins + 2.0)
        if self.penalty_capacity <= 0:
            self.penalty_capacity = float(2.0 / max(self.capacity, 1.0))
        self._capacities = self.capacity_constraints()

    @property
    def num_items(self) -> int:
        """Number of items ``n``."""
        return self.sizes.shape[0]

    @property
    def num_variables(self) -> int:
        return self.num_items * self.num_bins + self.num_bins

    def assign_index(self, item: int, bin_id: int) -> int:
        """Flat index of assignment variable (item, bin)."""
        if not 0 <= item < self.num_items or not 0 <= bin_id < self.num_bins:
            raise IndexError("item or bin out of range")
        return item * self.num_bins + bin_id

    def usage_index(self, bin_id: int) -> int:
        """Flat index of the bin-usage indicator ``u_b``."""
        if not 0 <= bin_id < self.num_bins:
            raise IndexError("bin out of range")
        return self.num_items * self.num_bins + bin_id

    # ------------------------------------------------------------------ #
    # Encoding / decoding
    # ------------------------------------------------------------------ #
    def encode(self, assignment: Iterable[int]) -> np.ndarray:
        """Encode an item→bin assignment list; usage bits set consistently."""
        bins = list(assignment)
        if len(bins) != self.num_items:
            raise ValueError("assignment length must equal the number of items")
        x = np.zeros(self.num_variables)
        for item, bin_id in enumerate(bins):
            if not 0 <= bin_id < self.num_bins:
                raise ValueError(f"bin {bin_id} out of range for item {item}")
            x[self.assign_index(item, bin_id)] = 1.0
            x[self.usage_index(bin_id)] = 1.0
        return x

    def decode(self, x: Iterable[float]) -> List[int]:
        """Item→bin assignment (-1 when an item is unassigned or multi-assigned)."""
        vec = self._validate(x)
        assignment: List[int] = []
        for item in range(self.num_items):
            block = [vec[self.assign_index(item, b)] for b in range(self.num_bins)]
            chosen = [b for b, value in enumerate(block) if value == 1]
            assignment.append(chosen[0] if len(chosen) == 1 else -1)
        return assignment

    def bin_loads(self, x: Iterable[float]) -> np.ndarray:
        """Total size assigned to each bin: each capacity constraint's load,
        the product its verdict reads."""
        row = self._validate(x)[None, :]
        return np.concatenate([c.loads(row) for c in self._capacities])

    # ------------------------------------------------------------------ #
    # CombinatorialProblem interface
    # ------------------------------------------------------------------ #
    def objective(self, x: Iterable[float]) -> float:
        """Number of bins used (indicator variables)."""
        vec = self._validate(x)
        return float(sum(vec[self.usage_index(b)] for b in range(self.num_bins)))

    def is_feasible(self, x: Iterable[float]) -> bool:
        """All items assigned once, capacities respected, usage bits consistent."""
        return bool(self.is_feasible_batch(self._validate(x))[0])

    def is_feasible_batch(self, configurations: np.ndarray) -> np.ndarray:
        """Vectorised feasibility over an ``(M, n*m + m)`` batch.

        Every item one-hot assigned, every bin within its capacity
        constraint (:meth:`capacity_constraints`, judged by
        :func:`~repro.core.constraints.all_satisfied`), and ``u_b = 1`` for
        every non-empty bin.
        """
        batch = self._validate_batch(configurations)
        n, m = self.num_items, self.num_bins
        assignments = batch[:, :n * m].reshape(batch.shape[0], n, m)
        usage = batch[:, n * m:]
        assigned_once = (assignments.sum(axis=2) == 1).all(axis=1)
        usage_consistent = (~assignments.any(axis=1) | (usage == 1)).all(axis=1)
        return (assigned_once & all_satisfied(self._capacities, batch)
                & usage_consistent)

    def assignment_constraints(self) -> Tuple[EqualityConstraint, ...]:
        """One equality constraint ``sum_b x_{i,b} == 1`` per item."""
        constraints = []
        for item in range(self.num_items):
            weights = np.zeros(self.num_variables)
            for b in range(self.num_bins):
                weights[self.assign_index(item, b)] = 1.0
            constraints.append(EqualityConstraint(weights, 1.0, name=f"assign-item{item}"))
        return tuple(constraints)

    def capacity_constraints(self) -> Tuple[InequalityConstraint, ...]:
        """One inequality ``sum_i s_i x_{i,b} <= C`` per bin."""
        constraints = []
        for b in range(self.num_bins):
            weights = np.zeros(self.num_variables)
            for item in range(self.num_items):
                weights[self.assign_index(item, b)] = self.sizes[item]
            constraints.append(InequalityConstraint(weights, self.capacity, name=f"capacity-bin{b}"))
        return tuple(constraints)

    def usage_qubo(self) -> QUBOModel:
        """QUBO of the bin-count objective plus usage-consistency coupling.

        Minimising ``sum_b u_b`` alone would switch all indicators off, so a
        coupling term rewards ``u_b = 1`` whenever any item sits in bin ``b``:
        for every assignment variable ``x_{i,b}`` we add
        ``penalty_assign * x_{i,b} (1 - u_b)``.
        """
        n = self.num_variables
        q = np.zeros((n, n))
        for b in range(self.num_bins):
            u = self.usage_index(b)
            q[u, u] += 1.0
            for item in range(self.num_items):
                a = self.assign_index(item, b)
                q[a, a] += self.penalty_assign
                q[min(a, u), max(a, u)] += -self.penalty_assign
        return QUBOModel(q)

    def to_qubo(self) -> QUBOModel:
        """Full penalty QUBO (assignment one-hot + capacity penalties embedded).

        The capacity inequality is embedded with a quadratic overload penalty
        on pairwise loads (a soft relaxation adequate for the annealer
        baseline); the exact D-QUBO slack construction for bin packing is out
        of the paper's scope.
        """
        q = self.usage_qubo().matrix.copy()
        offset = 0.0
        a_pen = self.penalty_assign
        for item in range(self.num_items):
            indices = [self.assign_index(item, b) for b in range(self.num_bins)]
            offset += a_pen
            for idx in indices:
                q[idx, idx] += -a_pen
            for i, a in enumerate(indices):
                for b in indices[i + 1:]:
                    q[min(a, b), max(a, b)] += 2.0 * a_pen
        # Soft capacity penalty: discourage co-locating large items.
        c_pen = self.penalty_capacity
        for b in range(self.num_bins):
            for i in range(self.num_items):
                for j in range(i + 1, self.num_items):
                    if self.sizes[i] + self.sizes[j] > self.capacity:
                        a = self.assign_index(i, b)
                        c = self.assign_index(j, b)
                        q[min(a, c), max(a, c)] += c_pen * (self.sizes[i] + self.sizes[j])
        return QUBOModel(q, offset=offset)

    def to_inequality_qubo(self) -> InequalityQUBO:
        """Usage QUBO with detached capacity inequalities and assignment equalities."""
        constraints = self.assignment_constraints() + self.capacity_constraints()
        return InequalityQUBO(qubo=self.usage_qubo(), constraints=constraints)

    def random_feasible_configuration(self, rng: np.random.Generator,
                                      max_tries: int = 10_000) -> np.ndarray:
        """First-fit assignment of a random item order (feasible when bins suffice)."""
        for _ in range(max_tries):
            order = rng.permutation(self.num_items)
            loads = np.zeros(self.num_bins)
            assignment = [-1] * self.num_items
            ok = True
            for item in order:
                placed = False
                for b in rng.permutation(self.num_bins):
                    if loads[b] + self.sizes[item] <= self.capacity:
                        loads[b] += self.sizes[item]
                        assignment[item] = int(b)
                        placed = True
                        break
                if not placed:
                    ok = False
                    break
            if ok:
                return self.encode(assignment)
        raise RuntimeError("failed to construct a feasible packing; add more bins")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BinPackingProblem(name={self.name!r}, items={self.num_items}, "
            f"bins={self.num_bins}, C={self.capacity:g})"
        )
