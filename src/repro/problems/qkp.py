"""Quadratic Knapsack Problem (QKP) -- the paper's representative COP.

Paper Eq. (3)-(4):

    max  sum_{i,j} p_ij x_i x_j
    s.t. sum_i w_i x_i <= C,   x_i in {0, 1}

``p_ii`` is the individual profit of item ``i`` and ``p_ij = p_ji`` (i != j)
the extra profit earned when both ``i`` and ``j`` are selected.  The paper's
evaluation uses 40 instances with 100 items each, following the
Billionnet-Soutif benchmark family (weights 1..50, profits 1..100, capacity
uniform in ``[50, sum_i w_i]``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.constraints import InequalityConstraint
from repro.core.qubo import QUBOModel
from repro.core.transformation import InequalityQUBO
from repro.problems.base import CombinatorialProblem


def _selection_profit(profits: np.ndarray, vec: np.ndarray) -> float:
    """``sum_i p_ii x_i + sum_{i<j} p_ij x_i x_j`` for a symmetric ``profits``.

    One matrix-vector product and no ``n x n`` copy of the strict upper
    triangle.  On integer profits every partial sum is an integer, so the
    value equals ``x @ triu(P, 1) @ x`` exactly; on float profits it may
    differ from that form in the last bits.
    """
    diagonal = np.diag(profits)
    linear = float(diagonal @ vec)
    pairwise = float((vec @ (profits @ vec) - diagonal @ (vec * vec)) / 2.0)
    return linear + pairwise


def _integer_profits(profits: np.ndarray) -> bool:
    """Integer profits with ``sum |p_ij| < 2**53``: there every partial sum
    of every product :func:`_selection_profits` forms is an exact integer,
    so one batched product equals the per-row values exactly whatever order
    BLAS sums in."""
    return bool(float(np.abs(profits).sum()) < 2.0 ** 53
                and np.array_equal(profits, np.rint(profits)))


def _selection_profits(profits: np.ndarray, batch: np.ndarray,
                       integer: bool) -> np.ndarray:
    """:func:`_selection_profit` of every row of a binary ``(M, n)`` batch.

    One batched product where ``integer`` (:func:`_integer_profits` of
    ``profits``); otherwise the rows keep the per-row form, the only one
    that is exact on float profits.
    """
    if not integer:
        return np.fromiter((_selection_profit(profits, row) for row in batch),
                           dtype=float, count=batch.shape[0])
    diagonal = np.diag(profits)
    quadratic = np.einsum("ij,ij->i", batch, batch @ profits)
    return batch @ diagonal + (quadratic - (batch * batch) @ diagonal) / 2.0


def _objective_qubo(profits: np.ndarray) -> QUBOModel:
    """``Q = -P_upper`` of a symmetric ``profits``, built in stored form.

    Byte for byte what folding ``-(diag(diag(P)) + triu(P, 1))`` gives --
    strict upper ``-(p_ij + 0.0)``, diagonal ``-p_ii + 0.0``, lower
    ``+0.0`` -- without the fold's temporaries.
    """
    upper = profits + 0.0
    np.negative(upper, out=upper)
    stored = np.triu(upper, 1)
    np.fill_diagonal(stored, -np.diag(profits) + 0.0)
    return QUBOModel._stored(stored)


#: Groups of at least this many distinct generators draw their start states
#: with :meth:`QuadraticKnapsackProblem.random_feasible_configurations`'
#: lock-step loop, which costs ``n`` NumPy steps whatever the group size;
#: below it the per-generator loop is faster.
LOCKSTEP_MIN_GROUP = 64


@dataclass
class QuadraticKnapsackProblem(CombinatorialProblem):
    """A QKP instance.

    Parameters
    ----------
    profits:
        Symmetric ``n x n`` profit matrix.  ``profits[i, i]`` is the linear
        profit of item ``i``; ``profits[i, j]`` (``i != j``) the pairwise
        profit counted *once* in the objective.  Whether
        :meth:`objective_batch` may score a batch in one product is decided
        here, once; in-place edits of ``profits`` after construction are
        not re-checked.
    weights:
        Item weights ``w_i`` (positive).
    capacity:
        Knapsack capacity ``C``.
    name:
        Instance label (used in experiment reports).
    """

    profits: np.ndarray
    weights: np.ndarray
    capacity: float
    name: str = "qkp"

    problem_class = "Quadratic Knapsack"
    is_maximization = True

    def __post_init__(self) -> None:
        p = np.asarray(self.profits, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError(f"profit matrix must be square, got {p.shape}")
        # Exactly: objective counts (p_ij + p_ji) / 2 per pair while the
        # QUBOs read the upper triangle, so any asymmetry splits them.
        if not np.array_equal(p, p.T):
            raise ValueError("profit matrix must be exactly symmetric")
        if w.ndim != 1 or w.shape[0] != p.shape[0]:
            raise ValueError("weights length must match profit matrix dimension")
        if np.any(w <= 0):
            raise ValueError("item weights must be positive")
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        self.profits = p
        self.weights = w
        self.capacity = float(self.capacity)
        self._integer = _integer_profits(p)
        self._linear = (InequalityConstraint(w, self.capacity,
                                             name=f"{self.name}-capacity"),)

    # ------------------------------------------------------------------ #
    # CombinatorialProblem interface
    # ------------------------------------------------------------------ #
    @property
    def num_variables(self) -> int:
        return self.weights.shape[0]

    @property
    def num_items(self) -> int:
        """Alias for :attr:`num_variables` using knapsack terminology."""
        return self.num_variables

    def objective(self, x: Iterable[float]) -> float:
        """Total profit of the selection ``x`` (pairwise profits counted once).

        Uses ``sum_{i<j} p_ij x_i x_j = (x.(P x) - sum_i p_ii x_i^2) / 2``
        for the symmetric ``P``; exact on integer profits.
        """
        return _selection_profit(self.profits, self._validate(x))

    def objective_batch(self, configurations: np.ndarray) -> np.ndarray:
        """Row-wise :meth:`objective`: one product on integer profits."""
        return _selection_profits(self.profits,
                                  self._validate_batch(configurations),
                                  self._integer)

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
        """Objective-only QUBO: ``Q = -P_upper`` so minimisation maximises profit.

        Note the constraint is *not* embedded -- use
        :meth:`to_inequality_qubo` (HyCiM) or
        :func:`repro.core.dqubo.to_dqubo` (baseline) to make it solvable by an
        unconstrained annealer.
        """
        return _objective_qubo(self.profits)

    def to_inequality_qubo(self) -> InequalityQUBO:
        """Paper Eq. (6): ``E(x) = [w.x <= C] * x^T Q x`` with ``Q = -P_upper``."""
        return InequalityQUBO(qubo=self.to_qubo(), constraints=self._linear)

    # ------------------------------------------------------------------ #
    # Sampling helpers used by the Monte-Carlo experiments (Fig. 8, Fig. 10)
    # ------------------------------------------------------------------ #
    def random_feasible_configuration(self, rng: np.random.Generator,
                                      max_tries: int = 10_000) -> np.ndarray:
        """Constructive feasible sample: greedily add random items while they fit.

        Items are visited in a random order, and each item that still fits
        is taken on a fair coin flip (one ``rng.random()`` per fitting item;
        items that do not fit draw nothing).  The coins come from one
        ``rng.random(n)`` call; the generator is then rewound and advanced by
        exactly the draws the fit test read, so both the sample and the
        generator's final state equal those of one call per fitting item.
        """
        n = self.num_items
        order = rng.permutation(n)
        state = rng.bit_generator.state
        coins = rng.random(n).tolist()
        weights = self.weights.tolist()
        x = np.zeros(n)
        remaining = self.capacity
        used = 0
        for idx in order.tolist():
            if weights[idx] <= remaining:
                used += 1
                if coins[used - 1] < 0.5:
                    x[idx] = 1.0
                    remaining -= weights[idx]
        rng.bit_generator.state = state
        rng.random(used)
        return x

    def random_feasible_configurations(
            self, rngs: Sequence[np.random.Generator]) -> np.ndarray:
        """:meth:`random_feasible_configuration` for every generator at once.

        A group of :data:`LOCKSTEP_MIN_GROUP` or more distinct generators
        runs every replica's fit test in one loop over the visit positions.
        Each generator first draws its permutation and its ``n`` coins,
        exactly as the scalar sampler does; then position ``t`` tests every
        replica's ``t``-th item against its remaining capacity, reads the
        coin of its ``used``-th fitting item, and subtracts the weights
        taken -- the scalar sampler's float operations, elementwise.  Each
        generator is rewound and advanced by the coins it read, so samples
        and final states equal the scalar sampler's.  Smaller groups, and
        groups in which generators share a bit generator (whose draws must
        follow one another), take the scalar loop.
        """
        generators = list(rngs)
        distinct = len({id(rng.bit_generator) for rng in generators})
        if (len(generators) < LOCKSTEP_MIN_GROUP
                or distinct < len(generators)):
            return super().random_feasible_configurations(generators)
        n = self.num_items
        num = len(generators)
        orders = np.empty((num, n), dtype=np.intp)
        heads = np.empty((num, n), dtype=bool)
        states = []
        for k, rng in enumerate(generators):
            orders[k] = rng.permutation(n)
            states.append(rng.bit_generator.state)
            heads[k] = rng.random(n) < 0.5
        # Row t holds every replica's t-th visited weight; replica k's j-th
        # coin (j = 1, 2, ...) sits at flat index coin_index[k] + j.
        visit_weights = self.weights[orders.T]
        heads = heads.ravel()
        coin_index = np.arange(num) * n - 1
        remaining = np.full(num, self.capacity)
        used = np.zeros(num, dtype=np.intp)
        taken = np.empty((n, num), dtype=bool)
        for t in range(n):
            weight = visit_weights[t]
            fits = weight <= remaining
            used += fits
            np.logical_and(fits, heads[coin_index + used], out=taken[t])
            np.subtract(remaining, weight, out=remaining, where=taken[t])
        for rng, state, count in zip(generators, states, used.tolist()):
            rng.bit_generator.state = state
            rng.random(count)
        x = np.zeros((num, n))
        x[np.arange(num)[:, None], orders] = taken.T
        return x

    def random_infeasible_configuration(self, rng: np.random.Generator,
                                        max_tries: int = 10_000) -> np.ndarray:
        """Sample a configuration that violates the capacity constraint."""
        for _ in range(max_tries):
            # Bias towards dense selections so the capacity is exceeded.
            prob = rng.uniform(0.5, 1.0)
            x = (rng.random(self.num_items) < prob).astype(float)
            if not self.is_feasible(x):
                return x
        raise RuntimeError(
            "failed to sample an infeasible configuration; capacity may exceed total weight"
        )

    def density(self) -> float:
        """Fraction of non-zero pairwise profits (the benchmark 'density' knob)."""
        n = self.num_items
        if n < 2:
            return 0.0
        pairs = n * (n - 1) // 2
        nonzero = int(np.count_nonzero(np.triu(self.profits, k=1)))
        return nonzero / pairs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuadraticKnapsackProblem(name={self.name!r}, n={self.num_items}, "
            f"C={self.capacity:g}, density={self.density():.2f})"
        )
