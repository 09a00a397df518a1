"""Common interface for combinatorial optimization problems.

A :class:`CombinatorialProblem` exposes three things the rest of the system
needs:

1. the native objective and feasibility test on binary decision vectors;
2. a conversion to the HyCiM inequality-QUBO form (constraints detached);
3. a conversion to a plain QUBO (for constraint-free problems, or via the
   D-QUBO penalty route for constrained problems).

Problems whose natural encoding is not a flat binary vector (graph coloring,
TSP) document their own variable layout in the class docstring.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.core.constraints import InequalityConstraint, all_satisfied
from repro.core.qubo import QUBOModel
from repro.core.transformation import InequalityQUBO

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.sparse import SparseQUBOModel


class CombinatorialProblem(ABC):
    """Abstract base class for all COPs in the reproduction."""

    #: Human-readable problem class name used in reports (Table 1).
    problem_class: str = "COP"

    @property
    @abstractmethod
    def num_variables(self) -> int:
        """Number of binary decision variables."""

    @abstractmethod
    def objective(self, x: Iterable[float]) -> float:
        """Native objective value of configuration ``x`` (maximisation or
        minimisation as defined by the concrete problem; see
        :attr:`is_maximization`)."""

    def is_feasible(self, x: Iterable[float]) -> bool:
        """Whether ``x`` satisfies all problem constraints.

        The default is the one-row view of the verdicts of
        :meth:`linear_feasibility_constraints`; a problem without a linear
        form must override it.
        """
        constraints = self.linear_feasibility_constraints()
        if constraints is None:
            raise NotImplementedError(
                f"{type(self).__name__} has no linear feasibility form, so it "
                "must override is_feasible")
        return bool(all_satisfied(constraints, self._validate(x)[None, :])[0])

    @abstractmethod
    def to_qubo(self) -> QUBOModel:
        """Plain QUBO encoding (penalties embedded if the problem has
        constraints).  Minimising the returned QUBO solves the problem."""

    #: Whether the native objective is to be maximised.
    is_maximization: bool = True

    def is_feasible_batch(self, configurations: np.ndarray) -> np.ndarray:
        """Feasibility verdicts for an ``(M, n)`` batch, one row per replica.

        The multi-replica annealing engine calls this once per lock-step
        proposal round.  The default judges the whole batch against
        :meth:`linear_feasibility_constraints` in one
        :func:`~repro.core.constraints.all_satisfied` call, of which
        :meth:`is_feasible` is the one-row view, and without a linear form
        delegates to :meth:`is_feasible` row by row; problems with a cheaper
        vectorised check override it.

        Contract (asserted for every registered family by the
        ``tests/conformance`` suite): a 1-D input is treated as the ``M = 1``
        view, an empty ``(0, n)`` batch returns an empty verdict vector, the
        returned dtype is always ``bool``, and verdict ``k`` equals
        ``is_feasible(batch[k])`` for any input dtype.
        """
        batch = self._validate_batch(configurations)
        constraints = self.linear_feasibility_constraints()
        if constraints is not None:
            return all_satisfied(constraints, batch)
        return np.fromiter((self.is_feasible(row) for row in batch),
                           dtype=bool, count=batch.shape[0])

    def objective_batch(self, configurations: np.ndarray) -> np.ndarray:
        """Objective values of an ``(M, n)`` batch, one per row.

        The engines call this once per replica group, on the best
        configurations that are feasible.  The default delegates to
        :meth:`objective` row by row; problems with an exact vectorised form
        override it.  Contract (asserted for every registered family by the
        ``tests/conformance`` suite): value ``k`` equals
        ``objective(batch[k])`` exactly, and the shapes follow
        :meth:`is_feasible_batch`'s.
        """
        batch = self._validate_batch(configurations)
        return np.fromiter((self.objective(row) for row in batch),
                           dtype=float, count=batch.shape[0])

    def linear_feasibility_constraints(
            self) -> Optional[Tuple[InequalityConstraint, ...]]:
        """The feasible region as linear inequalities, when expressible.

        Returns the tuple of :class:`InequalityConstraint` objects whose
        conjunction is :meth:`is_feasible` / :meth:`is_feasible_batch` (an
        empty tuple for unconstrained problems), or ``None`` when the
        feasible region has no such form (colorings, tours, packings).  A
        problem that returns a tuple gets both feasibility methods from it,
        so they judge exactly these constraints; build the tuple once per
        instance (in-place edits of the arrays it was built from are then
        not seen).  The fused sweep kernels (:mod:`repro.kernels.fused`) use
        it to replace the opaque batched filter with incrementally
        maintained constraint loads; ``kernel="auto"`` falls back to the
        reference backend on ``None``.
        """
        return None

    def to_sparse_qubo(self) -> "SparseQUBOModel":
        """CSR encoding of :meth:`to_qubo` (needs the SciPy ``sparse`` extra).

        The default round-trips through the dense matrix, so it is exactly
        :meth:`to_qubo` in sparse storage; families whose coefficients come
        from an edge/coordinate list override it to skip the dense
        intermediate at large ``n``.
        """
        from repro.core.sparse import SparseQUBOModel

        return SparseQUBOModel.from_dense(self.to_qubo())

    def to_inequality_qubo(self) -> InequalityQUBO:
        """HyCiM inequality-QUBO form: objective QUBO + detached constraints.

        Unconstrained problems return an :class:`InequalityQUBO` with an empty
        constraint tuple, so the HyCiM solver degrades gracefully to a plain
        CiM annealer for them.
        """
        return InequalityQUBO(qubo=self.to_qubo(), constraints=())

    # ------------------------------------------------------------------ #
    # Helpers shared by concrete problems
    # ------------------------------------------------------------------ #
    def _validate(self, x: Iterable[float]) -> np.ndarray:
        vec = np.asarray(list(x) if not isinstance(x, np.ndarray) else x, dtype=float)
        if vec.ndim != 1 or vec.shape[0] != self.num_variables:
            raise ValueError(
                f"expected a binary vector of length {self.num_variables}, got shape {vec.shape}"
            )
        if not np.all((vec == 0) | (vec == 1)):
            raise ValueError("decision vectors must be binary (0/1)")
        return vec

    def _validate_batch(self, configurations: np.ndarray) -> np.ndarray:
        """Coerce a replica batch into a float ``(M, n)`` matrix.

        Accepts a 1-D vector (the ``M = 1`` view), any integer/float/bool
        dtype, and the empty ``(0, n)`` batch; rejects wrong trailing
        dimensions and non-binary values so every ``is_feasible_batch``
        override shares one validation path with the scalar ``_validate``.
        """
        batch = np.asarray(configurations, dtype=float)
        if batch.ndim == 1:
            batch = batch[None, :]
        if batch.ndim != 2 or batch.shape[1] != self.num_variables:
            raise ValueError(
                f"expected an (M, {self.num_variables}) batch, got shape {batch.shape}"
            )
        if batch.size and not np.all((batch == 0) | (batch == 1)):
            raise ValueError("decision vectors must be binary (0/1)")
        return batch

    def random_feasible_configuration(self, rng: np.random.Generator,
                                      max_tries: int = 10_000) -> np.ndarray:
        """Draw a uniformly random configuration and repair/retry to feasibility.

        The default implementation rejects infeasible samples; problems with
        very sparse feasible regions override this with a constructive
        sampler.
        """
        for _ in range(max_tries):
            x = rng.integers(0, 2, size=self.num_variables).astype(float)
            if self.is_feasible(x):
                return x
        raise RuntimeError("failed to sample a feasible configuration")

    def random_feasible_configurations(
            self, rngs: Sequence[np.random.Generator]) -> np.ndarray:
        """One :meth:`random_feasible_configuration` per generator, as an
        ``(M, n)`` matrix.

        Row ``k`` and generator ``k``'s final state equal those of calling
        the scalar sampler on each generator in turn, so a list that repeats
        one generator draws its samples one after another.  The default
        does exactly that; problems may override it with a lock-step
        sampler that keeps this contract.
        """
        rows = [self.random_feasible_configuration(rng) for rng in rngs]
        if not rows:
            return np.zeros((0, self.num_variables))
        return np.stack(rows)

    def brute_force_best(self) -> tuple[np.ndarray, float]:
        """Exhaustive search over feasible configurations (``n <= 22``):
        :func:`repro.exact.brute_force.solve_brute_force`'s optimum."""
        from repro.exact.brute_force import solve_brute_force

        if self.num_variables > 22:
            raise ValueError("brute_force_best limited to n <= 22")
        result = solve_brute_force(self)
        return result.best_configuration, result.best_value
