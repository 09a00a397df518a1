"""The HyCiM inequality-QUBO transformation (paper Sec. 3.2).

Instead of absorbing an inequality constraint ``w . x <= C`` into the QUBO
objective with slack variables and penalty weights (the D-QUBO route,
:mod:`repro.core.dqubo`), the paper keeps the constraint *outside* the QUBO
and defines the objective

    E(x) = [ w . x <= C ] * x^T Q x              (paper Eq. (6))

where ``[.]`` is the Iverson bracket.  ``Q`` is constructed so that
``x^T Q x`` is non-positive for every feasible ``x`` (for QKP,
``q_ij = -p_ij``), hence ``E`` is non-positive, the infeasible region is flat
at ``E = 0`` and the feasible region carries the (negated) problem profit.

The search space of the QUBO stays ``2^n`` (no auxiliary variables), and the
feasibility check is delegated to the CiM inequality filter at solve time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.constraints import LinearConstraint, all_satisfied
from repro.core.qubo import (
    QUBOModel,
    _as_batch,
    _as_binary_vector,
    binary_configurations,
    exhaustive_minimum,
)


@dataclass
class InequalityQUBO:
    """An inequality-QUBO objective: a QUBO plus detached constraints.

    This is the object the HyCiM solver consumes: the :attr:`qubo` part is
    mapped to the CiM crossbar, each constraint in :attr:`constraints` is
    mapped to its own CiM inequality filter.
    """

    qubo: QUBOModel
    constraints: Tuple[LinearConstraint, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        self.constraints = tuple(self.constraints)
        for constraint in self.constraints:
            if constraint.num_variables != self.qubo.num_variables:
                raise ValueError(
                    "constraint arity "
                    f"{constraint.num_variables} != QUBO dimension {self.qubo.num_variables}"
                )

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def num_variables(self) -> int:
        """Search-space dimension ``n`` (unchanged by the transformation)."""
        return self.qubo.num_variables

    @property
    def num_constraints(self) -> int:
        """Number of detached inequality/equality constraints."""
        return len(self.constraints)

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def is_feasible(self, x: Iterable[float]) -> bool:
        """Whether ``x`` satisfies every detached constraint."""
        vec = np.asarray(list(x) if not isinstance(x, np.ndarray) else x, dtype=float)
        return bool(all_satisfied(self.constraints,
                                  _as_batch(vec, self.num_variables))[0])

    def energy(self, x: Iterable[float]) -> float:
        """Paper Eq. (6): ``[feasible] * x^T Q x``.

        Infeasible configurations evaluate to exactly ``0`` -- they neither
        help nor hurt, which is what allows the filter to simply skip them.
        The one-row view of :meth:`energies`.
        """
        vec = _as_binary_vector(x, self.num_variables)
        return float(self.energies(vec[None, :])[0])

    def qubo_energy(self, x: Iterable[float]) -> float:
        """Raw QUBO value ``x^T Q x`` ignoring constraints (crossbar output)."""
        return self.qubo.energy(x)

    def energies(self, configurations: np.ndarray) -> np.ndarray:
        """Vectorised Eq. (6) evaluation over a ``(k, n)`` batch."""
        batch = _as_batch(configurations, self.num_variables)
        return np.where(all_satisfied(self.constraints, batch),
                        self.qubo.energies(batch), 0.0)

    def brute_force_minimum(self) -> Tuple[np.ndarray, float]:
        """Exhaustive minimisation of Eq. (6) (``n <= 24``)."""
        return exhaustive_minimum(self.energies, self.num_variables)

    # ------------------------------------------------------------------ #
    # Search-space accounting (used by Fig. 9 reproduction)
    # ------------------------------------------------------------------ #
    def search_space_bits(self) -> int:
        """``log2`` of the search-space size: just ``n`` for inequality-QUBO."""
        return self.num_variables

    def count_feasible(self, limit_bits: int = 24) -> int:
        """Exhaustively count feasible configurations (small instances only)."""
        n = self.num_variables
        if n > limit_bits:
            raise ValueError(f"count_feasible limited to n <= {limit_bits}")
        return sum(int(all_satisfied(self.constraints, batch).sum())
                   for batch in binary_configurations(n))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InequalityQUBO(n={self.num_variables}, constraints={self.num_constraints}, "
            f"max|Q|={self.qubo.max_abs_coefficient:.3g})"
        )


def to_inequality_qubo(
    profit_matrix: np.ndarray,
    constraints: Sequence[LinearConstraint] | LinearConstraint,
    maximize: bool = True,
) -> InequalityQUBO:
    """Build an inequality-QUBO form from a (quadratic) profit matrix.

    Parameters
    ----------
    profit_matrix:
        Symmetric profit matrix ``p`` of the COP.  For QKP, ``p_ii`` is the
        individual profit of item ``i`` and ``p_ij`` the pairwise profit.
    constraints:
        One or more detached linear constraints over the same variables.
    maximize:
        When ``True`` (the default, matching QKP), the QUBO matrix is set to
        ``Q = -p`` so that minimising ``x^T Q x`` maximises total profit
        (paper Eq. (5) with ``p_ij = -q_ij``).

    Returns
    -------
    InequalityQUBO
        The paper's Eq. (6) objective.
    """
    p = np.asarray(profit_matrix, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError(f"profit matrix must be square, got shape {p.shape}")
    if not np.allclose(p, p.T):
        raise ValueError("profit matrix must be symmetric (p_ij == p_ji)")
    q = -p if maximize else p.copy()
    qubo = QUBOModel(q)
    constraint_list: List[LinearConstraint]
    if isinstance(constraints, LinearConstraint):
        constraint_list = [constraints]
    else:
        constraint_list = list(constraints)
    return InequalityQUBO(qubo=qubo, constraints=tuple(constraint_list))
