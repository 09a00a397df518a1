"""Linear constraint objects over binary variables.

COPs with inequality constraints (knapsack, QKP, bin packing, ...) carry one
or more constraints of the form ``w . x <= C`` (or ``== C``).  These objects
are the interface between problem definitions (:mod:`repro.problems`), the
inequality-QUBO transformation (:mod:`repro.core.transformation`), the
D-QUBO penalty construction (:mod:`repro.core.dqubo`) and the CiM inequality
filter (:mod:`repro.cim.inequality_filter`).

Each constraint judges a whole ``(M, n)`` batch in one call
(:meth:`LinearConstraint.is_satisfied_batch`, with the one tolerance
:data:`FEASIBILITY_TOLERANCE`), and :func:`all_satisfied` is the conjunction
of several; :meth:`~LinearConstraint.is_satisfied` is the one-row view, so
a scalar verdict equals the batched one bit for bit on any data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: Slack on every exact linear verdict: ``w . x <= C + tol`` and
#: ``|w . x - C| <= tol`` (the fused kernels' running loads use it too).
FEASIBILITY_TOLERANCE = 1e-9


@dataclass(frozen=True, eq=False)
class LinearConstraint:
    """Base class for a linear constraint ``w . x  (sense)  bound``.

    Parameters
    ----------
    weights:
        Coefficient vector ``w`` (one entry per binary variable), held as
        one read-only float array.
    bound:
        Right-hand side constant.
    name:
        Optional label used in reports.
    """

    weights: np.ndarray
    bound: float
    name: str = "constraint"

    def __init__(self, weights: Iterable[float], bound: float, name: str = "constraint"):
        vector = np.array(weights if isinstance(weights, np.ndarray)
                          else list(weights), dtype=float)
        vector.flags.writeable = False
        object.__setattr__(self, "weights", vector)
        object.__setattr__(self, "bound", float(bound))
        object.__setattr__(self, "name", str(name))

    def __reduce__(self):
        # Rebuild through __init__, so a copy's weights are read-only too.
        return type(self), (self.weights, self.bound, self.name)

    @property
    def num_variables(self) -> int:
        """Number of variables the constraint spans."""
        return len(self.weights)

    @property
    def weight_vector(self) -> np.ndarray:
        """Coefficients as a writable NumPy copy."""
        return self.weights.copy()

    def loads(self, batch: np.ndarray) -> np.ndarray:
        """``w . x_k`` for every row of an ``(M, n)`` float batch."""
        return batch @ self.weights

    def is_satisfied_batch(self, batch: np.ndarray) -> np.ndarray:
        """Verdicts for every row of an ``(M, n)`` float batch (subclasses)."""
        raise NotImplementedError

    def _row(self, x: Iterable[float]) -> np.ndarray:
        vec = np.asarray(list(x) if not isinstance(x, np.ndarray) else x, dtype=float)
        if vec.shape[0] != self.num_variables:
            raise ValueError(
                f"configuration length {vec.shape[0]} != constraint arity {self.num_variables}"
            )
        return vec[None, :]

    def lhs(self, x: Iterable[float]) -> float:
        """Evaluate the left-hand side ``w . x`` (one-row :meth:`loads`)."""
        return float(self.loads(self._row(x))[0])

    def is_satisfied(self, x: Iterable[float]) -> bool:
        """Whether ``x`` satisfies the constraint (one-row
        :meth:`is_satisfied_batch`)."""
        return bool(self.is_satisfied_batch(self._row(x))[0])

    def violation(self, x: Iterable[float]) -> float:
        """Non-negative violation magnitude (0 when satisfied)."""
        raise NotImplementedError


class InequalityConstraint(LinearConstraint):
    """A ``w . x <= C`` constraint -- the constraint class HyCiM targets."""

    def is_satisfied_batch(self, batch: np.ndarray) -> np.ndarray:
        return self.loads(batch) <= self.bound + FEASIBILITY_TOLERANCE

    def violation(self, x: Iterable[float]) -> float:
        return max(0.0, self.lhs(x) - self.bound)

    def slack(self, x: Iterable[float]) -> float:
        """Remaining capacity ``C - w.x`` (may be negative when violated)."""
        return self.bound - self.lhs(x)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InequalityConstraint(n={self.num_variables}, C={self.bound:g}, name={self.name!r})"


class EqualityConstraint(LinearConstraint):
    """A ``w . x == C`` constraint (special case; see paper Sec. 3.2)."""

    def is_satisfied_batch(self, batch: np.ndarray) -> np.ndarray:
        return np.abs(self.loads(batch) - self.bound) <= FEASIBILITY_TOLERANCE

    def violation(self, x: Iterable[float]) -> float:
        return abs(self.lhs(x) - self.bound)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EqualityConstraint(n={self.num_variables}, C={self.bound:g}, name={self.name!r})"


def all_satisfied(constraints: Sequence[LinearConstraint],
                  batch: np.ndarray) -> np.ndarray:
    """Rows of an ``(M, n)`` float batch that satisfy every constraint
    (all rows for none)."""
    verdicts = np.ones(batch.shape[0], dtype=bool)
    for constraint in constraints:
        verdicts &= constraint.is_satisfied_batch(batch)
    return verdicts
