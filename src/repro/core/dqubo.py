"""The conventional D-QUBO transformation (paper Fig. 1(b)) -- the baseline.

A COP ``min x^T Q x  s.t.  w . x <= C`` is turned into an *unconstrained*
QUBO by introducing auxiliary (slack) variables and penalty terms:

One-hot slack encoding (the encoding the paper evaluates, Fig. 1(b)):

    p1(x, y) = alpha * (1 - sum_k y_k)^2
             + beta  * (sum_i w_i x_i - sum_k k y_k)^2,       k = 1..C

    f1(x, y) = x^T Q x + p1(x, y)

The auxiliary vector ``y`` has ``C`` entries (one per admissible total
weight), so the search space grows from ``2^n`` to ``2^(n+C)`` and the
largest matrix coefficient grows like ``beta * C^2`` -- exactly the growth
measured in Fig. 9(a,b).

Binary (log) slack encoding is also provided as an extension/ablation: the
slack ``s = C - w.x`` is encoded with ``ceil(log2(C+1))`` binary digits,

    p2(x, s) = beta * (sum_i w_i x_i + sum_j 2^j s_j - C)^2,

which needs far fewer auxiliary variables than one-hot but still inflates the
coefficient range and couples every item to every slack bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Tuple

import numpy as np

from repro.core.constraints import InequalityConstraint
from repro.core.qubo import QUBOModel


class SlackEncoding(str, Enum):
    """Auxiliary-variable encodings supported by the D-QUBO transformation."""

    ONE_HOT = "one_hot"
    BINARY = "binary"


def _one_hot_slack_size(capacity: int) -> int:
    """Number of one-hot auxiliary variables (one per weight value 1..C)."""
    return int(capacity)


def _binary_slack_size(capacity: int) -> int:
    """Number of binary slack bits needed to represent 0..C."""
    if capacity <= 0:
        return 0
    return int(math.ceil(math.log2(capacity + 1)))


@dataclass
class DQUBOTransformation:
    """Result of a D-QUBO transformation.

    Attributes
    ----------
    qubo:
        The combined unconstrained QUBO over ``n + m`` variables
        (problem variables first, auxiliary variables last).
    num_problem_variables:
        ``n`` -- the original problem variables.
    num_auxiliary_variables:
        ``m`` -- slack variables added by the encoding.
    encoding:
        Which slack encoding was used.
    alpha, beta:
        Penalty weights (paper uses ``alpha = beta = 2`` in Sec. 4.2).
    constraint:
        The original constraint, kept for feasibility checks of decoded
        solutions.
    """

    qubo: QUBOModel
    num_problem_variables: int
    num_auxiliary_variables: int
    encoding: SlackEncoding
    alpha: float
    beta: float
    constraint: InequalityConstraint

    @property
    def num_variables(self) -> int:
        """Total QUBO dimension ``n + m`` (paper Fig. 9(b))."""
        return self.qubo.num_variables

    @property
    def max_abs_coefficient(self) -> float:
        """``(Q_ij)_MAX`` of the combined matrix (paper Fig. 9(a))."""
        return self.qubo.max_abs_coefficient

    def search_space_bits(self) -> int:
        """``log2`` of the search-space size: ``n + m``."""
        return self.num_variables

    # ------------------------------------------------------------------ #
    # Solution decoding
    # ------------------------------------------------------------------ #
    def split(self, configuration: Iterable[float]) -> Tuple[np.ndarray, np.ndarray]:
        """Split a full configuration into (problem part, auxiliary part)."""
        vec = np.asarray(list(configuration) if not isinstance(configuration, np.ndarray)
                         else configuration, dtype=float)
        if vec.shape[0] != self.num_variables:
            raise ValueError(
                f"configuration length {vec.shape[0]} != total dimension {self.num_variables}"
            )
        n = self.num_problem_variables
        return vec[:n].copy(), vec[n:].copy()

    def decode(self, configuration: Iterable[float]) -> np.ndarray:
        """Extract the problem-variable assignment from a full configuration."""
        problem_part, _ = self.split(configuration)
        return problem_part

    def is_penalty_satisfied(self, configuration: Iterable[float]) -> bool:
        """Whether the auxiliary encoding constraints hold for ``configuration``.

        For the one-hot encoding this requires exactly one ``y_k = 1`` and
        ``w.x == sum_k k y_k``; for the binary encoding it requires
        ``w.x + slack == C``.  A configuration whose penalty is satisfied is
        automatically feasible in the original problem.
        """
        problem_part, aux = self.split(configuration)
        lhs = self.constraint.lhs(problem_part)
        if self.encoding is SlackEncoding.ONE_HOT:
            if not np.isclose(aux.sum(), 1.0):
                return False
            encoded = float(np.arange(1, aux.shape[0] + 1) @ aux)
            return np.isclose(lhs, encoded)
        slack = float(np.array([2.0 ** j for j in range(aux.shape[0])]) @ aux)
        return np.isclose(lhs + slack, self.constraint.bound)

    def is_feasible(self, configuration: Iterable[float]) -> bool:
        """Whether the decoded problem variables satisfy the original constraint."""
        return self.constraint.is_satisfied(self.decode(configuration))

    def problem_objective(self, configuration: Iterable[float],
                          problem_qubo: QUBOModel) -> float:
        """Evaluate the *original* objective on the decoded problem variables."""
        return problem_qubo.energy(self.decode(configuration))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DQUBOTransformation(n={self.num_problem_variables}, "
            f"m={self.num_auxiliary_variables}, encoding={self.encoding.value}, "
            f"max|Q|={self.max_abs_coefficient:.3g})"
        )


def predict_dqubo_dimension(num_problem_variables: int, capacity: float,
                            encoding: SlackEncoding = SlackEncoding.ONE_HOT) -> int:
    """Predicted D-QUBO dimension ``n + m`` without building the matrix.

    Used by the Fig. 9(b) study at full problem scale, where constructing the
    dense one-hot matrix (up to 2636 x 2636 per instance) is unnecessary.
    """
    if capacity <= 0 or abs(capacity - round(capacity)) > 1e-9:
        raise ValueError("capacity must be a positive integer")
    c = int(round(capacity))
    if encoding is SlackEncoding.ONE_HOT:
        return num_problem_variables + _one_hot_slack_size(c)
    return num_problem_variables + _binary_slack_size(c)


def predict_dqubo_qmax(objective_qmax: float, max_weight: float, capacity: float,
                       alpha: float = 2.0, beta: float = 2.0,
                       encoding: SlackEncoding = SlackEncoding.ONE_HOT) -> float:
    """Predicted ``(Q_ij)_MAX`` of the D-QUBO matrix without building it.

    For the one-hot encoding the dominant coefficient is the pairwise slack
    coupling ``2 * beta * C * (C - 1)`` (for ``C >= 3``), which is what drives
    the 4e4..2.6e7 range reported in Fig. 9(a).  All other candidate terms are
    included for completeness so the prediction is exact.
    """
    if capacity <= 0 or abs(capacity - round(capacity)) > 1e-9:
        raise ValueError("capacity must be a positive integer")
    c = int(round(capacity))
    w = float(max_weight)
    candidates = [abs(objective_qmax), 2.0 * alpha, abs(alpha * (-2.0 + 1.0))]
    if encoding is SlackEncoding.ONE_HOT:
        candidates.extend([
            beta * w ** 2,
            2.0 * beta * w * w,
            abs(beta * c ** 2 - alpha),
            # Slack-slack pairs carry both the alpha one-hot coupling and the
            # beta product term; the (C-1, C) pair is the global maximum.
            2.0 * alpha + 2.0 * beta * c * max(c - 1, 0),
            2.0 * beta * w * c,
        ])
    else:
        m = _binary_slack_size(c)
        top_slack = 2.0 ** (m - 1) if m > 0 else 0.0
        combined_max = max(w, top_slack)
        candidates.extend([
            beta * abs(combined_max ** 2 - 2.0 * c * combined_max),
            beta * abs(w ** 2 - 2.0 * c * w),
            2.0 * beta * combined_max * max(combined_max / 2.0, w),
        ])
    return float(max(candidates))


def _squares(values: np.ndarray) -> np.ndarray:
    """``v ** 2`` per entry through scalar ``pow``.

    NumPy's vectorised square is ``v * v``, which can differ from ``pow`` in
    the last bit on non-integer values; scalar powers keep the penalty
    coefficients bit-identical for every weight vector.
    """
    return np.array([value ** 2 for value in values.tolist()], dtype=float)


def _add_square_terms(block: np.ndarray, diagonal: np.ndarray,
                      left: np.ndarray, right: np.ndarray) -> None:
    """Add ``diagonal[a]`` at ``(a, a)`` and ``left[a] * right[b]`` at ``(a, b)``, ``a < b``.

    One row slice per ``a``: every entry receives exactly one addition of
    the same product, so the block equals the per-entry sum bit for bit
    without an ``(m, m)`` temporary.
    """
    size = block.shape[0]
    index = np.arange(size)
    block[index, index] += diagonal
    for a in range(size - 1):
        block[a, a + 1:] += left[a] * right[a + 1:]


def to_dqubo(
    objective: QUBOModel,
    constraint: InequalityConstraint,
    alpha: float = 2.0,
    beta: float = 2.0,
    encoding: SlackEncoding = SlackEncoding.ONE_HOT,
) -> DQUBOTransformation:
    """Transform ``min x^T Q x  s.t.  w.x <= C`` into an unconstrained D-QUBO.

    Parameters
    ----------
    objective:
        The problem QUBO over the ``n`` problem variables (already negated
        for maximisation problems).
    constraint:
        The inequality constraint ``w . x <= C`` with integer capacity.
    alpha, beta:
        Penalty weights of the one-hot encoding (paper default: 2).  The
        binary encoding only uses ``beta``.
    encoding:
        :class:`SlackEncoding.ONE_HOT` reproduces the paper's baseline;
        :class:`SlackEncoding.BINARY` is the log-slack ablation.

    Returns
    -------
    DQUBOTransformation
        The combined QUBO and bookkeeping needed to decode solutions.
    """
    if constraint.num_variables != objective.num_variables:
        raise ValueError("constraint arity must match objective dimension")
    capacity = constraint.bound
    if capacity <= 0 or abs(capacity - round(capacity)) > 1e-9:
        raise ValueError("D-QUBO slack encodings require a positive integer capacity")
    capacity = int(round(capacity))
    weights = constraint.weight_vector
    n = objective.num_variables

    if encoding is SlackEncoding.ONE_HOT:
        m = _one_hot_slack_size(capacity)
        slack_values = np.arange(1, m + 1, dtype=float)
    elif encoding is SlackEncoding.BINARY:
        m = _binary_slack_size(capacity)
        slack_values = np.array([2.0 ** j for j in range(m)])
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown encoding {encoding!r}")

    total = n + m
    q = np.zeros((total, total))
    offset = 0.0

    # Embed the original objective in the top-left block.
    q[:n, :n] += objective.matrix
    offset += objective.offset

    if encoding is SlackEncoding.ONE_HOT:
        # alpha * (1 - sum_k y_k)^2
        #   = alpha * (1 - 2 sum_k y_k + sum_k y_k + 2 sum_{k<l} y_k y_l)
        offset += alpha
        _add_square_terms(q[n:, n:], np.full(m, alpha * (-2.0 + 1.0)),
                          np.full(m, 2.0 * alpha), np.ones(m))
        # beta * (sum_i w_i x_i - sum_k k y_k)^2
        # Expand with binary idempotence (z^2 == z on the diagonal terms).
        #   = beta * [ sum_i w_i^2 x_i + 2 sum_{i<j} w_i w_j x_i x_j
        #            + sum_k k^2 y_k + 2 sum_{k<l} k l y_k y_l
        #            - 2 sum_{i,k} w_i k x_i y_k ]
        _add_square_terms(q[:n, :n], beta * _squares(weights),
                          2.0 * beta * weights, weights)
        _add_square_terms(q[n:, n:], beta * _squares(slack_values),
                          2.0 * beta * slack_values, slack_values)
        q[:n, n:] += np.outer(-2.0 * beta * weights, slack_values)
    else:
        # beta * (w.x + sum_j 2^j s_j - C)^2
        combined = np.concatenate([weights, slack_values])
        _add_square_terms(
            q, beta * (_squares(combined) - 2.0 * capacity * combined),
            2.0 * beta * combined, combined)
        offset += beta * capacity ** 2

    combined_qubo = QUBOModel(q, offset=offset)
    return DQUBOTransformation(
        qubo=combined_qubo,
        num_problem_variables=n,
        num_auxiliary_variables=m,
        encoding=encoding,
        alpha=alpha,
        beta=beta,
        constraint=constraint,
    )
