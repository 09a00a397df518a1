"""Quadratic Unconstrained Binary Optimization (QUBO) model.

A QUBO instance is ``min_x  x^T Q x`` with ``x`` a binary vector
(paper Eq. (2)).  The matrix convention used throughout this repository is the
*upper-triangular* convention: the diagonal holds linear coefficients
(``x_i^2 == x_i`` for binary variables) and the strict upper triangle holds
pairwise couplings.  Helper constructors accept symmetric matrices or
coefficient dictionaries and normalise them.

The class is deliberately light-weight -- a thin wrapper around a NumPy array
-- because the annealers and the CiM crossbar simulator operate directly on
the dense matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Mapping, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, Iterable[Iterable[float]]]
CoefficientKey = Tuple[int, int]


def _as_binary_vector(x: Iterable[float], n: int) -> np.ndarray:
    """Validate and coerce ``x`` into a length-``n`` binary vector."""
    vec = np.asarray(list(x) if not isinstance(x, np.ndarray) else x, dtype=float)
    if vec.ndim != 1 or vec.shape[0] != n:
        raise ValueError(f"expected a binary vector of length {n}, got shape {vec.shape}")
    if not np.all((vec == 0) | (vec == 1)):
        raise ValueError("QUBO inputs must be binary (0/1) vectors")
    return vec


@dataclass
class QUBOModel:
    """A QUBO objective ``f(x) = x^T Q x`` over binary variables.

    Parameters
    ----------
    matrix:
        Square coefficient matrix.  Stored internally in upper-triangular
        form; symmetric input matrices are folded (``Q[i,j] + Q[j,i]`` into
        the upper triangle) so that ``x^T Q_upper x == x^T Q_sym x`` for
        binary ``x``.
    offset:
        Constant added to every evaluation.  Penalty constructions and
        problem-to-QUBO conversions use it to keep objective values aligned
        with the original problem.
    variable_names:
        Optional human readable names (defaults to ``x0..x{n-1}``).
    """

    matrix: np.ndarray
    offset: float = 0.0
    variable_names: Tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        q = np.asarray(self.matrix, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError(f"QUBO matrix must be square, got shape {q.shape}")
        # Fold to upper triangular: for binary x, x^T Q x only depends on
        # Q[i,j] + Q[j,i] for i != j and on Q[i,i].
        self.matrix = np.triu(q) + np.triu(q.T, k=1)
        self._name_variables()

    def _name_variables(self) -> None:
        n = self.matrix.shape[0]
        if not self.variable_names:
            self.variable_names = tuple(f"x{i}" for i in range(n))
        elif len(self.variable_names) != n:
            raise ValueError("variable_names length must match matrix dimension")

    @classmethod
    def _stored(cls, upper: np.ndarray) -> "QUBOModel":
        """A model over a square float matrix already in stored form.

        The caller vouches that folding ``upper`` would return it byte for
        byte -- lower triangle ``+0.0``, no ``-0.0`` on the diagonal -- so the
        fold's ``n x n`` temporaries are skipped.
        """
        model = cls.__new__(cls)
        model.matrix = upper
        model.offset = 0.0
        model.variable_names = ()
        model._name_variables()
        return model

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(
        cls,
        coefficients: Mapping[CoefficientKey, float],
        num_variables: int | None = None,
        offset: float = 0.0,
    ) -> "QUBOModel":
        """Build a model from a ``{(i, j): value}`` coefficient mapping.

        Both ``(i, j)`` and ``(j, i)`` keys are accepted and accumulated into
        the upper triangle.  ``num_variables`` may be given explicitly when
        trailing variables have no coefficients.
        """
        if not coefficients and num_variables is None:
            raise ValueError("empty coefficient dict requires explicit num_variables")
        max_index = max((max(i, j) for i, j in coefficients), default=-1)
        if num_variables is not None and max_index >= num_variables:
            raise IndexError(
                f"coefficient index {max_index} out of range for num_variables={num_variables}"
            )
        n = max(max_index + 1, num_variables or 0)
        q = np.zeros((n, n), dtype=float)
        for (i, j), value in coefficients.items():
            if i < 0 or j < 0 or i >= n or j >= n:
                raise IndexError(f"coefficient index ({i}, {j}) out of range for n={n}")
            row, col = (i, j) if i <= j else (j, i)
            q[row, col] += value
        return cls(q, offset=offset)

    @classmethod
    def zeros(cls, num_variables: int) -> "QUBOModel":
        """An all-zero QUBO over ``num_variables`` variables."""
        return cls(np.zeros((num_variables, num_variables)))

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_variables(self) -> int:
        """Dimension ``n`` of the binary variable vector."""
        return self.matrix.shape[0]

    @property
    def linear(self) -> np.ndarray:
        """Diagonal (linear) coefficients."""
        return np.diag(self.matrix).copy()

    @property
    def quadratic(self) -> np.ndarray:
        """Strict upper-triangular (pairwise) coefficients."""
        return np.triu(self.matrix, k=1)

    @property
    def max_abs_coefficient(self) -> float:
        """``(Q_ij)_MAX`` -- the largest absolute matrix element (Fig. 9(a))."""
        if self.num_variables == 0:
            return 0.0
        return float(np.max(np.abs(self.matrix)))

    @property
    def density(self) -> float:
        """Fraction of non-zero entries in the upper triangle (incl. diagonal)."""
        n = self.num_variables
        if n == 0:
            return 0.0
        slots = n * (n + 1) // 2
        nonzero = int(np.count_nonzero(np.triu(self.matrix)))
        return nonzero / slots

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def energy(self, x: Iterable[float]) -> float:
        """Evaluate ``x^T Q x + offset`` for a binary configuration ``x``."""
        vec = _as_binary_vector(x, self.num_variables)
        return float(vec @ self.matrix @ vec) + self.offset

    def energies(self, configurations: np.ndarray) -> np.ndarray:
        """Vectorised evaluation of a ``(k, n)`` batch of binary rows."""
        batch = np.asarray(configurations, dtype=float)
        if batch.ndim == 1:
            batch = batch[None, :]
        if batch.shape[1] != self.num_variables:
            raise ValueError(
                f"configurations have {batch.shape[1]} columns, expected {self.num_variables}"
            )
        return np.einsum("ki,ij,kj->k", batch, self.matrix, batch) + self.offset

    def energy_delta(self, x: np.ndarray, flip_index: int) -> float:
        """Energy change from flipping bit ``flip_index`` of configuration ``x``.

        Computed in O(n) without re-evaluating the full quadratic form.  The
        scalar reference form: the annealing engines evaluate flips in batch
        with :func:`repro.kernels.reference.batched_energy_delta` or, in the
        fused kernels, from incrementally maintained local fields.
        """
        vec = _as_binary_vector(x, self.num_variables)
        i = int(flip_index)
        if not 0 <= i < self.num_variables:
            raise IndexError(f"flip index {i} out of range")
        # Contribution of variable i to the energy given the rest of x:
        # diag term + couplings to the other set bits (upper triangle holds
        # the full pairwise coefficient).
        coupling = self.matrix[i, :] @ vec + self.matrix[:, i] @ vec - 2 * self.matrix[i, i] * vec[i]
        linear = self.matrix[i, i]
        current_contrib = vec[i] * (linear + coupling)
        flipped = 1.0 - vec[i]
        new_contrib = flipped * (linear + coupling)
        return float(new_contrib - current_contrib)

    def brute_force_minimum(self) -> Tuple[np.ndarray, float]:
        """Exhaustively minimise the QUBO (only sensible for small ``n``).

        Returns the optimal binary vector and its energy.  Raises for
        ``n > 24`` to avoid accidental exponential blow-ups in tests.
        """
        n = self.num_variables
        if n > 24:
            raise ValueError("brute_force_minimum limited to n <= 24")
        best_energy = np.inf
        best_x = np.zeros(n)
        for bits in range(1 << n):
            x = np.array([(bits >> k) & 1 for k in range(n)], dtype=float)
            e = self.energy(x)
            if e < best_energy:
                best_energy = e
                best_x = x
        return best_x, float(best_energy)

    # ------------------------------------------------------------------ #
    # Algebra
    # ------------------------------------------------------------------ #
    def scaled(self, factor: float) -> "QUBOModel":
        """Return a new model with all coefficients (and offset) scaled."""
        return QUBOModel(self.matrix * factor, offset=self.offset * factor,
                         variable_names=self.variable_names)

    def __add__(self, other: "QUBOModel") -> "QUBOModel":
        if not isinstance(other, QUBOModel):
            return NotImplemented
        if other.num_variables != self.num_variables:
            raise ValueError("cannot add QUBO models of different dimensions")
        return QUBOModel(self.matrix + other.matrix, offset=self.offset + other.offset,
                         variable_names=self.variable_names)

    def embedded(self, total_variables: int, start: int = 0) -> "QUBOModel":
        """Embed this model into a larger variable space.

        The model's variables are mapped to indices ``start .. start+n-1`` of
        a ``total_variables``-dimensional QUBO whose other coefficients are
        zero.  Used by the D-QUBO construction to combine objective and
        penalty blocks.
        """
        n = self.num_variables
        if start < 0 or start + n > total_variables:
            raise ValueError("embedding window out of range")
        q = np.zeros((total_variables, total_variables))
        q[start:start + n, start:start + n] = self.matrix
        return QUBOModel(q, offset=self.offset)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation."""
        coeffs = {}
        n = self.num_variables
        for i in range(n):
            for j in range(i, n):
                if self.matrix[i, j] != 0.0:
                    coeffs[f"{i},{j}"] = float(self.matrix[i, j])
        return {
            "num_variables": n,
            "offset": self.offset,
            "coefficients": coeffs,
            "variable_names": list(self.variable_names),
        }

    @classmethod
    def from_serialized(cls, payload: Mapping[str, object]) -> "QUBOModel":
        """Inverse of :meth:`to_dict`."""
        n = int(payload["num_variables"])
        coeffs: Dict[Tuple[int, int], float] = {}
        for key, value in dict(payload.get("coefficients", {})).items():
            i_str, j_str = key.split(",")
            coeffs[(int(i_str), int(j_str))] = float(value)
        model = cls.from_dict(coeffs, num_variables=n, offset=float(payload.get("offset", 0.0)))
        names = payload.get("variable_names")
        if names:
            model.variable_names = tuple(str(name) for name in names)
        return model

    def save(self, path: Union[str, Path]) -> None:
        """Write the model to a JSON file."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "QUBOModel":
        """Read a model previously written by :meth:`save`."""
        return cls.from_serialized(json.loads(Path(path).read_text()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QUBOModel(n={self.num_variables}, density={self.density:.2f}, "
            f"max|Q|={self.max_abs_coefficient:.3g}, offset={self.offset:.3g})"
        )
