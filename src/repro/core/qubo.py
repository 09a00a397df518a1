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

The module also holds the only evaluation of the quadratic form:
:func:`batched_energies` and :func:`batched_energy_delta` return one value per
row of an ``(M, n)`` batch (dense or CSR ``matrix``, told apart by
duck-typing; a CSR delta costs O(M * nnz-per-row)).  The annealing engines
call them on whole replica batches, and ``QUBOModel.energy``, ``energies``
and ``energy_delta`` (and the sparse model's) are their one-row or batch
views, so a scalar value equals the engines' one-row value bit for bit on
any data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, Mapping, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, Iterable[Iterable[float]]]
CoefficientKey = Tuple[int, int]


def is_sparse_matrix(matrix) -> bool:
    """True for SciPy sparse payloads (duck-typed, no scipy import needed)."""
    return hasattr(matrix, "tocsr")


def symmetrized_matrix(matrix):
    """``Q + Q^T`` in the same storage family as ``Q`` (dense or CSR).

    The symmetrized matrix is what the delta kernels gather rows from; CSR
    input yields CSR output so a sparse model never densifies.
    """
    symmetric = matrix + matrix.T
    if is_sparse_matrix(symmetric):
        return symmetric.tocsr()
    return symmetric


def batched_energies(matrix, batch: np.ndarray,
                     offset: float = 0.0) -> np.ndarray:
    """``x_k^T Q x_k + offset`` for every row ``x_k`` of ``batch``.

    One ``(M, n) x (n, n)`` product followed by a row-wise dot.  A CSR
    ``matrix`` takes the same product through scipy's dense-times-sparse
    path.
    """
    if is_sparse_matrix(matrix):
        product = np.asarray(batch @ matrix)
        return (product * batch).sum(axis=1) + offset
    return ((batch @ matrix) * batch).sum(axis=1) + offset


def batched_energy_delta(matrix, batch: np.ndarray,
                         flip_indices: np.ndarray,
                         symmetric=None) -> np.ndarray:
    """Energy change of flipping bit ``flip_indices[k]`` in row ``k``.

    The flipped variable's contribution is its diagonal term plus its
    couplings to the other set bits (the upper triangle holds the full
    pairwise coefficient, so both the row and the column slice contribute).

    ``symmetric`` optionally supplies the precomputed ``matrix + matrix.T``
    -- callers evaluating many flip rounds against one matrix (the lock-step
    engines) pass it to halve the per-round gather work.  Without it a dense
    ``matrix`` gathers the flipped rows of ``matrix + matrix.T`` directly,
    in O(M * n), with the same sums.
    """
    flips = np.asarray(flip_indices, dtype=np.intp)
    if flips.shape != (batch.shape[0],):
        raise ValueError(
            f"flip_indices must have one entry per replica, got shape {flips.shape}"
        )
    if flips.size and (flips.min() < 0 or flips.max() >= matrix.shape[0]):
        raise IndexError("a flip index is out of range")
    sparse = is_sparse_matrix(matrix)
    if symmetric is not None:
        gathered = symmetric[flips]
    elif sparse:
        gathered = symmetrized_matrix(matrix)[flips]
    else:
        gathered = matrix[flips]
        gathered += matrix[:, flips].T
    rows = np.arange(batch.shape[0])
    # symmetric's diagonal holds 2 * Q_ii; the flipped bit must not couple to
    # itself, so subtract its own contribution and add the linear term back.
    current_bits = batch[rows, flips]
    if sparse:
        diag = np.asarray(matrix.diagonal())[flips]
        coupling = (np.asarray(gathered.multiply(batch).sum(axis=1)).ravel()
                    - 2.0 * diag * current_bits)
    else:
        diag = matrix[flips, flips]
        coupling = ((gathered * batch).sum(axis=1)
                    - 2.0 * diag * current_bits)
    contribution = diag + coupling
    return (1.0 - 2.0 * current_bits) * contribution


#: Configurations per chunk of an exhaustive enumeration.
ENUMERATION_CHUNK = 1 << 12


def binary_configurations(n: int) -> Iterator[np.ndarray]:
    """Every binary ``n``-vector in enumeration order, as float row chunks:
    configuration ``c`` sets variable ``k`` to bit ``k`` of ``c``."""
    bits = np.arange(n)
    total = 1 << n
    for start in range(0, total, ENUMERATION_CHUNK):
        codes = np.arange(start, min(start + ENUMERATION_CHUNK, total))
        yield ((codes[:, None] >> bits) & 1).astype(float)


def exhaustive_minimum(energies: Callable[[np.ndarray], np.ndarray],
                       n: int) -> Tuple[np.ndarray, float]:
    """The first lowest-energy binary ``n``-vector in enumeration order and
    its energy, scoring chunks of rows with ``energies`` (``n <= 24``)."""
    if n > 24:
        raise ValueError("brute_force_minimum limited to n <= 24")
    best_x, best_energy = np.zeros(n), np.inf
    for batch in binary_configurations(n):
        values = energies(batch)
        k = int(np.argmin(values))
        if values[k] < best_energy:
            best_x, best_energy = batch[k].copy(), float(values[k])
    return best_x, best_energy


def _as_batch(configurations: np.ndarray, n: int) -> np.ndarray:
    """A float ``(k, n)`` batch; a 1-D row is the ``k = 1`` view."""
    batch = np.asarray(configurations, dtype=float)
    if batch.ndim == 1:
        batch = batch[None, :]
    if batch.shape[1] != n:
        raise ValueError(
            f"configurations have {batch.shape[1]} columns, expected {n}")
    return batch


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
        """Evaluate ``x^T Q x + offset`` for a binary configuration ``x``.

        The one-row view of :func:`batched_energies`.
        """
        vec = _as_binary_vector(x, self.num_variables)
        return float(batched_energies(self.matrix, vec[None, :],
                                      self.offset)[0])

    def energies(self, configurations: np.ndarray) -> np.ndarray:
        """Vectorised evaluation of a ``(k, n)`` batch of binary rows."""
        return batched_energies(
            self.matrix, _as_batch(configurations, self.num_variables),
            self.offset)

    def energy_delta(self, x: np.ndarray, flip_index: int) -> float:
        """Energy change from flipping bit ``flip_index`` of configuration ``x``.

        Computed in O(n) without re-evaluating the full quadratic form: the
        one-row view of :func:`batched_energy_delta`, which the annealing
        engines evaluate flips with (the fused kernels keep incrementally
        maintained local fields instead).
        """
        vec = _as_binary_vector(x, self.num_variables)
        return float(batched_energy_delta(self.matrix, vec[None, :],
                                          np.array([int(flip_index)]))[0])

    def brute_force_minimum(self) -> Tuple[np.ndarray, float]:
        """Exhaustively minimise the QUBO (only sensible for small ``n``).

        Returns the optimal binary vector and its energy.  Raises for
        ``n > 24`` to avoid accidental exponential blow-ups in tests.
        """
        return exhaustive_minimum(self.energies, self.num_variables)

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
