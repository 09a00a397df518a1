"""Sparse (CSR) QUBO models for instances whose dense matrix does not fit.

:class:`SparseQUBOModel` mirrors the :class:`~repro.core.qubo.QUBOModel`
surface the annealing stack actually touches -- ``matrix`` / ``offset`` /
``num_variables`` plus ``energy``/``energies`` -- with the coefficient
matrix held as a SciPy CSR array in the same upper-triangular convention
(diagonal = linear terms, strict upper triangle = pairwise couplings).
The batched energy and delta of :mod:`repro.core.qubo`, which this model's
``energy``/``energies`` are views of, and the sweep kernels
(:mod:`repro.kernels`) detect the CSR payload by duck-typing, so a sparse
model flows through the engines unchanged: energies via scipy's
dense-times-CSR product, single-flip deltas via CSR row gathers at
O(degree) per flip.

SciPy is an *optional* dependency (the ``sparse`` extra): importing this
module without it raises a clear error at first use, and nothing else in
the package imports it at module scope.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.qubo import QUBOModel, is_sparse_matrix, symmetrized_matrix

try:  # SciPy is optional; everything else in repro runs without it.
    from scipy import sparse as _sparse
except ImportError:  # pragma: no cover - exercised on scipy-less installs
    _sparse = None

__all__ = ["SparseQUBOModel", "have_scipy", "is_sparse_matrix",
           "symmetrized_matrix"]


def have_scipy() -> bool:
    """Whether the optional SciPy dependency is importable."""
    return _sparse is not None


def _require_scipy():
    if _sparse is None:
        raise ImportError(
            "SparseQUBOModel needs SciPy (install the 'sparse' extra: "
            "pip install repro[sparse])")
    return _sparse


class SparseQUBOModel:
    """``min_x x^T Q x + offset`` with ``Q`` stored as an upper-triangular CSR.

    Parameters
    ----------
    matrix:
        Any SciPy sparse matrix/array (or anything ``csr_array`` accepts).
        Folded to the repository's upper-triangular convention exactly as
        :class:`QUBOModel` folds dense input, so the two models evaluate
        identically for binary configurations.
    offset:
        Constant added to every evaluation.
    """

    def __init__(self, matrix, offset: float = 0.0) -> None:
        sp = _require_scipy()
        q = sp.csr_array(matrix, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError(f"QUBO matrix must be square, got shape {q.shape}")
        upper = (sp.triu(q) + sp.triu(q.T, k=1)).tocsr()
        upper.eliminate_zeros()
        upper.sum_duplicates()
        self.matrix = sp.csr_array(upper)
        self.offset = float(offset)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dense(cls, model: QUBOModel) -> "SparseQUBOModel":
        """Sparse view of an existing dense model (values preserved exactly)."""
        return cls(model.matrix, offset=model.offset)

    @classmethod
    def from_coo(cls, rows: Iterable[int], cols: Iterable[int],
                 values: Iterable[float], num_variables: int,
                 offset: float = 0.0) -> "SparseQUBOModel":
        """Build directly from coordinate triplets (no dense intermediate).

        Duplicate ``(i, j)`` entries accumulate, and ``(j, i)`` folds onto
        ``(i, j)``, matching :meth:`QUBOModel.from_dict`.
        """
        sp = _require_scipy()
        n = int(num_variables)
        coo = sp.coo_array(
            (np.asarray(list(values), dtype=float),
             (np.asarray(list(rows), dtype=np.int64),
              np.asarray(list(cols), dtype=np.int64))),
            shape=(n, n))
        return cls(coo, offset=offset)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_variables(self) -> int:
        return self.matrix.shape[0]

    @property
    def nnz(self) -> int:
        """Stored coefficients (upper triangle incl. diagonal)."""
        return int(self.matrix.nnz)

    @property
    def density(self) -> float:
        """Fraction of non-zero entries in the upper triangle (incl. diagonal)."""
        n = self.num_variables
        if n == 0:
            return 0.0
        return self.nnz / (n * (n + 1) // 2)

    # ------------------------------------------------------------------ #
    # Evaluation: QUBOModel's views, which dispatch on the CSR matrix
    # ------------------------------------------------------------------ #
    energy = QUBOModel.energy
    energies = QUBOModel.energies
    brute_force_minimum = QUBOModel.brute_force_minimum

    def to_dense(self) -> QUBOModel:
        """Densify into an equivalent :class:`QUBOModel` (small ``n`` only)."""
        return QUBOModel(self.matrix.toarray(), offset=self.offset)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SparseQUBOModel(n={self.num_variables}, nnz={self.nnz}, "
                f"offset={self.offset:.3g})")
