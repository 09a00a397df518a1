"""Batched NumPy kernels for multi-replica annealing.

These are the vectorised counterparts of the scalar primitives
:meth:`repro.core.qubo.QUBOModel.energy`, the O(n) single-flip delta
(:meth:`~repro.core.qubo.QUBOModel.energy_delta`) and the inequality
feasibility test (:meth:`repro.core.constraints.InequalityConstraint.
is_satisfied`), and what the annealing engines call once per proposal.  Each
kernel takes an ``(M, n)`` configuration matrix -- one replica per row -- and
returns one value per replica, so ``M`` replicas cost one BLAS call instead
of ``M`` Python round-trips.

All kernels are numerically *identical* to their scalar counterparts when the
coefficient data is integer-valued (every intermediate is an exactly
representable float64 integer, so summation order cannot change the result).
For float coefficients they agree to normal floating-point tolerance; the
parity suite under ``tests/batched`` therefore uses the paper's
integer-valued QKP family for its exact-match assertions.

``matrix`` may be a dense ``(n, n)`` array or a SciPy CSR matrix (anything
with a ``tocsr`` method, e.g. :class:`repro.core.sparse.SparseQUBOModel`'s
payload): the energy kernels detect sparsity by duck-typing and return the
same dense per-replica results, so n=10k instances whose dense matrix would
not fit run through the identical call sites.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.sparse import is_sparse_matrix, symmetrized_matrix

__all__ = [
    "as_replica_matrix",
    "batched_energies",
    "batched_energy_delta",
    "batched_inequality_verdicts",
    "is_sparse_matrix",
    "symmetrized_matrix",
]


def as_replica_matrix(configurations: np.ndarray, num_variables: int,
                      validate: bool = True) -> np.ndarray:
    """Validate and coerce a replica batch into a float ``(M, n)`` matrix.

    ``validate=False`` skips the binary-entries scan (the shape check is
    kept -- it is O(1) and shape bugs are the dangerous ones): internal call
    sites that already own a validated batch, such as the engines re-entering
    with their own travelling state, use it to avoid an O(M*n) pass per call.
    Public entry points must leave validation on.
    """
    batch = np.asarray(configurations, dtype=float)
    if batch.ndim == 1:
        batch = batch[None, :]
    if batch.ndim != 2 or batch.shape[1] != num_variables:
        raise ValueError(
            f"expected an (M, {num_variables}) replica matrix, got shape {batch.shape}"
        )
    if validate and not np.all((batch == 0) | (batch == 1)):
        raise ValueError("replica configurations must be binary (0/1)")
    return batch


def batched_energies(matrix: np.ndarray, batch: np.ndarray,
                     offset: float = 0.0) -> np.ndarray:
    """``x_k^T Q x_k + offset`` for every row ``x_k`` of ``batch``.

    Equivalent to ``[QUBOModel.energy(row) for row in batch]`` in a single
    ``(M, n) x (n, n)`` product followed by a row-wise dot.  A CSR ``matrix``
    takes the same product through scipy's dense-times-sparse path.
    """
    if is_sparse_matrix(matrix):
        product = np.asarray(batch @ matrix)
        return (product * batch).sum(axis=1) + offset
    return ((batch @ matrix) * batch).sum(axis=1) + offset


def batched_energy_delta(matrix: np.ndarray, batch: np.ndarray,
                         flip_indices: np.ndarray,
                         symmetric: Optional[np.ndarray] = None) -> np.ndarray:
    """Energy change of flipping bit ``flip_indices[k]`` in row ``k``.

    Vectorised translation of :meth:`QUBOModel.energy_delta`: the flipped
    variable's contribution is its diagonal term plus its couplings to the
    other set bits (the upper triangle holds the full pairwise coefficient,
    so both the row and the column slice contribute).

    ``symmetric`` optionally supplies the precomputed ``matrix + matrix.T``
    -- callers evaluating many flip rounds against one matrix (the lock-step
    engines) pass it to halve the per-round gather work.
    """
    flips = np.asarray(flip_indices, dtype=np.intp)
    if flips.shape != (batch.shape[0],):
        raise ValueError(
            f"flip_indices must have one entry per replica, got shape {flips.shape}"
        )
    if flips.size and (flips.min() < 0 or flips.max() >= matrix.shape[0]):
        raise IndexError("a flip index is out of range")
    if symmetric is None:
        symmetric = symmetrized_matrix(matrix)
    rows = np.arange(batch.shape[0])
    # symmetric's diagonal holds 2 * Q_ii; the flipped bit must not couple to
    # itself, so subtract its own contribution and add the linear term back.
    current_bits = batch[rows, flips]
    if is_sparse_matrix(matrix):
        diag = np.asarray(matrix.diagonal())[flips]
        gathered = symmetric[flips]
        coupling = (np.asarray(gathered.multiply(batch).sum(axis=1)).ravel()
                    - 2.0 * diag * current_bits)
    else:
        diag = matrix[flips, flips]
        coupling = ((symmetric[flips] * batch).sum(axis=1)
                    - 2.0 * diag * current_bits)
    contribution = diag + coupling
    return (1.0 - 2.0 * current_bits) * contribution


def batched_inequality_verdicts(weights: np.ndarray, bound: float,
                                batch: np.ndarray,
                                tolerance: float = 1e-9) -> np.ndarray:
    """``w . x_k <= bound`` for every row, with the scalar path's tolerance.

    Mirrors :meth:`InequalityConstraint.is_satisfied` (which compares against
    ``bound + 1e-9``) so batched and scalar feasibility verdicts agree bit for
    bit on integer weight data.
    """
    return (batch @ np.asarray(weights, dtype=float)) <= bound + tolerance
