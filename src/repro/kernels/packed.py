"""Packed sweep kernels: uint64 word states with popcount ΔE gathers.

The fused kernels keep three float64 ``(M, n)`` arrays hot per batch
(configurations, best-so-far, local fields) and pay an O(n) float row
update per accepted flip.  The kernels here collapse the travelling state
to ``(M, ceil(n/64))`` uint64 **words** (:mod:`repro.kernels.bits`):

* the single-flip local field is recomputed per proposal from precomputed
  bit-plane masks of ``Q + Q^T`` -- one contiguous row gather, an AND and
  a popcount per plane -- so a proposal costs the same whether or not it
  is accepted, and an accepted flip is a one-word XOR instead of a float
  row update;
* running inequality/equality constraint loads are maintained exactly as
  the fused kernels maintain them (the float increments are exact on the
  integer conformance data);
* best-so-far configurations are tracked as packed words and only
  unpacked once, in :meth:`~repro.kernels.base.SweepKernel.finalize`.

RNG parity is inherited from the fused layer: the same
:mod:`repro.kernels.streams` replay (or driver-call fallback) consumes
bit-identical draws, and the popcount field sums are exact int64, so on
integer-valued coefficient matrices trajectories -- energies, counters,
histories, final generator states -- are *exactly* equal to the reference
backend's.  Non-integer matrices (where the popcount identity cannot
hold bit-for-bit) raise :class:`~repro.kernels.base.
KernelUnsupportedError` at construction and ``kernel="auto"`` falls back
to the fused backend, as do instances whose plane table would exceed the
:data:`~repro.kernels.bits.MAX_MASK_BYTES` budget.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.constraints import LinearConstraint
from repro.core.sparse import is_sparse_matrix, symmetrized_matrix
from repro.dynamics.driver import LoopDriver
from repro.kernels.bits import (
    build_plane_masks,
    pack_bits,
    popcount_rows,
    unpack_bits,
)
from repro.kernels.fused import FusedHyCiMKernel, FusedSAKernel

__all__ = ["PackedHyCiMKernel", "PackedSAKernel"]

_ONE = np.uint64(1)
_LOW6 = np.uint64(63)


class _PackedModel:
    """Packed replacement for the fused local-field model state.

    Overrides the fused ``_init_model`` / ``_propose`` / ``_apply_flips``
    / ``_record_best`` hooks; the sweep loops, constraint-load machinery,
    acceptance replay and constructor guards are inherited unchanged from
    the fused layer.
    """

    backend = "packed"

    def _init_model(self, matrix, current: np.ndarray,
                    constraints: Sequence[LinearConstraint]) -> None:
        self._sparse = is_sparse_matrix(matrix)
        symmetric = symmetrized_matrix(matrix)
        if self._sparse:
            self._diag = np.asarray(matrix.diagonal(), dtype=float)
        else:
            self._diag = np.ascontiguousarray(np.diagonal(matrix),
                                              dtype=float).copy()
        # Raises KernelUnsupportedError on non-integer coefficients or an
        # oversized plane table; "auto" then falls through to fused.
        self._offsets, self._masks, self._plane_weights = \
            build_plane_masks(symmetric)
        self._num_variables = int(self._diag.shape[0])
        self._rows = np.arange(current.shape[0])
        #: (M, W) packed incumbent configurations -- the only hot copy.
        self.words = pack_bits(current)
        #: (M,) incumbent popcounts (the ``|x|`` term of the field sum).
        self._ones = popcount_rows(self.words)
        self._init_constraints(current, constraints)

    def _propose(self, driver: LoopDriver):
        """One flip per replica, ΔE via plane-mask popcounts (exact int)."""
        if self._streams is not None:
            flips = self._streams.integers(self._num_variables)
        else:
            flips = driver.flip_indices(self._num_variables)
        words = self.words
        bits_int = (words[self._rows, flips >> 6]
                    >> (flips.astype(np.uint64) & _LOW6)) & _ONE
        bits = bits_int.astype(float)
        signs = 1.0 - 2.0 * bits
        counts = np.bitwise_count(self._masks[flips] & words[:, None, :])
        field = (counts.sum(axis=2, dtype=np.int64) @ self._plane_weights
                 + self._offsets[flips] * self._ones).astype(float)
        diag = self._diag[flips]
        delta = signs * (diag + field - 2.0 * diag * bits)
        return flips, bits, signs, delta

    def _apply_flips(self, replicas: np.ndarray, flips: np.ndarray,
                     bits: np.ndarray, signs: np.ndarray,
                     candidate_loads: Optional[np.ndarray]) -> None:
        """Commit the listed replicas' flips: word XOR, popcounts, loads."""
        chosen = flips[replicas]
        self.words[replicas, chosen >> 6] ^= \
            _ONE << (chosen.astype(np.uint64) & _LOW6)
        self._ones[replicas] += signs[replicas].astype(np.int64)
        if candidate_loads is not None and self._num_constraints:
            self.loads[replicas] = candidate_loads[replicas]

    def _record_best(self, improved: np.ndarray) -> None:
        self._best_words[improved] = self.words[improved]

    def finalize(self) -> None:
        if self._streams is not None:
            self._streams.write_back()
        np.copyto(self.current, unpack_bits(self.words, self._num_variables))
        self.best = unpack_bits(self._best_words, self._num_variables)

    def state_nbytes_per_replica(self) -> float:
        arrays = list(self.swap_arrays()) + [self._best_words,
                                             self.best_energy]
        best_feasible = getattr(self, "best_feasible", None)
        if best_feasible is not None:
            arrays.append(best_feasible)
        return sum(array.nbytes for array in arrays) / self.words.shape[0]


class PackedSAKernel(_PackedModel, FusedSAKernel):
    """Packed counterpart of :class:`~repro.kernels.fused.FusedSAKernel`.

    Same support matrix as the fused SA kernel plus the packed
    preconditions: integer-valued coefficients and a plane table within
    budget.  ``current`` is adopted; it is rewritten from the words in
    :meth:`finalize`, not during the sweep.
    """

    def __init__(self, *, matrix, offset: float, driver: LoopDriver,
                 single_flip: bool, moves_per_iteration: int,
                 current: np.ndarray, current_energy: np.ndarray,
                 accept_filter=None, accept_filter_batch=None,
                 constraints: Optional[Sequence[LinearConstraint]] = None,
                 generators: Optional[Sequence[np.random.Generator]] = None
                 ) -> None:
        super().__init__(matrix=matrix, offset=offset, driver=driver,
                         single_flip=single_flip,
                         moves_per_iteration=moves_per_iteration,
                         current=current, current_energy=current_energy,
                         accept_filter=accept_filter,
                         accept_filter_batch=accept_filter_batch,
                         constraints=constraints, generators=generators)
        #: Best-so-far configurations stay packed until finalize().
        self._best_words = self.words.copy()
        self.best = None

    def swap_arrays(self) -> tuple:
        arrays = [self.words, self.current_energy, self._ones]
        if self._num_constraints:
            arrays.append(self.loads)
        return tuple(arrays)


class PackedHyCiMKernel(_PackedModel, FusedHyCiMKernel):
    """Packed counterpart of :class:`~repro.kernels.fused.FusedHyCiMKernel`.

    The HyCiM drift semantics (infeasible incumbents follow infeasible
    candidates at energy 0 while ``raw_energy`` tracks the true QUBO
    value) are preserved word for word from the fused loop.
    """

    def __init__(self, *, matrix, driver: LoopDriver, single_flip: bool,
                 moves_per_iteration: int,
                 constraints: Sequence[LinearConstraint],
                 current: np.ndarray, current_energy: np.ndarray,
                 current_feasible: np.ndarray,
                 raw_energy: Optional[np.ndarray],
                 use_hardware_filters: bool = False,
                 use_crossbar: bool = False,
                 generators: Optional[Sequence[np.random.Generator]] = None
                 ) -> None:
        super().__init__(matrix=matrix, driver=driver,
                         single_flip=single_flip,
                         moves_per_iteration=moves_per_iteration,
                         constraints=constraints, current=current,
                         current_energy=current_energy,
                         current_feasible=current_feasible,
                         raw_energy=raw_energy,
                         use_hardware_filters=use_hardware_filters,
                         use_crossbar=use_crossbar, generators=generators)
        self._best_words = self.words.copy()
        self.best = None

    def swap_arrays(self) -> tuple:
        arrays = [self.words, self.current_energy, self.current_feasible,
                  self.raw_energy, self._ones]
        if self._num_constraints:
            arrays.append(self.loads)
        return tuple(arrays)
