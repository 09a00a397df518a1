"""The fused sweep kernel: incremental-ΔE annealing with local-field caches.

The reference kernel pays one O(M·n) candidate copy plus an O(M·n) matmul /
gather per proposal.  The kernel here maintains, per replica:

* a **local-field cache** ``field = x @ (Q + Q^T)`` so the single-flip
  energy delta is an O(M) gather -- ``ΔE_k = (1-2b)(diag_i + field[k,i]
  - 2 diag_i b)`` with ``b = x_k[i]`` -- and an accepted flip costs one
  row update, O(n) dense or O(degree) CSR;
* **running constraint loads** ``load[k,c] = w_c · x_k`` so linear
  feasibility is an O(M·C) compare instead of a batched matvec per
  constraint (with the verdicts and the one tolerance of
  :meth:`LinearConstraint.is_satisfied_batch
  <repro.core.constraints.LinearConstraint.is_satisfied_batch>`:
  ``load <= bound + tol`` and ``|load - bound| <= tol``).

``run_block`` fuses K iterations per Python call without materialising a
candidate batch at all.  RNG parity is preserved draw for draw: the NumPy
loop draws through :meth:`LoopDriver.flip_indices` /
:meth:`LoopDriver.metropolis` like the reference kernel, and where the
driver replays the streams (:meth:`LoopDriver.replay`: per-replica PCG64
generators, plain Metropolis acceptance) those are vectorised across the
batch -- one C call each, or without the C library NumPy lookahead replay
(:mod:`repro.kernels.streams`).  Either way the streams advance exactly as
the reference kernel's and only the ΔE arithmetic (summation order)
differs -- which on the integer-valued conformance families means
trajectories are *exactly* equal, and on float data tolerance-equal.

Where the driver replays the streams in C lanes, ``run_block`` is one call
into the same loop compiled from C (:mod:`repro.kernels.native`), which
advances those lanes and agrees with the NumPy loop here bit for bit on any
data; where the system ``cc`` cannot build it, or the draws go through the
``Generator`` objects, the NumPy loop runs.

Like the reference kernel, it runs plain SA as the HyCiM sweep with every
incumbent feasible, and once every incumbent and best state is feasible
the NumPy loop skips the Eq. (6) bookkeeping.

Without numba, ``kernel="auto"`` resolves to this kernel.  Configurations
it cannot express -- generic move generators, opaque feasibility
callables, hardware-mode evaluation, noisy filters -- raise
:class:`~repro.kernels.base.KernelUnsupportedError` at construction;
``kernel="auto"`` then falls back to the reference backend.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.constraints import (
    FEASIBILITY_TOLERANCE,
    EqualityConstraint,
    InequalityConstraint,
    LinearConstraint,
)
from repro.core.qubo import is_sparse_matrix, symmetrized_matrix
from repro.dynamics.driver import LoopDriver
from repro.kernels.base import KernelUnsupportedError, SweepKernel
from repro.kernels.native import compiled_block

__all__ = ["FusedHyCiMKernel"]


def _csr_row_entries(indptr: np.ndarray, indices: np.ndarray,
                     data: np.ndarray, rows: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns/values of the selected CSR rows, flattened, plus row lengths."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    total = int(counts.sum())
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    positions = np.repeat(starts, counts) + offsets
    return indices[positions], data[positions], counts


class FusedHyCiMKernel(SweepKernel):
    """Fused counterpart of :class:`~repro.kernels.reference.ReferenceHyCiMKernel`.

    Covers the software-mode single-flip configuration (the ``use_delta``
    fast path): every constraint a linear inequality or equality evaluated
    exactly, no crossbar, no hardware filters.  The HyCiM drift semantics
    are preserved: replicas whose incumbent is infeasible follow every
    infeasible candidate at energy 0 while ``raw_energy`` tracks the true
    QUBO value incrementally.  ``constraints=None`` marks a filter without
    a linear form, which this kernel refuses.
    """

    backend = "fused"

    def __init__(self, *, matrix, driver: LoopDriver, single_flip: bool,
                 moves_per_iteration: int,
                 constraints: Optional[Sequence[LinearConstraint]],
                 current: np.ndarray, current_energy: np.ndarray,
                 current_feasible: np.ndarray, raw_energy: Optional[np.ndarray],
                 use_hardware_filters: bool = False,
                 use_crossbar: bool = False) -> None:
        if not single_flip:
            raise KernelUnsupportedError(
                "fused kernels require single-flip moves; generic move "
                "generators run on the reference backend")
        if use_crossbar or raw_energy is None:
            raise KernelUnsupportedError(
                "hardware-mode (crossbar) energy evaluation runs on the "
                "reference backend")
        if use_hardware_filters:
            raise KernelUnsupportedError(
                "hardware inequality filters (quantised weights / matchline "
                "noise) run on the reference backend")
        if constraints is None:
            raise KernelUnsupportedError(
                "the feasibility filter has no linear form (an opaque "
                "accept_filter, or accept_filter_batch without "
                "feasibility_constraints); fused kernels need one to "
                "maintain incremental constraint loads")
        constraints = tuple(constraints)
        for constraint in constraints:
            if not isinstance(constraint,
                              (InequalityConstraint, EqualityConstraint)):
                raise KernelUnsupportedError(
                    f"constraint {type(constraint).__name__} is not a linear "
                    "inequality or equality; fused kernels cannot track it "
                    "incrementally")
        self.driver = driver
        self.moves_per_iteration = int(moves_per_iteration)
        self.raw_energy = raw_energy
        self._init_state(current, current_energy, current_feasible)
        self._init_model(matrix, current, constraints)
        self._init_draws()

    def _init_model(self, matrix, current: np.ndarray,
                    constraints: Sequence[LinearConstraint]) -> None:
        self._sparse = is_sparse_matrix(matrix)
        symmetric = symmetrized_matrix(matrix)
        if self._sparse:
            self._diag = np.asarray(matrix.diagonal(), dtype=float)
            self._sym_indptr = np.asarray(symmetric.indptr, dtype=np.int64)
            self._sym_indices = np.asarray(symmetric.indices, dtype=np.int64)
            self._sym_data = np.asarray(symmetric.data, dtype=float)
            self._symmetric = None
        else:
            self._diag = np.ascontiguousarray(np.diagonal(matrix),
                                              dtype=float).copy()
            self._symmetric = np.ascontiguousarray(symmetric, dtype=float)
        #: (M, n) local fields -- row k is ``current[k] @ (Q + Q^T)``.
        self.field = np.ascontiguousarray(np.asarray(current @ symmetric,
                                                     dtype=float))
        self._num_variables = int(self._diag.shape[0])
        self._rows = np.arange(current.shape[0])

        weights = [c.weights for c in constraints]
        self._num_constraints = len(weights)
        if weights:
            #: (n, C) constraint weights; (M, C) running loads.
            self._weights_t = np.ascontiguousarray(np.stack(weights, axis=1))
            self._bounds = np.array([float(c.bound) for c in constraints])
            self.loads = np.ascontiguousarray(current @ self._weights_t)
        else:
            self._weights_t = np.zeros((self._num_variables, 0))
            self._bounds = np.zeros(0)
            self.loads = np.zeros((current.shape[0], 0))
        self._bounds_tol = self._bounds + FEASIBILITY_TOLERANCE
        self._equality = np.array(
            [isinstance(c, EqualityConstraint) for c in constraints],
            dtype=bool)
        self._has_equality = bool(self._equality.any())

    def _init_draws(self) -> None:
        """Vectorised draws where the driver replays the streams (NumPy
        lookahead without the C library), and the C block where it can run."""
        self._compiled = compiled_block(self, self.driver.replay())

    def _propose(self, driver: LoopDriver
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One flip per replica: indices, old bits, flip signs, energy deltas."""
        flips = driver.flip_indices(self._num_variables)
        bits = self.current[self._rows, flips]
        signs = 1.0 - 2.0 * bits
        diag = self._diag[flips]
        delta = signs * (diag + self.field[self._rows, flips]
                         - 2.0 * diag * bits)
        return flips, bits, signs, delta

    def run_block(self, start_iteration: int, num_iterations: int) -> None:
        if self._compiled is not None:
            self._compiled(start_iteration, num_iterations)
        else:
            self._numpy_block(start_iteration, num_iterations)

    def _candidate_loads(self, flips: np.ndarray,
                         signs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Post-flip constraint loads and their feasibility verdicts."""
        candidate = self.loads + signs[:, None] * self._weights_t[flips]
        if self._has_equality:
            ok = np.where(self._equality,
                          np.abs(candidate - self._bounds)
                          <= FEASIBILITY_TOLERANCE,
                          candidate <= self._bounds_tol)
            passed = ok.all(axis=1)
        elif self._num_constraints == 1:
            passed = candidate[:, 0] <= self._bounds_tol[0]
        else:
            passed = (candidate <= self._bounds_tol).all(axis=1)
        return candidate, passed

    def _apply_flips(self, replicas: np.ndarray, flips: np.ndarray,
                     bits: np.ndarray, signs: np.ndarray,
                     candidate_loads: Optional[np.ndarray]) -> None:
        """Commit the flips of the listed replicas: bits, fields, loads."""
        chosen = flips[replicas]
        self.current[replicas, chosen] = 1.0 - bits[replicas]
        if candidate_loads is not None and self._num_constraints:
            self.loads[replicas] = candidate_loads[replicas]
        chosen_signs = signs[replicas]
        if self._sparse:
            cols, values, counts = _csr_row_entries(
                self._sym_indptr, self._sym_indices, self._sym_data, chosen)
            # One CSR row per (distinct) replica and unique columns within a
            # row make the flat indices unique, so an in-place fancy add is
            # exact (no np.add.at needed).
            flat = np.repeat(replicas, counts) * self._num_variables + cols
            self.field.reshape(-1)[flat] += np.repeat(chosen_signs,
                                                      counts) * values
        else:
            # Split by flip direction: adding/subtracting the raw symmetric
            # rows is bit-identical to scaling by the +-1 signs and saves a
            # full multiply pass over the gathered rows.
            raising = chosen_signs > 0
            if raising.any():
                self.field[replicas[raising]] += self._symmetric[
                    chosen[raising]]
            if not raising.all():
                lowering = ~raising
                self.field[replicas[lowering]] -= self._symmetric[
                    chosen[lowering]]

    def _numpy_block(self, start_iteration: int, num_iterations: int) -> None:
        driver = self.driver
        rows = self._rows
        num_replicas = rows.shape[0]
        current_energy = self.current_energy
        raw_energy = self.raw_energy
        settled = self._settled()
        for iteration in range(start_iteration,
                               start_iteration + num_iterations):
            for _ in range(self.moves_per_iteration):
                flips, bits, signs, delta = self._propose(driver)
                if self._num_constraints:
                    candidate_loads, passed = self._candidate_loads(flips,
                                                                    signs)
                    self.num_skipped += ~passed
                    self.num_feasible += passed
                    feasible_idx = np.flatnonzero(passed)
                    if not settled:
                        # Infeasible incumbents drift freely at energy 0
                        # (paper Eq. (6)), exactly as the reference kernel.
                        drifting = np.flatnonzero(~passed
                                                  & ~self.current_feasible)
                        if drifting.size:
                            current_energy[drifting] = 0.0
                            raw_energy[drifting] += delta[drifting]
                            self._apply_flips(drifting, flips, bits, signs,
                                              candidate_loads)
                    if feasible_idx.size == 0:
                        continue
                    subset = (feasible_idx if feasible_idx.size < num_replicas
                              else slice(None))
                else:
                    candidate_loads = None
                    feasible_idx = rows
                    self.num_feasible += 1
                    subset = slice(None)

                candidate_energy = raw_energy[subset] + delta[subset]
                step = candidate_energy - current_energy[subset]
                accepted = driver.metropolis(step, feasible_idx, iteration)
                accepted_idx = feasible_idx[accepted]
                if accepted_idx.size == 0:
                    continue
                energies = candidate_energy[accepted]
                current_energy[accepted_idx] = energies
                raw_energy[accepted_idx] = energies
                self._apply_flips(accepted_idx, flips, bits, signs,
                                  candidate_loads)
                self.num_accepted[accepted_idx] += 1
                better = energies < self.best_energy[accepted_idx]
                if not settled:
                    self.current_feasible[accepted_idx] = True
                    better |= ~self.best_feasible[accepted_idx]
                if better.any():
                    improved = accepted_idx[better]
                    self.best_energy[improved] = energies[better]
                    self.best[improved] = self.current[improved]
                    if not settled:
                        self.best_feasible[improved] = True
                if not settled:
                    settled = self._settled()

    def swap_arrays(self) -> tuple:
        arrays = [self.current, self.current_energy, self.current_feasible,
                  self.raw_energy, self.field]
        if self._num_constraints:
            arrays.append(self.loads)
        return tuple(arrays)
