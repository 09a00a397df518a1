"""Fused sweep kernels: incremental-ΔE annealing with local-field caches.

The reference kernels pay one O(M·n) candidate copy plus an O(M·n) matmul /
gather per proposal.  The kernels here maintain, per replica:

* a **local-field cache** ``field = x @ (Q + Q^T)`` so the single-flip
  energy delta is an O(M) gather -- ``ΔE_k = (1-2b)(diag_i + field[k,i]
  - 2 diag_i b)`` with ``b = x_k[i]`` -- and an accepted flip costs one
  row update, O(n) dense or O(degree) CSR;
* **running constraint loads** ``load[k,c] = w_c · x_k`` so linear
  feasibility is an O(M·C) compare instead of a batched matvec per
  constraint (inequality verdicts use the same ``bound + 1e-9`` tolerance
  as :func:`repro.batched.kernels.batched_inequality_verdicts`; equality
  verdicts the ``|lhs - bound| <= 1e-9`` of
  :meth:`EqualityConstraint.is_satisfied`).

``run_block`` fuses K iterations per Python call without materialising a
candidate batch at all.  RNG parity is preserved draw for draw: in the
common per-replica configuration (PCG64 generators, plain Metropolis
acceptance) the kernel replays every replica's stream vectorised across the
batch (:mod:`repro.kernels.streams`), consuming bit-identical draws without
the per-replica Python loops of :meth:`LoopDriver.flip_indices` /
:meth:`LoopDriver.metropolis`; any other configuration falls back to those
driver calls.  Either way the streams advance exactly as the reference
kernel's and only the ΔE arithmetic (summation order) differs -- which on
the integer-valued conformance families means trajectories are *exactly*
equal, and on float data tolerance-equal.

Configurations a fused kernel cannot express -- generic move generators,
opaque feasibility callables, hardware-mode evaluation, noisy filters --
raise :class:`~repro.kernels.base.KernelUnsupportedError` at construction;
``kernel="auto"`` then falls back to the reference backend.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.core.constraints import (
    EqualityConstraint,
    InequalityConstraint,
    LinearConstraint,
)
from repro.core.sparse import is_sparse_matrix, symmetrized_matrix
from repro.dynamics.driver import LoopDriver
from repro.kernels.base import KernelUnsupportedError, SweepKernel
from repro.kernels.streams import metropolis_decisions, try_replay_streams

__all__ = ["FusedHyCiMKernel", "FusedSAKernel"]

#: Feasibility tolerance of the scalar/batched inequality verdict paths.
LOAD_TOLERANCE = 1e-9


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


class _FusedCore(SweepKernel):
    """Shared state machine: field cache, constraint loads, flip application."""

    backend = "fused"

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
        self._init_constraints(current, constraints)

    def _init_constraints(self, current: np.ndarray,
                          constraints: Sequence[LinearConstraint]) -> None:
        """Running-load state shared with the packed backend's model."""
        weights = [np.asarray(c.weight_vector, dtype=float)
                   for c in constraints]
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
        self._bounds_tol = self._bounds + LOAD_TOLERANCE
        self._equality = np.array(
            [isinstance(c, EqualityConstraint) for c in constraints],
            dtype=bool)
        self._has_equality = bool(self._equality.any())

    def _propose(self, driver: LoopDriver
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One flip per replica: indices, old bits, flip signs, energy deltas."""
        if self._streams is not None:
            flips = self._streams.integers(self._num_variables)
        else:
            flips = driver.flip_indices(self._num_variables)
        bits = self.current[self._rows, flips]
        signs = 1.0 - 2.0 * bits
        diag = self._diag[flips]
        delta = signs * (diag + self.field[self._rows, flips]
                         - 2.0 * diag * bits)
        return flips, bits, signs, delta

    def _accept(self, driver: LoopDriver, step: np.ndarray,
                replica_indices: np.ndarray, iteration: int) -> np.ndarray:
        """Metropolis verdicts for the listed replicas, replayed or drawn."""
        if self._streams is None:
            return driver.metropolis(step, replica_indices, iteration)
        draws = self._streams.uniforms(replica_indices)
        temperatures = driver.temperature(iteration)
        if isinstance(temperatures, np.ndarray):
            temperatures = temperatures[replica_indices]
        return metropolis_decisions(step, temperatures, draws)

    def _record_best(self, improved: np.ndarray) -> None:
        """Copy the listed replicas' incumbents into the best-so-far state."""
        self.best[improved] = self.current[improved]

    def finalize(self) -> None:
        if self._streams is not None:
            self._streams.write_back()

    def _candidate_loads(self, flips: np.ndarray,
                         signs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Post-flip constraint loads and their feasibility verdicts."""
        candidate = self.loads + signs[:, None] * self._weights_t[flips]
        if self._has_equality:
            ok = np.where(self._equality,
                          np.abs(candidate - self._bounds) <= LOAD_TOLERANCE,
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


class FusedSAKernel(_FusedCore):
    """Fused counterpart of :class:`~repro.kernels.reference.ReferenceSAKernel`.

    Requires single-flip moves and filters expressible as linear inequality
    constraints (``constraints``); an opaque ``accept_filter`` /
    ``accept_filter_batch`` without its linear form is unsupported.
    """

    def __init__(self, *, matrix, offset: float, driver: LoopDriver,
                 single_flip: bool, moves_per_iteration: int,
                 current: np.ndarray, current_energy: np.ndarray,
                 accept_filter=None, accept_filter_batch=None,
                 constraints: Optional[Sequence[LinearConstraint]] = None,
                 generators: Optional[Sequence[np.random.Generator]] = None
                 ) -> None:
        if not single_flip:
            raise KernelUnsupportedError(
                "fused kernels require single-flip moves; generic move "
                "generators run on the reference backend")
        if accept_filter is not None and accept_filter_batch is None:
            # With a batch filter present the row filter is never consulted
            # (the reference kernel's precedence), so it need not be linear.
            raise KernelUnsupportedError(
                "fused kernels cannot evaluate an opaque per-row "
                "accept_filter incrementally")
        if accept_filter_batch is not None and constraints is None:
            raise KernelUnsupportedError(
                "accept_filter_batch has no linear-inequality form "
                "(feasibility_constraints not provided); fused kernels need "
                "one to maintain incremental constraint loads")
        effective = (tuple(constraints)
                     if accept_filter_batch is not None else ())
        for constraint in effective:
            if not isinstance(constraint,
                              (InequalityConstraint, EqualityConstraint)):
                raise KernelUnsupportedError(
                    f"constraint {type(constraint).__name__} is not a linear "
                    "inequality or equality; fused kernels cannot track it "
                    "incrementally")
        self.driver = driver
        self.moves_per_iteration = int(moves_per_iteration)
        self.current = current
        self.current_energy = current_energy
        self.best = current.copy()
        self.best_energy = current_energy.copy()
        num_replicas = current.shape[0]
        self.num_feasible = np.zeros(num_replicas, dtype=int)
        self.num_skipped = np.zeros(num_replicas, dtype=int)
        self.num_accepted = np.zeros(num_replicas, dtype=int)
        self._init_model(matrix, current, effective)
        self._streams = try_replay_streams(driver, generators,
                                           self._num_variables)

    def run_block(self, start_iteration: int, num_iterations: int) -> None:
        driver = self.driver
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
                    if feasible_idx.size == 0:
                        continue
                    step = delta[feasible_idx]
                else:
                    candidate_loads = None
                    feasible_idx = self._rows
                    self.num_feasible += 1
                    step = delta

                accepted = self._accept(driver, step, feasible_idx, iteration)
                accepted_idx = feasible_idx[accepted]
                if accepted_idx.size:
                    # current_energy[f] + delta then assign, as the reference
                    # does, equals this in-place add entry for entry.
                    self.current_energy[accepted_idx] += step[accepted]
                    self._apply_flips(accepted_idx, flips, bits, signs,
                                      candidate_loads)
                    self.num_accepted[accepted_idx] += 1
                    energies = self.current_energy[accepted_idx]
                    better = energies < self.best_energy[accepted_idx]
                    if better.any():
                        improved = accepted_idx[better]
                        self.best_energy[improved] = energies[better]
                        self._record_best(improved)

    def swap_arrays(self) -> tuple:
        arrays = [self.current, self.current_energy, self.field]
        if self._num_constraints:
            arrays.append(self.loads)
        return tuple(arrays)


class FusedHyCiMKernel(_FusedCore):
    """Fused counterpart of :class:`~repro.kernels.reference.ReferenceHyCiMKernel`.

    Covers the software-mode single-flip configuration (the ``use_delta``
    fast path): every constraint a linear inequality evaluated exactly, no
    crossbar, no hardware filters.  The HyCiM drift semantics are preserved:
    replicas whose incumbent is infeasible follow every infeasible candidate
    at energy 0 while ``raw_energy`` tracks the true QUBO value
    incrementally.
    """

    def __init__(self, *, matrix, driver: LoopDriver, single_flip: bool,
                 moves_per_iteration: int,
                 constraints: Sequence[LinearConstraint],
                 current: np.ndarray, current_energy: np.ndarray,
                 current_feasible: np.ndarray, raw_energy: Optional[np.ndarray],
                 use_hardware_filters: bool = False,
                 use_crossbar: bool = False,
                 generators: Optional[Sequence[np.random.Generator]] = None
                 ) -> None:
        if not single_flip:
            raise KernelUnsupportedError(
                "fused kernels require single-flip moves")
        if use_crossbar or raw_energy is None:
            raise KernelUnsupportedError(
                "hardware-mode (crossbar) energy evaluation runs on the "
                "reference backend")
        if use_hardware_filters:
            raise KernelUnsupportedError(
                "hardware inequality filters (quantised weights / matchline "
                "noise) run on the reference backend")
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
        self.current = current
        self.current_energy = current_energy
        self.current_feasible = current_feasible
        self.raw_energy = raw_energy
        self.best = current.copy()
        self.best_energy = current_energy.copy()
        self.best_feasible = current_feasible.copy()
        num_replicas = current.shape[0]
        self.num_feasible = np.zeros(num_replicas, dtype=int)
        self.num_skipped = np.zeros(num_replicas, dtype=int)
        self.num_accepted = np.zeros(num_replicas, dtype=int)
        self._init_model(matrix, current, constraints)
        self._streams = try_replay_streams(driver, generators,
                                           self._num_variables)

    def run_block(self, start_iteration: int, num_iterations: int) -> None:
        driver = self.driver
        for iteration in range(start_iteration,
                               start_iteration + num_iterations):
            for _ in range(self.moves_per_iteration):
                flips, bits, signs, delta = self._propose(driver)
                candidate_raw = self.raw_energy + delta

                if self._num_constraints:
                    candidate_loads, candidate_feasible = \
                        self._candidate_loads(flips, signs)
                else:
                    candidate_loads = None
                    candidate_feasible = np.ones(self._rows.shape[0],
                                                 dtype=bool)
                infeasible_idx = np.flatnonzero(~candidate_feasible)
                self.num_skipped[infeasible_idx] += 1
                # Infeasible incumbents drift freely at energy 0 (paper
                # Eq. (6)), exactly as the reference kernel.
                drifting = infeasible_idx[
                    ~self.current_feasible[infeasible_idx]]
                if drifting.size:
                    self.current_energy[drifting] = 0.0
                    self.raw_energy[drifting] = candidate_raw[drifting]
                    self._apply_flips(drifting, flips, bits, signs,
                                      candidate_loads)

                feasible_idx = np.flatnonzero(candidate_feasible)
                if feasible_idx.size == 0:
                    continue
                self.num_feasible[feasible_idx] += 1

                candidate_energy = candidate_raw[feasible_idx]
                step = candidate_energy - self.current_energy[feasible_idx]
                accepted = self._accept(driver, step, feasible_idx, iteration)
                accepted_idx = feasible_idx[accepted]
                if accepted_idx.size:
                    self.current_energy[accepted_idx] = \
                        candidate_raw[accepted_idx]
                    self.raw_energy[accepted_idx] = candidate_raw[accepted_idx]
                    self.current_feasible[accepted_idx] = True
                    self._apply_flips(accepted_idx, flips, bits, signs,
                                      candidate_loads)
                    self.num_accepted[accepted_idx] += 1
                    improved = accepted_idx[
                        (self.current_energy[accepted_idx]
                         < self.best_energy[accepted_idx])
                        | ~self.best_feasible[accepted_idx]]
                    self.best_energy[improved] = self.current_energy[improved]
                    self._record_best(improved)
                    self.best_feasible[improved] = True

    def swap_arrays(self) -> tuple:
        arrays = [self.current, self.current_energy, self.current_feasible,
                  self.raw_energy, self.field]
        if self._num_constraints:
            arrays.append(self.loads)
        return tuple(arrays)
