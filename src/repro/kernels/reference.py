"""Reference sweep kernels: the engines' NumPy inner loops.

The loop bodies in this module are the inner loops of
:class:`~repro.batched.engine.BatchedSimulatedAnnealer` and
:class:`~repro.batched.engine.BatchedHyCiMSolver`, and the only annealing
loop of the codebase: a serial trial is their one-replica run.  Per-seed
trajectories are pinned byte for byte by
``tests/batched/test_golden_trajectories.py``.  One full-batch
operation per proposal: an O(M*n) candidate copy, an O(M*n) delta gather
(or batched crossbar MVM), one batched filter pass.  The loops skip the
index and copy work a step does not need -- the infeasible-replica
bookkeeping when every candidate passes, the commit when none is accepted
-- which is most of a one-replica proposal's NumPy overhead; every
arithmetic op and RNG draw stays the same.

This backend supports every engine configuration -- hardware or software
evaluation, any move generator, noisy filters, device axes, both RNG
topologies -- which is why it is the default and the fallback of
``kernel="auto"``.

The loops evaluate energies and flip deltas through
:func:`repro.core.qubo.batched_energies` and
:func:`~repro.core.qubo.batched_energy_delta`, the one evaluation of the
quadratic form, whose one-row views are the scalar ``QUBOModel`` methods;
:func:`as_replica_matrix` validates the engines' replica batches.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.core.qubo import (
    batched_energies,
    batched_energy_delta,
    symmetrized_matrix,
)
from repro.dynamics.driver import LoopDriver
from repro.dynamics.moves import MoveGenerator
from repro.kernels.base import SweepKernel

__all__ = ["ReferenceHyCiMKernel", "ReferenceSAKernel", "as_replica_matrix"]

#: Per-row feasibility predicate.
RowFilter = Callable[[np.ndarray], bool]
#: Vectorised feasibility predicate over an ``(M, n)`` batch.
BatchFilter = Callable[[np.ndarray], np.ndarray]


def as_replica_matrix(configurations: np.ndarray,
                      num_variables: int) -> np.ndarray:
    """Validate and coerce a replica batch into a float ``(M, n)`` matrix."""
    batch = np.asarray(configurations, dtype=float)
    if batch.ndim == 1:
        batch = batch[None, :]
    if batch.ndim != 2 or batch.shape[1] != num_variables:
        raise ValueError(
            f"expected an (M, {num_variables}) replica matrix, got shape {batch.shape}"
        )
    if not np.all((batch == 0) | (batch == 1)):
        raise ValueError("replica configurations must be binary (0/1)")
    return batch


class ReferenceSAKernel(SweepKernel):
    """The batched SA sweep.

    Parameters mirror what the engine's loop closed over: the QUBO data,
    the driver (temperatures + draws + acceptance), the move generator and
    the filter hooks.  ``current`` is adopted (not copied) -- the engine
    hands over ownership of the travelling state.
    """

    backend = "reference"

    def __init__(self, *, matrix: np.ndarray, offset: float,
                 driver: LoopDriver, move_generator: MoveGenerator,
                 single_flip: bool, moves_per_iteration: int,
                 current: np.ndarray, current_energy: np.ndarray,
                 accept_filter: Optional[RowFilter] = None,
                 accept_filter_batch: Optional[BatchFilter] = None) -> None:
        self.matrix = matrix
        self.offset = float(offset)
        self.driver = driver
        self.move_generator = move_generator
        self.single_flip = bool(single_flip)
        self.moves_per_iteration = int(moves_per_iteration)
        # The candidate filter, chosen once: the vectorised predicate when
        # given, else the row-wise one, else none (every candidate passes).
        if accept_filter_batch is not None:
            self._filter: Optional[BatchFilter] = lambda batch: np.asarray(
                accept_filter_batch(batch), dtype=bool)
        elif accept_filter is not None:
            self._filter = lambda batch: np.array(
                [bool(accept_filter(row)) for row in batch], dtype=bool)
        else:
            self._filter = None

        self.current = current
        self.current_energy = current_energy
        self.best = current.copy()
        self.best_energy = current_energy.copy()
        num_replicas = current.shape[0]
        self.num_feasible = np.zeros(num_replicas, dtype=int)
        self.num_skipped = np.zeros(num_replicas, dtype=int)
        self.num_accepted = np.zeros(num_replicas, dtype=int)
        self._rows = np.arange(num_replicas)
        self._num_variables = self.matrix.shape[0]
        self._symmetric = (symmetrized_matrix(self.matrix) if self.single_flip
                           else None)
        # Reused single-flip candidate buffer: refreshing it with np.copyto
        # is value-identical to a fresh current.copy() per proposal but
        # spares the O(M*n) allocation in the hot loop.
        self._candidates = (np.empty_like(current) if self.single_flip
                            else None)

    def run_block(self, start_iteration: int, num_iterations: int) -> None:
        driver = self.driver
        current = self.current
        current_energy = self.current_energy
        rows = self._rows
        num_replicas = rows.shape[0]
        n = self._num_variables
        for iteration in range(start_iteration,
                               start_iteration + num_iterations):
            for _ in range(self.moves_per_iteration):
                if self.single_flip:
                    # Same stream consumption as SingleFlipMove.propose: one
                    # integer draw per replica (one vectorised draw from the
                    # shared stream in chip-faithful mode).
                    flips = driver.flip_indices(n)
                    candidates = self._candidates
                    np.copyto(candidates, current)
                    candidates[rows, flips] = 1.0 - candidates[rows, flips]
                else:
                    flips = None
                    candidates = driver.propose(self.move_generator, current)

                if self._filter is None:
                    feasible_idx = rows
                else:
                    passed = self._filter(candidates)
                    feasible_idx = passed.nonzero()[0]
                if feasible_idx.shape[0] < num_replicas:
                    self.num_skipped[~passed] += 1
                    if feasible_idx.shape[0] == 0:
                        continue
                    subset = feasible_idx
                else:
                    subset = slice(None)  # every candidate passed: no gathers
                self.num_feasible[subset] += 1

                if self.single_flip:
                    delta = batched_energy_delta(
                        self.matrix, current[subset], flips[subset],
                        symmetric=self._symmetric)
                    candidate_energy = current_energy[subset] + delta
                else:
                    candidate_energy = batched_energies(
                        self.matrix, candidates[subset], self.offset)
                    delta = candidate_energy - current_energy[subset]

                accepted = driver.metropolis(delta, feasible_idx, iteration)
                accepted_idx = feasible_idx[accepted]
                if accepted_idx.shape[0] == 0:
                    continue
                current[accepted_idx] = candidates[accepted_idx]
                current_energy[accepted_idx] = candidate_energy[accepted]
                self.num_accepted[accepted_idx] += 1
                improved = accepted_idx[current_energy[accepted_idx]
                                        < self.best_energy[accepted_idx]]
                self.best_energy[improved] = current_energy[improved]
                self.best[improved] = current[improved]

    def swap_arrays(self) -> tuple:
        return (self.current, self.current_energy)


class ReferenceHyCiMKernel(SweepKernel):
    """The batched HyCiM sweep.

    The engine stays the owner of the hardware stack: ``feasible_batch``
    and ``energies`` are its evaluation primitives (CiM filters / crossbar,
    device axes, the replica-by-replica check of noisy filters), so this
    kernel runs every hardware configuration the engine does.
    ``use_delta`` enables the software-mode single-flip incremental path
    over the raw QUBO value (``raw_energy``), as before.
    """

    backend = "reference"

    def __init__(self, *, num_variables: int, driver: LoopDriver,
                 move_generator: MoveGenerator, single_flip: bool,
                 moves_per_iteration: int,
                 feasible_batch: Callable[[np.ndarray], np.ndarray],
                 energies: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 current: np.ndarray, current_energy: np.ndarray,
                 current_feasible: np.ndarray,
                 use_delta: bool = False,
                 matrix: Optional[np.ndarray] = None,
                 raw_energy: Optional[np.ndarray] = None) -> None:
        self.driver = driver
        self.move_generator = move_generator
        self.single_flip = bool(single_flip)
        self.moves_per_iteration = int(moves_per_iteration)
        self.feasible_batch = feasible_batch
        self.energies = energies
        self.use_delta = bool(use_delta)
        self.matrix = matrix
        self.raw_energy = raw_energy

        self.current = current
        self.current_energy = current_energy
        self.current_feasible = current_feasible
        self.best = current.copy()
        self.best_energy = current_energy.copy()
        self.best_feasible = current_feasible.copy()
        num_replicas = current.shape[0]
        self.num_feasible = np.zeros(num_replicas, dtype=int)
        self.num_skipped = np.zeros(num_replicas, dtype=int)
        self.num_accepted = np.zeros(num_replicas, dtype=int)
        self._rows = np.arange(num_replicas)
        self._num_variables = int(num_variables)
        self._symmetric = (symmetrized_matrix(matrix)
                           if self.use_delta else None)
        # Reused single-flip candidate buffer (see ReferenceSAKernel).
        self._candidates = (np.empty_like(current) if self.single_flip
                            else None)

    def run_block(self, start_iteration: int, num_iterations: int) -> None:
        driver = self.driver
        current = self.current
        current_energy = self.current_energy
        current_feasible = self.current_feasible
        raw_energy = self.raw_energy
        rows = self._rows
        num_replicas = rows.shape[0]
        n = self._num_variables
        for iteration in range(start_iteration,
                               start_iteration + num_iterations):
            for _ in range(self.moves_per_iteration):
                if self.single_flip:
                    flips = driver.flip_indices(n)
                    candidates = self._candidates
                    np.copyto(candidates, current)
                    candidates[rows, flips] = 1.0 - candidates[rows, flips]
                else:
                    candidates = driver.propose(self.move_generator, current)

                if self.use_delta:
                    candidate_raw = raw_energy + batched_energy_delta(
                        self.matrix, current, flips,
                        symmetric=self._symmetric)

                # Step 1: inequality evaluation, one batched filter pass.
                candidate_feasible = self.feasible_batch(candidates)
                feasible_idx = candidate_feasible.nonzero()[0]
                if feasible_idx.shape[0] < num_replicas:
                    infeasible_idx = (~candidate_feasible).nonzero()[0]
                    self.num_skipped[infeasible_idx] += 1
                    # Replicas whose incumbent is itself infeasible drift
                    # freely at energy 0 (paper Eq. (6)).
                    drifting = infeasible_idx[~current_feasible[infeasible_idx]]
                    if drifting.shape[0]:
                        current[drifting] = candidates[drifting]
                        current_energy[drifting] = 0.0
                        if self.use_delta:
                            raw_energy[drifting] = candidate_raw[drifting]
                    if feasible_idx.shape[0] == 0:
                        continue
                    subset = feasible_idx
                else:
                    subset = slice(None)  # every candidate passed: no gathers
                self.num_feasible[subset] += 1

                # Step 2: QUBO computation for all feasible candidates in one
                # batched crossbar MVM (or BLAS product in software mode).
                if self.use_delta:
                    candidate_energy = candidate_raw[subset]
                else:
                    candidate_energy = self.energies(candidates[subset],
                                                     feasible_idx)

                # Step 3: per-replica Metropolis acceptance.
                delta = candidate_energy - current_energy[subset]
                accepted = driver.metropolis(delta, feasible_idx, iteration)
                accepted_idx = feasible_idx[accepted]
                if accepted_idx.shape[0] == 0:
                    continue
                current[accepted_idx] = candidates[accepted_idx]
                current_energy[accepted_idx] = candidate_energy[accepted]
                if self.use_delta:
                    raw_energy[accepted_idx] = candidate_energy[accepted]
                current_feasible[accepted_idx] = True
                self.num_accepted[accepted_idx] += 1
                improved = accepted_idx[
                    (current_energy[accepted_idx]
                     < self.best_energy[accepted_idx])
                    | ~self.best_feasible[accepted_idx]]
                self.best_energy[improved] = current_energy[improved]
                self.best[improved] = current[improved]
                self.best_feasible[improved] = True

    def swap_arrays(self) -> tuple:
        arrays = [self.current, self.current_energy, self.current_feasible]
        if self.use_delta:
            arrays.append(self.raw_energy)
        return tuple(arrays)
