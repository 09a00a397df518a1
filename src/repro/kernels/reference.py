"""The reference sweep kernel: the engines' NumPy inner loop.

The loop body in this module is the inner loop of
:class:`~repro.batched.engine.BatchedHyCiMSolver` and of
:class:`~repro.batched.engine.BatchedSimulatedAnnealer`, and the only
annealing loop of the codebase: a serial trial is its one-replica run, and
plain SA is the HyCiM loop with every incumbent feasible, so no replica
ever sits at the zero energy of paper Eq. (6).  Per-seed trajectories are
pinned byte for byte by ``tests/batched/test_golden_trajectories.py``.
One full-batch operation per proposal: an O(M*n) candidate copy, an O(M*n)
delta gather (or batched crossbar MVM), one batched filter pass.  The loop
skips the work a step does not need -- the filter call when there is no
filter, the infeasible-replica bookkeeping when every candidate passes,
the deltas of rows that are neither scored nor drifting, the Eq. (6)
bookkeeping once every incumbent and best state is feasible, the commit
when none is accepted -- which is most of a one-replica proposal's NumPy
overhead; every arithmetic op and RNG draw stays the same.

This backend supports every engine configuration -- hardware or software
evaluation, any move generator, noisy or opaque filters, device axes, both
RNG topologies -- which is why it is the default and the fallback of
``kernel="auto"``.

The loop evaluates flip deltas through
:func:`repro.core.qubo.batched_energy_delta`, the one evaluation of the
quadratic form's delta, whose one-row view is ``QUBOModel.energy_delta``;
:func:`as_replica_matrix` validates the engines' replica batches.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.core.qubo import batched_energy_delta, symmetrized_matrix
from repro.dynamics.driver import LoopDriver
from repro.dynamics.moves import MoveGenerator
from repro.kernels.base import SweepKernel

__all__ = ["ReferenceHyCiMKernel", "as_replica_matrix"]

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


class ReferenceHyCiMKernel(SweepKernel):
    """The batched sweep of both engines.

    The engine stays the owner of the hardware stack: ``feasible_batch``
    and ``energies`` are its evaluation primitives (CiM filters / crossbar,
    device axes, the replica-by-replica check of noisy filters), so this
    kernel runs every hardware configuration the engine does.
    ``feasible_batch=None`` means no filter: every candidate passes.
    ``use_delta`` enables the software-mode single-flip incremental path
    over the raw QUBO value (``raw_energy``).
    """

    backend = "reference"

    def __init__(self, *, num_variables: int, driver: LoopDriver,
                 move_generator: MoveGenerator, single_flip: bool,
                 moves_per_iteration: int,
                 feasible_batch: Optional[BatchFilter],
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
        self._init_state(current, current_energy, current_feasible)
        self._rows = np.arange(current.shape[0])
        self._num_variables = int(num_variables)
        self._symmetric = (symmetrized_matrix(matrix)
                           if self.use_delta else None)
        # Reused single-flip candidate buffer: refreshing it with np.copyto
        # is value-identical to a fresh current.copy() per proposal but
        # spares the O(M*n) allocation in the hot loop.
        self._candidates = (np.empty_like(current) if self.single_flip
                            else None)

    def _flip_delta(self, flips: np.ndarray, replicas) -> np.ndarray:
        """Energy deltas of the listed replicas' single flips."""
        return batched_energy_delta(self.matrix, self.current[replicas],
                                    flips[replicas], symmetric=self._symmetric)

    def run_block(self, start_iteration: int, num_iterations: int) -> None:
        driver = self.driver
        current = self.current
        current_energy = self.current_energy
        current_feasible = self.current_feasible
        raw_energy = self.raw_energy
        feasible_batch = self.feasible_batch
        use_delta = self.use_delta
        rows = self._rows
        num_replicas = rows.shape[0]
        n = self._num_variables
        settled = self._settled()
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
                    candidates = driver.propose(self.move_generator, current)

                # Step 1: inequality evaluation, one batched filter pass.
                if feasible_batch is None:
                    feasible_idx = rows
                else:
                    candidate_feasible = feasible_batch(candidates)
                    feasible_idx = candidate_feasible.nonzero()[0]
                if feasible_idx.shape[0] < num_replicas:
                    infeasible_idx = (~candidate_feasible).nonzero()[0]
                    self.num_skipped[infeasible_idx] += 1
                    if not settled:
                        # Replicas whose incumbent is itself infeasible
                        # drift freely at energy 0 (paper Eq. (6)).
                        drifting = infeasible_idx[
                            ~current_feasible[infeasible_idx]]
                        if drifting.shape[0]:
                            if use_delta:
                                raw_energy[drifting] += self._flip_delta(
                                    flips, drifting)
                            current[drifting] = candidates[drifting]
                            current_energy[drifting] = 0.0
                    if feasible_idx.shape[0] == 0:
                        continue
                    subset = feasible_idx
                else:
                    subset = slice(None)  # every candidate passed: no gathers
                self.num_feasible[subset] += 1

                # Step 2: QUBO computation for all feasible candidates in one
                # batched crossbar MVM (or BLAS product in software mode).
                if use_delta:
                    candidate_energy = (raw_energy[subset]
                                        + self._flip_delta(flips, subset))
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
                if use_delta:
                    raw_energy[accepted_idx] = candidate_energy[accepted]
                self.num_accepted[accepted_idx] += 1
                improved = (current_energy[accepted_idx]
                            < self.best_energy[accepted_idx])
                if not settled:
                    current_feasible[accepted_idx] = True
                    improved |= ~self.best_feasible[accepted_idx]
                improved = accepted_idx[improved]
                self.best_energy[improved] = current_energy[improved]
                self.best[improved] = current[improved]
                if not settled:
                    self.best_feasible[improved] = True
                    settled = self._settled()

    def swap_arrays(self) -> tuple:
        arrays = [self.current, self.current_energy, self.current_feasible]
        if self.use_delta:
            arrays.append(self.raw_energy)
        return tuple(arrays)
