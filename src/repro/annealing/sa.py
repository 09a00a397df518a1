"""Generic QUBO simulated annealer.

A software annealer over any :class:`~repro.core.qubo.QUBOModel`.  One
descent is the one-replica run of the lock-step engine
(:class:`~repro.batched.engine.BatchedSimulatedAnnealer`), so single-flip
moves use the O(n) incremental energy delta and arbitrary move generators
fall back to full re-evaluation, exactly as on a replica batch.  It is the
engine behind the unconstrained rows of the Table 1 reproduction (Max-Cut,
spin glass) and a building block of the D-QUBO baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.annealing.result import SolveResult
from repro.core.qubo import QUBOModel
from repro.dynamics.moves import MoveGenerator, SingleFlipMove
from repro.dynamics.schedule import GeometricSchedule, TemperatureSchedule


def _start_state(initial: Optional[np.ndarray], num_variables: int,
                 generator: np.random.Generator) -> np.ndarray:
    """One descent's starting configuration: ``initial`` or a random draw."""
    if initial is None:
        return generator.integers(0, 2, size=num_variables).astype(float)
    start = np.asarray(initial, dtype=float)
    if start.shape[0] != num_variables:
        raise ValueError(
            f"initial configuration length {start.shape[0]} != {num_variables}")
    return start


@dataclass
class SimulatedAnnealer:
    """Simulated annealing over a QUBO model.

    Parameters
    ----------
    schedule:
        Temperature schedule (default geometric 10 -> 0.01).
    move_generator:
        Neighbourhood generator (default single flip, which enables the fast
        incremental energy path).
    num_iterations:
        SA iterations per run (paper evaluation: 1000).
    moves_per_iteration:
        Candidate proposals per iteration (1 by default; the evaluation
        experiments use one sweep, i.e. the number of variables).
    record_history:
        Whether to record the incumbent energy after each iteration.
    seed:
        RNG seed.
    """

    schedule: TemperatureSchedule = field(default_factory=GeometricSchedule)
    move_generator: MoveGenerator = field(default_factory=SingleFlipMove)
    num_iterations: int = 1000
    moves_per_iteration: int = 1
    record_history: bool = False
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_iterations < 1:
            raise ValueError("num_iterations must be positive")
        if self.moves_per_iteration < 1:
            raise ValueError("moves_per_iteration must be positive")

    def anneal(
        self,
        qubo: QUBOModel,
        initial: Optional[np.ndarray] = None,
        accept_filter: Optional[Callable[[np.ndarray], bool]] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> SolveResult:
        """Run one SA descent on ``qubo``.

        Parameters
        ----------
        qubo:
            The QUBO model to minimise.
        initial:
            Starting configuration (random when omitted).
        accept_filter:
            Optional predicate evaluated on each candidate *before* its energy
            is computed; candidates failing it are skipped (this is the hook
            the HyCiM solver replaces with the CiM inequality filter).  The
            engine calls it as a filter over the candidate batch, row by row.
        rng:
            External random generator (overrides ``seed``).
        """
        from repro.batched.engine import BatchedSimulatedAnnealer

        generator = rng or np.random.default_rng(self.seed)
        start = _start_state(initial, qubo.num_variables, generator)
        batch_filter = None
        if accept_filter is not None:
            def batch_filter(batch: np.ndarray) -> np.ndarray:
                return np.array([bool(accept_filter(row)) for row in batch],
                                dtype=bool)
        return BatchedSimulatedAnnealer(self).anneal(
            qubo, start[None, :], [generator],
            accept_filter_batch=batch_filter)[0]
