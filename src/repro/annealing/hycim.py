"""The HyCiM hybrid solver (paper Sec. 3, Fig. 3 and Fig. 6(b)).

One solver instance owns the three HyCiM components for a problem:

1. the **inequality-QUBO form** of the problem (Sec. 3.2), obtained from the
   problem's :meth:`to_inequality_qubo`;
2. one **CiM inequality filter** per inequality constraint (Sec. 3.3);
3. a **CiM crossbar** programmed with the QUBO matrix (Sec. 3.4).

Each SA iteration follows the paper's flow exactly: the SA logic proposes a
new configuration, the inequality filter decides feasibility *before* any
QUBO computation, infeasible candidates are bounced straight back to the SA
logic, and feasible ones are evaluated on the crossbar and subjected to the
Metropolis acceptance rule.  That loop exists once, in the lock-step engine:
:meth:`HyCiMSolver.solve` is its one-replica run
(:class:`~repro.batched.engine.BatchedHyCiMSolver` with ``M = 1``).

``use_hardware=False`` replaces the filter and crossbar with exact arithmetic
(software mode), which is useful for isolating algorithmic effects from
analog non-idealities; the default is hardware simulation with ideal devices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.annealing.result import SolveResult
from repro.annealing.sa import _start_state
from repro.cim.crossbar import CrossbarConfig, FeFETCrossbar
from repro.dynamics.moves import MoveGenerator, SingleFlipMove
from repro.dynamics.schedule import GeometricSchedule, TemperatureSchedule
from repro.cim.filter_array import VariabilityLike
from repro.cim.inequality_filter import InequalityFilter
from repro.core.constraints import InequalityConstraint
from repro.core.transformation import InequalityQUBO
from repro.fefet.variability import VariabilityModel
from repro.problems.base import CombinatorialProblem

ProblemOrModel = Union[CombinatorialProblem, InequalityQUBO]


@dataclass
class HyCiMSolver:
    """Hybrid CiM QUBO solver for COPs with inequality constraints.

    Parameters
    ----------
    problem:
        A :class:`~repro.problems.base.CombinatorialProblem` (converted with
        its ``to_inequality_qubo``) or an :class:`InequalityQUBO` directly.
    use_hardware:
        Simulate the CiM filter and crossbar (default) or use exact software
        arithmetic for both.
    num_iterations:
        SA iterations per run (paper evaluation: 1000).
    moves_per_iteration:
        Candidate proposals per SA iteration.  The paper's hardware annealer
        updates at the granularity of full configuration sweeps, so the
        evaluation experiments set this to the number of problem variables;
        the default of 1 makes each iteration a single proposal.
    schedule:
        Annealing temperature schedule.
    move_generator:
        Candidate generator; defaults to single bit flips.
    filter_rows:
        Rows of the inequality filter arrays (paper: 16).
    crossbar_config:
        Crossbar non-ideality configuration (ideal 7-bit cells by default).
    variability:
        FeFET device variability shared by filter arrays.
    matchline_noise_sigma:
        Filter matchline readout noise (volts).
    record_history:
        Record the incumbent energy after every iteration (Fig. 7(f)).
    seed:
        RNG seed for the SA logic.

    In hardware mode the filter(s) and crossbar are programmed on first
    use, so an engine that runs the solver's replicas on per-trial
    device-axis chips instead never programs the shared ones.
    """

    problem: ProblemOrModel
    use_hardware: bool = True
    num_iterations: int = 1000
    moves_per_iteration: int = 1
    schedule: TemperatureSchedule = field(default_factory=GeometricSchedule)
    move_generator: MoveGenerator = field(default_factory=SingleFlipMove)
    filter_rows: int = 16
    crossbar_config: Optional[CrossbarConfig] = None
    variability: Optional[VariabilityModel] = None
    matchline_noise_sigma: float = 0.0
    record_history: bool = False
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_iterations < 1:
            raise ValueError("num_iterations must be positive")
        if self.moves_per_iteration < 1:
            raise ValueError("moves_per_iteration must be positive")
        if isinstance(self.problem, InequalityQUBO):
            self._model = self.problem
            self._native_problem: Optional[CombinatorialProblem] = None
        elif isinstance(self.problem, CombinatorialProblem):
            self._model = self.problem.to_inequality_qubo()
            self._native_problem = self.problem
        else:
            raise TypeError(
                "problem must be a CombinatorialProblem or an InequalityQUBO, "
                f"got {type(self.problem).__name__}"
            )
        self._filters: Optional[Dict[int, InequalityFilter]] = None
        self._crossbar: Optional[FeFETCrossbar] = None

    # ------------------------------------------------------------------ #
    # Hardware construction
    # ------------------------------------------------------------------ #
    def _build_hardware(self) -> None:
        """Program the shared chip when hardware mode is on."""
        self._filters = {}
        if self.use_hardware:
            self._filters, self._crossbar = self._program_chip(self.variability)

    def _program_chip(self, variability: VariabilityLike,
                      chip_seeds: Optional[Sequence[Optional[int]]] = None
                      ) -> Tuple[Dict[int, InequalityFilter], FeFETCrossbar]:
        """Program one chip, or one per chip along the device axis.

        Filters first, in constraint order, then the crossbar: the order in
        which a chip consumes its variability model, the same for the
        shared chip (the solver's ``variability``) and for per-trial chips
        (one model or ``None`` per chip, with their crossbar seeds in place
        of the default config's).
        """
        filters = {
            index: InequalityFilter(
                constraint,
                num_rows=self.filter_rows,
                variability=variability,
                matchline_noise_sigma=self.matchline_noise_sigma,
            )
            for index, constraint in enumerate(self._model.constraints)
            if isinstance(constraint, InequalityConstraint)
        }
        config = self.crossbar_config or CrossbarConfig(
            seed=self.seed if chip_seeds is None else None)
        crossbar = FeFETCrossbar.from_qubo(self._model.qubo, config=config,
                                           device_seeds=chip_seeds)
        return filters, crossbar

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def model(self) -> InequalityQUBO:
        """The inequality-QUBO form the solver operates on."""
        return self._model

    @property
    def inequality_filters(self) -> Dict[int, InequalityFilter]:
        """Constraint-index -> hardware filter map (empty in software mode)."""
        if self._filters is None:
            self._build_hardware()
        return dict(self._filters)

    @property
    def crossbar(self) -> Optional[FeFETCrossbar]:
        """The CiM crossbar (``None`` in software mode)."""
        if self._filters is None:
            self._build_hardware()
        return self._crossbar

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def solve(self, initial: Optional[np.ndarray] = None,
              rng: Optional[np.random.Generator] = None) -> SolveResult:
        """Run one simulated-annealing descent and return the best solution.

        Parameters
        ----------
        initial:
            Starting configuration (may be infeasible -- its Eq. (6) energy is
            then 0, so the solver escapes as soon as a feasible candidate with
            negative QUBO value appears).  Random when omitted.
        rng:
            External random generator (overrides ``seed``).
        """
        from repro.batched.engine import BatchedHyCiMSolver

        generator = rng or np.random.default_rng(self.seed)
        start = _start_state(initial, self._model.num_variables, generator)
        return BatchedHyCiMSolver(self).solve_batch(start[None, :],
                                                    [generator])[0]
