"""The D-QUBO baseline annealer (paper Fig. 1(b) and Sec. 4).

The conventional route the paper compares against: the inequality constraint
is embedded in the objective with auxiliary one-hot slack variables and
penalty weights ``alpha = beta = 2``, producing an unconstrained QUBO over
``n + C`` variables, which is then annealed by the HyCiM engine over that
constraint-free penalty model: with no filter to consult, every candidate
is scored, in exact arithmetic (software mode, the SA of the paper's
baseline) or, for a fair hardware comparison, on a FeFET crossbar at the
penalty matrix's bit width.  :meth:`DQUBOAnnealer.solve_batch` runs a group
of replicas in lock-step, and :meth:`DQUBOAnnealer.solve` is its
one-replica run.

Because the search space is ``2^(n+C)`` and the penalty landscape is full of
deep local minima at infeasible configurations, the baseline frequently ends
an anneal on an infeasible configuration -- exactly the behaviour Fig. 10
reports (10.75% average success rate vs HyCiM's 98.54%).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.annealing.hycim import HyCiMSolver
from repro.annealing.result import SolveResult
from repro.cim.crossbar import CrossbarConfig, FeFETCrossbar
from repro.core.dqubo import DQUBOTransformation, SlackEncoding, to_dqubo
from repro.core.qubo import QUBOModel
from repro.core.quantization import matrix_bit_width
from repro.core.transformation import InequalityQUBO
from repro.dynamics.moves import MoveGenerator, SingleFlipMove
from repro.dynamics.schedule import GeometricSchedule, TemperatureSchedule
from repro.fefet.variability import VariabilityModel
from repro.problems.knapsack import KnapsackProblem
from repro.problems.qkp import QuadraticKnapsackProblem

KnapsackLike = Union[QuadraticKnapsackProblem, KnapsackProblem]


@dataclass
class DQUBOAnnealer:
    """Simulated annealing on the D-QUBO (penalty + slack) formulation.

    Parameters
    ----------
    problem:
        A (quadratic) knapsack problem; its objective QUBO and capacity
        constraint define the D-QUBO construction.
    alpha, beta:
        Penalty weights (paper: 2 and 2).
    encoding:
        One-hot (paper baseline) or binary slack encoding (ablation).
    use_hardware:
        Evaluate the combined QUBO on a FeFET crossbar model instead of exact
        arithmetic.  Off by default because the combined matrix needs 16-25
        bit planes, which is exactly the hardware-overhead point of Fig. 9;
        functionally the software path exhibits the same search behaviour.
    num_iterations:
        SA iterations per run (paper: 1000).
    moves_per_iteration:
        Candidate proposals per iteration (the evaluation experiments use one
        sweep of the *combined* variable vector so both solvers get the same
        proposal budget).
    schedule, move_generator, record_history, seed:
        Standard SA knobs (single-flip moves by default).
    """

    problem: KnapsackLike
    alpha: float = 2.0
    beta: float = 2.0
    encoding: SlackEncoding = SlackEncoding.ONE_HOT
    use_hardware: bool = False
    num_iterations: int = 1000
    moves_per_iteration: int = 1
    schedule: TemperatureSchedule = field(default_factory=GeometricSchedule)
    move_generator: MoveGenerator = field(default_factory=SingleFlipMove)
    crossbar_config: Optional[CrossbarConfig] = None
    record_history: bool = False
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.problem, (QuadraticKnapsackProblem, KnapsackProblem)):
            raise TypeError(
                "DQUBOAnnealer expects a knapsack-type problem, got "
                f"{type(self.problem).__name__}"
            )
        if self.num_iterations < 1:
            raise ValueError("num_iterations must be positive")
        if self.moves_per_iteration < 1:
            raise ValueError("moves_per_iteration must be positive")
        self._objective_qubo: QUBOModel = self.problem.to_qubo()
        self._transformation: DQUBOTransformation = to_dqubo(
            self._objective_qubo,
            self.problem.constraint(),
            alpha=self.alpha,
            beta=self.beta,
            encoding=self.encoding,
        )
        # Both modes anneal on the HyCiM engine over the constraint-free
        # penalty model: no filters, every candidate scored -- on a
        # crossbar at the penalty matrix's bit width in hardware mode.
        crossbar_config = None
        if self.use_hardware:
            crossbar_config = self.crossbar_config or CrossbarConfig(
                weight_bits=matrix_bit_width(self._transformation),
                seed=self.seed)
        self._solver = HyCiMSolver(
            InequalityQUBO(self._transformation.qubo),
            use_hardware=self.use_hardware,
            num_iterations=self.num_iterations,
            moves_per_iteration=self.moves_per_iteration,
            schedule=self.schedule,
            move_generator=self.move_generator,
            crossbar_config=crossbar_config,
            record_history=self.record_history,
            seed=self.seed,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def transformation(self) -> DQUBOTransformation:
        """The underlying D-QUBO construction (dimension, Q_max, ...)."""
        return self._transformation

    @property
    def crossbar(self) -> Optional[FeFETCrossbar]:
        """The CiM crossbar used for energy evaluation (``None`` in software mode)."""
        return self._solver.crossbar

    # ------------------------------------------------------------------ #
    # Initial-configuration handling
    # ------------------------------------------------------------------ #
    def extend_initial(self, problem_initial: np.ndarray,
                       rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Extend a problem-variable initial configuration with slack bits.

        The slack bits are set consistently with the current total weight when
        possible (one-hot ``y_{w.x} = 1``), mirroring how an operator would
        seed the auxiliary variables; otherwise they are random.
        """
        generator = rng or np.random.default_rng(self.seed)
        x = np.asarray(problem_initial, dtype=float)
        n = self._transformation.num_problem_variables
        if x.shape[0] != n:
            raise ValueError(f"problem initial length {x.shape[0]} != {n}")
        m = self._transformation.num_auxiliary_variables
        aux = np.zeros(m)
        lhs = self.problem.constraint().lhs(x)
        if self.encoding is SlackEncoding.ONE_HOT:
            index = int(round(lhs))
            if 1 <= index <= m:
                aux[index - 1] = 1.0
            else:
                aux[int(generator.integers(0, m))] = 1.0
        else:
            slack = int(round(self.problem.constraint().bound - lhs))
            slack = max(0, min(slack, 2 ** m - 1))
            for bit in range(m):
                aux[bit] = (slack >> bit) & 1
        return np.concatenate([x, aux])

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def solve(self, initial: Optional[np.ndarray] = None,
              rng: Optional[np.random.Generator] = None) -> SolveResult:
        """Run one SA descent on the penalised D-QUBO objective.

        ``initial`` may be either a full ``n + m`` configuration or just the
        ``n`` problem variables (slack bits are then seeded consistently);
        random over all ``n + m`` bits when omitted.  The one-replica run of
        :meth:`solve_batch`.
        """
        generator = rng or np.random.default_rng(self.seed)
        if initial is None:
            initial = generator.integers(
                0, 2, size=self._transformation.num_variables).astype(float)
        return self.solve_batch([initial], [generator])[0]

    def solve_batch(self, initials: Sequence[np.ndarray],
                    rngs: Sequence[np.random.Generator],
                    chips: Optional[Sequence[Optional[VariabilityModel]]] = None,
                    chip_seeds: Optional[Sequence[Optional[int]]] = None,
                    **engine) -> List[SolveResult]:
        """Run one SA descent per replica on the D-QUBO objective, in
        lock-step.

        Replica ``k`` starts from ``initials[k]``, a full ``n + m``
        configuration or the ``n`` problem variables, whose slack bits are
        then seeded from ``rngs[k]``.  Both modes run the HyCiM engine over
        the penalty model -- in hardware mode on one device-axis crossbar
        slice per replica when ``chips`` and ``chip_seeds`` are given (see
        :class:`~repro.batched.engine.BatchedHyCiMSolver`).  The ``engine``
        keywords (``dynamics``, ``exchange_rng``, ``kernel``) go to the
        engine unchanged.
        """
        from repro.batched.engine import BatchedHyCiMSolver

        total = self._transformation.num_variables
        starts = np.stack([
            np.asarray(initial, dtype=float) if len(initial) == total
            else self.extend_initial(initial, rng=rng)
            for initial, rng in zip(initials, rngs)])
        inner = BatchedHyCiMSolver(
            self._solver, chips=chips, chip_seeds=chip_seeds,
        ).solve_batch(starts, rngs, **engine)
        return [self.assemble_result(raw) for raw in inner]

    def assemble_result(self, raw: SolveResult) -> SolveResult:
        """Decode a full-dimension engine result into the D-QUBO result shape.

        The single assembly point of :meth:`solve_batch`, so slack
        decoding, the infeasible-objective convention and the metadata
        schema are the same for one replica and for a batch, in software
        and hardware mode.  The engine's provenance stamps (``vectorized``,
        ``num_replicas`` and, off the reference backend, ``kernel``) carry
        over, so D-QUBO results name their sweep kernel as HyCiM and SA
        results do.
        """
        best_full = raw.best_configuration
        decoded = self._transformation.decode(best_full)
        feasible = self._transformation.is_feasible(best_full)
        objective = self.problem.objective(decoded) if feasible else 0.0
        return SolveResult(
            best_configuration=decoded,
            best_energy=float(raw.best_energy),
            best_objective=float(objective),
            feasible=feasible,
            energy_history=raw.energy_history,
            num_iterations=self.num_iterations * self.moves_per_iteration,
            num_feasible_evaluations=raw.num_feasible_evaluations,
            num_infeasible_skipped=0,
            num_accepted_moves=raw.num_accepted_moves,
            solver_name="D-QUBO",
            metadata={
                "encoding": self.encoding.value,
                "alpha": self.alpha,
                "beta": self.beta,
                "qubo_dimension": self._transformation.num_variables,
                "use_hardware": self.use_hardware,
                "penalty_satisfied": self._transformation.is_penalty_satisfied(best_full),
                **{key: raw.metadata[key]
                   for key in ("vectorized", "num_replicas", "kernel")
                   if key in raw.metadata},
            },
        )
