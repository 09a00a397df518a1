"""Lock-step multi-replica annealing engines (vectorised over replicas).

The paper's evaluation protocol runs many independent SA replicas per
instance.  The engines in this module advance ``M`` replicas per instance
in lock-step: every iteration proposes one move per replica, checks
feasibility for all replicas with one batched filter evaluation, evaluates
all feasible candidates with one batched QUBO computation (crossbar MVM in
hardware mode, one BLAS product in software mode) and applies the Metropolis
rule per replica.  They are the only annealing loops in the codebase: the
solvers of :mod:`repro.annealing` run one descent as the ``M = 1`` batch
(:meth:`HyCiMSolver.solve <repro.annealing.hycim.HyCiMSolver.solve>`,
:meth:`SimulatedAnnealer.anneal
<repro.annealing.sa.SimulatedAnnealer.anneal>` and, through them, the
D-QUBO baseline in both modes).

**Per-replica streams.**  Each replica owns its own
:class:`numpy.random.Generator` and consumes it in the order one descent
does (the initial-state draw, one move draw per proposal, one uniform draw
per feasible candidate), so replica ``k`` of a batch follows exactly the
trajectory of a one-replica run with the same stream -- energies,
accept/reject decisions, final configurations.  Crossbar read noise on a
*shared* chip draws from that chip's one stream, so its replicas' results
are reproducible only per batch -- for :class:`BatchedHyCiMSolver` used
directly: the trial functions (:mod:`repro.batched.trials`) give every
trial on a noisy crossbar a chip of its own (below).

**Batch-of-chips.**  Per-trial device resampling -- the paper's Monte-Carlo
over simulated chips -- runs through the hardware stack's device axis
(ARCHITECTURE.md): :class:`BatchedHyCiMSolver` accepts one chip per
replica (a :class:`~repro.fefet.variability.VariabilityModel`, or ``None``
for nominal filter cells) and builds device-axis filters and a device-axis
crossbar, so replica ``k`` anneals on chip ``k``'s sampled non-idealities
while all chips advance per NumPy operation.  Chip ``k``'s devices, noise
and ADC codes are functions of chip ``k``'s seeds alone, which keeps
per-seed results identical to ``M`` one-replica trials that each build
their own hardware.

The engines are deliberately *not* new solvers: they borrow the model,
hardware, schedule and move generator from a solver instance, so any
configuration a solver accepts runs as a replica batch unchanged.

**Dynamics.**  The control loop itself -- temperature table, acceptance
decisions, inter-replica exchange, RNG topology -- is owned by
:class:`~repro.dynamics.driver.LoopDriver`; the engines contain no
Metropolis or cooling code.  Passing a
:class:`~repro.dynamics.Dynamics` bundle to :meth:`anneal` /
:meth:`solve_batch` turns the lock-step batch into a temperature ladder
with replica exchange (parallel tempering) and/or switches all replicas to
one chip-faithful shared RNG stream; the default dynamics keep every
replica on its own stream.

**Kernels.**  The inner sweep itself -- propose, filter, evaluate, accept,
state update, best tracking -- lives in :mod:`repro.kernels`; the batched
energy and the linear verdicts the engines call are
:func:`repro.core.qubo.batched_energies` and
:func:`repro.core.constraints.all_satisfied`.  Both engines build their
sweep with :func:`~repro.kernels.make_hycim_kernel`: plain SA is the HyCiM
sweep with every incumbent feasible, so no replica drifts at the zero
energy of Eq. (6).  They drive the :class:`~repro.kernels.SweepKernel`
block-wise, with :meth:`LoopDriver.block_length` placing block boundaries
exactly where an exchange round or telemetry probe is due.
``kernel="reference"`` (the default) is the engines' original loop body;
``kernel="fused"`` / ``"numba"`` are the incremental local-field kernels
(same RNG draws, different arithmetic -- exact on integer data); see
:mod:`repro.kernels.base` for the backend matrix.  Every kernel draws
through the driver, and each engine tells the driver whether the replica
generators are its alone during the sweep: true unless a generic move
generator or a noisy matchline draws from them too (the engines' filter
hooks must not).  Only then does the driver replay the streams -- one C
call per flip draw and per Metropolis round wherever the library of
:mod:`repro.kernels.native` loads, for the reference kernel too -- with
bit-identical draws, results and final generator states.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.annealing.hycim import HyCiMSolver
from repro.annealing.result import SolveResult
from repro.annealing.sa import SimulatedAnnealer
from repro.cim.crossbar import FeFETCrossbar
from repro.cim.inequality_filter import InequalityFilter
from repro.core.constraints import InequalityConstraint, all_satisfied
from repro.core.qubo import QUBOModel, batched_energies
from repro.dynamics.driver import LoopDriver
from repro.dynamics.dynamics import Dynamics
from repro.dynamics.moves import SingleFlipMove
from repro.fefet.variability import VariabilityModel
from repro.kernels import make_hycim_kernel
from repro.kernels.reference import as_replica_matrix

__all__ = ["BatchedHyCiMSolver", "BatchedSimulatedAnnealer"]

#: Per-row feasibility predicate.
RowFilter = Callable[[np.ndarray], bool]
#: Vectorised feasibility predicate over an ``(M, n)`` batch.
BatchFilter = Callable[[np.ndarray], np.ndarray]


def _check_replica_generators(rngs: Sequence[np.random.Generator],
                              num_replicas: int) -> List[np.random.Generator]:
    generators = list(rngs)
    if len(generators) != num_replicas:
        raise ValueError(
            f"need one Generator per replica: got {len(generators)} for "
            f"{num_replicas} replicas"
        )
    return generators


def _drive_kernel(driver: LoopDriver, kernel, total_iterations: int,
                  record_history: bool, histories: List[List[float]],
                  solver_name: str, count_feasible: bool) -> None:
    """Advance a sweep kernel block-wise to the end of the run.

    Block boundaries come from :meth:`LoopDriver.block_length`, so exchange
    rounds and telemetry probes fire at exactly the iterations the old
    per-iteration loop fired them at; a per-iteration energy history forces
    blocks of one.  Calling :meth:`maybe_exchange` at a non-exchange
    boundary is a no-op, as in the per-iteration convention.  With
    ``count_feasible`` the probes also count the feasible incumbents.
    """
    limit = 1 if record_history else None
    num_replicas = kernel.current_energy.shape[0]
    iteration = 0
    while iteration < total_iterations:
        block = driver.block_length(iteration, limit)
        kernel.run_block(iteration, block)
        iteration += block
        boundary = iteration - 1
        driver.maybe_exchange(boundary, kernel.current_energy,
                              kernel.swap_arrays())
        if driver.probing:
            driver.maybe_probe(
                boundary, solver=solver_name,
                best_energy=kernel.best_energy,
                current_energy=kernel.current_energy,
                num_accepted=kernel.num_accepted,
                num_feasible=kernel.num_feasible,
                num_skipped=kernel.num_skipped,
                feasible_mask=(kernel.current_feasible if count_feasible
                               else None),
                final=iteration == total_iterations)
        if record_history:
            for k in range(num_replicas):
                histories[k].append(float(kernel.best_energy[k]))


class BatchedSimulatedAnnealer:
    """``M`` lock-step replicas of a :class:`SimulatedAnnealer`.

    Parameters
    ----------
    annealer:
        The annealer whose schedule, move generator and iteration
        budget the replicas share.  Single-flip moves take the fast path
        (vectorised incremental deltas); other move generators are proposed
        per replica but still evaluated in batch.
    """

    def __init__(self, annealer: SimulatedAnnealer) -> None:
        self.annealer = annealer

    def anneal(
        self,
        qubo: QUBOModel,
        initials: np.ndarray,
        rngs: Sequence[np.random.Generator],
        accept_filter: Optional[RowFilter] = None,
        accept_filter_batch: Optional[BatchFilter] = None,
        dynamics: Optional[Dynamics] = None,
        exchange_rng: Optional[np.random.Generator] = None,
        shared_rng: Optional[np.random.Generator] = None,
        kernel: Optional[str] = None,
        feasibility_constraints: Optional[Sequence[InequalityConstraint]] = None,
    ) -> List[SolveResult]:
        """Run one SA descent per replica, in lock-step.

        Parameters
        ----------
        qubo:
            The QUBO model to minimise (shared by all replicas); a
            :class:`~repro.core.sparse.SparseQUBOModel` runs through the
            sparse-aware kernels unchanged.
        initials:
            ``(M, n)`` matrix of starting configurations, one replica per row.
        rngs:
            One independent :class:`~numpy.random.Generator` per replica
            (e.g. seeded from :func:`repro.runtime.derive_trial_seeds`); in
            shared-RNG mode the entries alias the group's shared stream.
        accept_filter:
            Per-row feasibility predicate (the annealer's
            ``accept_filter`` hook).
        accept_filter_batch:
            Optional vectorised form evaluating a whole candidate batch at
            once (e.g. :meth:`CombinatorialProblem.is_feasible_batch`); must
            agree with ``accept_filter`` row-wise.  Preferred when given.
        dynamics:
            Optional :class:`~repro.dynamics.Dynamics` bundle (temperature
            ladder, exchange policy, RNG topology).  ``None`` -- or a
            default bundle -- keeps every replica on its own stream.
        exchange_rng / shared_rng:
            The dedicated auxiliary streams coupled dynamics need (see
            :func:`repro.dynamics.exchange_stream` /
            :func:`repro.dynamics.shared_stream`).
        kernel:
            Sweep-kernel backend (``"reference"``/``"fused"``/``"numba"``/
            ``"auto"``; see :mod:`repro.kernels.base`).  ``None`` means the
            reference backend, whose trajectories this docstring describes.
        feasibility_constraints:
            The linear-inequality form of ``accept_filter_batch``, when one
            exists -- what lets the fused kernels track feasibility as
            incremental constraint loads instead of calling the opaque
            filter.  Ignored by the reference backend.
        """
        cfg = self.annealer
        n = qubo.num_variables
        current = as_replica_matrix(initials, n).copy()
        num_replicas = current.shape[0]
        generators = _check_replica_generators(rngs, num_replicas)
        matrix = qubo.matrix
        offset = qubo.offset

        current_energy = batched_energies(matrix, current, offset)
        single_flip = isinstance(cfg.move_generator, SingleFlipMove)
        # The candidate filter, chosen once: the vectorised predicate when
        # given, else the row-wise one, else none (every candidate passes);
        # with it its linear form, None where it has none.
        if accept_filter_batch is not None:
            def feasible_batch(batch: np.ndarray) -> np.ndarray:
                return np.asarray(accept_filter_batch(batch), dtype=bool)
            constraints = feasibility_constraints
        elif accept_filter is not None:
            def feasible_batch(batch: np.ndarray) -> np.ndarray:
                return np.array([bool(accept_filter(row)) for row in batch],
                                dtype=bool)
            constraints = None
        else:
            feasible_batch, constraints = None, ()
        histories: List[List[float]] = [[] for _ in range(num_replicas)]
        # Single flips are the driver's own draws; a generic move generator
        # draws from the replica generators too.
        with LoopDriver(cfg.schedule, cfg.num_iterations, generators,
                        dynamics=dynamics, exchange_rng=exchange_rng,
                        shared_rng=shared_rng,
                        exclusive=single_flip) as driver:
            # Plain SA is the HyCiM sweep with every incumbent feasible: no
            # replica drifts at energy 0 and the best rule is SA's ``<``.
            # The raw energy is a copy, since exchange swaps each travelling
            # array once.
            sweep = make_hycim_kernel(
                kernel, num_variables=n, driver=driver,
                move_generator=cfg.move_generator, single_flip=single_flip,
                moves_per_iteration=cfg.moves_per_iteration,
                feasible_batch=feasible_batch,
                energies=lambda batch, replicas: batched_energies(
                    matrix, batch, offset),
                current=current, current_energy=current_energy,
                current_feasible=np.ones(num_replicas, dtype=bool),
                use_delta=single_flip, matrix=matrix,
                raw_energy=current_energy.copy(), constraints=constraints,
                use_hardware_filters=False, use_crossbar=False)
            _drive_kernel(driver, sweep, cfg.num_iterations,
                          cfg.record_history, histories, "SimulatedAnnealer",
                          count_feasible=False)

        dynamics_meta = driver.metadata()
        kernel_meta = ({} if sweep.backend == "reference"
                       else {"kernel": sweep.backend})
        return [
            SolveResult(
                best_configuration=sweep.best[k].copy(),
                best_energy=float(sweep.best_energy[k]),
                energy_history=histories[k],
                num_iterations=cfg.num_iterations * cfg.moves_per_iteration,
                num_feasible_evaluations=int(sweep.num_feasible[k]),
                num_infeasible_skipped=int(sweep.num_skipped[k]),
                num_accepted_moves=int(sweep.num_accepted[k]),
                solver_name="SimulatedAnnealer",
                metadata={"seed": cfg.seed, "vectorized": True,
                          "num_replicas": num_replicas, **kernel_meta,
                          **dynamics_meta},
            )
            for k in range(num_replicas)
        ]


class BatchedHyCiMSolver:
    """``M`` lock-step replicas of a :class:`HyCiMSolver`.

    Without ``chips`` all replicas share the solver's single set of CiM
    components -- the physically faithful picture: one programmed crossbar
    and one filter array evaluate the whole replica batch, exactly as the
    hardware evaluates a whole array in one shot.

    Parameters
    ----------
    solver:
        The solver whose model, schedule, move generator and iteration
        budget the replicas share.
    chips:
        Optional per-replica chip list: a :class:`VariabilityModel` (one
        freshly sampled chip) or ``None`` (nominal filter cells).  In
        hardware mode the engine then builds *device-axis* filters and
        crossbar -- replica ``k`` runs on chip ``k``'s sampled cells and
        draws its read noise from chip ``k``'s stream -- and never programs
        the solver's shared hardware.
        Each chip's model is consumed in the solver's programming order
        (filters in constraint order, working before replica array), so chip
        ``k`` is identical to the hardware a one-replica trial with the same
        model would build.
    chip_seeds:
        Per-replica crossbar/ADC seeds used when ``chips`` is given: chip
        ``k`` draws its crossbar ON-current factors, read noise and ADC
        noise from ``chip_seeds[k]``, mirroring the per-trial
        ``CrossbarConfig`` seed of a one-replica trial.
    """

    def __init__(self, solver: HyCiMSolver,
                 chips: Optional[Sequence[Optional[VariabilityModel]]] = None,
                 chip_seeds: Optional[Sequence[Optional[int]]] = None) -> None:
        self.solver = solver
        self.chips = list(chips) if chips is not None else None
        self._device_filters: Optional[Dict[int, InequalityFilter]] = None
        self._device_crossbar: Optional[FeFETCrossbar] = None
        if self.chips is not None and solver.use_hardware:
            # One filter/crossbar *slice* per chip along the device axis.
            seeds = (list(chip_seeds) if chip_seeds is not None
                     else [None] * len(self.chips))
            if len(seeds) != len(self.chips):
                raise ValueError("need one chip seed per chip")
            self._device_filters, self._device_crossbar = (
                solver._program_chip(self.chips, seeds))

    # ------------------------------------------------------------------ #
    # Batched evaluation primitives
    # ------------------------------------------------------------------ #
    def _filters(self) -> Dict[int, InequalityFilter]:
        """The CiM filter of each inequality constraint, by its index."""
        if self._device_filters is not None:
            return self._device_filters
        return self.solver.inequality_filters

    def _noisy_filters(self) -> bool:
        """Whether a filter's matchline draws from the replica generators."""
        return any(f.config.noise_sigma > 0 for f in self._filters().values())

    def _feasibility(self, generators: Sequence[np.random.Generator]
                     ) -> BatchFilter:
        """The run's feasibility test over an ``(M, n)`` batch, chosen once.

        Inequality constraints go to their CiM filter and the others to
        exact arithmetic.  Noise-free filters judge the whole batch in one
        shot per filter -- one device-axis shot covering every chip when
        per-replica chips are in play -- and the constraints without a
        filter (all of them in software mode) in one
        :func:`~repro.core.constraints.all_satisfied` call.  A noisy
        matchline draws per candidate and the check short-circuits across
        constraints, so the only way to keep every replica's stream is to
        check replica by replica, each on its own chip slice.
        """
        constraints = self.solver.model.constraints
        device_mode = self._device_filters is not None
        filters = self._filters()
        if self._noisy_filters():
            checks = [(filters.get(index), constraint)
                      for index, constraint in enumerate(constraints)]

            def feasible(x: np.ndarray, replica: int) -> bool:
                chip = replica if device_mode else 0
                for hardware_filter, constraint in checks:
                    if hardware_filter is not None:
                        passed = hardware_filter.is_feasible(
                            x, rng=generators[replica], device=chip)
                    else:
                        passed = constraint.is_satisfied(x)
                    if not passed:
                        return False
                return True

            return lambda batch: np.array(
                [feasible(batch[k], k) for k in range(batch.shape[0])],
                dtype=bool)
        tests: List[BatchFilter] = [
            hardware_filter.is_feasible_devices if device_mode
            else hardware_filter.is_feasible_batch
            for hardware_filter in filters.values()]
        exact = tuple(constraint for index, constraint in enumerate(constraints)
                      if index not in filters)
        if exact or not tests:  # one call, also for no constraint at all
            tests.append(functools.partial(all_satisfied, exact))
        if len(tests) == 1:
            return tests[0]

        def all_pass(batch: np.ndarray) -> np.ndarray:
            verdicts = np.ones(batch.shape[0], dtype=bool)
            for test in tests:
                verdicts &= test(batch)
            return verdicts

        return all_pass

    def _energies(self, batch: np.ndarray,
                  replicas: Optional[np.ndarray] = None) -> np.ndarray:
        """Batched QUBO values of *feasible* rows (crossbar or exact).

        ``replicas`` names the replica (= chip, when a device axis is
        active) index of each batch row, so every row is evaluated on its
        own chip's crossbar slice.
        """
        if self._device_crossbar is not None:
            return self._device_crossbar.compute_energies_devices(
                batch[:, None, :], devices=replicas)[:, 0]
        crossbar = self.solver.crossbar
        if crossbar is not None:
            return crossbar.compute_energies(batch)
        qubo = self.solver.model.qubo
        return batched_energies(qubo.matrix, batch, qubo.offset)

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def solve_batch(self, initials: np.ndarray,
                    rngs: Sequence[np.random.Generator],
                    dynamics: Optional[Dynamics] = None,
                    exchange_rng: Optional[np.random.Generator] = None,
                    shared_rng: Optional[np.random.Generator] = None,
                    kernel: Optional[str] = None,
                    ) -> List[SolveResult]:
        """Run one HyCiM SA descent per replica, in lock-step.

        The paper's flow for every replica: inequality filtering first
        (batched), QUBO computation on feasible candidates only (batched),
        then the per-replica Metropolis rule; infeasible incumbents drift
        freely at energy 0 (paper Eq. (6)).

        ``dynamics`` plugs in a temperature ladder, replica exchange across
        the lock-step batch and/or the chip-faithful shared RNG topology
        (with the matching ``exchange_rng`` / ``shared_rng`` auxiliary
        streams); the default dynamics keep every replica on its own
        stream.  Exchange swaps travelling state -- configurations,
        energies, feasibility flags, cached raw energies and kernel caches
        -- between rungs; on a device axis the chips stay put (replica ``k``
        keeps annealing chip ``k``, only its configuration migrates).

        ``kernel`` selects the sweep-kernel backend; the fused/JIT kernels
        cover the software-mode single-flip configuration (exact on integer
        data), hardware modes run on the reference backend (what ``"auto"``
        falls back to).
        """
        solver = self.solver
        n = solver.model.num_variables
        current = as_replica_matrix(initials, n).copy()
        num_replicas = current.shape[0]
        generators = _check_replica_generators(rngs, num_replicas)
        if self.chips is not None and len(self.chips) != num_replicas:
            raise ValueError(
                f"need one chip per replica: got {len(self.chips)} chips for "
                f"{num_replicas} replicas"
            )

        feasible_batch = self._feasibility(generators)
        current_feasible = feasible_batch(current)
        current_energy = np.zeros(num_replicas)
        feasible_idx = np.flatnonzero(current_feasible)
        if feasible_idx.size:
            current_energy[feasible_idx] = self._energies(current[feasible_idx],
                                                          replicas=feasible_idx)

        single_flip = isinstance(solver.move_generator, SingleFlipMove)
        # Software-mode single-flip fast path: track the raw QUBO value of
        # every incumbent (feasible or not) and update it with the O(n)
        # incremental delta instead of recomputing the O(n^2) quadratic form
        # per proposal (exact on the integer matrices of the paper
        # benchmarks); the hardware path always goes through the batched
        # crossbar MVM.
        use_crossbar = solver.use_hardware
        use_delta = single_flip and not use_crossbar
        qubo = solver.model.qubo
        raw_energy = (batched_energies(qubo.matrix, current, qubo.offset)
                      if use_delta else None)
        use_hardware_filters = bool(self._filters())
        histories: List[List[float]] = [[] for _ in range(num_replicas)]
        # Noisy matchlines draw from the replica generators per candidate.
        with LoopDriver(solver.schedule, solver.num_iterations, generators,
                        dynamics=dynamics, exchange_rng=exchange_rng,
                        shared_rng=shared_rng,
                        exclusive=single_flip and not self._noisy_filters()
                        ) as driver:
            sweep = make_hycim_kernel(
                kernel, num_variables=n, driver=driver,
                move_generator=solver.move_generator, single_flip=single_flip,
                moves_per_iteration=solver.moves_per_iteration,
                feasible_batch=feasible_batch, energies=self._energies,
                current=current, current_energy=current_energy,
                current_feasible=current_feasible, use_delta=use_delta,
                matrix=qubo.matrix, raw_energy=raw_energy,
                constraints=solver.model.constraints,
                use_hardware_filters=use_hardware_filters,
                use_crossbar=use_crossbar)
            _drive_kernel(driver, sweep, solver.num_iterations,
                          solver.record_history, histories, "HyCiM",
                          count_feasible=True)

        best = sweep.best
        best_energy = sweep.best_energy
        best_feasible = sweep.best_feasible
        native = solver._native_problem
        objectives: List[Optional[float]] = [None] * num_replicas
        if native is not None:
            # Infeasible best states score 0 (paper Eq. (6)); the feasible
            # ones are scored in one call.
            scored = np.zeros(num_replicas)
            scored[best_feasible] = native.objective_batch(best[best_feasible])
            objectives = scored.tolist()
        dynamics_meta = driver.metadata()
        kernel_meta = ({} if sweep.backend == "reference"
                       else {"kernel": sweep.backend})
        results: List[SolveResult] = []
        for k in range(num_replicas):
            results.append(SolveResult(
                best_configuration=best[k].copy(),
                best_energy=float(best_energy[k]),
                best_objective=objectives[k],
                feasible=bool(best_feasible[k]),
                energy_history=histories[k],
                num_iterations=solver.num_iterations * solver.moves_per_iteration,
                num_feasible_evaluations=int(sweep.num_feasible[k]),
                num_infeasible_skipped=int(sweep.num_skipped[k]),
                num_accepted_moves=int(sweep.num_accepted[k]),
                solver_name="HyCiM",
                metadata={
                    "use_hardware": solver.use_hardware,
                    "seed": solver.seed,
                    "num_constraints": solver.model.num_constraints,
                    "vectorized": True,
                    "num_replicas": num_replicas,
                    **({"num_chips": len(self.chips)}
                       if self.chips is not None else {}),
                    **kernel_meta,
                    **dynamics_meta,
                },
            ))
        return results
