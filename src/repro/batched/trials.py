"""Trial functions of the annealers: one setup per solver, any group size.

Each annealer's trial setup -- building the solver from its parameter dict,
drawing the starting configurations, running the lock-step engine -- lives
here once, in the trial function the registry maps ``"hycim"``, ``"sa"`` or
``"dqubo"`` to.  It runs any number of trials (one replica per trial seed)
as one batch:

    hycim_trials(problem, params, seeds, initials) -> [SolveResult, ...]

A ``backend="serial"`` trial is the one-seed group, a vectorized chunk a
larger one; the runtime opens the telemetry span around the call and stamps
each result's trial seed and wall time
(:func:`repro.runtime.registry.run_trial_group`).  Replica ``k`` consumes
``np.random.default_rng(seeds[k])`` in the same order whatever the group
size (initial-configuration draw first, then the solver's own draws), so
the results are identical per seed to the serial path.  This is what lets :func:`repro.runtime.run_trials`
treat ``backend="vectorized"`` (and ``replicas_per_task`` groups on the
process backend) as a pure throughput knob.

Parameter dicts may carry plain values (``{"move_generator": "knapsack"}``)
or constructed schedule / move / dynamics objects; both forms pickle, and
:func:`build_dynamics` (re-exported by ``repro.runtime``) canonicalises both.

In hardware mode one rule, :func:`_trial_chips`, places the ``hycim`` and
``dqubo`` trials of a group on the hardware stack's *device axis*
(ARCHITECTURE.md).  Where a trial's chip differs from its neighbours' -- a
``variability`` template samples one per trial seed through
:func:`_build_variability` -- or draws at read time -- crossbar read noise
-- each trial occupies its own slice of the device-axis filters/crossbar,
seeded as a lone trial's chip is, so the Monte-Carlo over chips advances in
lock-step and every trial's result is independent of its group.  Every
other group reads one shared chip, which draws nothing per read.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Sequence

import numpy as np

from repro.annealing.dqubo_solver import DQUBOAnnealer
from repro.annealing.hycim import HyCiMSolver
from repro.annealing.result import SolveResult
from repro.annealing.sa import SimulatedAnnealer
from repro.batched.engine import BatchedHyCiMSolver, BatchedSimulatedAnnealer
from repro.core.dqubo import SlackEncoding
from repro.dynamics.dynamics import (
    Dynamics,
    ParallelTempering,
    exchange_stream,
    shared_stream,
)
from repro.dynamics.exchange import EvenOddExchange, ExchangePolicy, NoExchange
from repro.dynamics.moves import (
    BinPackingMove,
    KnapsackNeighborhoodMove,
    MoveGenerator,
    MultiFlipMove,
    OneHotGroupMove,
    PermutationSwapMove,
    SingleFlipMove,
)
from repro.dynamics.schedule import (
    ConstantSchedule,
    ExponentialSchedule,
    GeometricSchedule,
    LinearSchedule,
    TemperatureLadder,
    TemperatureSchedule,
)
from repro.fefet.variability import VariabilityModel
from repro.problems.base import CombinatorialProblem
from repro.problems.families import _geometric_schedule

__all__ = ["dqubo_trials", "hycim_trials", "sa_trials"]

_SCHEDULES = {
    "geometric": GeometricSchedule,
    "linear": LinearSchedule,
    "exponential": ExponentialSchedule,
    "constant": ConstantSchedule,
}

_MOVES = {
    "single_flip": SingleFlipMove,
    "multi_flip": MultiFlipMove,
    "knapsack": KnapsackNeighborhoodMove,
    "one_hot": OneHotGroupMove,
    "permutation_swap": PermutationSwapMove,
    "bin_packing": BinPackingMove,
}

_EXCHANGES = {
    "none": NoExchange,
    "even_odd": EvenOddExchange,
}

_DYNAMICS_KINDS = {
    "dynamics": Dynamics,
    "parallel_tempering": ParallelTempering,
}


# --------------------------------------------------------------------- #
# Param coercion helpers
# --------------------------------------------------------------------- #
def _build_schedule(value: Any) -> TemperatureSchedule:
    if isinstance(value, TemperatureSchedule):
        return value
    if isinstance(value, Mapping):
        payload = dict(value)
        kind = payload.pop("kind", "geometric")
        try:
            return _SCHEDULES[kind](**payload)
        except KeyError as error:
            raise ValueError(f"unknown schedule kind {kind!r}") from error
    raise TypeError("schedule must be a TemperatureSchedule or a config dict")


def _build_move(value: Any) -> MoveGenerator:
    if isinstance(value, MoveGenerator):
        return value
    if isinstance(value, str):
        value = {"kind": value}
    if isinstance(value, Mapping):
        payload = dict(value)
        kind = payload.pop("kind", None)
        if kind is None:
            raise ValueError("move generator config dicts need a 'kind' key")
        try:
            return _MOVES[kind](**payload)
        except KeyError as error:
            raise ValueError(f"unknown move generator kind {kind!r}") from error
    raise TypeError("move_generator must be a MoveGenerator, a name, or a config dict")


def _build_exchange(value: Any) -> ExchangePolicy:
    if isinstance(value, ExchangePolicy):
        return value
    if isinstance(value, str):
        value = {"kind": value}
    if isinstance(value, Mapping):
        payload = dict(value)
        kind = payload.pop("kind", "even_odd")
        try:
            return _EXCHANGES[kind](**payload)
        except KeyError as error:
            raise ValueError(f"unknown exchange kind {kind!r}") from error
    raise TypeError("exchange must be an ExchangePolicy, a name, or a config dict")


def build_dynamics(value: Any) -> Optional[Dynamics]:
    """Coerce a dynamics bundle / config dict / ``None`` into a
    :class:`~repro.dynamics.Dynamics`.

    ``run_trials`` canonicalises its ``dynamics`` parameter through this
    function *before* the store run key is computed, so a config dict and
    the equivalent constructed bundle address the same persisted run.  Dict
    form: ``{"kind": "parallel_tempering", "hottest": 8.0,
    "exchange_interval": 10}`` or ``{"kind": "dynamics", "ladder":
    [1.0, 2.0, 4.0], "exchange": {"kind": "even_odd"}, "rng_mode":
    "shared", "schedule": {"kind": "geometric", ...}}``.
    """
    if value is None:
        return None
    if isinstance(value, Dynamics):
        return value
    if isinstance(value, Mapping):
        payload = dict(value)
        kind = payload.pop("kind", "dynamics")
        if payload.get("schedule") is not None:
            payload["schedule"] = _build_schedule(payload["schedule"])
        ladder = payload.get("ladder")
        if ladder is not None and not isinstance(ladder, TemperatureLadder):
            payload["ladder"] = TemperatureLadder(tuple(ladder))
        if payload.get("exchange") is not None:
            payload["exchange"] = _build_exchange(payload["exchange"])
        try:
            factory = _DYNAMICS_KINDS[kind]
        except KeyError as error:
            raise ValueError(f"unknown dynamics kind {kind!r}") from error
        return factory(**payload)
    raise TypeError("dynamics must be a Dynamics bundle, a config dict or None")


def _resolve_schedule(problem: CombinatorialProblem, params: Mapping[str, Any],
                      dynamics: Optional[Dynamics]) -> TemperatureSchedule:
    """Schedule precedence: dynamics override > explicit param > auto."""
    if dynamics is not None and dynamics.schedule is not None:
        return dynamics.schedule
    schedule = params.get("schedule")
    if schedule is not None:
        return _build_schedule(schedule)
    return _auto_schedule(problem)


def _build_variability(value: Any, seed: int):
    """Per-trial variability model derived from a template and the trial seed.

    The caller's model (or config dict) only fixes the sigmas; every trial
    re-samples its own device deviations from a seed spawned off the trial
    seed -- each trial simulates a freshly programmed chip, identically on
    every backend.
    """
    if value is None:
        return None
    if isinstance(value, VariabilityModel):
        payload = {"threshold_sigma": value.threshold_sigma,
                   "on_current_sigma": value.on_current_sigma}
    elif isinstance(value, Mapping):
        payload = {key: val for key, val in value.items() if key != "seed"}
    else:
        raise TypeError("variability must be a VariabilityModel or a config dict")
    device_seed = int(np.random.SeedSequence([seed, 0xFEFE]).generate_state(1)[0])
    return VariabilityModel(seed=device_seed, **payload)


def _trial_chips(params: Mapping[str, Any], seeds: Sequence[int],
                 use_hardware: bool):
    """The group's chips, ``(chips, chip_seeds)``, or ``(None, None)`` where
    its trials share one chip (or, in software mode, run on none).

    A trial needs a device-axis slice of its own where its chip is its own
    (``variability`` samples one per trial seed) or draws at read time
    (``crossbar_config`` with ``current_noise_sigma > 0``): a shared noisy
    chip would hand each trial the next values of one noise stream, which
    depend on the group.  Each slice's crossbar and ADC streams restart
    from the seed a lone trial's crossbar has -- the ``crossbar_config``
    seed, else the trial seed.  Any other chip draws nothing per read, so
    the group shares one.
    """
    if not use_hardware:
        return None, None
    variability = params.get("variability")
    config = params.get("crossbar_config")
    if variability is None and (config is None
                                or config.current_noise_sigma == 0):
        return None, None
    chips = [_build_variability(variability, int(seed)) for seed in seeds]
    chip_seeds = [config.seed if config is not None else int(seed)
                  for seed in seeds]
    return chips, chip_seeds


def _auto_schedule(problem: CombinatorialProblem) -> TemperatureSchedule:
    """The instance-scaled geometric schedule of the ``analysis`` protocol
    (:func:`repro.problems.families._geometric_schedule`), scaled by the
    largest objective coefficient so uphill moves remain possible early in
    the anneal.

    The scale is read from the problem's profit/coefficient data directly
    when available -- building the full O(n^2) QUBO matrix per trial just to
    read its largest entry would dominate short trials at paper scale.
    """
    profits = getattr(problem, "profits", None)
    if profits is not None and np.size(profits):
        scale = float(np.max(np.abs(profits)))
    else:
        try:
            scale = float(problem.to_qubo().max_abs_coefficient)
        except Exception:
            scale = 1.0
    return _build_schedule(_geometric_schedule(scale))


def _dynamics_setup(params: Mapping[str, object], seeds: Sequence[int]):
    """Resolve the group's dynamics bundle, its exchange stream and its
    replica generators.

    The exchange and shared streams are spawned from the group's trial seeds
    (tagged ``SeedSequence`` material), so they are deterministic per
    ``(master_seed, group)``, independent of every replica's own stream, and
    replayed exactly by a store-resumed run.  Each replica gets its own
    stream, or in chip-faithful shared mode an alias of the one shared
    stream: then every per-replica draw site -- initial configurations,
    moves, verdicts, noisy-filter draws -- consumes it sequentially, like
    the physical SA logic would.
    """
    dynamics = build_dynamics(params.get("dynamics"))
    exchange_rng = (exchange_stream(seeds)
                    if dynamics is not None and dynamics.exchange.is_active
                    else None)
    if dynamics is not None and dynamics.rng_mode == "shared":
        rngs = [shared_stream(seeds)] * len(seeds)
    else:
        rngs = [np.random.default_rng(int(seed)) for seed in seeds]
    return dynamics, exchange_rng, rngs


def _replica_starts(problem: CombinatorialProblem, params: Mapping[str, object],
                    rngs: Sequence[np.random.Generator],
                    initials: Sequence[Optional[np.ndarray]]) -> np.ndarray:
    """Per-replica starting configurations: ``initials[k]`` where given,
    else drawn from ``rngs[k]``, in replica order, by the
    ``params["initial"]`` policy.

    ``"feasible"`` (default) draws a random feasible configuration -- all
    of them in one
    :meth:`~repro.problems.base.CombinatorialProblem.random_feasible_configurations`
    call -- ``"random"`` a uniform binary vector and ``"zeros"`` the empty
    selection (the erased-chip state of Fig. 7(f)).  Replicas with an
    explicit initial state draw nothing.
    """
    policy = params.get("initial", "feasible")
    missing = [k for k, initial in enumerate(initials) if initial is None]
    n = problem.num_variables
    if policy == "feasible":
        drawn = problem.random_feasible_configurations(
            [rngs[k] for k in missing])
    elif policy == "random":
        drawn = [rngs[k].integers(0, 2, size=n).astype(float)
                 for k in missing]
    elif policy == "zeros":
        drawn = [np.zeros(n)] * len(missing)
    else:
        raise ValueError(f"unknown initial-state policy {policy!r}")
    starts = list(initials)
    for k, row in zip(missing, drawn):
        starts[k] = row
    return np.stack([np.asarray(start, dtype=float) for start in starts])


def hycim_trials(
    problem: CombinatorialProblem,
    params: Mapping[str, object],
    seeds: Sequence[int],
    initials: Sequence[Optional[np.ndarray]],
) -> List[SolveResult]:
    """Run the ``"hycim"`` trials of ``seeds`` as one lock-step replica batch.

    All replicas share one :class:`HyCiMSolver` instance's model and
    schedule.  In hardware mode they also share its hardware (one
    programmed crossbar, one filter per constraint), unless
    :func:`_trial_chips` gives each trial a chip of its own on the engine's
    device axis -- chip ``k``'s cells sampled from the model
    :func:`_build_variability` derives from ``seeds[k]`` where a
    ``variability`` template is set, its crossbar/ADC streams restarted
    from the seed a lone trial's crossbar has -- so a trial's result does
    not depend on its group.
    """
    dynamics, exchange_rng, rngs = _dynamics_setup(params, seeds)
    use_hardware = bool(params.get("use_hardware", True))
    solver = HyCiMSolver(
        problem,
        use_hardware=use_hardware,
        num_iterations=int(params.get("num_iterations", 1000)),
        moves_per_iteration=int(params.get("moves_per_iteration", 1)),
        schedule=_resolve_schedule(problem, params, dynamics),
        move_generator=_build_move(
            params.get("move_generator", "single_flip")),
        filter_rows=int(params.get("filter_rows", 16)),
        crossbar_config=params.get("crossbar_config"),
        matchline_noise_sigma=float(
            params.get("matchline_noise_sigma", 0.0)),
        record_history=bool(params.get("record_history", False)),
    )
    chips, chip_seeds = _trial_chips(params, seeds, use_hardware)
    starts = _replica_starts(problem, params, rngs, initials)
    return BatchedHyCiMSolver(solver, chips=chips,
                              chip_seeds=chip_seeds).solve_batch(
        starts, rngs, dynamics=dynamics, exchange_rng=exchange_rng,
        kernel=params.get("kernel"))


def sa_trials(
    problem: CombinatorialProblem,
    params: Mapping[str, object],
    seeds: Sequence[int],
    initials: Sequence[Optional[np.ndarray]],
) -> List[SolveResult]:
    """Run the ``"sa"`` trials of ``seeds`` as one lock-step replica batch.

    Software SA on the objective QUBO with feasibility rejection:
    ``problem.to_qubo()`` deliberately omits inequality constraints for
    knapsack-type problems, so an unconstrained anneal would drift over
    capacity.  By default infeasible candidates are rejected through the
    problem's vectorised
    :meth:`~repro.problems.base.CombinatorialProblem.is_feasible_batch` (one
    constraint evaluation for all replicas; problems without a vectorised
    override fall back to row-wise ``is_feasible`` calls with identical
    verdicts).  ``respect_constraints=False`` anneals the raw QUBO.
    """
    dynamics, exchange_rng, rngs = _dynamics_setup(params, seeds)
    annealer = SimulatedAnnealer(
        schedule=_resolve_schedule(problem, params, dynamics),
        move_generator=_build_move(
            params.get("move_generator", "single_flip")),
        num_iterations=int(params.get("num_iterations", 1000)),
        moves_per_iteration=int(params.get("moves_per_iteration", 1)),
        record_history=bool(params.get("record_history", False)),
    )
    starts = _replica_starts(problem, params, rngs, initials)
    respect_constraints = bool(params.get("respect_constraints", True))
    # ``sparse=True`` anneals the CSR encoding (needs SciPy); the kernels
    # are duck-typed over the matrix, so everything downstream is shared.
    qubo = (problem.to_sparse_qubo() if params.get("sparse")
            else problem.to_qubo())
    results = BatchedSimulatedAnnealer(annealer).anneal(
        qubo,
        starts,
        rngs,
        accept_filter_batch=(problem.is_feasible_batch
                             if respect_constraints else None),
        dynamics=dynamics,
        exchange_rng=exchange_rng,
        kernel=params.get("kernel"),
        # The fused/JIT backends trade the opaque batch filter for
        # incrementally maintained linear constraint loads; ``None``
        # (no linear form) makes them report unsupported, which "auto"
        # turns into a reference-backend fallback.
        feasibility_constraints=(problem.linear_feasibility_constraints()
                                 if respect_constraints else None),
    )
    best = np.stack([result.best_configuration for result in results])
    feasible = problem.is_feasible_batch(best)
    objectives = iter(problem.objective_batch(best[feasible]).tolist())
    for result, verdict in zip(results, feasible.tolist()):
        result.feasible = verdict
        result.best_objective = next(objectives) if verdict else None
    return results


def dqubo_trials(
    problem: CombinatorialProblem,
    params: Mapping[str, object],
    seeds: Sequence[int],
    initials: Sequence[Optional[np.ndarray]],
) -> List[SolveResult]:
    """Run the ``"dqubo"`` trials of ``seeds`` as one lock-step replica batch.

    The D-QUBO construction (penalty + slack transformation) is shared by
    every replica, and :meth:`DQUBOAnnealer.solve_batch` runs the group:
    each replica's slack bits are seeded from its own stream, then every
    replica descends in lock-step on the HyCiM engine over the penalty
    model -- in exact arithmetic in software mode, on a crossbar in
    hardware mode (the Fig. 9 overhead configuration), which follows the
    same per-trial chip rule as ``"hycim"`` (:func:`_trial_chips`).
    """
    dynamics, exchange_rng, rngs = _dynamics_setup(params, seeds)
    use_hardware = bool(params.get("use_hardware", False))
    encoding = params.get("encoding", SlackEncoding.ONE_HOT)
    if isinstance(encoding, str):
        encoding = SlackEncoding(encoding)
    solver = DQUBOAnnealer(
        problem,
        alpha=float(params.get("alpha", 2.0)),
        beta=float(params.get("beta", 2.0)),
        encoding=encoding,
        use_hardware=use_hardware,
        num_iterations=int(params.get("num_iterations", 1000)),
        moves_per_iteration=int(params.get("moves_per_iteration", 1)),
        schedule=_resolve_schedule(problem, params, dynamics),
        move_generator=_build_move(
            params.get("move_generator", "single_flip")),
        crossbar_config=params.get("crossbar_config"),
        record_history=bool(params.get("record_history", False)),
    )
    chips, chip_seeds = _trial_chips(params, seeds, use_hardware)
    starts = _replica_starts(problem, params, rngs, initials)
    return solver.solve_batch(
        starts, rngs, dynamics=dynamics, exchange_rng=exchange_rng,
        kernel=params.get("kernel"), chips=chips, chip_seeds=chip_seeds)
