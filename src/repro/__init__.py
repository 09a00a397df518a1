"""HyCiM reproduction: a hybrid computing-in-memory QUBO solver framework.

This package reproduces "HyCiM: A Hybrid Computing-in-Memory QUBO Solver for
General Combinatorial Optimization Problems with Inequality Constraints"
(Qian et al., DAC 2024) as a pure-Python library:

* :mod:`repro.core` -- QUBO/Ising models, the inequality-QUBO transformation
  and the D-QUBO baseline transformation.
* :mod:`repro.problems` -- COP definitions and instance generators.
* :mod:`repro.exact` -- exact / reference solvers.
* :mod:`repro.fefet` -- behavioural FeFET device and 1FeFET1R cell models.
* :mod:`repro.cim` -- CiM inequality filter, crossbar and cost model.
* :mod:`repro.dynamics` -- pluggable annealing dynamics: temperature
  schedules (precomputed tables) and per-replica ladders, move proposals,
  batched acceptance rules, and replica exchange across the lock-step batch
  (``run_trials(..., dynamics=ParallelTempering())`` turns M independent
  trials into one tempered ladder at the same sweep budget; the
  chip-faithful ``rng_mode="shared"`` runs all replicas on one stream).
* :mod:`repro.annealing` -- SA engines, the HyCiM solver and the D-QUBO
  baseline annealer (their control loops drive through the dynamics layer).
* :mod:`repro.runtime` -- the parallel solver runtime: a registry of solver
  names -> picklable factory specs, a trial executor fanning replica seeds
  out over a process pool (``run_trials``, bitwise reproducible across
  backends via ``SeedSequence.spawn`` seeding), batched campaigns over
  (instance x solver x params) grids with early stopping, portfolio racing,
  and best-of / success-rate / time-to-solution aggregation.
* :mod:`repro.batched` -- the vectorised multi-replica annealing engine
  behind ``run_trials(backend="vectorized")``: M lock-step replicas per
  instance with batched energy/filter evaluation and per-replica RNG
  streams, per-seed identical on integer-valued data to serial trials
  (one-replica runs of the same engine).
* :mod:`repro.store` -- the checkpointed campaign store: every completed
  trial persists as an append-only JSONL record under a deterministic,
  content-addressed run key, so interrupted sweeps resume
  (``run_trials(..., store=CampaignStore(dir))``) with aggregates identical
  to an uninterrupted run; ``python -m repro.store`` is the results CLI.
* :mod:`repro.telemetry` -- zero-overhead-when-off observability: span
  tracing, counters and sweep-level probes across the whole solver stack.
  Off by default (the ambient :class:`~repro.telemetry.NullRecorder` keeps
  results bit-identical and call sites behind a single ``if``); pass
  ``run_trials(..., telemetry=InMemoryRecorder())`` to capture a run or
  ``telemetry=True`` with a store to persist a JSONL sidecar that
  ``python -m repro.telemetry`` summarizes and replays.
* :mod:`repro.analysis` -- experiment runners for every table and figure,
  built on the runtime.

Running solvers at scale goes through the runtime::

    from repro import generate_qkp_instance, run_trials

    problem = generate_qkp_instance(num_items=100, density=0.5, seed=1)
    batch = run_trials(problem, solver="hycim", num_trials=100,
                       params={"move_generator": "knapsack"},
                       backend="process")
    print(batch.best_result.summary())
"""

from repro.core import InequalityQUBO, IsingModel, QUBOModel, to_dqubo, to_inequality_qubo
from repro.problems import QuadraticKnapsackProblem, generate_qkp_instance
from repro.annealing import DQUBOAnnealer, HyCiMSolver, SimulatedAnnealer
from repro.dynamics import Dynamics, ParallelTempering, TemperatureLadder
from repro.runtime import (
    SolverSpec,
    TrialBatch,
    available_solvers,
    run_campaign,
    run_portfolio,
    run_trials,
)
from repro.store import CampaignStore
from repro.telemetry import (
    InMemoryRecorder,
    JsonlRecorder,
    NullRecorder,
    current_recorder,
    set_recorder,
    use_recorder,
)

__version__ = "1.3.0"

__all__ = [
    "QUBOModel",
    "IsingModel",
    "InequalityQUBO",
    "to_inequality_qubo",
    "to_dqubo",
    "QuadraticKnapsackProblem",
    "generate_qkp_instance",
    "HyCiMSolver",
    "DQUBOAnnealer",
    "SimulatedAnnealer",
    "Dynamics",
    "ParallelTempering",
    "TemperatureLadder",
    "CampaignStore",
    "NullRecorder",
    "InMemoryRecorder",
    "JsonlRecorder",
    "current_recorder",
    "set_recorder",
    "use_recorder",
    "SolverSpec",
    "TrialBatch",
    "available_solvers",
    "run_trials",
    "run_campaign",
    "run_portfolio",
    "__version__",
]
