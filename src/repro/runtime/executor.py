"""Parallel trial executor: N independent solver runs per problem instance.

The paper's evaluation protocol scores solvers by success rate over many
repeated SA descents per instance (Fig. 10: 1000 initial states x 100 runs).
Those trials are embarrassingly parallel; this module is the single front
door for running them at scale:

* **Deterministic seeding** -- per-trial seeds are derived with
  :meth:`numpy.random.SeedSequence.spawn` from one master seed, in the parent
  process, so the trial outcomes are *bitwise identical* regardless of the
  backend, worker count or chunk size.  The spawned seed is exposed on every
  :class:`~repro.annealing.result.SolveResult` (``trial_seed`` and
  ``metadata["seed"]``), so any individual trial of independent replicas can
  be replayed with :func:`repro.runtime.registry.run_single_trial`.
* **Backends** -- ``"process"`` fans chunks of trials out over a
  ``multiprocessing`` pool; ``"serial"`` runs them in-process (the fallback
  for debugging, profiling, and environments without fork/spawn support);
  ``"vectorized"`` advances all trials of a chunk in lock-step through the
  solver's batched replica engine (:mod:`repro.batched`) -- per-seed results
  identical to the serial backend in software mode on the integer-valued
  paper benchmarks, at an order-of-magnitude better per-replica throughput.
  Per-trial device ``variability`` runs on the engine's batch-of-chips
  device axis (each trial is one freshly sampled chip slice; see
  ARCHITECTURE.md).  ``replicas_per_task`` composes both
  levels of parallelism: each process-backend worker task runs its trials
  as vectorised replica groups of that size.
* **Chunked dispatch** -- trials are grouped into chunks of ``chunk_size``
  before being pickled to workers, amortising the per-task cost of shipping
  the problem instance.  Every backend runs one loop over the chunks, each
  completed inside its own ``chunk`` span (also when the store supplies all
  of its trials); the backends differ only in where a chunk's pending trials
  execute.  Chunks are also the early-stopping granularity:
  after each completed chunk the executor checks the target condition and
  stops dispatching further work once it is met.  A chunk that is already
  executing always runs to completion -- on the serial and vectorized
  backends up to ``chunk_size - 1`` trials beyond the triggering one still
  execute (and are reported in ``results``); on the process backend other
  chunks may additionally have started in pool workers, and those run to
  completion too, but their results are discarded when the pool is torn
  down, so they never appear in ``results``.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.annealing.result import SolveResult
from repro.kernels.base import canonical_kernel_param
from repro.problems.base import CombinatorialProblem
from repro.runtime.registry import (
    BatchedTrialFunction,
    SolverSpec,
    SpecLike,
    TrialFunction,
    as_solver_spec,
    build_dynamics,
    get_batched_trial_function,
    get_trial_function,
    run_single_trial,
)
from repro.telemetry.recorder import (
    NULL_RECORDER,
    JsonlRecorder,
    RecorderSpec,
    current_recorder,
    task_scope,
    use_recorder,
    worker_attrs,
)

#: Backends accepted by :func:`run_trials`.
BACKENDS = ("serial", "process", "vectorized")

#: One unit of dispatched work: (trial_index, trial_seed, initial or None).
_Trial = Tuple[int, int, Optional[np.ndarray]]


def derive_trial_seeds(master_seed: int, num_trials: int) -> List[int]:
    """Spawn ``num_trials`` independent 64-bit seeds from ``master_seed``.

    Uses :meth:`numpy.random.SeedSequence.spawn`, so the derived streams are
    statistically independent (no ``seed + i`` correlations) and the mapping
    from ``(master_seed, trial_index)`` to the trial seed is stable across
    processes and platforms.
    """
    if num_trials < 0:
        raise ValueError("num_trials must be non-negative")
    children = np.random.SeedSequence(master_seed).spawn(num_trials)
    return [int(child.generate_state(1, np.uint64)[0]) for child in children]


@dataclass
class TrialBatch:
    """Results of ``num_trials`` independent runs of one solver on one problem.

    Attributes
    ----------
    results:
        One :class:`SolveResult` per executed trial, in trial order.  When
        early stopping triggered, trials after the stopping chunk are absent.
    spec:
        The solver configuration that produced the batch.
    problem_name:
        Instance label (``problem.name`` when available).
    backend:
        Which executor backend ran the batch.
    master_seed:
        Seed the per-trial seeds were spawned from.
    num_trials_requested:
        The requested trial count (>= ``len(results)``).
    stopped_early:
        Whether the target condition cut the batch short.
    wall_time:
        End-to-end batch wall-clock time in seconds (includes dispatch
        overhead, unlike the per-trial ``SolveResult.wall_time``).  For a
        store-resumed run this *accumulates across sessions*: the store
        persists every invocation's run-span time under the run key, and a
        resuming invocation reports prior sessions' recorded seconds plus
        its own -- the total compute ever spent producing the run's
        persisted trials, not just the resuming invocation's (usually tiny)
        share.  Timing fields are excluded from statistics fingerprints, so
        the accumulation never perturbs result identity.
    num_loaded_from_store:
        How many of ``results`` were resumed from a
        :class:`~repro.store.CampaignStore` instead of freshly executed.
    run_key:
        The store address of this run when it was executed against a store
        (``None`` otherwise); see :func:`repro.store.trial_run_key`.
    """

    results: List[SolveResult]
    spec: SolverSpec
    problem_name: str
    backend: str
    master_seed: int
    num_trials_requested: int
    stopped_early: bool = False
    wall_time: float = 0.0
    num_loaded_from_store: int = 0
    run_key: Optional[str] = None

    @property
    def num_trials(self) -> int:
        return len(self.results)

    @property
    def best_energies(self) -> np.ndarray:
        """Per-trial best energies, in trial order."""
        return np.array([r.best_energy for r in self.results], dtype=float)

    @property
    def best_objectives(self) -> np.ndarray:
        """Per-trial native objectives (NaN where the solver reported none)."""
        return np.array(
            [np.nan if r.best_objective is None else r.best_objective
             for r in self.results],
            dtype=float,
        )

    @property
    def best_result(self) -> SolveResult:
        """The best trial: feasible results first, then lowest internal energy."""
        if not self.results:
            raise ValueError("batch contains no results")
        return min(self.results, key=lambda r: (not r.feasible, r.best_energy))


#: Chunk payload: problem, spec, single-trial fn, batched trial fn (or None),
#: replica-group size for the batched path, the chunk's trials, the chunk
#: index, the recorder spec a pool worker mirrors (None = record nothing),
#: and whether the chunk executes inside a pool worker.
_ChunkPayload = Tuple[CombinatorialProblem, SolverSpec, TrialFunction,
                      Optional[BatchedTrialFunction], int, List[_Trial],
                      int, Optional[RecorderSpec], bool]

#: Worker-side recorder cache: one shard recorder per sidecar path per
#: process, so a pool worker keeps appending to its own shard across chunks
#: instead of reopening (and re-repairing) the file per task.
_WORKER_RECORDERS: Dict[str, JsonlRecorder] = {}


def _worker_recorder(spec: Optional[RecorderSpec]):
    """The recorder a pool worker reports to while executing a chunk.

    Always installed inside workers -- a fork-started worker inherits the
    parent's ambient recorder, and letting it write to the parent's sidecar
    would violate the single-writer rule -- so ``None`` (no recording
    requested) maps to the :data:`~repro.telemetry.recorder.NULL_RECORDER`
    rather than "keep whatever is ambient".
    """
    if spec is None:
        return NULL_RECORDER
    recorder = _WORKER_RECORDERS.get(spec.path)
    if recorder is None or recorder._handle.closed:
        recorder = spec.build()
        _WORKER_RECORDERS[spec.path] = recorder
    return recorder


def _execute_chunk(payload: _ChunkPayload) -> List[Tuple[int, SolveResult]]:
    """Run every trial of one chunk: what each backend dispatches, in-process
    or to a pool worker.

    The trial functions are resolved in the parent and shipped inside the
    payload (module-level functions pickle by reference), so solvers added
    with :func:`repro.runtime.registry.register_solver` work on the process
    backend even under spawn/forkserver start methods, where workers
    re-import the registry without the parent's registrations.

    When a batched trial function is available and ``replicas_per_task > 1``,
    the chunk's trials advance in lock-step replica groups of that size;
    otherwise they run through the single-trial function one by one.  Both
    paths produce identical per-seed results (the batched-function contract),
    so grouping is purely a throughput knob.

    Each trial (or replica group) gets a deep copy of the solver spec, so
    stateful parameter objects (e.g. a ``VariabilityModel`` with an internal
    RNG) cannot leak state between trials -- the per-trial behaviour is then
    identical across backends, worker counts and chunk sizes.

    Inside a pool worker (``in_worker``), the chunk additionally installs
    the worker's own shard recorder (built once per process from the shipped
    :class:`RecorderSpec`) and wraps execution in a ``worker_chunk`` span
    carrying chunk/trial provenance plus the parent recorder's session id --
    the join point :mod:`repro.telemetry.shards` merges the shard on.
    Telemetry never feeds solver state, so results stay bitwise identical
    with recording on or off.
    """
    (problem, spec, trial_fn, batched_fn, replicas_per_task, trials,
     chunk_index, recorder_spec, in_worker) = payload
    if not in_worker:
        with task_scope(chunk_index):
            return _run_chunk_trials(problem, spec, trial_fn, batched_fn,
                                     replicas_per_task, trials)
    recorder = _worker_recorder(recorder_spec)
    worker = getattr(recorder, "worker", None) or f"w{os.getpid()}"
    with use_recorder(recorder), task_scope(chunk_index, worker=worker):
        attrs: Dict[str, Any] = dict(
            chunk=chunk_index, trials=len(trials),
            first_trial=trials[0][0] if trials else None,
            last_trial=trials[-1][0] if trials else None,
            **worker_attrs())
        if recorder_spec is not None and recorder_spec.parent_session:
            attrs["parent_session"] = recorder_spec.parent_session
        with recorder.span("worker_chunk", **attrs):
            return _run_chunk_trials(problem, spec, trial_fn, batched_fn,
                                     replicas_per_task, trials)


def _run_chunk_trials(problem: CombinatorialProblem, spec: SolverSpec,
                      trial_fn: TrialFunction,
                      batched_fn: Optional[BatchedTrialFunction],
                      replicas_per_task: int,
                      trials: List[_Trial]) -> List[Tuple[int, SolveResult]]:
    size = replicas_per_task if batched_fn is not None else 1
    out: List[Tuple[int, SolveResult]] = []
    for start in range(0, len(trials), size):
        group = trials[start:start + size]
        params = copy.deepcopy(spec).params
        if batched_fn is None:
            (_, seed, initial), = group
            results = [trial_fn(problem, params, int(seed), initial)]
        else:
            results = batched_fn(problem, params,
                                 [int(seed) for _, seed, _ in group],
                                 [initial for _, _, initial in group])
        for (index, _, _), result in zip(group, results):
            result.metadata.setdefault("trial_index", index)
            out.append((index, result))
    return out


@contextmanager
def _dispatch(payloads: List[_ChunkPayload], workers: Optional[int]
              ) -> Iterator[Iterator[List[Tuple[int, SolveResult]]]]:
    """Yield each payload's chunk results in chunk order: lazily in-process
    (``workers`` None, so a chunk runs inside its ``chunk`` span), or from a
    pool of up to ``workers`` processes, torn down on exit.  A run with
    nothing pending starts no pool."""
    if workers is None or not payloads:
        yield map(_execute_chunk, payloads)
        return
    with multiprocessing.get_context().Pool(
            processes=min(workers, len(payloads))) as pool:
        yield pool.imap(_execute_chunk, payloads)


def _target_reached(results: Sequence[SolveResult],
                    target_energy: Optional[float],
                    target_objective: Optional[float],
                    maximize: bool) -> bool:
    for result in results:
        if target_energy is not None and result.best_energy <= target_energy:
            return True
        if target_objective is not None and result.feasible and \
                result.best_objective is not None:
            reached = (result.best_objective >= target_objective if maximize
                       else result.best_objective <= target_objective)
            if reached:
                return True
    return False


def run_trials(
    problem: CombinatorialProblem,
    solver: SpecLike = "hycim",
    num_trials: int = 10,
    params: Optional[Mapping[str, Any]] = None,
    backend: str = "serial",
    master_seed: int = 0,
    num_workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    replicas_per_task: Optional[int] = None,
    initial_states: Optional[Sequence[np.ndarray]] = None,
    target_energy: Optional[float] = None,
    target_objective: Optional[float] = None,
    dynamics: Optional[Any] = None,
    store: Optional[Any] = None,
    resume: bool = True,
    telemetry: Optional[Any] = None,
) -> TrialBatch:
    """Run ``num_trials`` independent solver trials on ``problem``.

    Parameters
    ----------
    problem:
        Any :class:`~repro.problems.base.CombinatorialProblem`.
    solver:
        Registry name, :class:`SolverSpec`, ``(name, params)`` pair or config
        dict selecting the solver.
    num_trials:
        Independent trials (replica seeds) to run.
    params:
        Extra solver parameters merged over the spec's own params.
    backend:
        ``"serial"`` (in-process, one trial at a time -- for the annealers
        a one-replica run of the lock-step engine), ``"process"``
        (multiprocessing pool) or ``"vectorized"`` (in-process, all trials of
        a chunk advanced in lock-step through the solver's batched replica
        engine).  Serial and process are bitwise identical per seed.  The
        vectorized backend runs the same engine on more replicas at once,
        with identical per-replica random streams: bitwise identical per
        seed for integer-valued objective data (the paper's QKP benchmark
        family; every intermediate is an exactly representable float64
        integer); float-valued coefficients agree to floating-point
        tolerance, where a borderline Metropolis draw could in principle
        diverge (see :mod:`repro.batched`).  Solvers without a batched
        implementation run their vectorized chunks trial by trial, so any
        registry solver is valid on any backend.
    master_seed:
        Seed of the :class:`numpy.random.SeedSequence` the per-trial seeds
        are spawned from.
    num_workers:
        Process-pool size (defaults to the CPU count; ignored for serial).
    chunk_size:
        Trials per dispatched task *and* the early-stop check granularity.
        Defaults to 1 on the serial backend, to roughly ``num_trials /
        (4 * workers)`` on the process backend (so the problem instance is
        pickled once per chunk rather than once per trial) and to
        ``num_trials`` on the vectorized backend (one lock-step batch); pass
        an explicit value to make the early-stop granularity identical
        across backends.
    replicas_per_task:
        Lock-step replica group size used *inside* each chunk.  Defaults to
        the chunk size on the vectorized backend and to 1 (one trial at a
        time) elsewhere; pass a value > 1 on the process backend to compose both
        levels of parallelism -- chunks fan out over workers, and each
        worker advances its trials as vectorised replica groups.
    initial_states:
        Optional explicit starting configuration per trial (length must equal
        ``num_trials``); used e.g. to hand the *same* Monte-Carlo initial
        states to competing solvers.
    target_energy / target_objective:
        Early-stopping condition checked after every completed chunk: stop
        once any trial's best energy is <= ``target_energy``, or any feasible
        trial's objective reaches ``target_objective`` (direction given by
        the problem's ``is_maximization``).  The triggering chunk always runs
        to completion, so up to ``chunk_size - 1`` trials beyond the
        triggering one still execute and are included in the batch; on the
        process backend, chunks already started in other workers also run to
        completion but are discarded (see the module docstring).
    dynamics:
        Optional :class:`repro.dynamics.Dynamics` bundle (or config dict --
        both are canonicalised through
        :func:`repro.runtime.registry.build_dynamics`, so either spelling
        addresses the same store run key).  Non-coupled dynamics (a schedule
        override) apply per trial on any path.  *Coupled* dynamics --
        an active exchange policy (e.g.
        :class:`repro.dynamics.ParallelTempering`) or the chip-faithful
        ``rng_mode="shared"`` -- make the replicas of each lock-step group
        interact, so the executor routes every replica group (default: the
        whole batch as one group, override with ``chunk_size`` /
        ``replicas_per_task``) through the solver's batched engine on *all*
        backends; solvers without a batched engine reject coupled dynamics.
        Trial ``i``'s result then depends on its group composition -- still
        deterministic per ``(master_seed, grouping)``, and resumable: the
        store keys coupled runs by their grouping (``num_trials`` /
        ``chunk_size`` / ``replicas_per_task``), so resuming with identical
        arguments finds the persisted run, a different grouping addresses a
        fresh one, and a partially persisted group re-runs whole.
    store:
        Optional :class:`repro.store.CampaignStore`.  Every completed trial
        is appended to it under a deterministic run key (solver + params +
        instance content hash + master seed + backend + initial states), so
        an interrupted batch can be resumed.
    resume:
        With a store, skip trials already persisted under this run key
        (default).  Because each trial's seed is spawned independently from
        the master seed, the union of persisted and freshly executed trials
        is identical to an uninterrupted run -- modulo the wall-clock timing
        fields, exactly like :func:`replay_trial`.  Pass ``resume=False`` to
        re-execute (and overwrite) persisted trials.
    telemetry:
        Where to send spans, counters and probes (:mod:`repro.telemetry`).
        ``None`` (default) reports to the ambient recorder -- the
        :class:`~repro.telemetry.NullRecorder` unless one was installed with
        :func:`repro.telemetry.use_recorder` -- so telemetry is off unless
        asked for.  Pass a recorder instance (e.g.
        :class:`~repro.telemetry.InMemoryRecorder`) to capture this run, or
        ``telemetry=True`` with a ``store`` to persist a JSONL sidecar under
        the run key (``store.telemetry_path(run_key)``; inspect with
        ``python -m repro.telemetry``).  Telemetry never consumes solver
        RNG, so results are bit-identical with any recorder.  On the
        ``"process"`` backend a live recorder handle is never shipped to
        pool workers (a sidecar needs a single writer): when the recorder
        has an on-disk identity (``telemetry=True`` or a passed
        :class:`~repro.telemetry.JsonlRecorder`), each worker instead
        builds its own recorder from a picklable
        :class:`~repro.telemetry.RecorderSpec` and appends worker-side
        spans, counters and sweep probes to a per-worker shard
        (``telemetry/<run_key>.w<pid>.jsonl``) that the analysis layer
        merges back into one timeline (:mod:`repro.telemetry.shards`);
        in-memory recorders have no cross-process identity, so their
        workers record nothing while the parent still records run/chunk
        spans and counters.
    """
    if num_trials < 1:
        raise ValueError("num_trials must be positive")
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
    if backend == "process":
        if num_workers is None:
            num_workers = max(1, os.cpu_count() or 1)
        elif num_workers < 1:
            raise ValueError("num_workers must be positive")
    if telemetry is True and store is None:
        raise ValueError(
            "telemetry=True persists a JSONL sidecar under a store run key "
            "and therefore needs store=...; pass a recorder instance to "
            "capture telemetry without a store")
    spec = as_solver_spec(solver)
    if params:
        spec = spec.with_params(**dict(params))
    # Canonicalise the dynamics (explicit argument wins over a params entry)
    # *before* the store run key is derived, so a config dict and the
    # equivalent constructed bundle address the same persisted run.
    resolved_dynamics = build_dynamics(
        dynamics if dynamics is not None else spec.params.get("dynamics"))
    if resolved_dynamics is not None:
        spec = spec.with_params(dynamics=resolved_dynamics)
    coupled = resolved_dynamics is not None and resolved_dynamics.coupled
    # Canonicalise the sweep-kernel / sparse-matrix params the same way:
    # the defaults (kernel="reference", sparse=False) are *dropped*, so every
    # run key minted before the kernel layer existed stays valid, while
    # non-default values stay in the params and address their own runs.
    kernel_param = canonical_kernel_param(spec.params.get("kernel"))
    canonical_params = dict(spec.params)
    if kernel_param is None:
        canonical_params.pop("kernel", None)
    else:
        canonical_params["kernel"] = kernel_param
    if "sparse" in canonical_params:
        if canonical_params["sparse"]:
            canonical_params["sparse"] = True
        else:
            del canonical_params["sparse"]
    if canonical_params != dict(spec.params):
        spec = SolverSpec(spec.solver, canonical_params, label=spec.label)
    if chunk_size is None:
        if coupled:
            # One replica-exchange ladder / shared-stream group per run, on
            # every backend; override chunk_size for several smaller groups.
            chunk_size = num_trials
        elif backend == "process":
            chunk_size = max(1, -(-num_trials // (4 * num_workers)))
        elif backend == "vectorized":
            chunk_size = num_trials
        else:
            chunk_size = 1
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    if replicas_per_task is None:
        replicas_per_task = (chunk_size if backend == "vectorized" or coupled
                             else 1)
    if replicas_per_task < 1:
        raise ValueError("replicas_per_task must be positive")
    if initial_states is not None:
        initial_states = [np.asarray(s, dtype=float) for s in initial_states]
        if len(initial_states) != num_trials:
            raise ValueError(
                f"initial_states has {len(initial_states)} entries for {num_trials} trials"
            )

    seeds = derive_trial_seeds(master_seed, num_trials)
    trials: List[_Trial] = [
        (index, seeds[index],
         initial_states[index] if initial_states is not None else None)
        for index in range(num_trials)
    ]
    chunks = [trials[start:start + chunk_size]
              for start in range(0, num_trials, chunk_size)]
    trial_fn = get_trial_function(spec.solver)
    batched_fn = get_batched_trial_function(spec.solver)
    if coupled and batched_fn is None:
        raise ValueError(
            f"solver {spec.solver!r} has no batched trial function, so it "
            "cannot run coupled dynamics (replica exchange / shared RNG)")
    if ((kernel_param is not None or spec.params.get("sparse"))
            and batched_fn is None):
        raise ValueError(
            f"solver {spec.solver!r} has no batched trial function, so it "
            "cannot honour params['kernel'] / params['sparse'] (the sweep-"
            "kernel backends live in the lock-step engines)")
    maximize = getattr(problem, "is_maximization", True)

    # Store wiring (lazy import: repro.store's schema imports runtime types).
    run_key: Optional[str] = None
    persisted: Dict[int, SolveResult] = {}
    if store is not None:
        from repro.problems.io import content_hash
        from repro.store.schema import initial_states_hash, manifest_for_run

        manifest = manifest_for_run(
            spec, problem, content_hash(problem), master_seed, backend,
            num_trials, initials_hash=initial_states_hash(initial_states),
            # Coupled trial outcomes depend on the replica-group structure,
            # so it is part of the run key; a re-run with a different
            # num_trials / chunking addresses a fresh run instead of
            # silently loading another grouping's results.
            grouping=((num_trials, chunk_size, replicas_per_task)
                      if coupled else None))
        run_key = store.register_run(manifest).run_key
        if resume:
            persisted = {
                index: result
                for index, result in store.load_results(run_key).items()
                if index < num_trials
            }
            for index, result in persisted.items():
                if result.trial_seed is not None and \
                        result.trial_seed != seeds[index]:
                    raise ValueError(
                        f"store run {run_key[:12]}... holds trial {index} with "
                        f"seed {result.trial_seed}, expected {seeds[index]} -- "
                        "the store contents do not match this invocation"
                    )

    # Telemetry wiring: a passed recorder (or the store sidecar recorder for
    # telemetry=True) becomes ambient for the run, so the trial functions,
    # engines and LoopDriver report to it without threading it through
    # solver params (which would perturb the deterministic store run keys).
    created_recorder = None
    if telemetry is True:
        created_recorder = store.telemetry_recorder(run_key)
        recorder = created_recorder
    elif telemetry is not None:
        recorder = telemetry
    else:
        recorder = current_recorder()
    prior_wall_time = 0.0
    if store is not None and resume:
        prior_wall_time = store.accumulated_wall_time(run_key)

    has_target = target_energy is not None or target_objective is not None
    collected: List[Tuple[int, SolveResult]] = []
    num_loaded = 0
    stopped_early = False

    # Per-chunk pending work (trials without a persisted result).  Chunk
    # boundaries -- and therefore early-stop granularity -- are identical
    # with and without persisted trials, which is what makes an interrupted
    # + resumed batch reproduce the uninterrupted result set exactly.
    # Coupled dynamics make each chunk's replica groups one unit of
    # execution, so a chunk with any missing trial re-runs whole (the store's
    # append-only overwrite keeps the re-appended, identical results
    # consistent); fully persisted chunks still load without re-running.
    if coupled:
        pending_per_chunk = [
            list(chunk) if any(t[0] not in persisted for t in chunk) else []
            for chunk in chunks
        ]
    else:
        pending_per_chunk = [[t for t in chunk if t[0] not in persisted]
                             for chunk in chunks]

    def _complete_chunk(chunk: List[_Trial],
                        fresh: List[Tuple[int, SolveResult]]) -> bool:
        """Merge persisted + fresh results of one chunk; True = stop."""
        nonlocal num_loaded, stopped_early
        if store is not None:
            for index, result in fresh:
                store.append_result(run_key, index, result)
        fresh_by_index = dict(fresh)
        chunk_results = []
        loaded_here = 0
        for index, _, _ in chunk:
            if index in fresh_by_index:
                chunk_results.append((index, fresh_by_index[index]))
            else:
                chunk_results.append((index, persisted[index]))
                num_loaded += 1
                loaded_here += 1
        collected.extend(chunk_results)
        if recorder.enabled:
            if fresh:
                recorder.counter("trials_completed", len(fresh))
            if loaded_here:
                recorder.counter("trials_loaded_from_store", loaded_here)
        if has_target and _target_reached([r for _, r in chunk_results],
                                          target_energy, target_objective,
                                          maximize):
            stopped_early = len(collected) < num_trials
            return True
        return False

    problem_name = getattr(problem, "name", problem.__class__.__name__)
    # One chunk loop for every backend; only the dispatch differs.  Pool
    # workers rebuild a single-writer shard recorder from a picklable spec
    # (None unless the parent records to a JSONL sidecar).
    in_worker = backend == "process"
    worker_spec = recorder.worker_spec() if in_worker else None
    group_fn = batched_fn if replicas_per_task > 1 or coupled else None
    payloads = [(problem, spec, trial_fn, group_fn, replicas_per_task,
                 pending, number, worker_spec, in_worker)
                for number, pending in enumerate(pending_per_chunk) if pending]
    # The run span is the batch's single timing source; its elapsed time is
    # read back even when the run dies mid-chunk (the span exits with the
    # exception), so the store's accumulated wall time includes interrupted
    # sessions.
    run_span = recorder.span("run", solver=spec.solver, problem=problem_name,
                             backend=backend, trials=num_trials)
    try:
        with use_recorder(recorder), run_span, _dispatch(
                payloads, num_workers if in_worker else None) as fresh_chunks:
            for number, (chunk, pending) in enumerate(
                    zip(chunks, pending_per_chunk)):
                with recorder.span("chunk", index=number, trials=len(chunk),
                                   fresh=len(pending)):
                    stop = _complete_chunk(
                        chunk, next(fresh_chunks) if pending else [])
                if stop:
                    break
    finally:
        if (store is not None and run_key is not None
                and run_span.elapsed is not None):
            store.record_wall_time(run_key, run_span.elapsed)
        if created_recorder is not None:
            created_recorder.close()

    collected.sort(key=lambda pair: pair[0])
    results = [result for _, result in collected]
    if store is not None and results and batched_fn is not None:
        # Stamp the *resolved* sweep-kernel backend (what "auto" actually
        # picked) into the run's provenance snapshot.  Results carry the
        # engine's stamp whether fresh or loaded; an engine result without a
        # stamp ran on the reference backend, and a result without the
        # engine's "vectorized" marker was persisted by the scalar loops
        # that single trials ran on before they became one-replica engine
        # runs.
        metadata = results[0].metadata or {}
        if "kernel" in metadata:
            resolved = str(metadata["kernel"])
        elif metadata.get("vectorized"):
            resolved = "reference"
        else:
            resolved = "scalar"
        store.annotate_provenance(run_key, kernel_resolved=resolved)
    return TrialBatch(
        results=results,
        spec=spec,
        problem_name=problem_name,
        backend=backend,
        master_seed=master_seed,
        num_trials_requested=num_trials,
        stopped_early=stopped_early,
        wall_time=prior_wall_time + run_span.elapsed,
        num_loaded_from_store=num_loaded,
        run_key=run_key,
    )


def replay_trial(problem: CombinatorialProblem, batch: TrialBatch,
                 trial_index: int,
                 initial: Optional[np.ndarray] = None) -> SolveResult:
    """Re-run one trial of a batch from its recorded spawned seed.

    The returned result is bitwise identical to ``batch.results[trial_index]``
    (modulo wall-clock timing), which makes any interesting trial -- e.g. the
    single failing run out of a thousand -- individually debuggable.  Batches
    run with explicit ``initial_states`` must re-supply the trial's initial
    state via ``initial``; otherwise the trial re-draws it from its seed.
    A trial of coupled dynamics (replica exchange or a shared RNG) depended
    on its whole replica group, which the batch does not record, so it
    cannot be replayed alone: ``ValueError``.
    """
    if not 0 <= trial_index < len(batch.results):
        raise IndexError(f"trial index {trial_index} out of range")
    original = batch.results[trial_index]
    if original.trial_seed is None:
        raise ValueError("batch results carry no trial seeds")
    dynamics = build_dynamics(batch.spec.params.get("dynamics"))
    if dynamics is not None and dynamics.coupled:
        raise ValueError(
            "a trial of coupled dynamics depends on its whole replica group; "
            "re-run the group with run_trials and the batch's master_seed, "
            "num_trials, chunk_size and replicas_per_task instead")
    return run_single_trial(problem, batch.spec, original.trial_seed, initial)


def concatenate_batches(first: TrialBatch, second: TrialBatch) -> TrialBatch:
    """Join two batches of the same solver/problem into one.

    Used by the adaptive portfolio to fold a member's exploitation batch onto
    its exploration batch.  Results are concatenated in order (a trial's
    position in the joined batch no longer equals its original index --
    replay through ``trial_seed`` instead), wall time is summed, and the
    master seed of the *first* batch is kept as the batch's provenance.
    """
    if first.spec != second.spec:
        raise ValueError("cannot concatenate batches of different solver specs")
    if first.problem_name != second.problem_name:
        raise ValueError("cannot concatenate batches of different problems")
    return TrialBatch(
        results=list(first.results) + list(second.results),
        spec=first.spec,
        problem_name=first.problem_name,
        backend=first.backend,
        master_seed=first.master_seed,
        num_trials_requested=(first.num_trials_requested
                              + second.num_trials_requested),
        stopped_early=first.stopped_early or second.stopped_early,
        wall_time=first.wall_time + second.wall_time,
        num_loaded_from_store=(first.num_loaded_from_store
                               + second.num_loaded_from_store),
        run_key=first.run_key,
    )
