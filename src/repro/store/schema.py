"""Serialization schema and content-addressed run keys for the trial store.

Everything a :class:`~repro.store.store.CampaignStore` persists is a JSON
document produced here.  Two properties carry the whole subsystem:

* **Exact round-trip fidelity.**  ``serialize -> json -> deserialize`` is the
  identity on every deterministic field of a
  :class:`~repro.annealing.result.SolveResult`: float energies round-trip
  bit-exactly (Python's JSON encoder emits shortest-repr floats, which are
  guaranteed to parse back to the same IEEE-754 double; ``NaN`` / ``inf`` use
  the JSON extension tokens Python reads back natively), seeds are arbitrary
  precision integers, and configurations are stored as float lists.  This is
  what makes resumed aggregates identical to uninterrupted ones.
* **Deterministic run keys.**  A *run* -- one ``run_trials`` invocation -- is
  addressed by the SHA-256 of its identity: solver name + display label,
  canonicalized parameters, the instance's :func:`~repro.problems.io.content_hash`,
  the root (master) seed, the backend, and the hash of any explicit initial
  states.  Re-running with the same identity resolves to the same key, so an
  interrupted sweep finds its own partial results; anything that could change
  a trial's outcome changes the key.

Object-valued solver params (schedule / move-generator / variability
instances) are canonicalized from their public attributes, so two runs with
equal objects address the same key regardless of process or platform.  (A
config *dict* and the equivalent constructed object are distinct param
values and hash to distinct keys -- pick one spelling per campaign.)  Params
are stored for identification and inspection; deserialized specs carry them
as plain data, which is sufficient for every store operation (resume gets
its spec from the caller, never from disk).
"""

from __future__ import annotations

import enum
import hashlib
import json
import platform
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.annealing.result import SolveResult

#: Schema version stamped on every persisted document.
STORE_FORMAT_VERSION = 1


class StoreError(RuntimeError):
    """A persisted document is malformed or inconsistent with its manifest."""


# --------------------------------------------------------------------- #
# Canonicalization
# --------------------------------------------------------------------- #
def canonical_value(value: Any) -> Any:
    """Reduce ``value`` to a canonical JSON-serializable structure.

    Mappings are key-stringified (and key-sorted by the encoder), sequences
    and arrays become lists, numpy scalars become Python scalars, enums their
    values, and arbitrary objects a ``{"__class__": ..., "state": ...}``
    record built from their public attributes.  RNG values canonicalize from
    their reproducibility content: a ``SeedSequence`` by its entropy and
    spawn key, a ``Generator`` by its bit-generator state dict.

    One blind spot to know about: an object that drew *hidden* entropy at
    construction (e.g. ``VariabilityModel(seed=None)``, whose public ``seed``
    attribute stays ``None`` while a private stream holds fresh OS entropy)
    canonicalizes identically across processes.  The built-in solvers are
    immune -- their trial functions re-derive all per-trial randomness from
    the spawned trial seed -- but custom solvers that consume such an
    object's own stream should give it an explicit seed when running against
    a store, or the run key cannot distinguish the differing entropy.

    (Deliberately distinct from :func:`repro.problems.io._canonical_content`,
    which erases numeric dtype/int-float distinctions because it addresses
    mathematical *content*; params here keep value fidelity -- ``10`` and
    ``10.0`` are different parameterizations.)
    """
    if isinstance(value, Mapping):
        return {str(key): canonical_value(val) for key, val in value.items()}
    if isinstance(value, np.ndarray):
        return [canonical_value(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [canonical_value(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((canonical_value(v) for v in value),
                      key=lambda v: json.dumps(v, sort_keys=True))
    if isinstance(value, enum.Enum):
        return canonical_value(value.value)
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    if isinstance(value, np.random.SeedSequence):
        return {"__seed_sequence__": canonical_value(value.entropy),
                "spawn_key": canonical_value(value.spawn_key)}
    if isinstance(value, np.random.Generator):
        state = value.bit_generator.state
        return {"__generator__": type(value.bit_generator).__name__,
                "state": {key: canonical_value(val)
                          for key, val in sorted(state.items())}}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    state = getattr(value, "__dict__", None)
    if state is not None:
        return {
            "__class__": type(value).__name__,
            "state": {key: canonical_value(val)
                      for key, val in sorted(state.items())
                      if not key.startswith("_")},
        }
    return repr(value)


def canonical_json(value: Any) -> str:
    """Deterministic JSON rendering of :func:`canonical_value` output."""
    return json.dumps(canonical_value(value), sort_keys=True,
                      separators=(",", ":"), allow_nan=True)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def initial_states_hash(
        initial_states: Optional[Sequence[np.ndarray]]) -> Optional[str]:
    """Content hash of explicit per-trial initial states (``None`` when the
    trials draw their own starting configurations from their seeds)."""
    if initial_states is None:
        return None
    payload = [np.asarray(state, dtype=float).tolist()
               for state in initial_states]
    return _digest(canonical_json(payload))


def trial_run_key(spec: Any, instance_hash: str, master_seed: int,
                  backend: str, initials_hash: Optional[str] = None,
                  grouping: Optional[Sequence[int]] = None) -> str:
    """The deterministic store address of one ``run_trials`` invocation.

    ``spec`` is a :class:`~repro.runtime.registry.SolverSpec` (typed ``Any``
    to keep this module import-light; the runtime imports the store lazily).
    Everything that can change a trial's outcome is part of the key; trial
    *count* deliberately is not -- per-trial ``SeedSequence.spawn`` seeding
    makes trial ``i``'s result independent of how many trials run, so a
    longer re-run extends the same persisted run instead of forking it.

    The one exception is a run with *coupled* dynamics (see
    :class:`repro.dynamics.Dynamics`), where a trial's outcome depends on
    the composition of its lock-step replica group: the executor then passes
    the group structure -- ``(num_trials, chunk_size, replicas_per_task)``
    -- as ``grouping``, which becomes part of the key, so a re-run under a
    different grouping addresses a fresh run instead of silently loading
    results produced under another ladder shape.  ``grouping=None``
    (every uncoupled run) leaves the key material -- and therefore every
    previously persisted run's address -- unchanged.
    """
    material = {
        "v": STORE_FORMAT_VERSION,
        "solver": spec.solver,
        "label": spec.display_name,
        "params": canonical_value(spec.params),
        "instance": instance_hash,
        "master_seed": int(master_seed),
        "backend": backend,
        "initial_states": initials_hash,
    }
    if grouping is not None:
        material["grouping"] = [int(value) for value in grouping]
    return _digest(canonical_json(material))


# --------------------------------------------------------------------- #
# SolveResult
# --------------------------------------------------------------------- #
def serialize_solve_result(result: SolveResult) -> Dict[str, Any]:
    """One trial result as a JSON-serializable dict (schema v1)."""
    return {
        "best_configuration": np.asarray(result.best_configuration,
                                         dtype=float).tolist(),
        "best_energy": float(result.best_energy),
        "best_objective": (None if result.best_objective is None
                           else float(result.best_objective)),
        "feasible": bool(result.feasible),
        "energy_history": [float(v) for v in result.energy_history],
        "num_iterations": int(result.num_iterations),
        "num_feasible_evaluations": int(result.num_feasible_evaluations),
        "num_infeasible_skipped": int(result.num_infeasible_skipped),
        "num_accepted_moves": int(result.num_accepted_moves),
        "solver_name": str(result.solver_name),
        "trial_seed": (None if result.trial_seed is None
                       else int(result.trial_seed)),
        "wall_time": (None if result.wall_time is None
                      else float(result.wall_time)),
        "metadata": canonical_value(result.metadata),
    }


def deserialize_solve_result(payload: Mapping[str, Any]) -> SolveResult:
    """Inverse of :func:`serialize_solve_result`."""
    try:
        return SolveResult(
            best_configuration=np.asarray(payload["best_configuration"],
                                          dtype=float),
            best_energy=float(payload["best_energy"]),
            best_objective=(None if payload["best_objective"] is None
                            else float(payload["best_objective"])),
            feasible=bool(payload["feasible"]),
            energy_history=list(payload["energy_history"]),
            num_iterations=int(payload["num_iterations"]),
            num_feasible_evaluations=int(payload["num_feasible_evaluations"]),
            num_infeasible_skipped=int(payload["num_infeasible_skipped"]),
            num_accepted_moves=int(payload["num_accepted_moves"]),
            solver_name=str(payload["solver_name"]),
            trial_seed=(None if payload["trial_seed"] is None
                        else int(payload["trial_seed"])),
            wall_time=(None if payload["wall_time"] is None
                       else float(payload["wall_time"])),
            metadata=dict(payload["metadata"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise StoreError(f"malformed SolveResult payload: {error}") from error


# --------------------------------------------------------------------- #
# TrialBatch
# --------------------------------------------------------------------- #
def serialize_spec(spec: Any) -> Dict[str, Any]:
    """A solver spec as stored data (identification, not reconstruction)."""
    return {"solver": spec.solver, "params": canonical_value(spec.params),
            "label": spec.label}


def deserialize_spec(payload: Mapping[str, Any]) -> Any:
    from repro.runtime.registry import SolverSpec

    return SolverSpec(payload["solver"], dict(payload["params"]),
                      label=payload.get("label"))


def serialize_trial_batch(batch: Any, include_results: bool = True) -> Dict[str, Any]:
    """A :class:`~repro.runtime.executor.TrialBatch` as a JSON document.

    With ``include_results=False`` only the header is emitted -- the form the
    campaign log uses, where the per-trial results already live in the run's
    shards and are re-joined at load time via ``run_key``.
    """
    document = {
        "v": STORE_FORMAT_VERSION,
        "spec": serialize_spec(batch.spec),
        "problem_name": batch.problem_name,
        "backend": batch.backend,
        "master_seed": int(batch.master_seed),
        "num_trials_requested": int(batch.num_trials_requested),
        "stopped_early": bool(batch.stopped_early),
        "wall_time": float(batch.wall_time),
    }
    if include_results:
        document["results"] = [serialize_solve_result(r) for r in batch.results]
    return document


def deserialize_trial_batch(payload: Mapping[str, Any],
                            results: Optional[List[SolveResult]] = None) -> Any:
    """Inverse of :func:`serialize_trial_batch`; ``results`` supplies the
    trial list for header-only documents."""
    from repro.runtime.executor import TrialBatch

    if results is None:
        results = [deserialize_solve_result(r) for r in payload.get("results", ())]
    return TrialBatch(
        results=results,
        spec=deserialize_spec(payload["spec"]),
        problem_name=payload["problem_name"],
        backend=payload["backend"],
        master_seed=int(payload["master_seed"]),
        num_trials_requested=int(payload["num_trials_requested"]),
        stopped_early=bool(payload["stopped_early"]),
        wall_time=float(payload["wall_time"]),
    )


# --------------------------------------------------------------------- #
# CampaignRecord
# --------------------------------------------------------------------- #
def serialize_campaign_record(record: Any, run_key: Optional[str] = None,
                              include_results: bool = True) -> Dict[str, Any]:
    """A :class:`~repro.runtime.campaign.CampaignRecord` as a JSON document.

    ``run_key`` links the record's batch to its trial shards, which lets the
    campaign log drop the (already persisted) per-trial results.
    """
    return {
        "v": STORE_FORMAT_VERSION,
        "run_key": run_key,
        "problem_name": record.problem_name,
        "spec": serialize_spec(record.spec),
        "batch": serialize_trial_batch(record.batch,
                                       include_results=include_results),
        "statistics": asdict(record.statistics),
        "reference": (None if record.reference is None
                      else float(record.reference)),
        "maximize": bool(record.maximize),
    }


def deserialize_campaign_record(payload: Mapping[str, Any],
                                results: Optional[List[SolveResult]] = None) -> Any:
    """Inverse of :func:`serialize_campaign_record`."""
    from repro.runtime.aggregate import TrialStatistics
    from repro.runtime.campaign import CampaignRecord

    try:
        return CampaignRecord(
            problem_name=payload["problem_name"],
            spec=deserialize_spec(payload["spec"]),
            batch=deserialize_trial_batch(payload["batch"], results=results),
            statistics=TrialStatistics(**payload["statistics"]),
            reference=(None if payload["reference"] is None
                       else float(payload["reference"])),
            maximize=bool(payload["maximize"]),
        )
    except (KeyError, TypeError) as error:
        raise StoreError(f"malformed CampaignRecord payload: {error}") from error


# --------------------------------------------------------------------- #
# Run manifest
# --------------------------------------------------------------------- #
def run_provenance() -> Dict[str, str]:
    """The software/hardware environment a run was produced under.

    Stored on the :class:`RunManifest` for auditability; deliberately **not**
    part of the :func:`trial_run_key` material -- upgrading numpy or moving
    the store to another host must keep addressing the same persisted runs.
    """
    import repro

    return {
        "repro_version": str(repro.__version__),
        "numpy_version": str(np.__version__),
        "python_version": platform.python_version(),
        "platform": platform.platform(),
        "hostname": platform.node(),
    }


@dataclass(frozen=True)
class RunManifest:
    """Identity card of one persisted run (one line of ``manifest.jsonl``).

    Attributes mirror the :func:`trial_run_key` material plus bookkeeping
    that is useful for listing but not part of the key
    (``num_trials_requested`` -- a longer re-run raises it in place, and
    ``provenance`` -- the :func:`run_provenance` environment snapshot,
    ``None`` for manifests written before it existed).
    """

    run_key: str
    solver: str
    label: str
    params: Any
    problem_name: str
    instance_hash: str
    master_seed: int
    backend: str
    num_trials_requested: int
    provenance: Optional[Dict[str, str]] = None

    def to_dict(self) -> Dict[str, Any]:
        payload = asdict(self)
        payload["v"] = STORE_FORMAT_VERSION
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunManifest":
        try:
            return cls(
                run_key=payload["run_key"],
                solver=payload["solver"],
                label=payload["label"],
                params=payload["params"],
                problem_name=payload["problem_name"],
                instance_hash=payload["instance_hash"],
                master_seed=int(payload["master_seed"]),
                backend=payload["backend"],
                num_trials_requested=int(payload["num_trials_requested"]),
                provenance=payload.get("provenance"),
            )
        except (KeyError, TypeError) as error:
            raise StoreError(f"malformed manifest entry: {error}") from error


def manifest_for_run(spec: Any, problem: Any, instance_hash: str,
                     master_seed: int, backend: str, num_trials: int,
                     initials_hash: Optional[str] = None,
                     grouping: Optional[Sequence[int]] = None) -> RunManifest:
    """Build the manifest (and key) for one ``run_trials`` invocation."""
    return RunManifest(
        run_key=trial_run_key(spec, instance_hash, master_seed, backend,
                              initials_hash, grouping=grouping),
        solver=spec.solver,
        label=spec.display_name,
        params=canonical_value(spec.params),
        problem_name=getattr(problem, "name", type(problem).__name__),
        instance_hash=instance_hash,
        master_seed=int(master_seed),
        backend=backend,
        num_trials_requested=int(num_trials),
        provenance=run_provenance(),
    )
