"""Checkpointed, resumable campaign store: append-only JSONL shards on disk.

Layout of a store directory::

    store/
      manifest.jsonl        # one line per registered run (identity card)
      campaigns.jsonl       # one line per campaign cell (header + statistics)
      wall_times.jsonl      # one line per run invocation (elapsed seconds)
      shards/
        <run_key>.0000.jsonl    # one line per completed trial
        <run_key>.0001.jsonl    # next shard after rotation
        ...
      telemetry/
        <run_key>.jsonl         # telemetry sidecar (spans/counters/probes)
        <run_key>.w<pid>.jsonl  # per-worker shards of process-backend runs

Durability model
----------------
Every file here is append-only JSONL under the commit rule of
:mod:`repro.jsonl`: each write appends one complete line and flushes, and
shard files rotate by simply opening the next numbered file once the active
one reaches ``shard_size`` lines -- full shards are never reopened for
writing, so a crash can damage at most the final line of the final shard of
the run being written.  That line is torn when it lacks its newline or does
not parse; :meth:`CampaignStore.load_results` treats it as "this trial never
completed" and drops it (the resume path simply re-runs that trial), and
the next append truncates it first.  The manifest, campaign and wall-time
logs follow the same rule: a write handle truncates their torn final lines
when it opens, before anything appends.  A malformed line anywhere *else* is
real corruption and raises :class:`~repro.store.schema.StoreError`.  Bulk
rewrites (:meth:`merge` targets, future compactions) go through a temp file
plus :func:`os.replace`, so readers never observe a half-written shard.

Trials are keyed ``(run_key, trial_index)``; appending the same trial again
(e.g. a ``resume=False`` re-run) is an overwrite -- later lines win at load
time, mirroring the append-only log semantics.

Concurrency model: **one writer per store directory at a time** (the runtime
appends from the parent process only), any number of concurrent readers.
Sequential writers -- a resumed campaign after a crash, a CLI merge between
campaigns, alternating store handles -- are fully supported: the append path
re-validates its cached shard position against disk and repairs a torn tail
before writing.  Two *simultaneous* writer processes on one directory are
not coordinated (no file locking) and may interleave shard lines.
"""

from __future__ import annotations

import os
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro import jsonl
from repro.annealing.result import SolveResult
from repro.store.schema import (
    RunManifest,
    StoreError,
    deserialize_campaign_record,
    deserialize_solve_result,
    serialize_campaign_record,
    serialize_solve_result,
)
from repro.telemetry.recorder import (
    DEFAULT_PROBE_INTERVAL,
    JsonlRecorder,
    load_events,
    worker_shard_paths,
)
from repro.telemetry.shards import load_run_events

_MANIFEST = "manifest.jsonl"
_CAMPAIGNS = "campaigns.jsonl"
_SHARD_DIR = "shards"
_TELEMETRY_DIR = "telemetry"
_WALL_TIMES = "wall_times.jsonl"
_SHARD_DIGITS = 4

#: CSV columns emitted by :meth:`CampaignStore.export_csv` -- one row per
#: trial, floats rendered with ``repr`` so they parse back bit-exactly.
EXPORT_CSV_COLUMNS = (
    "run_key", "problem_name", "instance_hash", "solver", "label", "backend",
    "master_seed", "trial_index", "trial_seed", "best_energy",
    "best_objective", "feasible", "num_iterations",
    "num_feasible_evaluations", "num_infeasible_skipped",
    "num_accepted_moves", "wall_time",
)


def _format_csv_value(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


class CampaignStore:
    """Durable, content-addressed storage for trial results.

    Parameters
    ----------
    root:
        Store directory; created (with parents) if missing.
    shard_size:
        Trials per shard file before rotation.  Small shards bound the blast
        radius of a torn write and keep merge copies incremental; the default
        matches a few campaign cells per file at paper scale.
    create:
        Create the directory structure if missing (the write-path default).
        Read-only tooling passes ``create=False`` so a mistyped path fails
        loudly (``FileNotFoundError``) instead of materialising an empty
        store and reporting the checkpoints "gone".
    """

    def __init__(self, root: Union[str, Path], shard_size: int = 256,
                 create: bool = True) -> None:
        if shard_size < 1:
            raise ValueError("shard_size must be positive")
        self.root = Path(root)
        self.shard_size = int(shard_size)
        if create:
            (self.root / _SHARD_DIR).mkdir(parents=True, exist_ok=True)
            # A write handle may append to every log: truncate a torn final
            # line first, or the next record would be welded onto it.
            for name in (_MANIFEST, _CAMPAIGNS, _WALL_TIMES):
                jsonl.repair(self.root / name)
        elif not self.root.is_dir():
            raise FileNotFoundError(f"no store directory at {self.root}")
        self._runs: Dict[str, RunManifest] = {}
        #: run_key -> (active shard index, lines in it, byte size); lazily
        #: discovered from disk and revalidated against it before every
        #: append, so sequential/alternating store handles stay consistent.
        self._active_shard: Dict[str, Tuple[int, int, int]] = {}
        self._load_manifest()

    # ------------------------------------------------------------------ #
    # Manifest
    # ------------------------------------------------------------------ #
    def _load_manifest(self) -> None:
        # Append-only log semantics: a run re-registered with a larger trial
        # request appends an updated line, so the latest line wins.
        for payload in jsonl.read(self.root / _MANIFEST, StoreError):
            manifest = RunManifest.from_dict(payload)
            self._runs[manifest.run_key] = manifest

    def register_run(self, manifest: RunManifest) -> RunManifest:
        """Idempotently add a run to the manifest; returns the stored entry.

        A re-registration with a higher ``num_trials_requested`` (a longer
        re-run of the same identity) raises the stored request count so
        listings reflect the largest sweep seen.
        """
        existing = self._runs.get(manifest.run_key)
        if existing is not None:
            if manifest.num_trials_requested > existing.num_trials_requested:
                self._runs[manifest.run_key] = manifest
                jsonl.append(self.root / _MANIFEST, manifest.to_dict())
            return self._runs[manifest.run_key]
        self._runs[manifest.run_key] = manifest
        jsonl.append(self.root / _MANIFEST, manifest.to_dict())
        return manifest

    def annotate_provenance(self, run_key: str, **entries: str) -> RunManifest:
        """Merge keys into a registered run's provenance snapshot.

        The runtime uses this to stamp facts only known *after* the run
        executed -- e.g. ``kernel_resolved``, the sweep-kernel backend
        ``"auto"`` actually picked.  The manifest log is last-line-wins, so
        the updated entry is re-appended with the merged provenance;
        re-annotating with already-stored values appends nothing.
        """
        manifest = self._runs.get(run_key)
        if manifest is None:
            raise KeyError(f"run {run_key!r} is not registered")
        merged = dict(manifest.provenance or {})
        merged.update({key: str(value) for key, value in entries.items()})
        if merged == (manifest.provenance or {}):
            return manifest
        updated = replace(manifest, provenance=merged)
        self._runs[run_key] = updated
        jsonl.append(self.root / _MANIFEST, updated.to_dict())
        return updated

    def runs(self) -> List[RunManifest]:
        """All registered runs, ordered by (problem, label, run_key)."""
        return sorted(self._runs.values(),
                      key=lambda m: (m.problem_name, m.label, m.run_key))

    def get_manifest(self, run_key: str) -> RunManifest:
        """The manifest of ``run_key``; accepts an unambiguous key prefix."""
        if run_key in self._runs:
            return self._runs[run_key]
        matches = [m for k, m in self._runs.items() if k.startswith(run_key)]
        if not matches:
            raise KeyError(f"no run with key (prefix) {run_key!r}")
        if len(matches) > 1:
            raise KeyError(f"run key prefix {run_key!r} is ambiguous "
                           f"({len(matches)} matches)")
        return matches[0]

    # ------------------------------------------------------------------ #
    # Trial shards
    # ------------------------------------------------------------------ #
    def _shard_paths(self, run_key: str) -> List[Path]:
        return sorted((self.root / _SHARD_DIR).glob(f"{run_key}.*.jsonl"))

    def _shard_path(self, run_key: str, index: int) -> Path:
        return self.root / _SHARD_DIR / f"{run_key}.{index:0{_SHARD_DIGITS}d}.jsonl"

    def _locate_active_shard(self, run_key: str) -> Tuple[int, int, int]:
        state = self._active_shard.get(run_key)
        if state is not None:
            # Guard against writes through another handle (a CLI merge, an
            # alternating campaign): the cache is only trusted while no
            # later shard exists *and* the active shard's on-disk size
            # matches what this handle last saw; otherwise rescan.
            index, _, size = state
            path = self._shard_path(run_key, index)
            if not self._shard_path(run_key, index + 1).exists() and \
                    (path.stat().st_size if path.exists() else 0) == size:
                return state
        shards = self._shard_paths(run_key)
        if not shards:
            state = (0, 0, 0)
        else:
            # Only the active (last) shard can end in a torn line; it is cut
            # before anything is appended behind it.  Full shards stay
            # immutable.
            last = shards[-1]
            raw = jsonl.repair(last)
            state = (int(last.name.rsplit(".", 2)[-2]), raw.count(b"\n"),
                     len(raw))
        self._active_shard[run_key] = state
        return state

    def append_result(self, run_key: str, trial_index: int,
                      result: SolveResult) -> None:
        """Persist one completed trial (crash-safe single-line append)."""
        if trial_index < 0:
            raise ValueError("trial_index must be non-negative")
        self._append_trial_payload(run_key, {
            "trial_index": int(trial_index),
            "result": serialize_solve_result(result),
        })

    def _append_trial_payload(self, run_key: str,
                              payload: Mapping[str, Any]) -> None:
        if run_key not in self._runs:
            raise KeyError(f"run {run_key!r} is not registered; call "
                           "register_run before appending results")
        index, lines, size = self._locate_active_shard(run_key)
        if lines >= self.shard_size:
            index, lines, size = index + 1, 0, 0
        written = jsonl.append(self._shard_path(run_key, index), payload)
        self._active_shard[run_key] = (index, lines + 1, size + written)

    def _iter_trial_payloads(self, run_key: str):
        """Raw ``(trial_index, line payload)`` pairs, in append order."""
        shards = self._shard_paths(run_key)
        for position, shard in enumerate(shards):
            tail_ok = position == len(shards) - 1
            for payload in jsonl.read(shard, StoreError,
                                      tolerate_torn_tail=tail_ok):
                try:
                    index = int(payload["trial_index"])
                except (KeyError, TypeError, ValueError) as error:
                    raise StoreError(
                        f"{shard}: trial line without a valid trial_index"
                    ) from error
                yield index, payload

    def load_results(self, run_key: str) -> Dict[int, SolveResult]:
        """All persisted trials of a run, keyed by trial index.

        Duplicate indices resolve to the *latest* line (append-only overwrite
        semantics); a torn final line in the final shard is dropped.
        """
        latest = {index: payload
                  for index, payload in self._iter_trial_payloads(run_key)}
        return {index: deserialize_solve_result(payload["result"])
                for index, payload in latest.items()}

    def trial_indices(self, run_key: str) -> set:
        """Indices of the persisted trials, without deserializing them --
        counting and diffing at paper scale must not materialize every
        configuration array."""
        return {index for index, _ in self._iter_trial_payloads(run_key)}

    def num_results(self, run_key: str) -> int:
        """Distinct persisted trials of a run."""
        return len(self.trial_indices(run_key))

    # ------------------------------------------------------------------ #
    # Campaign log
    # ------------------------------------------------------------------ #
    def append_campaign_record(self, record: Any, run_key: str) -> None:
        """Log one campaign cell (header + statistics; trials live in shards)."""
        if run_key not in self._runs:
            raise KeyError(f"run {run_key!r} is not registered")
        payload = serialize_campaign_record(record, run_key=run_key,
                                            include_results=False)
        jsonl.append(self.root / _CAMPAIGNS, payload)

    def load_campaign_records(self) -> List[Any]:
        """All logged campaign cells with their trial results re-joined.

        Cells logged repeatedly under the same run key (an interrupted and a
        resumed campaign, say) dedupe to the latest line.
        """
        latest: Dict[str, Mapping[str, Any]] = {}
        for payload in jsonl.read(self.root / _CAMPAIGNS, StoreError):
            key = payload.get("run_key")
            if key is None:
                raise StoreError("campaign record without a run_key")
            latest[key] = payload
        records = []
        for key, payload in sorted(latest.items()):
            stored = self.load_results(key)
            results = [stored[i] for i in sorted(stored)]
            records.append(deserialize_campaign_record(payload, results=results))
        return records

    # ------------------------------------------------------------------ #
    # Telemetry sidecars + accumulated wall time
    # ------------------------------------------------------------------ #
    def telemetry_path(self, run_key: str) -> Path:
        """Where ``run_key``'s telemetry sidecar lives (may not exist yet)."""
        return self.root / _TELEMETRY_DIR / f"{run_key}.jsonl"

    def telemetry_shard_paths(self, run_key: str) -> List[Path]:
        """Existing per-worker telemetry shards of a run (may be empty)."""
        return worker_shard_paths(self.telemetry_path(run_key))

    def telemetry_recorder(self, run_key: str,
                           probe_interval: Optional[int] = None):
        """A :class:`~repro.telemetry.JsonlRecorder` appending to the run's
        sidecar (same one-complete-line-plus-flush durability as shards; the
        recorder repairs a torn tail before its first write, so interrupted
        and resumed sessions share one well-formed file).  Opening the
        recorder also repairs the torn tails of any existing *worker* shards
        -- a SIGKILLed worker's pid never comes back to reopen its own shard,
        so the resuming parent is the only writer left to make the shard set
        well-formed before new sessions append beside it.  Caller closes it
        -- ``run_trials(..., telemetry=True)`` does this automatically.
        """
        if run_key not in self._runs:
            raise KeyError(f"run {run_key!r} is not registered; call "
                           "register_run before recording telemetry")
        for shard in self.telemetry_shard_paths(run_key):
            jsonl.repair(shard)
        return JsonlRecorder(
            self.telemetry_path(run_key),
            probe_interval=(DEFAULT_PROBE_INTERVAL if probe_interval is None
                            else probe_interval))

    def load_telemetry(self, run_key: str) -> List[Mapping[str, Any]]:
        """Committed telemetry events of a run (torn tails dropped; empty
        list when the run never recorded telemetry).  Accepts an unambiguous
        key prefix like :meth:`get_manifest`.

        A run with per-worker shards (process backend) loads as one causally
        merged timeline -- worker events tagged with their ``shard`` id and
        spliced under the parent's chunk spans
        (:mod:`repro.telemetry.shards`); a single-sidecar run loads exactly
        as before."""
        manifest = self.get_manifest(run_key)
        return load_run_events(self.telemetry_path(manifest.run_key))

    def record_wall_time(self, run_key: str, seconds: float) -> None:
        """Log one invocation's elapsed seconds against a run.

        The executor calls this after every run span -- completed or
        interrupted -- so :meth:`accumulated_wall_time` reflects the total
        compute ever spent producing the run's persisted trials.
        """
        if run_key not in self._runs:
            raise KeyError(f"run {run_key!r} is not registered")
        jsonl.append(self.root / _WALL_TIMES,
                     {"run_key": run_key, "seconds": float(seconds)})

    def accumulated_wall_time(self, run_key: str) -> float:
        """Total recorded seconds across every invocation of a run."""
        total = 0.0
        for payload in jsonl.read(self.root / _WALL_TIMES, StoreError):
            if payload.get("run_key") == run_key:
                total += float(payload.get("seconds", 0.0))
        return total

    # ------------------------------------------------------------------ #
    # Merge / export
    # ------------------------------------------------------------------ #
    def merge(self, other: "CampaignStore") -> Dict[str, int]:
        """Fold another store into this one.

        Runs unknown here are registered; trials absent here are appended
        (trials present in both keep *this* store's version -- merging never
        rewrites existing data).  Campaign log lines are carried over for
        runs this store had not logged, telemetry shard sets (sidecar plus
        per-worker shards) for runs without any telemetry here, and
        wall-time lines for runs with no recorded time here.
        Returns ``{"runs": ..., "trials": ...}`` counts of newly added
        entries.
        """
        added_runs = 0
        added_trials = 0
        for manifest in other.runs():
            if manifest.run_key not in self._runs:
                added_runs += 1
            self.register_run(manifest)
            mine = self.trial_indices(manifest.run_key)
            # Copy the raw persisted lines (latest line per index) -- merge
            # moves serialized records between stores, it never needs to
            # rebuild SolveResults.
            theirs = {index: payload for index, payload
                      in other._iter_trial_payloads(manifest.run_key)}
            for index in sorted(set(theirs) - mine):
                self._append_trial_payload(manifest.run_key, theirs[index])
                added_trials += 1
            # Telemetry is per-run observability, not mergeable result data:
            # carry the other store's shard set (main sidecar plus worker
            # shards) only when this store has no telemetry at all for the
            # run (committed events only -- torn tails stay behind).  The
            # shard set moves as a unit so a merged run's timeline stays
            # causally complete.
            my_sidecar = self.telemetry_path(manifest.run_key)
            if not my_sidecar.exists() and \
                    not self.telemetry_shard_paths(manifest.run_key):
                their_sidecar = other.telemetry_path(manifest.run_key)
                theirs = ([their_sidecar] if their_sidecar.exists() else []) \
                    + other.telemetry_shard_paths(manifest.run_key)
                for source in theirs:
                    dest = my_sidecar.with_name(source.name)
                    dest.parent.mkdir(parents=True, exist_ok=True)
                    tmp = dest.with_name(dest.name + ".tmp")
                    with tmp.open("w", encoding="utf-8") as handle:
                        for event in load_events(source):
                            handle.write(jsonl.dumps(event))
                    os.replace(tmp, dest)
        their_wall_times: Dict[str, List[Mapping[str, Any]]] = {}
        for payload in jsonl.read(other.root / _WALL_TIMES, StoreError):
            their_wall_times.setdefault(payload.get("run_key"),
                                        []).append(payload)
        mine_with_time = {
            payload.get("run_key")
            for payload in jsonl.read(self.root / _WALL_TIMES, StoreError)
        }
        for key in sorted(k for k in their_wall_times if k is not None):
            if key not in mine_with_time and key in self._runs:
                for payload in their_wall_times[key]:
                    jsonl.append(self.root / _WALL_TIMES, payload)
        seen_campaign_keys = {
            payload.get("run_key")
            for payload in jsonl.read(self.root / _CAMPAIGNS, StoreError)
        }
        for payload in jsonl.read(other.root / _CAMPAIGNS, StoreError):
            if payload.get("run_key") not in seen_campaign_keys:
                jsonl.append(self.root / _CAMPAIGNS, payload)
        return {"runs": added_runs, "trials": added_trials}

    def export_csv(self, path: Union[str, Path]) -> int:
        """Write every persisted trial as one CSV row; returns the row count.

        Floats are rendered with ``repr`` so the CSV round-trips bit-exactly
        through ``float()`` -- the analysis/reporting helpers can recompute
        success rates from the exported values and land on the numbers the
        live aggregation produced.
        """
        import csv

        rows = 0
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        with tmp.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(EXPORT_CSV_COLUMNS)
            for manifest in self.runs():
                stored = self.load_results(manifest.run_key)
                for index in sorted(stored):
                    result = stored[index]
                    writer.writerow([_format_csv_value(v) for v in (
                        manifest.run_key, manifest.problem_name,
                        manifest.instance_hash, manifest.solver,
                        manifest.label, manifest.backend,
                        manifest.master_seed, index, result.trial_seed,
                        result.best_energy, result.best_objective,
                        result.feasible, result.num_iterations,
                        result.num_feasible_evaluations,
                        result.num_infeasible_skipped,
                        result.num_accepted_moves, result.wall_time,
                    )])
                    rows += 1
        os.replace(tmp, path)
        return rows
