"""repro.telemetry -- zero-overhead-when-off observability for the solver stack.

Three instruments, one event stream:

- **spans** -- hierarchical timers (run -> chunk -> trial -> sweep-block);
  the single timing code path for the runtime (``TrialBatch.wall_time`` and
  ``SolveResult.wall_time`` are read off span elapsed times).
- **counters** -- cumulative tallies (trials completed, cells finished).
- **probes** -- sweep-level samples every ``probe_interval`` iterations:
  acceptance rate, per-rung exchange rate, the paper's filter rejection
  rate, best/mean energy, temperature, feasible-replica count -- shaped
  ``(M,)`` per the axis contract.

The default sink is :data:`NULL_RECORDER` (telemetry off; call sites reduce
to one ``if``).  Turn it on by passing a recorder to the runtime entry
points (``run_trials(..., telemetry=InMemoryRecorder())``), installing one
ambiently (:func:`use_recorder`), or letting a campaign store persist a
JSONL sidecar per run (``run_trials(..., store=store, telemetry=True)``,
inspected with ``python -m repro.telemetry``).

Recording crosses process boundaries by *sharding*, never by sharing: each
process-backend pool worker rebuilds a recorder from a picklable
:class:`RecorderSpec` and appends to its own ``<run_key>.w<pid>.jsonl``
shard, and the analysis layer (:mod:`repro.telemetry.shards`) folds the
shard set back into one causally ordered timeline.  ``python -m
repro.telemetry watch`` tails that shard set live, and ``bench-compare``
regression-gates the benchmark trajectory (:mod:`repro.telemetry.bench`).
"""

from repro.telemetry.analyze import (build_timeline, counter_totals,
                                     probe_rows, probe_summary, span_summary)
from repro.telemetry.recorder import (DEFAULT_PROBE_INTERVAL, InMemoryRecorder,
                                      JsonlRecorder, NullRecorder,
                                      NULL_RECORDER, RecorderSpec, Span,
                                      TelemetryError, current_recorder,
                                      load_events, set_recorder, task_scope,
                                      use_recorder, worker_attrs,
                                      worker_shard_path, worker_shard_paths)
from repro.telemetry.shards import (MAIN_SHARD, load_run_events,
                                    load_run_shards, merge_run_events)
from repro.telemetry.watch import RunWatch, ShardTailer, watch_loop

__all__ = [
    "DEFAULT_PROBE_INTERVAL",
    "InMemoryRecorder",
    "JsonlRecorder",
    "MAIN_SHARD",
    "NullRecorder",
    "NULL_RECORDER",
    "RecorderSpec",
    "RunWatch",
    "ShardTailer",
    "Span",
    "TelemetryError",
    "build_timeline",
    "counter_totals",
    "current_recorder",
    "load_events",
    "load_run_events",
    "load_run_shards",
    "merge_run_events",
    "probe_rows",
    "probe_summary",
    "set_recorder",
    "span_summary",
    "task_scope",
    "use_recorder",
    "watch_loop",
    "worker_attrs",
    "worker_shard_path",
    "worker_shard_paths",
]
