"""Recorders: the event sinks behind the telemetry layer.

A *recorder* receives structured events -- spans, counters, probes -- from
instrumented call sites across the solver stack and either drops them
(:class:`NullRecorder`, the default), buffers them
(:class:`InMemoryRecorder`) or appends them to a JSONL file
(:class:`JsonlRecorder`, the store sidecar format).

Zero overhead when off
----------------------
Telemetry must not tax the hot loops it observes.  Every per-iteration call
site therefore guards on a single precomputed flag::

    probe_every = recorder.probe_interval if recorder.enabled else 0
    ...
    if probe_every and (iteration + 1) % probe_every == 0:
        recorder.probe(...)

so a disabled recorder costs one integer test per iteration -- pinned below
3% on the vectorized QKP benchmark by
``benchmarks/test_bench_telemetry_overhead.py``.  Spans are the exception:
they *always* time (two ``perf_counter`` calls), because they replaced the
runtime's ad-hoc timing math as the single timing code path -- they emit
events only when the recorder is enabled.

Determinism
-----------
Recorders never consume solver RNG streams and never feed solver state, so
running with any recorder -- live or null -- produces bit-identical
trajectories, results and store fingerprints.  The ambient recorder travels
*outside* solver params for the same reason: a recorder inside the params
would perturb the store's content-addressed run keys.

Ambient recorder
----------------
Instrumented code fetches the process-wide current recorder via
:func:`current_recorder`; :func:`use_recorder` swaps it for the duration of
a ``with`` block (the executor does this around every run).

Cross-process recording
-----------------------
Live recorder *handles* never cross a process boundary (a JSONL shard must
have exactly one writer), so the executor ships workers of the
``"process"`` backend a :class:`RecorderSpec` instead -- a picklable recipe
from which each worker builds its *own* :class:`JsonlRecorder` appending to
a per-worker sidecar shard next to the parent's
(``telemetry/<run_key>.w<pid>.jsonl``).  Worker events carry a ``worker``
tag and their ``worker_chunk`` spans carry chunk/trial provenance plus the
parent recorder's session id, which is what the shard merge
(:mod:`repro.telemetry.shards`) joins the timelines on.  Recorders without
a on-disk identity (:class:`InMemoryRecorder`, :class:`NullRecorder`)
return ``None`` from :meth:`~NullRecorder.worker_spec`, and their workers
record nothing -- exactly the pre-shard behaviour.

Event schema
------------
Every event is one JSON-serializable dict carrying ``kind`` (``span_start``,
``span_end``, ``counter`` or ``probe``), ``name``, a per-recorder monotonic
``seq`` and a wall-clock ``t`` (``time.time()``).  Span events add ``span``
(id) / ``parent``; ``span_end`` adds ``elapsed`` seconds plus any attrs the
span owner :meth:`~Span.annotate`-d mid-span (facts only known once the
work ran, e.g. the resolved kernel backend).  Counter events
add ``value`` and the cumulative ``total``.  Probe events add ``iteration``
and a ``values`` mapping whose per-replica entries are ``(M,)`` lists,
matching the axis contract of the batched engines (``M = 1`` for a single
trial).
"""

from __future__ import annotations

import itertools
import os
import platform
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Union

from repro import jsonl

#: Iterations between sweep probes when the caller does not override it.
DEFAULT_PROBE_INTERVAL = 100


class TelemetryError(RuntimeError):
    """A persisted telemetry sidecar is malformed."""


# --------------------------------------------------------------------- #
# Worker context: which process/task is emitting
# --------------------------------------------------------------------- #
#: Worker label of this process ("main" in the parent / serial backends; the
#: shard id, e.g. "w12345", inside a process-backend pool worker).
_worker_id: Optional[str] = None
#: Index of the chunk/task currently executing in this process, if any.
_task_index: Optional[int] = None
_hostname: Optional[str] = None


def worker_attrs() -> Dict[str, Any]:
    """Identity of the emitting process: pid, hostname, worker label, task.

    Stamped onto ``trial`` / ``trial_group`` / ``worker_chunk`` spans on
    *every* backend, so a merged multi-process timeline and a serial one
    carry the same attribution schema (``task`` is the executor chunk index
    and is present only while a chunk is executing).
    """
    global _hostname
    if _hostname is None:
        _hostname = platform.node() or "localhost"
    attrs: Dict[str, Any] = {"pid": os.getpid(), "hostname": _hostname,
                             "worker": _worker_id or "main"}
    if _task_index is not None:
        attrs["task"] = _task_index
    return attrs


@contextmanager
def task_scope(task: Optional[int],
               worker: Optional[str] = None) -> Iterator[None]:
    """Mark the current process as executing chunk ``task``.

    The executor wraps every chunk execution -- in-process or inside a pool
    worker -- in this scope, so :func:`worker_attrs` (and therefore the
    span attribution) knows the chunk provenance without threading it
    through every solver call signature.
    """
    global _task_index, _worker_id
    previous_task, previous_worker = _task_index, _worker_id
    _task_index = task if task is None else int(task)
    if worker is not None:
        _worker_id = worker
    try:
        yield
    finally:
        _task_index, _worker_id = previous_task, previous_worker


def worker_shard_path(main_path: Union[str, Path], worker_id: str) -> Path:
    """The per-worker sidecar shard next to a main sidecar path.

    ``telemetry/<run_key>.jsonl`` -> ``telemetry/<run_key>.<worker_id>.jsonl``
    (worker ids look like ``w12345``: the worker's pid, or a task label).
    """
    main_path = Path(main_path)
    stem = main_path.name
    if stem.endswith(".jsonl"):
        stem = stem[:-len(".jsonl")]
    return main_path.with_name(f"{stem}.{worker_id}.jsonl")


def worker_shard_paths(main_path: Union[str, Path]) -> List[Path]:
    """Every existing worker shard belonging to a main sidecar path."""
    main_path = Path(main_path)
    stem = main_path.name
    if stem.endswith(".jsonl"):
        stem = stem[:-len(".jsonl")]
    if not main_path.parent.is_dir():
        return []
    return sorted(main_path.parent.glob(f"{stem}.w*.jsonl"))


@dataclass(frozen=True)
class RecorderSpec:
    """Picklable recipe for a worker-side recorder (never a live handle).

    The executor derives one from the parent's :class:`JsonlRecorder` via
    :meth:`~NullRecorder.worker_spec` and ships it inside each process-
    backend chunk payload; the worker builds its own single-writer
    :class:`JsonlRecorder` from it, appending to the worker shard named
    after its pid.  ``parent_session`` records the parent recorder's
    session id so the shard merge can join worker chunks onto the right
    parent session's chunk spans.
    """

    path: str
    probe_interval: int = DEFAULT_PROBE_INTERVAL
    parent_session: Optional[str] = None

    def shard_path(self, worker_id: str) -> Path:
        return worker_shard_path(self.path, worker_id)

    def build(self, worker_id: Optional[str] = None) -> "JsonlRecorder":
        """Open this worker's shard recorder (repairs its torn tail)."""
        worker_id = worker_id or f"w{os.getpid()}"
        recorder = JsonlRecorder(self.shard_path(worker_id),
                                 probe_interval=self.probe_interval)
        recorder.worker = worker_id
        return recorder


class Span:
    """A hierarchical timer: always times, emits only when recording.

    Spans are the runtime's *single* timing code path -- ``run_trials``, the
    batched trial functions and the single-trial functions all read their
    wall time from ``span.elapsed`` after the ``with`` block exits -- so the
    two ``perf_counter`` calls happen for every recorder, null included.
    Event emission (``span_start`` / ``span_end`` with parent links) is
    skipped entirely on a disabled recorder.
    """

    __slots__ = ("name", "attrs", "span_id", "parent_id", "elapsed",
                 "_recorder", "_started", "_late_attrs")

    def __init__(self, recorder: "NullRecorder", name: str,
                 attrs: Mapping[str, Any]) -> None:
        self._recorder = recorder
        self.name = name
        self.attrs = attrs
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None
        self.elapsed: Optional[float] = None
        self._late_attrs: Optional[Dict[str, Any]] = None

    def annotate(self, **attrs: Any) -> None:
        """Attach attrs discovered *inside* the span (emitted on its end).

        ``span_start`` fires before the work runs, so attributes only known
        afterwards -- e.g. which backend ``kernel="auto"`` actually resolved
        to -- are merged into the ``span_end`` event instead.  No-op on a
        disabled recorder.  Later calls override earlier keys.
        """
        if not self._recorder.enabled:
            return
        if self._late_attrs is None:
            self._late_attrs = {}
        self._late_attrs.update(attrs)

    def __enter__(self) -> "Span":
        recorder = self._recorder
        if recorder.enabled:
            self.span_id = recorder._next_span_id()
            stack = recorder._span_stack
            self.parent_id = stack[-1] if stack else None
            stack.append(self.span_id)
            recorder.emit({"kind": "span_start", "name": self.name,
                           "span": self.span_id, "parent": self.parent_id,
                           **jsonl.jsonable(dict(self.attrs))})
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.elapsed = time.perf_counter() - self._started
        recorder = self._recorder
        if recorder.enabled and self.span_id is not None:
            stack = recorder._span_stack
            if stack and stack[-1] == self.span_id:
                stack.pop()
            event = {"kind": "span_end", "name": self.name,
                     "span": self.span_id, "parent": self.parent_id,
                     "elapsed": self.elapsed}
            if self._late_attrs:
                event.update(jsonl.jsonable(self._late_attrs))
            recorder.emit(event)
        return False


class NullRecorder:
    """The default recorder: drops everything, costs one ``if`` per site.

    Also the base class of the real recorders -- subclasses flip
    ``enabled`` and implement :meth:`_write`.  ``subscribe`` on a null
    recorder returns a working unsubscribe handle but the callback never
    fires (nothing is emitted).
    """

    enabled = False

    def __init__(self, probe_interval: int = DEFAULT_PROBE_INTERVAL) -> None:
        if probe_interval < 1:
            raise ValueError("probe_interval must be positive")
        self.probe_interval = int(probe_interval)
        self._seq = 0
        self._span_ids = 0
        self._span_stack: List[int] = []
        self._subscribers: List[Callable[[Dict[str, Any]], None]] = []
        self._totals: Dict[str, Union[int, float]] = {}

    # -- emission ------------------------------------------------------- #
    def _next_span_id(self) -> int:
        self._span_ids += 1
        return self._span_ids

    def _write(self, event: Dict[str, Any]) -> None:
        pass

    def emit(self, event: Mapping[str, Any]) -> None:
        """Stamp ``seq``/``t`` on one event, sink it, notify subscribers."""
        if not self.enabled:
            return
        payload = dict(event)
        payload["seq"] = self._seq
        self._seq += 1
        payload["t"] = time.time()
        self._write(payload)
        for callback in tuple(self._subscribers):
            callback(payload)

    # -- instruments ---------------------------------------------------- #
    def span(self, name: str, **attrs: Any) -> Span:
        """A hierarchical timer (see :class:`Span`); use as ``with`` block."""
        return Span(self, name, attrs)

    def counter(self, name: str, value: Union[int, float] = 1,
                **attrs: Any) -> None:
        """Add ``value`` to the named cumulative counter and emit the event."""
        if not self.enabled:
            return
        total = self._totals.get(name, 0) + value
        self._totals[name] = total
        self.emit({"kind": "counter", "name": name,
                   "value": jsonl.jsonable(value),
                   "total": jsonl.jsonable(total),
                   **jsonl.jsonable(dict(attrs))})

    def probe(self, name: str, iteration: Optional[int] = None,
              values: Optional[Mapping[str, Any]] = None,
              **attrs: Any) -> None:
        """Emit one sampled measurement (per-replica values as lists)."""
        if not self.enabled:
            return
        self.emit({"kind": "probe", "name": name,
                   "iteration": None if iteration is None else int(iteration),
                   "values": jsonl.jsonable(dict(values or {})),
                   **jsonl.jsonable(dict(attrs))})

    @property
    def totals(self) -> Dict[str, Union[int, float]]:
        """Cumulative counter totals seen so far."""
        return dict(self._totals)

    def worker_spec(self) -> Optional[RecorderSpec]:
        """A picklable spec for building worker-side recorders, or ``None``.

        ``None`` (the default, inherited by :class:`InMemoryRecorder`) means
        "this recorder cannot be mirrored across a process boundary":
        process-backend workers then record nothing, as before.
        :class:`JsonlRecorder` overrides this with its sidecar identity.
        """
        return None

    # -- event bus ------------------------------------------------------ #
    def subscribe(self, callback: Callable[[Dict[str, Any]], None]
                  ) -> Callable[[], None]:
        """Call ``callback(event)`` on every emitted event.

        Returns an unsubscribe function.  This is the hook a streaming
        consumer (e.g. a future async solve service) attaches to -- events
        arrive in ``seq`` order, synchronously with the emitting call site.
        """
        self._subscribers.append(callback)

        def unsubscribe() -> None:
            try:
                self._subscribers.remove(callback)
            except ValueError:
                pass

        return unsubscribe


class InMemoryRecorder(NullRecorder):
    """Buffers every event in ``self.events`` (tests, notebooks, tuning)."""

    enabled = True

    def __init__(self, probe_interval: int = DEFAULT_PROBE_INTERVAL) -> None:
        super().__init__(probe_interval)
        self.events: List[Dict[str, Any]] = []

    def _write(self, event: Dict[str, Any]) -> None:
        self.events.append(event)

    def events_of_kind(self, kind: str) -> List[Dict[str, Any]]:
        return [e for e in self.events if e["kind"] == kind]

    def probes(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        return [e for e in self.events if e["kind"] == "probe"
                and (name is None or e["name"] == name)]


class JsonlRecorder(NullRecorder):
    """Appends one JSON line per event: the store-sidecar format.

    Follows the commit rule of every store file (:mod:`repro.jsonl`: one
    complete line per event, flushed): a crash can tear at most the final
    line -- cut short, or garbled so it no longer parses -- which
    :func:`load_events` drops and which opening the file for appending
    truncates away *before* the first new write, so events from a killed
    run and its resumed successor coexist in one well-formed file.

    Each recorder instance stamps its events with a ``session`` id (start
    time + pid + per-process counter), so a resumed run's events are
    distinguishable from the interrupted session's -- including back-to-back
    sessions inside one process; ``seq`` is monotonic per session.  A
    recorder built from a :class:`RecorderSpec` inside a pool worker
    additionally stamps every event with its ``worker`` id, so shard lines
    stay attributable even when copied between stores.
    """

    enabled = True

    _session_counter = itertools.count()

    def __init__(self, path: Union[str, Path],
                 probe_interval: int = DEFAULT_PROBE_INTERVAL) -> None:
        super().__init__(probe_interval)
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        jsonl.repair(self.path)
        self.session = (f"{int(time.time() * 1000):x}-{os.getpid()}"
                        f"-{next(self._session_counter)}")
        #: Worker id stamped on every event (None outside pool workers).
        self.worker: Optional[str] = None
        self._handle = self.path.open("a", encoding="utf-8")

    def _write(self, event: Dict[str, Any]) -> None:
        event["session"] = self.session
        if self.worker is not None:
            event["worker"] = self.worker
        self._handle.write(jsonl.dumps(event))
        self._handle.flush()

    def worker_spec(self) -> Optional[RecorderSpec]:
        """The spec a process-backend worker mirrors this recorder from."""
        return RecorderSpec(path=str(self.path),
                            probe_interval=self.probe_interval,
                            parent_session=self.session)

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "JsonlRecorder":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def load(self) -> List[Dict[str, Any]]:
        """Re-read every committed event from disk (torn tail dropped)."""
        self._handle.flush()
        return load_events(self.path)


def load_events(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a telemetry JSONL sidecar, dropping a torn final line.

    The commit rule is :mod:`repro.jsonl`'s: a final line without its
    newline, or one that does not parse, never committed; a malformed line
    anywhere else is real corruption and raises :class:`TelemetryError`.
    """
    return list(jsonl.read(path, TelemetryError))


#: The process-wide default: telemetry off.
NULL_RECORDER = NullRecorder()

_current: NullRecorder = NULL_RECORDER


def current_recorder() -> NullRecorder:
    """The ambient recorder instrumented call sites report to."""
    return _current


def set_recorder(recorder: Optional[NullRecorder]) -> NullRecorder:
    """Install ``recorder`` (``None`` = the null default); returns the old one."""
    global _current
    previous = _current
    _current = recorder if recorder is not None else NULL_RECORDER
    return previous


@contextmanager
def use_recorder(recorder: Optional[NullRecorder]) -> Iterator[NullRecorder]:
    """Make ``recorder`` ambient for the duration of the ``with`` block."""
    previous = set_recorder(recorder)
    try:
        yield current_recorder()
    finally:
        set_recorder(previous)
