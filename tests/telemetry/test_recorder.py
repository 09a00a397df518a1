"""Unit tests for the telemetry recorders (no solver involved)."""

import json

import numpy as np
import pytest

from repro.telemetry import (
    DEFAULT_PROBE_INTERVAL,
    InMemoryRecorder,
    JsonlRecorder,
    NullRecorder,
    TelemetryError,
    current_recorder,
    load_events,
    set_recorder,
    use_recorder,
)


class TestNullRecorder:
    def test_disabled_and_silent(self):
        recorder = NullRecorder()
        assert recorder.enabled is False
        with recorder.span("outer") as span:
            recorder.counter("things", 3)
            recorder.probe("sweep", iteration=10, values={"x": [1.0]})
        assert span.elapsed is not None and span.elapsed >= 0
        assert span.span_id is None
        assert recorder.totals == {}

    def test_span_times_even_when_off(self):
        with NullRecorder().span("timed") as span:
            pass
        assert isinstance(span.elapsed, float)

    def test_probe_interval_validation(self):
        assert NullRecorder().probe_interval == DEFAULT_PROBE_INTERVAL
        assert NullRecorder(probe_interval=7).probe_interval == 7
        with pytest.raises(ValueError):
            NullRecorder(probe_interval=0)

    def test_subscribe_never_fires(self):
        recorder = NullRecorder()
        seen = []
        unsubscribe = recorder.subscribe(seen.append)
        recorder.counter("n")
        unsubscribe()
        assert seen == []


class TestInMemoryRecorder:
    def test_span_events_nest(self):
        recorder = InMemoryRecorder()
        with recorder.span("outer", backend="serial"):
            with recorder.span("inner"):
                pass
        starts = recorder.events_of_kind("span_start")
        ends = recorder.events_of_kind("span_end")
        assert [e["name"] for e in starts] == ["outer", "inner"]
        assert starts[0]["parent"] is None
        assert starts[1]["parent"] == starts[0]["span"]
        assert starts[0]["backend"] == "serial"
        # LIFO closing order, with elapsed stamped on the end event.
        assert [e["name"] for e in ends] == ["inner", "outer"]
        assert all(e["elapsed"] >= 0 for e in ends)

    def test_counter_accumulates(self):
        recorder = InMemoryRecorder()
        recorder.counter("trials", 2)
        recorder.counter("trials", 3)
        recorder.counter("cells")
        assert recorder.totals == {"trials": 5, "cells": 1}
        totals = [e["total"] for e in recorder.events_of_kind("counter")
                  if e["name"] == "trials"]
        assert totals == [2, 5]

    def test_seq_monotonic_t_stamped(self):
        recorder = InMemoryRecorder()
        for _ in range(5):
            recorder.counter("n")
        seqs = [e["seq"] for e in recorder.events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        assert all(isinstance(e["t"], float) for e in recorder.events)

    def test_probe_coerces_numpy(self):
        recorder = InMemoryRecorder()
        recorder.probe("sweep", iteration=np.int64(9),
                       values={"energy": np.array([1.5, 2.5]),
                               "count": np.int32(4)},
                       replicas=np.int64(2))
        event = recorder.probes("sweep")[0]
        assert event["iteration"] == 9
        assert event["values"]["energy"] == [1.5, 2.5]
        assert event["values"]["count"] == 4
        assert event["replicas"] == 2
        json.dumps(event)  # fully JSON-serializable

    def test_subscribe_receives_and_unsubscribes(self):
        recorder = InMemoryRecorder()
        seen = []
        unsubscribe = recorder.subscribe(seen.append)
        recorder.counter("a")
        unsubscribe()
        recorder.counter("a")
        assert len(seen) == 1 and seen[0]["name"] == "a"
        unsubscribe()  # idempotent

    def test_exception_still_closes_span(self):
        recorder = InMemoryRecorder()
        with pytest.raises(RuntimeError):
            with recorder.span("doomed") as span:
                raise RuntimeError("boom")
        assert span.elapsed is not None
        assert recorder.events_of_kind("span_end")[0]["name"] == "doomed"

    def test_annotate_rides_on_span_end(self):
        recorder = InMemoryRecorder()
        with recorder.span("trial_group", solver="sa") as span:
            span.annotate(kernel_resolved="fused",
                          planes=np.int64(6))
        end = recorder.events_of_kind("span_end")[0]
        assert end["kernel_resolved"] == "fused"
        assert end["planes"] == 6  # coerced like any other attr
        json.dumps(end)
        # span_start stays what it was at open time.
        assert "kernel_resolved" not in recorder.events_of_kind("span_start")[0]

    def test_annotate_is_silent_when_disabled(self):
        with NullRecorder().span("quiet") as span:
            span.annotate(kernel_resolved="fused")  # must not raise


class TestAmbientRecorder:
    def test_default_is_null(self):
        assert current_recorder().enabled is False

    def test_use_recorder_restores(self):
        recorder = InMemoryRecorder()
        with use_recorder(recorder) as active:
            assert active is recorder
            assert current_recorder() is recorder
        assert current_recorder().enabled is False

    def test_set_recorder_none_resets(self):
        previous = set_recorder(InMemoryRecorder())
        try:
            assert current_recorder().enabled
        finally:
            set_recorder(None)
        assert current_recorder().enabled is False
        assert previous.enabled is False

    def test_use_recorder_restores_on_exception(self):
        with pytest.raises(ValueError):
            with use_recorder(InMemoryRecorder()):
                raise ValueError
        assert current_recorder().enabled is False


class TestJsonlRecorder:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlRecorder(path) as recorder:
            with recorder.span("run", trials=3):
                recorder.counter("trials_completed", 3)
                recorder.probe("sweep", iteration=100,
                               values={"energy": [1.0, 2.0]})
            events = recorder.load()
        assert [e["kind"] for e in events] == [
            "span_start", "counter", "probe", "span_end"]
        assert all(e["session"] == recorder.session for e in events)
        assert load_events(path) == events

    def test_torn_tail_dropped_on_load(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlRecorder(path) as recorder:
            recorder.counter("a")
            recorder.counter("b")
        # Simulate a crash mid-write: the final line loses its newline.
        raw = path.read_bytes()
        path.write_bytes(raw[:-1])
        events = load_events(path)
        assert [e["name"] for e in events] == ["a"]

    def test_append_repairs_torn_tail(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlRecorder(path) as recorder:
            recorder.counter("a")
            recorder.counter("b")
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])  # tear into the final record
        with JsonlRecorder(path) as resumed:
            resumed.counter("c")
            events = resumed.load()
        # The torn 'b' is gone; 'a' and the new session's 'c' remain.
        assert [e["name"] for e in events] == ["a", "c"]
        assert events[0]["session"] != events[1]["session"]

    def test_garbled_final_line_is_torn(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlRecorder(path) as recorder:
            recorder.counter("a")
            recorder.counter("b")
        first, last = path.read_bytes().splitlines(keepends=True)
        # A lost page keeps the newline but not the record.
        path.write_bytes(first + b"\0" * (len(last) - 1) + b"\n")
        assert [e["name"] for e in load_events(path)] == ["a"]
        with JsonlRecorder(path) as resumed:
            resumed.counter("c")
        assert [e["name"] for e in load_events(path)] == ["a", "c"]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"kind":"counter","name":"a"}\nnot json\n'
                        '{"kind":"counter","name":"b"}\n')
        with pytest.raises(TelemetryError):
            load_events(path)

    def test_non_object_line_raises(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("[1,2,3]\n")
        with pytest.raises(TelemetryError):
            load_events(path)

    def test_missing_file_loads_empty(self, tmp_path):
        assert load_events(tmp_path / "absent.jsonl") == []
