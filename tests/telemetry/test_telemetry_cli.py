"""The ``python -m repro.telemetry`` operator CLI."""

import csv
import io

import pytest

from repro.problems.generators import generate_qkp_instance
from repro.runtime import run_trials
from repro.store import CampaignStore
from repro.telemetry import InMemoryRecorder, JsonlRecorder
from repro.telemetry.analyze import (build_timeline, probe_rows,
                                     probe_summary, span_summary)
from repro.telemetry.cli import main

HYCIM_FAST = {"num_iterations": 40, "move_generator": "knapsack",
              "use_hardware": False}


@pytest.fixture(scope="module")
def problem():
    return generate_qkp_instance(num_items=14, density=0.5, max_weight=8,
                                 seed=13, name="telemetry_cli_prob")


@pytest.fixture
def populated(tmp_path, problem):
    store = CampaignStore(tmp_path / "store")
    batch = run_trials(problem, ("hycim", HYCIM_FAST), num_trials=2,
                       master_seed=4, backend="vectorized", store=store,
                       telemetry=True)
    return tmp_path / "store", batch


class TestResolve:
    def test_store_without_run_key_exits(self, populated):
        store_dir, _ = populated
        with pytest.raises(SystemExit, match="run key"):
            main(["summarize", str(store_dir)])

    def test_missing_target_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="no such file"):
            main(["summarize", str(tmp_path / "absent.jsonl")])

    def test_unknown_run_key_returns_error(self, populated, capsys):
        store_dir, _ = populated
        assert main(["summarize", str(store_dir), "feedbeef"]) == 1
        assert "no run" in capsys.readouterr().out

    def test_run_without_sidecar_exits(self, populated, problem):
        store_dir, _ = populated
        store = CampaignStore(store_dir)
        plain = run_trials(problem, ("hycim", HYCIM_FAST), num_trials=2,
                           master_seed=99, store=store)  # no telemetry
        with pytest.raises(SystemExit, match="no telemetry"):
            main(["summarize", str(store_dir), plain.run_key])

    def test_corrupt_sidecar_returns_error(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind":"counter","name":"a"}\nbroken\n{"x":1}\n')
        assert main(["summarize", str(path)]) == 2
        assert "telemetry error" in capsys.readouterr().out


class TestSummarize:
    def test_store_run_prefix(self, populated, capsys):
        store_dir, batch = populated
        assert main(["summarize", str(store_dir), batch.run_key[:12]]) == 0
        output = capsys.readouterr().out
        assert "spans:" in output and "run" in output
        assert "probes:" in output and "sweep:" in output
        assert "accept_rate" in output

    def test_raw_file_target(self, populated, capsys):
        store_dir, batch = populated
        sidecar = CampaignStore(store_dir).telemetry_path(batch.run_key)
        assert main(["summarize", str(sidecar)]) == 0
        assert "event(s)" in capsys.readouterr().out


class TestTimeline:
    def test_tree_shape(self, populated, capsys):
        store_dir, batch = populated
        assert main(["timeline", str(store_dir), batch.run_key[:12]]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("run ")
        indented = [line for line in lines if line.startswith("  ")]
        assert any("chunk" in line for line in indented)
        assert any("probe sweep iter=" in line for line in indented)

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["timeline", str(path)]) == 0
        assert "no span or probe events" in capsys.readouterr().out


class TestExportCsv:
    def test_stdout_rows_per_replica(self, populated, capsys):
        store_dir, batch = populated
        assert main(["export-csv", str(store_dir), batch.run_key[:12]]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert rows
        # vectorized run with 2 replicas -> one row per (probe, replica)
        assert {row["replica"] for row in rows} == {"0", "1"}
        assert all(float(row["accept_rate"]) >= 0 for row in rows)
        assert {row["engine"] for row in rows} == {"batched"}

    def test_output_file(self, populated, tmp_path, capsys):
        store_dir, batch = populated
        out = tmp_path / "probes.csv"
        assert main(["export-csv", str(store_dir), batch.run_key[:12],
                     "-o", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        with out.open(newline="") as handle:
            assert list(csv.DictReader(handle))


class TestAnalyze:
    """Pure-function edge cases not reachable through a healthy run."""

    def test_empty_events(self):
        assert span_summary([]) == {}
        assert probe_summary([]) == {}
        assert build_timeline([]) == []
        header, rows = probe_rows([])
        assert rows == []

    def test_torn_span_marked(self, tmp_path):
        recorder = InMemoryRecorder()
        span = recorder.span("interrupted").__enter__()  # never exited
        recorder.probe("sweep", iteration=5,
                       values={"best_energy": [1.0]})
        lines = build_timeline(recorder.events)
        assert any("[torn]" in line for line in lines)

    def test_annotated_attrs_render_on_span_line(self):
        recorder = InMemoryRecorder()
        with recorder.span("trial_group", solver="sa") as span:
            span.annotate(kernel_resolved="fused")
        lines = build_timeline(recorder.events)
        assert any("trial_group" in line and "kernel_resolved=fused" in line
                   for line in lines)

    def test_multi_session_separator(self, tmp_path):
        path = tmp_path / "two.jsonl"
        for _ in range(2):
            with JsonlRecorder(path) as recorder:
                with recorder.span("run"):
                    pass
        events = JsonlRecorder(path).load()
        lines = build_timeline(events)
        assert any(line.startswith("-- session") for line in lines)
