"""Benchmark trajectory: history appends, tolerance-band compare, CLI gate."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.telemetry.bench import (HISTORY_FILENAME, compare_entries,
                                   compare_history, format_comparison,
                                   has_regression, history_by_name,
                                   load_history)
from repro.telemetry.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_by_path(stem):
    """benchmarks/ is not a package; load its modules straight off disk."""
    spec = importlib.util.spec_from_file_location(
        f"_bench_{stem}", REPO_ROOT / "benchmarks" / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def reporting(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path / "reports"))
    return _load_by_path("reporting")


def _entry(name, value, **extra):
    return {"name": name, "metric": "m", "value": value, "units": "x",
            "higher_is_better": True, **extra}


class TestHistoryAppend:
    def test_emit_appends_provenance_stamped_line(self, reporting, tmp_path):
        reporting.emit("hist_demo", "throughput", 12.5, "it/s", floor=10.0,
                       details={"n": 40})
        snapshot = reporting.emit("hist_demo", "throughput", 13.0, "it/s",
                                  floor=10.0)
        directory = tmp_path / "reports"
        entries = load_history(directory)
        assert [e["value"] for e in entries] == [12.5, 13.0]
        for entry in entries:
            assert entry["name"] == "hist_demo"
            assert entry["floor"] == 10.0
            assert entry["recorded_at"].endswith("Z")
            provenance = entry["provenance"]
            assert {"repro_version", "numpy_version", "python_version",
                    "platform", "hostname"} <= set(provenance)
        assert "details" in entries[0] and "details" not in entries[1]
        # The (last-run) snapshot stays diffable against its trajectory
        # line: same payload fields, no history-only stamps.
        payload = json.loads(snapshot.read_text())
        assert payload == {k: v for k, v in entries[-1].items()
                           if k not in ("recorded_at", "provenance")}

    def test_history_tolerates_torn_tail(self, reporting, tmp_path):
        reporting.emit("torn_demo", "m", 1.0, "x")
        history = tmp_path / "reports" / HISTORY_FILENAME
        with history.open("a") as handle:
            handle.write('{"name": "torn_demo", "value"')
        assert [e["value"] for e in load_history(history)] == [1.0]

    def test_emit_after_a_torn_tail_keeps_every_later_line(self, reporting,
                                                           tmp_path):
        """A run killed mid-append leaves a torn final line; the next emit
        cuts it instead of welding its own line onto it."""
        reporting.emit("weld_demo", "m", 1.0, "x")
        history = tmp_path / "reports" / HISTORY_FILENAME
        history.write_bytes(history.read_bytes()[:-5])
        reporting.emit("weld_demo", "m", 2.0, "x")
        reporting.emit("weld_demo", "m", 3.0, "x")
        assert [e["value"] for e in load_history(history)] == [2.0, 3.0]

    def test_history_drops_a_garbled_final_line(self, reporting, tmp_path):
        reporting.emit("garbled_demo", "m", 1.0, "x")
        history = tmp_path / "reports" / HISTORY_FILENAME
        with history.open("ab") as handle:
            handle.write(b"\0" * 40 + b"\n")
        assert [e["value"] for e in load_history(history)] == [1.0]

    def test_missing_history_is_empty(self, tmp_path):
        assert load_history(tmp_path) == []


class TestCompare:
    def test_statuses(self):
        base = _entry("a", 100.0)
        assert compare_entries(_entry("a", 99.0), base)["status"] == "ok"
        assert compare_entries(_entry("a", 90.0), base)["status"] == "regressed"
        assert compare_entries(_entry("a", 110.0), base)["status"] == "improved"
        assert compare_entries(_entry("a", 50.0), None)["status"] == "new"
        row = compare_entries(_entry("a", 8.0, floor=10.0), base)
        assert row["status"] == "below-floor"

    def test_lower_is_better_direction(self):
        base = _entry("lat", 10.0, higher_is_better=False)
        worse = _entry("lat", 11.0, higher_is_better=False)
        better = _entry("lat", 9.0, higher_is_better=False)
        assert compare_entries(worse, base)["status"] == "regressed"
        assert compare_entries(better, base)["status"] == "improved"
        capped = _entry("lat", 12.0, higher_is_better=False, floor=11.5)
        assert compare_entries(capped, base)["status"] == "below-floor"

    def test_compare_history_baselines(self):
        entries = [_entry("a", 100.0), _entry("a", 200.0), _entry("a", 95.0)]
        previous = compare_history(entries)          # 95 vs 200: regressed
        assert previous[0]["status"] == "regressed"
        first = compare_history(entries, baseline="first")  # 95 vs 100: ok
        assert first[0]["status"] == "ok"
        assert has_regression(previous) and not has_regression(first)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="nope"):
            compare_history([_entry("a", 1.0)], names=["nope"])

    def test_grouping_and_rendering(self):
        entries = [_entry("b", 1.0), _entry("a", 2.0), _entry("b", 3.0)]
        grouped = history_by_name(entries)
        assert [e["value"] for e in grouped["b"]] == [1.0, 3.0]
        table = format_comparison(compare_history(entries))
        assert "a" in table and "b" in table and "status" in table
        assert format_comparison([]) == "(no benchmark history entries)"


class TestBenchCompareCli:
    def test_clean_trajectory_exits_zero(self, reporting, tmp_path, capsys):
        reporting.emit("cli_ok", "m", 100.0, "x")
        reporting.emit("cli_ok", "m", 101.0, "x")
        assert main(["bench-compare", str(tmp_path / "reports")]) == 0
        output = capsys.readouterr().out
        assert "cli_ok" in output and "ok" in output
        assert "REGRESSION" not in output

    def test_regression_exits_three(self, reporting, tmp_path, capsys):
        reporting.emit("cli_bad", "m", 100.0, "x")
        reporting.emit("cli_bad", "m", 50.0, "x")
        assert main(["bench-compare", str(tmp_path / "reports")]) == 3
        assert "REGRESSION: cli_bad" in capsys.readouterr().out

    def test_reads_env_report_dir(self, reporting, capsys):
        reporting.emit("cli_env", "m", 1.0, "x")
        assert main(["bench-compare"]) == 0          # $REPRO_BENCH_DIR
        assert "cli_env" in capsys.readouterr().out

    def test_name_filter_and_tolerance(self, reporting, tmp_path, capsys):
        reporting.emit("cli_a", "m", 100.0, "x")
        reporting.emit("cli_a", "m", 93.0, "x")      # -7%: beyond default band
        reporting.emit("cli_b", "m", 1.0, "x")
        directory = str(tmp_path / "reports")
        assert main(["bench-compare", directory, "-n", "cli_a"]) == 3
        capsys.readouterr()
        assert main(["bench-compare", directory, "-n", "cli_a",
                     "--tolerance", "0.1"]) == 0
        assert "cli_b" not in capsys.readouterr().out

    def test_missing_history_fails_loudly(self, tmp_path):
        with pytest.raises(SystemExit, match="no benchmark history"):
            main(["bench-compare", str(tmp_path)])

    def test_unknown_name_exits_one(self, reporting, tmp_path, capsys):
        reporting.emit("cli_known", "m", 1.0, "x")
        assert main(["bench-compare", str(tmp_path / "reports"),
                     "-n", "ghost"]) == 1
        assert "ghost" in capsys.readouterr().out
