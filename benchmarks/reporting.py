"""Machine-readable benchmark reports: one ``BENCH_<name>.json`` per metric.

The benchmark suite used to print its tables and throw the numbers away;
every ``test_bench_*`` module now also calls :func:`emit` with its headline
metric, so each run leaves a small JSON artifact that CI (and humans
comparing PRs) can diff without scraping pytest output:

    {"name": "...", "metric": "...", "value": 12.3, "units": "us",
     "floor": 5.0, "higher_is_better": true, "details": {...}}

``floor`` records the pinned acceptance bar the accompanying assertion
enforces (absent for purely observational metrics), so a report is
self-describing: a reader can tell how close the measured value sits to the
regression gate.  Reports land in ``benchmarks/reports/`` by default;
set ``REPRO_BENCH_DIR`` to redirect them (CI points it at a workspace
artifact directory).

Each emission also appends the same payload, stamped with a UTC
``recorded_at`` and the run's software/hardware provenance
(:func:`repro.store.schema.run_provenance`), as one line of
``BENCH_history.jsonl`` in the same directory (:mod:`repro.jsonl`'s
append-only format): the trajectory ``python -m repro.telemetry
bench-compare`` diffs with tolerance bands.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from repro import jsonl
from repro.store.schema import run_provenance
from repro.telemetry.bench import HISTORY_FILENAME

#: Environment variable overriding the report output directory.
REPORT_DIR_ENV = "REPRO_BENCH_DIR"

#: Default output directory (kept out of version control).
DEFAULT_REPORT_DIR = Path(__file__).resolve().parent / "reports"


def report_dir() -> Path:
    """The directory reports are written to (created on first use)."""
    configured = os.environ.get(REPORT_DIR_ENV)
    directory = Path(configured) if configured else DEFAULT_REPORT_DIR
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def emit(name: str, metric: str, value: float, units: str, *,
         floor: Optional[float] = None,
         higher_is_better: bool = True,
         details: Optional[Mapping[str, Any]] = None) -> Path:
    """Write ``BENCH_<name>.json`` and return its path.

    Parameters
    ----------
    name:
        Report identifier (file stem suffix); one benchmark module may emit
        several reports under distinct names.
    metric:
        What was measured, human-readable (e.g. ``"per-replica proposal
        cost"``).
    value:
        The measured number (coerced to ``float``).
    units:
        Units of ``value`` (e.g. ``"us"``, ``"x"``, ``"%"``).
    floor:
        The pinned bar the suite asserts against, in the same orientation as
        ``higher_is_better`` -- a minimum when higher is better, a maximum
        otherwise.  ``None`` for observational metrics with no gate.
    higher_is_better:
        Direction of improvement, so trend tooling needs no metric-specific
        knowledge.
    details:
        Optional extra JSON-serialisable context (problem sizes, per-cell
        tables, backend names).
    """
    if not name or any(ch in name for ch in "/\\"):
        raise ValueError(f"report name must be a bare file stem, got {name!r}")
    payload: Dict[str, Any] = {
        "name": name,
        "metric": metric,
        "value": float(value),
        "units": units,
        "higher_is_better": bool(higher_is_better),
    }
    if floor is not None:
        payload["floor"] = float(floor)
    if details:
        payload["details"] = jsonl.jsonable(details)
    directory = report_dir()
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    # The snapshot is overwritten by the next run; the trajectory line is
    # forever -- BENCH_history.jsonl is what bench-compare regresses against.
    # A torn final line (a run killed mid-append) is truncated first.
    history = directory / HISTORY_FILENAME
    jsonl.repair(history)
    jsonl.append(history, {
        **payload,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "provenance": run_provenance(),
    })
    return path
