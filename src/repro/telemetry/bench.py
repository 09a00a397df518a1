"""Benchmark trajectory analysis: load ``BENCH_history.jsonl``, diff runs.

The benchmark suite's :func:`reporting.emit` (``benchmarks/reporting.py``)
writes one ``BENCH_<name>.json`` snapshot per metric *and* appends the same
payload -- stamped with provenance
(:func:`repro.store.schema.run_provenance`) and a UTC ``recorded_at``
timestamp -- as one line of an append-only ``BENCH_history.jsonl`` in the
report directory (:func:`repro.jsonl.append`).  This module is the read
side: it loads that trajectory and turns ``python -m repro.telemetry
bench-compare`` into a regression gate -- the latest entry of every metric
is diffed against a baseline entry with a tolerance band, honouring each
report's declared ``higher_is_better`` direction and pinned ``floor``.

It lives under :mod:`repro.telemetry` (not ``benchmarks/``) so operator
tooling can compare trajectories without the benchmark suite on the path.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro import jsonl

#: File the benchmark reporter appends every emission to, next to the
#: per-metric ``BENCH_<name>.json`` snapshots.
HISTORY_FILENAME = "BENCH_history.jsonl"

#: Comparison outcomes, ordered worst-first for exit-code decisions.
_BAD_STATUSES = ("below-floor", "regressed")

__all__ = ["HISTORY_FILENAME", "load_history", "history_by_name",
           "compare_entries", "compare_history", "format_comparison",
           "has_regression"]


def load_history(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a ``BENCH_history.jsonl`` (torn final line dropped).

    Accepts either the history file itself or the report directory holding
    it; a missing file is an empty trajectory, never an error.  A malformed
    line before the final one raises ``ValueError``.
    """
    path = Path(path)
    if path.is_dir():
        path = path / HISTORY_FILENAME
    return list(jsonl.read(path, ValueError))


def history_by_name(entries: Sequence[Mapping[str, Any]]
                    ) -> Dict[str, List[Mapping[str, Any]]]:
    """Group trajectory entries per report name, append order preserved."""
    grouped: Dict[str, List[Mapping[str, Any]]] = {}
    for entry in entries:
        name = entry.get("name")
        if name is not None:
            grouped.setdefault(str(name), []).append(entry)
    return grouped


def compare_entries(latest: Mapping[str, Any],
                    baseline: Optional[Mapping[str, Any]],
                    tolerance: float = 0.05) -> Dict[str, Any]:
    """Diff one metric's latest entry against its baseline.

    The tolerance band is relative: a change is a regression only when the
    latest value moves *against* the metric's ``higher_is_better`` direction
    by more than ``tolerance`` of the baseline's magnitude (improvements
    beyond the band report as ``improved``, anything inside as ``ok``).  A
    declared ``floor`` is absolute and stricter than any band: violating it
    is ``below-floor`` regardless of the baseline.  With no baseline the
    entry is ``new`` -- nothing to regress against, but the floor still
    applies.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    value = float(latest["value"])
    higher = bool(latest.get("higher_is_better", True))
    floor = latest.get("floor")
    row: Dict[str, Any] = {
        "name": latest.get("name"),
        "value": value,
        "units": latest.get("units"),
        "higher_is_better": higher,
        "floor": None if floor is None else float(floor),
        "baseline": None,
        "delta": None,
        "pct": None,
    }
    if floor is not None and (value < float(floor) if higher
                              else value > float(floor)):
        row["status"] = "below-floor"
        return row
    if baseline is None:
        row["status"] = "new"
        return row
    base = float(baseline["value"])
    row["baseline"] = base
    delta = value - base
    row["delta"] = delta
    row["pct"] = delta / abs(base) if base else None
    worse = -delta if higher else delta
    band = tolerance * abs(base)
    if worse > band:
        row["status"] = "regressed"
    elif -worse > band:
        row["status"] = "improved"
    else:
        row["status"] = "ok"
    return row


def compare_history(entries: Sequence[Mapping[str, Any]],
                    tolerance: float = 0.05,
                    names: Optional[Sequence[str]] = None,
                    baseline: str = "previous") -> List[Dict[str, Any]]:
    """Diff every metric's latest trajectory entry against its baseline.

    ``baseline`` selects what "before" means: ``"previous"`` (the entry
    appended immediately before the latest -- the PR-versus-main diff) or
    ``"first"`` (the oldest entry on record -- the long-run drift check).
    ``names`` restricts the comparison to those report names.
    """
    if baseline not in ("previous", "first"):
        raise ValueError(f"unknown baseline {baseline!r}; "
                         "choose 'previous' or 'first'")
    grouped = history_by_name(entries)
    if names:
        missing = sorted(set(names) - set(grouped))
        if missing:
            raise KeyError(f"no history entries for {', '.join(missing)}")
        grouped = {name: grouped[name] for name in names}
    rows = []
    for name in sorted(grouped):
        trajectory = grouped[name]
        latest = trajectory[-1]
        base = None
        if len(trajectory) > 1:
            base = trajectory[0] if baseline == "first" else trajectory[-2]
        rows.append(compare_entries(latest, base, tolerance))
    return rows


def has_regression(rows: Sequence[Mapping[str, Any]]) -> bool:
    """True when any compared metric regressed or broke its floor."""
    return any(row.get("status") in _BAD_STATUSES for row in rows)


def format_comparison(rows: Sequence[Mapping[str, Any]]) -> str:
    """Render comparison rows as an aligned text table."""
    from repro.analysis.reporting import format_table

    if not rows:
        return "(no benchmark history entries)"
    headers = ["name", "status", "value", "baseline", "delta", "pct",
               "floor", "dir"]
    body = []
    for row in rows:
        body.append([
            row.get("name"),
            row.get("status"),
            _num(row.get("value")),
            _num(row.get("baseline")),
            _num(row.get("delta")),
            "" if row.get("pct") is None else f"{row['pct']:+.1%}",
            _num(row.get("floor")),
            "higher" if row.get("higher_is_better") else "lower",
        ])
    return format_table(headers, body)


def _num(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.6g}"
