"""``python -m repro.telemetry`` -- the operator view over telemetry sidecars.

Subcommands::

    summarize TARGET [RUN_KEY]    # span timings, counter totals, probe stats
    timeline  TARGET [RUN_KEY]    # indented span tree with probe leaves
    export-csv TARGET [RUN_KEY] [-o OUT]   # probes as CSV (default stdout)
    watch TARGET [RUN_KEY] [--once] [--interval S] [--stall-after S]
    bench-compare [DIR] [-n NAME ...] [--tolerance T] [--baseline WHICH]

``TARGET`` is either a telemetry JSONL file directly, or a campaign-store
directory -- in which case ``RUN_KEY`` (an unambiguous prefix is enough)
selects which run's sidecar to read.  Runs with per-worker shards (process
backend) are transparently loaded as one causally merged timeline
(:mod:`repro.telemetry.shards`); ``watch`` tails the same shard set live
(torn-tail tolerant, follow mode unless ``--once``).  ``bench-compare``
reads the benchmark trajectory (``BENCH_history.jsonl``, appended by
``benchmarks/reporting.py``) instead of a sidecar and exits nonzero when any
metric regressed beyond its tolerance band or broke its pinned floor.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.telemetry.analyze import (build_timeline, counter_totals,
                                     probe_rows, probe_summary, span_summary)
from repro.telemetry.recorder import TelemetryError
from repro.telemetry.shards import load_run_events


def _resolve_sidecar(target: str, run_key: Optional[str],
                     must_exist: bool = True) -> Path:
    """The main sidecar path a target/run-key pair addresses.

    With a store-directory target, a registered run whose shard set is
    entirely absent fails loudly (`must_exist`) -- an empty summary over a
    run that simply never recorded telemetry is indistinguishable from a
    broken pipeline, and silence is how PR 6's blind spot went unnoticed.
    """
    path = Path(target)
    if path.is_dir():
        from repro.store.store import CampaignStore

        store = CampaignStore(path, create=False)
        if run_key is None:
            raise SystemExit(
                f"{target} is a store directory; a run key is required "
                "(see `python -m repro.store list`)")
        manifest = store.get_manifest(run_key)
        sidecar = store.telemetry_path(manifest.run_key)
        if must_exist and not sidecar.exists() and \
                not store.telemetry_shard_paths(manifest.run_key):
            raise SystemExit(
                f"run {manifest.run_key[:12]} has no telemetry sidecar in "
                f"{target} (the run was executed without telemetry=True)")
        return sidecar
    if not path.exists():
        raise SystemExit(f"{target}: no such file or store directory")
    return path


def _resolve_events(target: str,
                    run_key: Optional[str]) -> List[Dict[str, Any]]:
    path = Path(target)
    is_store = path.is_dir()
    sidecar = _resolve_sidecar(target, run_key)
    events = load_run_events(sidecar)
    if is_store and not events:
        raise SystemExit(
            f"run {run_key} has no telemetry events committed in {target} "
            "(empty or fully torn shard set)")
    return events


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Summarize, render, export, watch and regression-gate "
                    "telemetry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("summarize", "span timings, counter totals and probe statistics"),
            ("timeline", "indented span tree with probe leaves"),
            ("export-csv", "flatten probes to CSV rows"),
            ("watch", "live per-worker status table over a shard set")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("target",
                         help="telemetry JSONL file or store directory")
        cmd.add_argument("run_key", nargs="?",
                         help="run key when TARGET is a store (prefix ok)")
        if name == "export-csv":
            cmd.add_argument("-o", "--output", default=None,
                             help="output CSV path (default: stdout)")
        if name == "watch":
            cmd.add_argument("--once", action="store_true",
                             help="render a single frame and exit")
            cmd.add_argument("--interval", type=float, default=1.0,
                             help="seconds between polls (default: 1)")
            cmd.add_argument("--stall-after", type=float, default=10.0,
                             help="heartbeat age marking a stream STALLED "
                                  "(default: 10s)")
            cmd.add_argument("--max-polls", type=int, default=None,
                             help=argparse.SUPPRESS)
    bench = sub.add_parser(
        "bench-compare",
        help="diff the latest benchmark trajectory entries against a "
             "baseline")
    bench.add_argument("dir", nargs="?", default=None,
                       help="report directory holding BENCH_history.jsonl "
                            "(default: $REPRO_BENCH_DIR or "
                            "benchmarks/reports)")
    bench.add_argument("-n", "--name", action="append", default=None,
                       help="restrict to this report name (repeatable)")
    bench.add_argument("--tolerance", type=float, default=0.05,
                       help="relative regression band (default: 0.05)")
    bench.add_argument("--baseline", choices=("previous", "first"),
                       default="previous",
                       help="what to diff the latest entry against")
    return parser


def _fmt(value: Any) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _cmd_summarize(args: argparse.Namespace) -> int:
    events = _resolve_events(args.target, args.run_key)
    print(f"{len(events)} event(s)")
    shards = sorted({e["shard"] for e in events if "shard" in e})
    if shards:
        print(f"shards: {' '.join(shards)}")
    spans = span_summary(events)
    if spans:
        print("spans:")
        for name, row in sorted(spans.items(),
                                key=lambda item: -item[1]["total"]):
            print(f"  {name:<14} count={row['count']:<6} "
                  f"total={row['total']:.3f}s mean={row['mean']:.4f}s")
    counters = counter_totals(events)
    if counters:
        print("counters:")
        for name, total in sorted(counters.items()):
            print(f"  {name:<26} {_fmt(total)}")
    probes = probe_summary(events)
    if probes:
        print("probes:")
        for name, row in sorted(probes.items()):
            print(f"  {name}: {row['count']} sample(s), "
                  f"last iteration {_fmt(row['last_iteration'])}, "
                  f"best energy {_fmt(row['best_energy'])}")
            for key in ("accept_rate", "filter_reject_rate", "exchange_rate"):
                mean = row.get(f"mean_{key}")
                if mean is not None:
                    print(f"    mean {key:<20} {mean:.3f}")
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    events = _resolve_events(args.target, args.run_key)
    lines = build_timeline(events)
    if not lines:
        print("no span or probe events recorded")
        return 0
    for line in lines:
        print(line)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    events = _resolve_events(args.target, args.run_key)
    header, rows = probe_rows(events)
    if args.output is None:
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
    else:
        with open(args.output, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
        print(f"wrote {len(rows)} probe row(s) to {args.output}")
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.telemetry.watch import watch_loop

    # An in-flight run may not have flushed its first event yet, so the
    # sidecar is allowed to be absent: the watcher renders "silent" rows
    # and picks the files up as they appear.
    sidecar = _resolve_sidecar(args.target, args.run_key, must_exist=False)
    watch_loop(sidecar, interval=args.interval,
               stall_after=args.stall_after, once=args.once,
               max_polls=args.max_polls)
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.telemetry.bench import (compare_history, format_comparison,
                                       has_regression, load_history)

    directory = args.dir or os.environ.get("REPRO_BENCH_DIR") \
        or "benchmarks/reports"
    entries = load_history(directory)
    if not entries:
        raise SystemExit(f"{directory}: no benchmark history entries "
                         "(run a benchmark module to record some)")
    rows = compare_history(entries, tolerance=args.tolerance,
                           names=args.name, baseline=args.baseline)
    print(format_comparison(rows))
    if has_regression(rows):
        bad = [row["name"] for row in rows
               if row["status"] in ("regressed", "below-floor")]
        print(f"REGRESSION: {', '.join(bad)}")
        return 3
    return 0


_COMMANDS = {
    "summarize": _cmd_summarize,
    "timeline": _cmd_timeline,
    "export-csv": _cmd_export,
    "watch": _cmd_watch,
    "bench-compare": _cmd_bench_compare,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(
        list(argv) if argv is not None else None)
    try:
        return _COMMANDS[args.command](args)
    except KeyError as error:
        print(error.args[0])
        return 1
    except TelemetryError as error:
        print(f"telemetry error: {error}")
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: normal, not an error.
        sys.stderr.close()
        return 0
