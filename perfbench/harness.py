"""One benchmark run: set-up, the closed timed loop, checks and metrics.

A run drives one workload through ``repro.runtime.run_trials`` as a closed
loop with a single caller: each timed call starts after the previous one
returned, against the same instance and master seed, so every call must
return identical results.  Every reported time is in calibrated seconds
(:mod:`perfbench.calibration`); raw host seconds go to the run's context
record.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced calls: the traced ones give the per-layer metrics, the
untraced ones the baseline for the tracing overhead.  Traced self times
include the speed sampler's probes, about 1% of every span.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from perfbench.calibration import CalibratedTimer
from perfbench.checks import fingerprint, reference_objective, trial_errors
from perfbench.tracing import LAYERS, Tracer, profile

OUT_DIR = Path(__file__).resolve().parent / "out"

#: Set-up repetitions: at least the first, then more while they stay under
#: the time budget, up to the second; ``setup_s`` is their median.
SETUP_REPEATS = (5, 15)
SETUP_BUDGET_S = 2.0

#: Timed calls per run, at least, even when ``--seconds`` is shorter.
MIN_CALLS = 3

END_TO_END = {
    "proposals_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
    "feasible_rate": "fraction", "objective_ratio_pct": "%",
    "sim_energy_nj": "nJ", "sim_latency_us": "us",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name and its unit (the ``--trace 1`` set)."""
    units = {f"{layer}.self_s": "s/call" for layer in LAYERS}
    units.update({
        "cim.crossbar.evals": "count", "cim.crossbar.us_per_eval": "us/eval",
        "cim.adc.conversions": "count", "cim.filter.evals": "count",
        "cim.filter.reject_ratio": "ratio", "fefet.samples": "count",
        "dynamics.accept_ratio": "ratio", "kernels.fallbacks": "count",
        "problems.calls": "count", "store.appends": "count",
        "telemetry.events": "count", "host.import_s": "s",
        "host.calibration_s": "s", "host.raw_proposals_per_s": "1/s",
        "trace.overhead_pct": "%", "trace.unattributed_s": "s/call",
    })
    return units


def _blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


class WorkloadRun:
    """A workload's instance and ``run_trials`` call for one seed."""

    def __init__(self, workload, seed: int, out_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.master_seed = workload.seeds(seed)[1]
        self.problem = None
        self.model = None
        self._stores = 0

    def build(self) -> None:
        """Generate the instance and its inequality-QUBO form."""
        self.problem = self.workload.make_instance(self.seed)
        self.model = self.problem.to_inequality_qubo()

    def call(self, iterations: int, timer=None) -> List[Any]:
        """One ``run_trials`` call, timed by ``timer`` when given.

        Store workloads get a fresh, empty ``CampaignStore`` per call (a
        reused one would resume and skip every trial), created before and
        removed after the timed block.
        """
        import repro.runtime
        from repro.store import CampaignStore

        wl = self.workload
        kwargs: Dict[str, Any] = {}
        store_dir = None
        if wl.store:
            self._stores += 1
            store_dir = self.out_dir / f"store-{os.getpid()}-{self._stores}"
            shutil.rmtree(store_dir, ignore_errors=True)
            kwargs = {"store": CampaignStore(store_dir), "telemetry": True}
        try:
            with timer or contextlib.nullcontext():
                batch = repro.runtime.run_trials(
                    self.problem, "hycim", num_trials=wl.trials,
                    params=wl.solver_params(iterations), backend=wl.backend,
                    master_seed=self.master_seed, **kwargs)
            return batch.results
        finally:
            if store_dir is not None:
                shutil.rmtree(store_dir, ignore_errors=True)


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        out_dir: Optional[Path] = None,
        import_s: float = 0.0) -> Dict[str, Any]:
    """Run one workload and return ``{"result": ..., "context": ...}``.

    ``import_s`` is the caller's measured ``import repro`` time, reported
    as context (it happens once per process).
    """
    import repro

    source = Path(__file__).resolve().parent.parent / "src"
    if not Path(repro.__file__).resolve().is_relative_to(source):
        raise SystemExit(f"repro was imported from {repro.__file__}, not "
                         f"from {source}")
    from perfbench.workloads import WORKLOADS
    from repro.cim.energy_model import hycim_run_cost
    from repro.core.quantization import quantization_report

    if workload_name not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload_name!r}; choose from "
                         f"{sorted(WORKLOADS)}")
    wl = WORKLOADS[workload_name]
    out_dir = out_dir or OUT_DIR
    workload_run = WorkloadRun(wl, seed, out_dir)

    # -- set-up: instance, transformation, first result (1 iteration) ---- #
    setup: List[CalibratedTimer] = []
    while len(setup) < SETUP_REPEATS[0] or (
            len(setup) < SETUP_REPEATS[1]
            and sum(t.raw_s for t in setup) < SETUP_BUDGET_S):
        with CalibratedTimer() as timer:
            workload_run.build()
            workload_run.call(iterations=1)
        setup.append(timer)
    problem, model = workload_run.problem, workload_run.model

    # -- the closed timed loop ------------------------------------------- #
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    calls: List[Dict[str, Any]] = []
    first = None
    failed = 0
    cross_check: List[str] = []
    deadline = time.perf_counter() + seconds
    try:
        while time.perf_counter() < deadline or len(calls) < MIN_CALLS:
            rep = len(calls)
            traced = tracer is not None and rep % 2 == 1
            timer = CalibratedTimer()
            rep_start = time.perf_counter()
            if traced:
                tracer.rep = rep
            try:
                results = workload_run.call(wl.iterations, timer)
            finally:
                if tracer is not None:
                    tracer.rep = None
            call = {"timer": timer, "traced": traced}
            if traced:
                call["profile"] = profile(tracer.spans, rep,
                                          time.perf_counter() - rep_start)
                mismatches = _cross_check(wl, model, results,
                                          call["profile"].counts)
                cross_check += mismatches
                failed += len(results) if mismatches else 0
            if first is None:
                first = results
            elif fingerprint(results) != fingerprint(first):
                failed += len(results)
            calls.append(call)
    finally:
        if tracer is not None:
            tracer.uninstall()

    # -- output checks and deterministic metrics -------------------------- #
    errors = [trial_errors(problem, model, r, wl.iterations, wl.exact)
              for r in first]
    attempted = len(calls) * wl.trials
    failed += sum(1 for e in errors if e) * len(calls)
    exact_feasible = [bool(problem.is_feasible(r.best_configuration))
                      for r in first]
    objectives = [problem.objective(r.best_configuration) if ok else 0.0
                  for r, ok in zip(first, exact_feasible)]
    if wl.family == "mdqkp":
        weights, capacities = problem.weights, problem.capacities
    else:
        weights, capacities = problem.weights[None, :], [problem.capacity]
    reference = reference_objective(problem.profits, weights, capacities)
    report = quantization_report(model)
    costs = [hycim_run_cost(r, report) for r in first]

    def throughput(call) -> float:
        return wl.proposals_per_call / call["timer"].seconds

    untraced = [c for c in calls if not c["traced"]]
    traced_calls = [c for c in calls if c["traced"]]
    traced_wall_s = None
    if not trace:
        metrics: Dict[str, float] = {
            "proposals_per_s": statistics.median(map(throughput, calls)),
            "setup_s": statistics.median(t.seconds for t in setup),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "feasible_rate": float(np.mean(exact_feasible)),
            "objective_ratio_pct": 100.0 * float(np.mean(objectives))
            / reference,
            "sim_energy_nj": float(np.mean([c.energy for c in costs])) / 1e3,
            "sim_latency_us": float(np.mean([c.latency for c in costs]))
            / 1e3,
        }
        units = END_TO_END
    else:
        profiles = [c["profile"] for c in traced_calls]
        scales = [c["timer"].scale for c in traced_calls]

        def per_call(values) -> float:
            return float(np.mean(list(values)))

        def calibrated(field: str) -> float:
            return per_call(getattr(p, field) * s
                            for p, s in zip(profiles, scales))

        def count(name: str) -> int:
            return int(round(per_call(p.counts.get(name, 0)
                                      for p in profiles)))

        def ratio(numerator: str, denominator: str) -> float:
            total = sum(p.counts.get(denominator, 0) for p in profiles)
            return (sum(p.counts.get(numerator, 0) for p in profiles) / total
                    if total else 0.0)

        metrics = {f"{layer}.self_s": per_call(
            p.self_s[layer] * s for p, s in zip(profiles, scales))
            for layer in LAYERS}
        evals = count("cim.crossbar.evals")
        metrics.update({
            "cim.crossbar.evals": evals,
            "cim.crossbar.us_per_eval": (
                1e6 * metrics["cim.crossbar.self_s"] / evals if evals
                else 0.0),
            "cim.adc.conversions": count("cim.adc.conversions"),
            "cim.filter.evals": count("cim.filter.judged"),
            "cim.filter.reject_ratio": ratio("cim.filter.rejected",
                                             "cim.filter.judged"),
            "fefet.samples": count("fefet.samples"),
            "dynamics.accept_ratio": ratio("dynamics.accepted",
                                           "dynamics.metropolis"),
            "kernels.fallbacks": int(round(per_call(
                p.fallbacks for p in profiles))),
            "problems.calls": count("problems.calls"),
            "store.appends": count("store.appends"),
            "telemetry.events": count("telemetry.events"),
            "host.import_s": import_s,
            "host.calibration_s": statistics.median(
                c["timer"].sample_s for c in calls),
            "host.raw_proposals_per_s": statistics.median(
                wl.proposals_per_call / c["timer"].raw_s for c in untraced),
            "trace.overhead_pct": 100.0 * (
                statistics.median(map(throughput, untraced))
                / statistics.median(map(throughput, traced_calls)) - 1.0),
            "trace.unattributed_s": calibrated("unattributed_s"),
        })
        units = per_layer_units()
        traced_wall_s = calibrated("wall_s")
        _write_spans(out_dir, workload_name, seed, tracer.spans)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    context = {
        "workload": workload_name, "seed": seed, "trace": bool(trace),
        "calls": len(calls), "trials_per_call": wl.trials,
        "proposals_per_call": wl.proposals_per_call,
        "kernel": sorted({str(r.metadata.get(
            "kernel", "reference" if r.metadata.get("vectorized")
            else "scalar")) for r in first}),
        "raw_call_s": [c["timer"].raw_s for c in calls],
        "calibrated_call_s": [c["timer"].seconds for c in calls],
        "sample_s": [c["timer"].sample_s for c in calls],
        "setup_raw_s": [t.raw_s for t in setup],
        "setup_calibrated_s": [t.seconds for t in setup],
        "import_s": import_s,
        "reference_objective": reference,
        "failed_pct": 100.0 * failed / attempted,
        "trial_errors": sorted({m for e in errors for m in e}),
        "cross_check_errors": cross_check,
        "traced_wall_s": traced_wall_s,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": _blas_threads(),
    }
    return {"result": result, "context": context}


def _cross_check(wl, model, results, counts: Dict[str, int]) -> List[str]:
    """Traced hardware events against the counters the energy model reads.

    Every proposal and each initial state passes one filter per inequality
    constraint; the crossbar evaluates every feasible proposal plus each
    initial state the filter admits (every one, with ideal devices).
    """
    hardware = dict(wl.params).get("use_hardware", True)
    filters = model.num_constraints if hardware else 0
    judged = sum(1 + r.num_feasible_evaluations + r.num_infeasible_skipped
                 for r in results)
    feasible = sum(r.num_feasible_evaluations for r in results)
    traced_filter = counts.get("cim.filter.judged", 0)
    traced_crossbar = counts.get("cim.crossbar.evals", 0)
    errors = []
    if traced_filter != filters * judged:
        errors.append(f"filter judged {traced_filter} rows, counters imply "
                      f"{filters * judged}")
    if not hardware:
        low = high = feasible = 0
    elif wl.exact:
        low = high = len(results)
    else:
        low, high = 0, len(results)
    if not feasible + low <= traced_crossbar <= feasible + high:
        errors.append(f"crossbar evaluated {traced_crossbar} rows, counters "
                      f"imply {feasible} + {low}..{high} initial states")
    return errors


def _write_spans(out_dir: Path, workload: str, seed: int, spans) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w", encoding="utf-8") as handle:
        for index, span in enumerate(spans):
            handle.write(json.dumps({
                "id": index, "name": span.name, "layer": span.layer,
                "start": span.start, "end": span.end, "parent": span.parent,
                "rep": span.rep, "error": span.error,
                "counts": span.counts}) + "\n")


def main(argv: Optional[Sequence[str]] = None, import_s: float = 0.0) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace),
                  import_s=import_s)
    print(json.dumps({"context": outcome["context"]}))
    print(json.dumps(outcome["result"]))
    sys.stdout.flush()
    return 0
