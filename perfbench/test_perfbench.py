"""Tests of the benchmark harness itself (not of the solver).

Run from the repository root:  python3 -m pytest perfbench -q

The in-process runs use shrunken copies of the workloads (fewer items,
trials and iterations) and ``seconds=0``, so each run is a handful of calls.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from pathlib import Path

import pytest

from perfbench import harness
from perfbench.checks import reference_objective, trial_errors
from perfbench.tracing import Span, profile
from perfbench.workloads import WORKLOADS

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
DETERMINISTIC = ("feasible_rate", "objective_ratio_pct", "sim_energy_nj",
                 "sim_latency_us")


@pytest.fixture
def tiny(monkeypatch):
    """Shrink a workload in place; returns a function taking its name."""

    def shrink(name: str) -> str:
        monkeypatch.setitem(WORKLOADS, name, dataclasses.replace(
            WORKLOADS[name], num_items=40, trials=4, iterations=30))
        return name

    return shrink


def test_metric_names_are_valid_unique_and_emitted():
    end_to_end = [m["name"] for m in BENCHMARK["end_to_end"]]
    per_layer = [m["name"] for m in BENCHMARK["per_layer"]]
    names = end_to_end + per_layer + [w["name"] for w in BENCHMARK["workloads"]]
    assert all(NAME.match(name) for name in names)
    assert len(set(end_to_end + per_layer)) == len(end_to_end + per_layer)
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
             + BENCHMARK["per_layer"]}
    assert all(UNIT.match(unit) for unit in units.values())
    assert harness.END_TO_END == {n: units[n] for n in end_to_end}
    assert harness.per_layer_units() == {n: units[n] for n in per_layer}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_tampered_trial_is_counted_as_failed(tiny, monkeypatch, tmp_path):
    name = tiny("qkp_hw")
    call = harness.WorkloadRun.call

    def tampered(self, iterations, before=None):
        results = call(self, iterations, before)
        results[0].best_configuration[0] = 1.0 - results[0].best_configuration[0]
        return results

    clean = harness.run(name, 3, 0, False, tmp_path)
    assert clean["result"]["correct"] and clean["result"]["failed"] == 0
    monkeypatch.setattr(harness.WorkloadRun, "call", tampered)
    dirty = harness.run(name, 3, 0, False, tmp_path)
    assert not dirty["result"]["correct"]
    assert dirty["result"]["failed"] == dirty["context"]["calls"]
    assert dirty["context"]["failed_pct"] == pytest.approx(100.0 / 4)


@pytest.mark.parametrize("name", ["qkp_hw", "mdqkp_chips", "qkp_sw_large",
                                  "qkp_serial_store"])
def test_same_seed_gives_identical_deterministic_metrics(tiny, tmp_path, name):
    tiny(name)
    first = harness.run(name, 7, 0, False, tmp_path)["result"]
    second = harness.run(name, 7, 0, False, tmp_path)["result"]
    assert first["correct"] and second["correct"]
    for metric in DETERMINISTIC:
        assert (first["metrics"][metric]["value"]
                == second["metrics"][metric]["value"])
    assert set(first["metrics"]) == set(harness.END_TO_END)


@pytest.mark.parametrize("name", ["qkp_hw", "mdqkp_chips", "qkp_sw_large",
                                  "qkp_serial_store"])
def test_traced_self_times_and_unattributed_sum_to_wall(tiny, tmp_path, name):
    tiny(name)
    outcome = harness.run(name, 5, 0, True, tmp_path)
    metrics = {k: v["value"] for k, v in outcome["result"]["metrics"].items()}
    assert outcome["result"]["correct"], outcome["context"]
    assert set(metrics) == set(harness.per_layer_units())
    layered = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert math.isclose(layered + metrics["trace.unattributed_s"],
                        outcome["context"]["traced_wall_s"], rel_tol=1e-9)
    assert metrics["trace.unattributed_s"] >= 0
    assert (tmp_path / f"spans-{name}-seed5.jsonl").exists()


def test_profile_counts_outermost_calls_and_fallbacks():
    spans = [Span("make_hycim_kernel", "kernels", 0.0, None, 0, end=10.0),
             Span("JitHyCiMKernel.__init__", "kernels", 1.0, 0, 0, end=2.0,
                  error="KernelUnavailableError"),
             Span("sample_on_current_factors", "fefet", 3.0, 0, 0, end=6.0,
                  counts={"samples": 8}),
             Span("sample_on_current_factor", "fefet", 4.0, 2, 0, end=5.0,
                  counts={"samples": 8}),
             Span("run_trials", "runtime", 20.0, None, 1, end=21.0)]
    prof = profile(spans, 0, wall_s=12.0)
    assert prof.self_s["kernels"] == pytest.approx(7.0)
    assert prof.self_s["fefet"] == pytest.approx(3.0)
    assert prof.unattributed_s == pytest.approx(2.0)
    assert prof.counts == {"fefet.samples": 8}
    assert prof.fallbacks == 1


def test_checks_flag_a_wrong_objective_and_broken_counters(tiny, tmp_path):
    wl = WORKLOADS[tiny("qkp_serial_store")]
    run = harness.WorkloadRun(wl, 11, tmp_path)
    run.build()
    results = run.call(wl.iterations)

    def errors(result):
        return trial_errors(run.problem, run.model, result, wl.iterations,
                            True)

    assert not any(errors(r) for r in results)
    results[0].best_objective += 1
    results[1].num_infeasible_skipped += 1
    assert errors(results[0]) and errors(results[1])


def test_reference_objective_is_a_local_optimum_on_a_small_instance():
    import itertools

    import numpy as np

    rng = np.random.default_rng(0)
    n = 10
    profits = np.triu(rng.integers(0, 20, size=(n, n)).astype(float))
    profits = profits + np.triu(profits, 1).T
    weights = rng.integers(1, 10, size=(2, n)).astype(float)
    capacities = weights.sum(axis=1) / 2
    best = 0.0
    for bits in itertools.product((0.0, 1.0), repeat=n):
        x = np.array(bits)
        if np.all(weights @ x <= capacities):
            best = max(best, float(np.diag(profits) @ x
                                   + x @ np.triu(profits, 1) @ x))
    reference = reference_objective(profits, weights, capacities)
    assert 0.8 * best <= reference <= best
