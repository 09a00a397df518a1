"""Kill-mid-chunk on the process backend: torn worker shard, clean resume.

A child process plays out the fatal scenario end-to-end: it registers a
process-backend run, opens the parent sidecar recorder, and executes one
chunk exactly as a pool worker would (same ``_execute_chunk`` entry point,
same shipped :class:`RecorderSpec`) -- except its worker recorder is rigged
to write a deliberately torn partial line and ``SIGKILL`` itself after a
few committed probes.  That leaves the on-disk state of a machine that
died mid-sweep: a parent sidecar whose run/chunk spans never closed, and a
worker shard ending in an unterminated line.

The contract verified here (ISSUE 9 satellite): the merged timeline still
contains the dead worker's committed probes; resuming the run against the
same store physically repairs the torn shard (the dead pid never returns
to reopen it -- the parent recorder is the only writer left), re-executes
the unpersisted trials under fresh session ids, and lands on results
fingerprint-identical to an uninterrupted run.
"""

import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.problems.generators import generate_qkp_instance
from repro.runtime import aggregate_trials, run_trials, statistics_fingerprint
from repro.store import CampaignStore
from repro.telemetry import load_events

SRC = Path(__file__).resolve().parents[2] / "src"

HYCIM_FAST = {"num_iterations": 60, "move_generator": "knapsack",
              "use_hardware": False}

_CHILD = """
import os, signal, sys
sys.path.insert(0, {src!r})
import repro.runtime.executor as executor
from repro.problems.generators import generate_qkp_instance
from repro.problems.io import content_hash
from repro.runtime.executor import derive_trial_seeds
from repro.runtime.registry import as_solver_spec, get_trial_function
from repro.store import CampaignStore
from repro.store.schema import manifest_for_run

root = sys.argv[1]
problem = generate_qkp_instance(num_items=14, density=0.5, max_weight=8,
                                seed=37, name="kill_chunk")
spec = as_solver_spec(("hycim", {hycim!r}))
store = CampaignStore(root)
manifest = manifest_for_run(spec, problem, content_hash(problem), 29,
                            "process", 4)
run_key = store.register_run(manifest).run_key
parent = store.telemetry_recorder(run_key, probe_interval=5)

# Rig the worker-side recorder: after 4 committed probes, tear the shard's
# final line exactly as a SIGKILL mid-write would, then die uncatchably.
real = executor._worker_recorder
def rigged(spec):
    recorder = real(spec)
    seen = [0]
    def killer(event):
        if event["kind"] != "probe":
            return
        seen[0] += 1
        if seen[0] >= 4:
            recorder._handle.write('{{"kind":"probe","name":"swe')
            recorder._handle.flush()
            os.kill(os.getpid(), signal.SIGKILL)
    recorder.subscribe(killer)
    return recorder
executor._worker_recorder = rigged

seeds = derive_trial_seeds(29, 4)
with parent.span("run", solver="hycim", backend="process", trials=4):
    with parent.span("chunk", index=0, trials=1, fresh=1):
        executor._execute_chunk((problem, spec, get_trial_function("hycim"),
                                 1, False, [(0, seeds[0], None)],
                                 0, parent.worker_spec(), True))
os._exit(9)   # the SIGKILL never fired: fail loudly
""".format(src=str(SRC), hycim=HYCIM_FAST)


@pytest.mark.slow
def test_sigkilled_worker_shard_is_merged_repaired_and_resumed(tmp_path):
    problem = generate_qkp_instance(num_items=14, density=0.5, max_weight=8,
                                    seed=37, name="kill_chunk")
    run_args = dict(num_trials=4, master_seed=29, backend="process",
                    chunk_size=1, num_workers=2)
    uninterrupted = run_trials(problem, ("hycim", HYCIM_FAST), **run_args)

    script = tmp_path / "child.py"
    script.write_text(_CHILD)
    child = subprocess.run([sys.executable, str(script),
                            str(tmp_path / "store")],
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == -signal.SIGKILL, (child.returncode,
                                                 child.stderr)

    store = CampaignStore(tmp_path / "store")
    run_key = store.runs()[0].run_key
    shards = store.telemetry_shard_paths(run_key)
    assert len(shards) == 1
    torn = shards[0]
    assert not torn.read_text().endswith("\n")    # really torn on disk

    # The merged timeline already reads through the wreckage: the worker's
    # committed probes are present, attributed, and joined to the parent's
    # (never-closed) chunk span.
    events = store.load_telemetry(run_key)
    probes = [e for e in events if e["kind"] == "probe"]
    assert len(probes) == 4
    assert {e["shard"] for e in probes} == {torn.name.split(".")[-2]}
    wc = [e for e in events if e.get("name") == "worker_chunk"
          and e["kind"] == "span_start"]
    assert len(wc) == 1 and wc[0]["merge_parent"][0] == "main"
    killed_sessions = {e["session"] for e in events}

    # Resume against the same store.  No trial was persisted before the
    # kill, so the full batch re-executes -- and must land on the
    # uninterrupted run's numbers exactly.
    resumed = run_trials(problem, ("hycim", HYCIM_FAST), store=store,
                         telemetry=True, **run_args)
    assert resumed.run_key == run_key
    assert resumed.num_loaded_from_store == 0
    np.testing.assert_array_equal(resumed.best_energies,
                                  uninterrupted.best_energies)
    assert statistics_fingerprint(aggregate_trials(resumed)) == \
        statistics_fingerprint(aggregate_trials(uninterrupted))

    # Opening the resume's recorder repaired the dead worker's torn tail:
    # the whole shard set is physically well-formed again.
    assert torn.read_text().endswith("\n")
    for shard in [store.telemetry_path(run_key)] + \
            store.telemetry_shard_paths(run_key):
        load_events(shard)  # would raise TelemetryError on a weld

    # The resumed sessions run under fresh ids, appended beside the dead
    # ones; the dead worker's probes are still there.
    merged = store.load_telemetry(run_key)
    assert killed_sessions < {e["session"] for e in merged}
    old_probes = [e for e in merged if e["kind"] == "probe"
                  and e["session"] in killed_sessions]
    assert len(old_probes) == 4
    fresh_probes = [e for e in merged if e["kind"] == "probe"
                    and e["session"] not in killed_sessions]
    assert len(fresh_probes) >= 4    # one final sweep probe per re-run trial
