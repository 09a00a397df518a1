"""Checkpoint/resume parity: interrupted runs resume to identical aggregates.

The deterministic equality these tests assert is
:func:`repro.runtime.statistics_fingerprint` /
:meth:`CampaignResult.fingerprint` -- every field derived from trial
outcomes, i.e. everything except wall-clock timings (which differ between
*any* two executions, interrupted or not).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.exact.local_search import reference_qkp_value
from repro.problems.generators import generate_qkp_instance
from repro.runtime import (
    aggregate_trials,
    run_campaign,
    run_trials,
    statistics_fingerprint,
)
from repro.store import CampaignStore

SRC = Path(__file__).resolve().parents[2] / "src"

HYCIM_FAST = {"num_iterations": 15, "move_generator": "knapsack",
              "use_hardware": False}
BACKENDS = [("serial", {}),
            ("process", {"num_workers": 2, "chunk_size": 2}),
            ("vectorized", {})]


class InterruptingStore(CampaignStore):
    """Raises after ``limit`` appends -- an in-process stand-in for a crash."""

    def __init__(self, root, limit):
        super().__init__(root)
        self.limit = limit

    def append_result(self, *args, **kwargs):
        if self.limit <= 0:
            raise KeyboardInterrupt("simulated interrupt")
        super().append_result(*args, **kwargs)
        self.limit -= 1


@pytest.fixture(scope="module")
def problem():
    return generate_qkp_instance(num_items=12, density=0.5, max_weight=8,
                                 seed=21, name="resume_prob")


@pytest.fixture(scope="module")
def reference(problem):
    return reference_qkp_value(problem)


class TestRunTrialsResume:
    @pytest.mark.parametrize("backend,kwargs", BACKENDS)
    def test_interrupt_then_resume_matches_uninterrupted(
            self, tmp_path, problem, reference, backend, kwargs):
        uninterrupted = run_trials(problem, ("hycim", HYCIM_FAST),
                                   num_trials=6, backend=backend,
                                   master_seed=17, **kwargs)
        interrupted = InterruptingStore(tmp_path / "store", limit=3)
        with pytest.raises(KeyboardInterrupt):
            run_trials(problem, ("hycim", HYCIM_FAST), num_trials=6,
                       backend=backend, master_seed=17,
                       store=interrupted, **kwargs)

        store = CampaignStore(tmp_path / "store")
        resumed = run_trials(problem, ("hycim", HYCIM_FAST), num_trials=6,
                             backend=backend, master_seed=17, store=store,
                             **kwargs)
        assert resumed.num_loaded_from_store == 3
        np.testing.assert_array_equal(uninterrupted.best_energies,
                                      resumed.best_energies)
        assert [r.trial_seed for r in uninterrupted.results] == \
            [r.trial_seed for r in resumed.results]
        assert statistics_fingerprint(
            aggregate_trials(resumed, reference=reference)) == \
            statistics_fingerprint(
                aggregate_trials(uninterrupted, reference=reference))

    def test_early_stopping_composes_with_resume(self, tmp_path, problem,
                                                 reference):
        target = 0.5 * reference  # generous: stops within a couple of chunks
        kwargs = dict(num_trials=8, master_seed=17, chunk_size=2,
                      target_objective=target)
        uninterrupted = run_trials(problem, ("hycim", HYCIM_FAST), **kwargs)
        interrupted = InterruptingStore(tmp_path / "store", limit=1)
        with pytest.raises(KeyboardInterrupt):
            run_trials(problem, ("hycim", HYCIM_FAST),
                       store=interrupted, **kwargs)
        resumed = run_trials(problem, ("hycim", HYCIM_FAST),
                             store=CampaignStore(tmp_path / "store"), **kwargs)
        # Same trials executed, same early-stop decision, same results.
        assert resumed.num_trials == uninterrupted.num_trials
        assert resumed.stopped_early == uninterrupted.stopped_early
        np.testing.assert_array_equal(uninterrupted.best_energies,
                                      resumed.best_energies)

    def test_extending_a_run_reuses_the_persisted_prefix(self, tmp_path,
                                                         problem):
        store = CampaignStore(tmp_path / "store")
        short = run_trials(problem, ("hycim", HYCIM_FAST), num_trials=3,
                           master_seed=5, store=store)
        longer = run_trials(problem, ("hycim", HYCIM_FAST), num_trials=6,
                            master_seed=5, store=store)
        assert longer.num_loaded_from_store == 3
        np.testing.assert_array_equal(longer.best_energies[:3],
                                      short.best_energies)

    def test_resume_false_reexecutes_and_overwrites(self, tmp_path, problem):
        store = CampaignStore(tmp_path / "store")
        first = run_trials(problem, ("hycim", HYCIM_FAST), num_trials=3,
                           master_seed=5, store=store)
        again = run_trials(problem, ("hycim", HYCIM_FAST), num_trials=3,
                           master_seed=5, store=store, resume=False)
        assert again.num_loaded_from_store == 0
        np.testing.assert_array_equal(first.best_energies, again.best_energies)
        assert store.num_results(first.run_key) == 3

    def test_mismatched_store_contents_are_rejected(self, tmp_path, problem):
        store = CampaignStore(tmp_path / "store")
        batch = run_trials(problem, ("hycim", HYCIM_FAST), num_trials=2,
                           master_seed=5, store=store)
        # Corrupt the persisted seed of trial 0.
        tampered = batch.results[0]
        tampered.trial_seed = 12345
        store.append_result(batch.run_key, 0, tampered)
        with pytest.raises(ValueError, match="do not match"):
            run_trials(problem, ("hycim", HYCIM_FAST), num_trials=2,
                       master_seed=5, store=store)

    def test_torn_trailing_write_is_rerun(self, tmp_path, problem):
        store = CampaignStore(tmp_path / "store")
        full = run_trials(problem, ("hycim", HYCIM_FAST), num_trials=4,
                          master_seed=5, store=store)
        shard = sorted((store.root / "shards").glob(f"{full.run_key}.*"))[-1]
        lines = shard.read_text().splitlines(keepends=True)
        shard.write_text("".join(lines[:-1]) + lines[-1][:25])  # torn tail
        resumed = run_trials(problem, ("hycim", HYCIM_FAST), num_trials=4,
                             master_seed=5,
                             store=CampaignStore(tmp_path / "store"))
        assert resumed.num_loaded_from_store == 3
        np.testing.assert_array_equal(full.best_energies,
                                      resumed.best_energies)

    def test_garbled_final_line_is_rerun(self, tmp_path, problem):
        """A lost page after a power failure leaves a final line of NULs
        that keeps its newline: it is torn too, so the resume re-runs the
        trial and cuts the line before appending, and later loads see
        every trial."""
        store = CampaignStore(tmp_path / "store")
        full = run_trials(problem, ("hycim", HYCIM_FAST), num_trials=3,
                          master_seed=5, store=store)
        shard = sorted((store.root / "shards").glob(f"{full.run_key}.*"))[-1]
        lines = shard.read_bytes().splitlines(keepends=True)
        shard.write_bytes(b"".join(lines[:-1])
                          + b"\0" * (len(lines[-1]) - 1) + b"\n")
        assert sorted(CampaignStore(store.root).load_results(full.run_key)) \
            == [0, 1]
        resumed = run_trials(problem, ("hycim", HYCIM_FAST), num_trials=3,
                             master_seed=5, store=CampaignStore(store.root))
        assert resumed.num_loaded_from_store == 2
        assert sorted(CampaignStore(store.root).load_results(full.run_key)) \
            == [0, 1, 2]
        np.testing.assert_array_equal(full.best_energies,
                                      resumed.best_energies)

    @pytest.mark.parametrize("log, cut", [("wall_times.jsonl", 7),
                                          ("manifest.jsonl", 5)])
    def test_runs_after_a_torn_log_tail_all_load(self, tmp_path, log, cut):
        """A kill inside a log append (``record_wall_time`` runs in
        ``run_trials``' ``finally``) leaves a torn final line; the next
        write handle must cut it, not weld its first record onto it."""
        problem = generate_qkp_instance(num_items=12, seed=1)
        root = tmp_path / "store"

        def run(master_seed):
            return run_trials(problem, ("hycim", {"num_iterations": 20,
                                                  "use_hardware": False}),
                              num_trials=2, master_seed=master_seed,
                              store=CampaignStore(root))

        run(0)
        path = root / log
        path.write_bytes(path.read_bytes()[:-cut])
        keys = [run(master_seed).run_key for master_seed in (1, 2, 3)]
        store = CampaignStore(root, create=False)
        assert {m.master_seed for m in store.runs()} == {0, 1, 2, 3}
        for key in keys:
            assert sorted(store.load_results(key)) == [0, 1]
            assert store.accumulated_wall_time(key) > 0


# ------------------------------------------------------------------ #
# Kill-mid-campaign: a real process dies without cleanup, then resumes.
# ------------------------------------------------------------------ #
_CHILD = """
import os, sys
sys.path.insert(0, {src!r})
from repro.exact.local_search import reference_qkp_value
from repro.problems.generators import generate_qkp_instance
from repro.runtime import run_campaign
from repro.store import CampaignStore

class DyingStore(CampaignStore):
    def __init__(self, root, limit):
        super().__init__(root)
        self.limit = limit
    def append_result(self, *args, **kwargs):
        if self.limit <= 0:
            raise KeyboardInterrupt("die")
        super().append_result(*args, **kwargs)
        self.limit -= 1

root, backend, limit = sys.argv[1], sys.argv[2], int(sys.argv[3])
problems = [generate_qkp_instance(num_items=12, density=d, max_weight=8,
                                  seed=40 + i, name=f"kill_{{i}}")
            for i, d in enumerate((0.4, 0.7))]
references = {{p.name: reference_qkp_value(p) for p in problems}}
solvers = ["greedy", ("hycim", {hycim!r})]
try:
    run_campaign(problems, solvers, num_trials=5, backend=backend,
                 master_seed=33, references=references, early_stop=False,
                 store=DyingStore(root, limit))
except KeyboardInterrupt:
    # os._exit skips every interpreter cleanup (atexit, buffered writes,
    # destructors) -- the on-disk store state is exactly what a SIGKILL at
    # this instant would leave, since appends are flushed single lines.
    # (Raising first lets the process-backend pool tear down its daemon
    # workers, which would otherwise outlive us holding our pipes.)
    os._exit(3)
os._exit(9)   # campaign unexpectedly ran to completion
""".format(src=str(SRC), hycim=HYCIM_FAST)


@pytest.mark.slow
@pytest.mark.parametrize("backend,kwargs", BACKENDS)
def test_killed_campaign_resumes_to_identical_aggregates(tmp_path, backend,
                                                         kwargs):
    problems = [generate_qkp_instance(num_items=12, density=d, max_weight=8,
                                      seed=40 + i, name=f"kill_{i}")
                for i, d in enumerate((0.4, 0.7))]
    references = {p.name: reference_qkp_value(p) for p in problems}
    solvers = ["greedy", ("hycim", HYCIM_FAST)]
    campaign_args = dict(num_trials=5, backend=backend, master_seed=33,
                         references=references, early_stop=False, **kwargs)

    uninterrupted = run_campaign(problems, solvers, **campaign_args)

    killed_after = 4  # of 12 total trials (2 instances x (1 greedy + 5 hycim))
    script = tmp_path / "child.py"
    script.write_text(_CHILD)
    child = subprocess.run(
        [sys.executable, str(script), str(tmp_path / "store"), backend,
         str(killed_after)],
        capture_output=True, text=True, timeout=300)
    assert child.returncode == 3, child.stderr

    store = CampaignStore(tmp_path / "store")
    resumed = run_campaign(problems, solvers, store=store, **campaign_args)
    # The resumed campaign really did reuse the dead process's results...
    assert sum(r.batch.num_loaded_from_store
               for r in resumed.records) == killed_after
    # ...and its deterministic aggregates are bitwise identical.
    assert resumed.fingerprint() == uninterrupted.fingerprint()
    for expected, actual in zip(uninterrupted.records, resumed.records):
        np.testing.assert_array_equal(expected.batch.best_energies,
                                      actual.batch.best_energies)

    # A second resume finds everything persisted and loads it all.
    rerun = run_campaign(problems, solvers,
                         store=CampaignStore(tmp_path / "store"),
                         **campaign_args)
    assert all(r.batch.num_loaded_from_store == r.batch.num_trials
               for r in rerun.records)
    assert rerun.fingerprint() == uninterrupted.fingerprint()
    # The campaign log deduped to one entry per cell.
    assert len(store.load_campaign_records()) == len(uninterrupted.records)
