"""Telemetry integration with the runtime: spans, probes, parity, sidecars."""

import numpy as np
import pytest

from repro.dynamics import ParallelTempering
from repro.kernels import KernelUnsupportedError
from repro.problems.generators import generate_qkp_instance
from repro.runtime import run_campaign, run_portfolio, run_trials
from repro.runtime.aggregate import aggregate_trials, statistics_fingerprint
from repro.store import CampaignStore
from repro.telemetry import InMemoryRecorder, use_recorder

HYCIM_FAST = {"num_iterations": 60, "move_generator": "knapsack",
              "use_hardware": False}


@pytest.fixture(scope="module")
def problem():
    return generate_qkp_instance(num_items=16, density=0.5, max_weight=10,
                                 seed=5, name="telemetry_prob")


def _fingerprint(batch):
    return statistics_fingerprint(aggregate_trials(batch))


class TestSpans:
    def test_run_chunk_trial_spans(self, problem):
        recorder = InMemoryRecorder(probe_interval=20)
        batch = run_trials(problem, ("hycim", HYCIM_FAST), num_trials=3,
                           master_seed=1, telemetry=recorder)
        starts = recorder.events_of_kind("span_start")
        names = [e["name"] for e in starts]
        assert names.count("run") == 1
        assert names.count("chunk") >= 1
        assert names.count("trial") == 3
        run_event = next(e for e in starts if e["name"] == "run")
        assert run_event["solver"] == "hycim"
        assert run_event["trials"] == 3
        # every span closes, and batch wall time comes from the run span
        ends = recorder.events_of_kind("span_end")
        assert len(ends) == len(starts)
        run_end = next(e for e in ends if e["name"] == "run")
        assert batch.wall_time == pytest.approx(run_end["elapsed"])

    def test_vectorized_uses_trial_group_span(self, problem):
        recorder = InMemoryRecorder(probe_interval=20)
        run_trials(problem, ("hycim", HYCIM_FAST), num_trials=4,
                   master_seed=1, backend="vectorized", telemetry=recorder)
        names = [e["name"] for e in recorder.events_of_kind("span_start")]
        assert "trial_group" in names
        assert "sweep_block" in names

    @pytest.mark.parametrize("backend", ["serial", "vectorized", "process"])
    def test_resumed_run_emits_one_chunk_span_per_chunk(self, problem,
                                                        tmp_path, backend):
        store = CampaignStore(tmp_path / "store")
        args = dict(num_trials=4, chunk_size=2, backend=backend,
                    master_seed=1, num_workers=2, store=store)
        run_trials(problem, ("hycim", HYCIM_FAST), **args)
        recorder = InMemoryRecorder()
        batch = run_trials(problem, ("hycim", HYCIM_FAST), telemetry=recorder,
                           **args)
        starts = recorder.events_of_kind("span_start")
        assert [e["name"] for e in starts] == ["run", "chunk", "chunk"]
        assert [e["fresh"] for e in starts[1:]] == [0, 0]
        assert batch.num_loaded_from_store == 4

    def test_ambient_recorder_is_picked_up(self, problem):
        recorder = InMemoryRecorder(probe_interval=20)
        with use_recorder(recorder):
            run_trials(problem, ("hycim", HYCIM_FAST), num_trials=2,
                       master_seed=1)
        assert recorder.events_of_kind("span_start")

    def test_failed_probed_run_closes_its_spans(self, problem):
        """A run that dies inside the engine must not leave its sweep block
        open: later spans on the same recorder would nest under it."""
        recorder = InMemoryRecorder(probe_interval=5)
        with pytest.raises(KernelUnsupportedError):
            run_trials(problem, "hycim", num_trials=2, backend="vectorized",
                       params={"num_iterations": 20, "kernel": "fused",
                               "use_hardware": True},
                       master_seed=1, telemetry=recorder)
        started = [e["span"] for e in recorder.events_of_kind("span_start")]
        ended = [e["span"] for e in recorder.events_of_kind("span_end")]
        assert sorted(started) == sorted(ended)
        run_trials(problem, ("hycim", HYCIM_FAST), num_trials=1,
                   master_seed=1, telemetry=recorder)
        runs = [e for e in recorder.events_of_kind("span_start")
                if e["name"] == "run"]
        assert len(runs) == 2
        assert runs[-1]["parent"] is None

    def test_counters_count_trials(self, problem):
        recorder = InMemoryRecorder(probe_interval=20)
        run_trials(problem, ("hycim", HYCIM_FAST), num_trials=3,
                   master_seed=1, telemetry=recorder)
        assert recorder.totals["trials_completed"] == 3


class TestProbes:
    def test_scalar_probe_contents(self, problem):
        recorder = InMemoryRecorder(probe_interval=20)
        run_trials(problem, ("hycim", HYCIM_FAST), num_trials=1,
                   master_seed=1, telemetry=recorder)
        probes = recorder.probes("sweep")
        # 60 iterations / interval 20 -> probes at 20, 40, 60 (final).
        assert [p["iteration"] for p in probes] == [20, 40, 60]
        probe = probes[-1]
        assert probe["solver"] == "HyCiM"
        assert probe["engine"] == "batched"
        assert probe["replicas"] == 1
        values = probe["values"]
        for key in ("temperature", "energy", "best_energy", "accept_rate",
                    "filter_reject_rate", "proposals_total", "accepted_total",
                    "rejected_total"):
            assert len(values[key]) == 1, key
        assert isinstance(values["mean_energy"], float)
        assert isinstance(values["feasible_replicas"], int)
        assert 0.0 <= values["accept_rate"][0] <= 1.0
        assert 0.0 <= values["filter_reject_rate"][0] <= 1.0

    def test_sa_probes_keep_their_fields(self, problem):
        # SA runs the HyCiM sweep with every incumbent feasible; its probes
        # still carry no feasible-replica count, which only HyCiM reports.
        recorder = InMemoryRecorder(probe_interval=20)
        run_trials(problem, ("sa", {"num_iterations": 60}), num_trials=2,
                   master_seed=1, backend="vectorized", telemetry=recorder)
        probe = recorder.probes("sweep")[-1]
        assert probe["solver"] == "SimulatedAnnealer"
        assert set(probe["values"]) == {
            "temperature", "energy", "best_energy", "mean_energy",
            "accept_rate", "filter_reject_rate", "proposals_total",
            "accepted_total", "rejected_total"}

    def test_final_iteration_always_probed(self, problem):
        # interval larger than the sweep still yields the final probe
        recorder = InMemoryRecorder(probe_interval=1000)
        run_trials(problem, ("hycim", HYCIM_FAST), num_trials=1,
                   master_seed=1, telemetry=recorder)
        iterations = [p["iteration"] for p in recorder.probes("sweep")]
        assert iterations == [HYCIM_FAST["num_iterations"]]

    def test_batched_probe_shapes(self, problem):
        recorder = InMemoryRecorder(probe_interval=20)
        run_trials(problem, ("hycim", HYCIM_FAST), num_trials=4,
                   master_seed=1, backend="vectorized", telemetry=recorder)
        probe = recorder.probes("sweep")[-1]
        assert probe["engine"] == "batched"
        assert probe["replicas"] == 4
        values = probe["values"]
        for key in ("temperature", "energy", "best_energy", "accept_rate",
                    "filter_reject_rate"):
            assert len(values[key]) == 4, key

    def test_tempering_probes_carry_exchange_rates(self, problem):
        recorder = InMemoryRecorder(probe_interval=20)
        run_trials(problem, ("hycim", HYCIM_FAST), num_trials=4,
                   master_seed=1, backend="vectorized",
                   dynamics=ParallelTempering(exchange_interval=5),
                   telemetry=recorder)
        probe = recorder.probes("sweep")[-1]
        values = probe["values"]
        assert len(values["exchange_attempts"]) == 4
        assert len(values["exchange_accepted"]) == 4
        assert len(values["exchange_rate"]) == 4
        assert all(0.0 <= rate <= 1.0 for rate in values["exchange_rate"])
        assert sum(values["exchange_attempts"]) > 0
        # windowed: per-probe attempts stay bounded by the probe window
        per_probe = [sum(p["values"]["exchange_attempts"])
                     for p in recorder.probes("sweep")]
        assert max(per_probe) <= 4 * 20

    def test_independent_replicas_omit_exchange(self, problem):
        recorder = InMemoryRecorder(probe_interval=20)
        run_trials(problem, ("hycim", HYCIM_FAST), num_trials=4,
                   master_seed=1, backend="vectorized", telemetry=recorder)
        values = recorder.probes("sweep")[-1]["values"]
        assert "exchange_rate" not in values

    def test_sa_and_dqubo_probe_too(self, problem):
        for solver, params in (
                ("sa", {"num_iterations": 60}),
                ("dqubo", {"num_iterations": 60, "use_hardware": False})):
            recorder = InMemoryRecorder(probe_interval=30)
            run_trials(problem, (solver, params), num_trials=1,
                       master_seed=1, telemetry=recorder)
            assert recorder.probes("sweep"), solver

    def test_dqubo_probes_read_alike_in_both_modes(self, problem):
        # Both modes run the HyCiM engine over the penalty model, so their
        # probes carry the same label and fields.
        probes = {}
        for use_hardware in (False, True):
            recorder = InMemoryRecorder(probe_interval=20)
            run_trials(problem, ("dqubo", {"num_iterations": 60,
                                           "use_hardware": use_hardware}),
                       num_trials=2, master_seed=1, backend="vectorized",
                       telemetry=recorder)
            probes[use_hardware] = recorder.probes("sweep")[-1]
        for probe in probes.values():
            assert probe["solver"] == "HyCiM"
            assert probe["values"]["feasible_replicas"] == 2
        assert set(probes[False]["values"]) == set(probes[True]["values"])


class TestParity:
    """A live recorder never changes results (telemetry consumes no RNG)."""

    def test_scalar_fingerprint_identical(self, problem):
        plain = run_trials(problem, ("hycim", HYCIM_FAST), num_trials=4,
                           master_seed=9)
        live = run_trials(problem, ("hycim", HYCIM_FAST), num_trials=4,
                          master_seed=9,
                          telemetry=InMemoryRecorder(probe_interval=10))
        assert _fingerprint(plain) == _fingerprint(live)

    def test_vectorized_tempering_fingerprint_identical(self, problem):
        kwargs = dict(num_trials=4, master_seed=9, backend="vectorized",
                      dynamics=ParallelTempering(exchange_interval=5))
        plain = run_trials(problem, ("hycim", HYCIM_FAST), **kwargs)
        live = run_trials(problem, ("hycim", HYCIM_FAST),
                          telemetry=InMemoryRecorder(probe_interval=10),
                          **kwargs)
        assert _fingerprint(plain) == _fingerprint(live)
        np.testing.assert_array_equal(plain.best_energies, live.best_energies)

    def test_store_run_key_unaffected(self, problem, tmp_path):
        store_a = CampaignStore(tmp_path / "a")
        store_b = CampaignStore(tmp_path / "b")
        plain = run_trials(problem, ("hycim", HYCIM_FAST), num_trials=2,
                           master_seed=3, store=store_a)
        live = run_trials(problem, ("hycim", HYCIM_FAST), num_trials=2,
                          master_seed=3, store=store_b, telemetry=True)
        assert plain.run_key == live.run_key


class TestSidecar:
    def test_telemetry_true_requires_store(self, problem):
        with pytest.raises(ValueError, match="store"):
            run_trials(problem, ("hycim", HYCIM_FAST), num_trials=1,
                       telemetry=True)

    def test_sidecar_persisted_under_run_key(self, problem, tmp_path):
        store = CampaignStore(tmp_path / "store")
        batch = run_trials(problem, ("hycim", HYCIM_FAST), num_trials=2,
                           master_seed=3, store=store, telemetry=True)
        sidecar = store.telemetry_path(batch.run_key)
        assert sidecar.exists()
        events = store.load_telemetry(batch.run_key)
        assert any(e["kind"] == "probe" for e in events)
        assert any(e["kind"] == "span_end" and e["name"] == "run"
                   for e in events)

    def test_resumed_session_appends_to_sidecar(self, problem, tmp_path):
        store = CampaignStore(tmp_path / "store")
        kwargs = dict(num_trials=2, master_seed=3, store=store, telemetry=True)
        first = run_trials(problem, ("hycim", HYCIM_FAST), **kwargs)
        run_trials(problem, ("hycim", HYCIM_FAST), **kwargs)
        sessions = {e["session"]
                    for e in store.load_telemetry(first.run_key)}
        assert len(sessions) == 2


class TestWallTimeAccumulation:
    def test_wall_time_accumulates_across_resume(self, problem, tmp_path):
        store = CampaignStore(tmp_path / "store")
        kwargs = dict(num_trials=3, master_seed=3, store=store)
        first = run_trials(problem, ("hycim", HYCIM_FAST), **kwargs)
        assert first.wall_time > 0
        assert store.accumulated_wall_time(first.run_key) == pytest.approx(
            first.wall_time)
        resumed = run_trials(problem, ("hycim", HYCIM_FAST), **kwargs)
        assert resumed.num_loaded_from_store == 3
        # resumed batch reports total compute ever spent, not just loading
        assert resumed.wall_time > first.wall_time
        assert store.accumulated_wall_time(first.run_key) == pytest.approx(
            resumed.wall_time)

    def test_resume_false_still_records(self, problem, tmp_path):
        store = CampaignStore(tmp_path / "store")
        batch = run_trials(problem, ("hycim", HYCIM_FAST), num_trials=2,
                           master_seed=3, store=store, resume=False)
        # resume=False reports this session only but still logs the line
        assert store.accumulated_wall_time(batch.run_key) == pytest.approx(
            batch.wall_time)

    def test_no_store_unaffected(self, problem):
        batch = run_trials(problem, ("hycim", HYCIM_FAST), num_trials=2,
                           master_seed=3)
        assert batch.wall_time > 0


class TestCampaignPortfolio:
    def test_campaign_span_wraps_cells(self, problem):
        recorder = InMemoryRecorder(probe_interval=50)
        run_campaign([problem], [("hycim", HYCIM_FAST)], num_trials=2,
                     master_seed=1, telemetry=recorder)
        starts = recorder.events_of_kind("span_start")
        campaign = next(e for e in starts if e["name"] == "campaign")
        runs = [e for e in starts if e["name"] == "run"]
        assert runs and all(e["parent"] == campaign["span"] for e in runs)
        assert recorder.totals["cells_completed"] == 1

    def test_portfolio_span_wraps_members(self, problem):
        recorder = InMemoryRecorder(probe_interval=50)
        run_portfolio(problem, solvers=("greedy", ("hycim", HYCIM_FAST)),
                      num_trials=2, master_seed=1, telemetry=recorder)
        starts = recorder.events_of_kind("span_start")
        portfolio = next(e for e in starts if e["name"] == "portfolio")
        runs = [e for e in starts if e["name"] == "run"]
        assert len(runs) == 2
        assert all(e["parent"] == portfolio["span"] for e in runs)

    def test_campaign_telemetry_true_persists_per_cell(self, problem,
                                                       tmp_path):
        store = CampaignStore(tmp_path / "store")
        result = run_campaign([problem], [("hycim", HYCIM_FAST)],
                              num_trials=2, master_seed=1, store=store,
                              telemetry=True)
        run_key = result.records[0].batch.run_key
        assert store.telemetry_path(run_key).exists()


class TestProcessBackend:
    def test_parent_records_chunks_workers_drop(self, problem):
        recorder = InMemoryRecorder(probe_interval=20)
        batch = run_trials(problem, ("hycim", HYCIM_FAST), num_trials=3,
                           master_seed=1, backend="process", num_workers=2,
                           telemetry=recorder)
        names = [e["name"] for e in recorder.events_of_kind("span_start")]
        assert "run" in names and "chunk" in names
        # worker-side trial spans / probes are intentionally dropped
        assert "trial" not in names
        assert recorder.totals["trials_completed"] == 3
        assert batch.wall_time > 0
