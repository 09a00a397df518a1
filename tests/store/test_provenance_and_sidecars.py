"""Manifest provenance, store --json output, and sidecar/wall-time merge."""

import json

import pytest

from repro.problems.generators import generate_qkp_instance
from repro.runtime import run_trials
from repro.store import CampaignStore
from repro.store.cli import main
from repro.store.schema import RunManifest, run_provenance

HYCIM_FAST = {"num_iterations": 15, "move_generator": "knapsack",
              "use_hardware": False}


@pytest.fixture(scope="module")
def problem():
    return generate_qkp_instance(num_items=12, density=0.5, max_weight=8,
                                 seed=61, name="prov_prob")


class TestProvenance:
    def test_snapshot_contents(self):
        import numpy as np

        import repro

        snapshot = run_provenance()
        assert snapshot["repro_version"] == repro.__version__
        assert snapshot["numpy_version"] == np.__version__
        assert set(snapshot) == {"repro_version", "numpy_version",
                                 "python_version", "platform", "hostname"}

    def test_new_manifests_carry_provenance(self, problem, tmp_path):
        store = CampaignStore(tmp_path / "store")
        batch = run_trials(problem, ("hycim", HYCIM_FAST), num_trials=2,
                           master_seed=1, store=store)
        manifest = store.get_manifest(batch.run_key)
        # Environment snapshot plus the post-run kernel_resolved stamp.
        assert manifest.provenance == dict(run_provenance(),
                                           kernel_resolved="reference")
        # the snapshot survives a round-trip through a fresh handle
        reread = CampaignStore(tmp_path / "store").get_manifest(batch.run_key)
        assert reread.provenance == manifest.provenance

    def test_trials_of_the_scalar_loops_stamp_scalar(self, problem, tmp_path):
        # Trials persisted before single trials ran on the engine carry
        # neither the engine's "vectorized" marker nor a kernel stamp.
        store = CampaignStore(tmp_path / "store")
        batch = run_trials(problem, ("hycim", HYCIM_FAST), num_trials=2,
                           master_seed=1, store=store)
        for index, result in enumerate(batch.results):
            for key in ("vectorized", "num_replicas", "kernel"):
                result.metadata.pop(key, None)
            store.append_result(batch.run_key, index, result)
        reread = CampaignStore(tmp_path / "store")
        resumed = run_trials(problem, ("hycim", HYCIM_FAST), num_trials=2,
                             master_seed=1, store=reread)
        assert resumed.num_loaded_from_store == 2
        provenance = reread.get_manifest(batch.run_key).provenance
        assert provenance["kernel_resolved"] == "scalar"

    def test_old_manifests_tolerated(self):
        # A manifest line written before provenance existed parses fine.
        legacy = {"run_key": "k" * 64, "solver": "hycim", "label": "hycim",
                  "params": {}, "problem_name": "p", "instance_hash": "h",
                  "master_seed": 1, "backend": "serial",
                  "num_trials_requested": 4}
        manifest = RunManifest.from_dict(legacy)
        assert manifest.provenance is None
        assert manifest.to_dict()["provenance"] is None

    def test_provenance_not_in_run_key(self, problem, tmp_path):
        # Same identity on a "different host" must address the same run.
        store = CampaignStore(tmp_path / "store")
        batch = run_trials(problem, ("hycim", HYCIM_FAST), num_trials=2,
                           master_seed=1, store=store)
        manifest = store.get_manifest(batch.run_key)
        moved = RunManifest.from_dict(
            dict(manifest.to_dict(), provenance=dict(
                manifest.provenance, hostname="elsewhere")))
        assert moved.run_key == batch.run_key


class TestStoreCliJson:
    def test_list_json(self, problem, tmp_path, capsys):
        store = CampaignStore(tmp_path / "store")
        batch = run_trials(problem, ("hycim", HYCIM_FAST), num_trials=3,
                           master_seed=2, store=store)
        assert main(["list", str(tmp_path / "store"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1
        entry = payload[0]
        assert entry["run_key"] == batch.run_key  # full key, not truncated
        assert entry["problem"] == "prov_prob"
        assert entry["trials_persisted"] == 3
        assert entry["trials_requested"] == 3
        assert entry["provenance"]["numpy_version"]

    def test_list_json_empty_store(self, tmp_path, capsys):
        CampaignStore(tmp_path / "store")
        assert main(["list", str(tmp_path / "store"), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_inspect_json(self, problem, tmp_path, capsys):
        store = CampaignStore(tmp_path / "store")
        batch = run_trials(problem, ("hycim", HYCIM_FAST), num_trials=3,
                           master_seed=2, store=store)
        assert main(["inspect", str(tmp_path / "store"), batch.run_key[:12],
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["run_key"] == batch.run_key
        assert payload["params"]["num_iterations"] == 15
        assert len(payload["trials"]) == 3
        trial = payload["trials"][0]
        assert set(trial) == {"index", "seed", "energy", "objective",
                              "feasible", "wall_time"}
        assert trial["feasible"] in (True, False)

    def test_inspect_table_shows_provenance(self, problem, tmp_path, capsys):
        store = CampaignStore(tmp_path / "store")
        batch = run_trials(problem, ("hycim", HYCIM_FAST), num_trials=2,
                           master_seed=2, store=store)
        assert main(["inspect", str(tmp_path / "store"),
                     batch.run_key[:12]]) == 0
        output = capsys.readouterr().out
        assert "provenance" in output
        # the post-run kernel stamp rides the summary line
        assert "kernel reference" in output


class TestMergeCarriesSidecars:
    def _populated(self, root, problem, telemetry):
        store = CampaignStore(root)
        batch = run_trials(problem, ("hycim", HYCIM_FAST), num_trials=2,
                           master_seed=7, store=store, telemetry=telemetry)
        return store, batch

    def test_merge_copies_sidecar_and_wall_time(self, problem, tmp_path):
        source, batch = self._populated(tmp_path / "src", problem,
                                        telemetry=True)
        dest = CampaignStore(tmp_path / "dest")
        dest.merge(source)
        assert dest.telemetry_path(batch.run_key).exists()
        assert dest.load_telemetry(batch.run_key) == \
            source.load_telemetry(batch.run_key)
        assert dest.accumulated_wall_time(batch.run_key) == pytest.approx(
            source.accumulated_wall_time(batch.run_key))

    def test_merge_keeps_existing_sidecar(self, problem, tmp_path):
        source, batch = self._populated(tmp_path / "src", problem,
                                        telemetry=True)
        dest, _ = self._populated(tmp_path / "dest", problem, telemetry=True)
        before = dest.load_telemetry(batch.run_key)
        before_time = dest.accumulated_wall_time(batch.run_key)
        dest.merge(source)
        # dest already observed this run: its own telemetry/timing win
        assert dest.load_telemetry(batch.run_key) == before
        assert dest.accumulated_wall_time(batch.run_key) == before_time

    def test_merge_drops_torn_sidecar_tail(self, problem, tmp_path):
        source, batch = self._populated(tmp_path / "src", problem,
                                        telemetry=True)
        sidecar = source.telemetry_path(batch.run_key)
        sidecar.write_bytes(sidecar.read_bytes() + b'{"kind":"probe","na')
        dest = CampaignStore(tmp_path / "dest")
        dest.merge(source)
        copied = dest.telemetry_path(batch.run_key).read_text()
        assert copied.endswith("\n")
        assert dest.load_telemetry(batch.run_key) == \
            source.load_telemetry(batch.run_key)

    def test_merge_without_sidecars(self, problem, tmp_path):
        source, batch = self._populated(tmp_path / "src", problem,
                                        telemetry=None)
        dest = CampaignStore(tmp_path / "dest")
        added = dest.merge(source)
        assert added["trials"] == 2
        assert not dest.telemetry_path(batch.run_key).exists()


class TestWallTimeBookkeeping:
    def test_unregistered_run_rejected(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        with pytest.raises(KeyError):
            store.record_wall_time("nope" * 16, 1.0)
        with pytest.raises(KeyError):
            store.telemetry_recorder("nope" * 16)

    def test_accumulation_sums_lines(self, problem, tmp_path):
        store = CampaignStore(tmp_path / "store")
        batch = run_trials(problem, ("hycim", HYCIM_FAST), num_trials=2,
                           master_seed=7, store=store)
        store.record_wall_time(batch.run_key, 1.5)
        store.record_wall_time(batch.run_key, 0.25)
        assert store.accumulated_wall_time(batch.run_key) == pytest.approx(
            batch.wall_time + 1.75)
        assert store.accumulated_wall_time("f" * 64) == 0.0
