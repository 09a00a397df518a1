"""CampaignStore behaviour: shards, rotation, torn writes, merge, export."""

import json

import numpy as np
import pytest

from repro.annealing.result import SolveResult
from repro.problems.generators import generate_qkp_instance
from repro.problems.io import content_hash
from repro.runtime import SolverSpec
from repro.store import CampaignStore, StoreError, manifest_for_run


def make_result(index: int, energy: float = -1.0) -> SolveResult:
    return SolveResult(best_configuration=np.zeros(3), best_energy=energy,
                       best_objective=-energy, trial_seed=1000 + index,
                       wall_time=0.01, metadata={"trial_index": index})


@pytest.fixture
def problem():
    return generate_qkp_instance(num_items=10, seed=4, name="store_prob")


@pytest.fixture
def registered(tmp_path, problem):
    store = CampaignStore(tmp_path / "store", shard_size=2)
    manifest = manifest_for_run(SolverSpec("hycim"), problem,
                                content_hash(problem), master_seed=0,
                                backend="serial", num_trials=5)
    store.register_run(manifest)
    return store, manifest


class TestAppendLoad:
    def test_round_trip_and_ordering(self, registered):
        store, manifest = registered
        for index in (2, 0, 1):
            store.append_result(manifest.run_key, index, make_result(index))
        loaded = store.load_results(manifest.run_key)
        assert sorted(loaded) == [0, 1, 2]
        assert loaded[2].trial_seed == 1002
        assert loaded[0].metadata == {"trial_index": 0}

    def test_shard_rotation_never_reopens_full_shards(self, registered):
        store, manifest = registered
        for index in range(5):
            store.append_result(manifest.run_key, index, make_result(index))
        shards = sorted((store.root / "shards").glob("*.jsonl"))
        assert len(shards) == 3  # shard_size=2 -> 2 + 2 + 1 lines
        assert [len(s.read_text().splitlines()) for s in shards] == [2, 2, 1]
        assert store.num_results(manifest.run_key) == 5

    def test_fresh_handle_continues_the_active_shard(self, tmp_path, problem):
        store, manifest = CampaignStore(tmp_path / "s", shard_size=3), None
        manifest = manifest_for_run(SolverSpec("hycim"), problem,
                                    content_hash(problem), 0, "serial", 4)
        store.register_run(manifest)
        store.append_result(manifest.run_key, 0, make_result(0))
        # A second handle (new process, say) picks up where the first left off.
        again = CampaignStore(tmp_path / "s", shard_size=3)
        again.append_result(manifest.run_key, 1, make_result(1))
        shards = sorted((again.root / "shards").glob("*.jsonl"))
        assert len(shards) == 1
        assert len(again.load_results(manifest.run_key)) == 2

    def test_duplicate_trial_index_latest_wins(self, registered):
        store, manifest = registered
        store.append_result(manifest.run_key, 0, make_result(0, energy=-1.0))
        store.append_result(manifest.run_key, 0, make_result(0, energy=-9.0))
        assert store.load_results(manifest.run_key)[0].best_energy == -9.0

    def test_append_requires_registration(self, tmp_path):
        store = CampaignStore(tmp_path / "s")
        with pytest.raises(KeyError, match="not registered"):
            store.append_result("deadbeef", 0, make_result(0))
        with pytest.raises(ValueError):
            CampaignStore(tmp_path / "t", shard_size=0)

    def test_load_results_of_unknown_run_is_empty(self, tmp_path):
        assert CampaignStore(tmp_path / "s").load_results("missing") == {}


class TestDurability:
    def test_torn_final_line_is_dropped(self, registered):
        store, manifest = registered
        store.append_result(manifest.run_key, 0, make_result(0))
        store.append_result(manifest.run_key, 1, make_result(1))
        last_shard = sorted((store.root / "shards").glob("*.jsonl"))[-1]
        with last_shard.open("a") as handle:
            handle.write('{"trial_index": 2, "result": {"best_en')  # killed mid-write
        fresh = CampaignStore(store.root, shard_size=2)
        assert sorted(fresh.load_results(manifest.run_key)) == [0, 1]

    def test_corruption_elsewhere_raises(self, registered):
        store, manifest = registered
        for index in range(3):
            store.append_result(manifest.run_key, index, make_result(index))
        first_shard = sorted((store.root / "shards").glob("*.jsonl"))[0]
        lines = first_shard.read_text().splitlines()
        lines[0] = lines[0][:10]
        first_shard.write_text("\n".join(lines) + "\n")
        with pytest.raises(StoreError, match="corrupt"):
            CampaignStore(store.root, shard_size=2).load_results(manifest.run_key)

    def test_torn_line_in_a_full_shard_raises(self, registered):
        """Full shards are never appended to again, so only the final shard
        may end in a torn line; anywhere else it is corruption."""
        store, manifest = registered
        for index in range(3):
            store.append_result(manifest.run_key, index, make_result(index))
        first_shard = sorted((store.root / "shards").glob("*.jsonl"))[0]
        first_shard.write_bytes(first_shard.read_bytes()[:-1])
        with pytest.raises(StoreError, match="torn"):
            CampaignStore(store.root, shard_size=2).load_results(manifest.run_key)

    def test_append_after_torn_tail_repairs_the_shard(self, registered):
        """Resuming after a crash must not weld new records onto the torn
        partial line -- the store stays loadable through arbitrarily many
        crash/resume cycles."""
        store, manifest = registered
        store.append_result(manifest.run_key, 0, make_result(0))
        shard = sorted((store.root / "shards").glob("*.jsonl"))[-1]
        with shard.open("a") as handle:
            handle.write('{"trial_index": 1, "result": {"best')  # crash here
        fresh = CampaignStore(store.root, shard_size=2)
        fresh.append_result(manifest.run_key, 1, make_result(1))
        fresh.append_result(manifest.run_key, 2, make_result(2))
        # All three trials load, from every handle, with no StoreError.
        assert sorted(CampaignStore(store.root,
                                    shard_size=2).load_results(manifest.run_key)) \
            == [0, 1, 2]

    def test_unterminated_final_line_counts_as_torn_even_if_parseable(
            self, registered):
        store, manifest = registered
        store.append_result(manifest.run_key, 0, make_result(0))
        shard = sorted((store.root / "shards").glob("*.jsonl"))[-1]
        content = shard.read_text()
        store.append_result(manifest.run_key, 1, make_result(1))
        # Rewrite so the last record is complete JSON but missing its
        # newline: a crash that cut exactly before the terminator.
        lines = shard.read_text().splitlines()
        shard.write_text(content + lines[-1])
        fresh = CampaignStore(store.root, shard_size=2)
        # Readers and the append path agree: the record never committed.
        assert sorted(fresh.load_results(manifest.run_key)) == [0]
        fresh.append_result(manifest.run_key, 1, make_result(1, energy=-5.0))
        loaded = fresh.load_results(manifest.run_key)
        assert sorted(loaded) == [0, 1]
        assert loaded[1].best_energy == -5.0

    def test_append_detects_growth_by_another_handle(self, registered):
        """A full shard stays immutable even when another handle filled it
        between this handle's appends (shard_size=2 here)."""
        store, manifest = registered
        store.append_result(manifest.run_key, 0, make_result(0))
        other = CampaignStore(store.root, shard_size=2)
        other.append_result(manifest.run_key, 1, make_result(1))  # fills shard 0
        store.append_result(manifest.run_key, 2, make_result(2))  # must rotate
        shards = sorted((store.root / "shards").glob("*.jsonl"))
        assert [len(s.read_text().splitlines()) for s in shards] == [2, 1]
        assert sorted(store.load_results(manifest.run_key)) == [0, 1, 2]

    def test_append_detects_rotation_by_another_handle(self, registered):
        store, manifest = registered
        store.append_result(manifest.run_key, 0, make_result(0))
        other = CampaignStore(store.root, shard_size=2)
        for index in (1, 2):   # fills shard 0 and rotates to shard 1
            other.append_result(manifest.run_key, index, make_result(index))
        # The first handle's cached position is now stale; it must follow
        # the rotation instead of reopening the full shard 0.
        store.append_result(manifest.run_key, 3, make_result(3))
        shards = sorted((store.root / "shards").glob("*.jsonl"))
        assert [len(s.read_text().splitlines()) for s in shards] == [2, 2]
        assert sorted(store.load_results(manifest.run_key)) == [0, 1, 2, 3]

    def test_torn_manifest_tail_is_dropped(self, registered):
        store, manifest = registered
        with (store.root / "manifest.jsonl").open("a") as handle:
            handle.write('{"run_key": "half')
        fresh = CampaignStore(store.root)
        assert [m.run_key for m in fresh.runs()] == [manifest.run_key]

    def test_line_without_trial_index_raises(self, registered):
        store, manifest = registered
        store.append_result(manifest.run_key, 0, make_result(0))
        shard = sorted((store.root / "shards").glob("*.jsonl"))[0]
        with shard.open("a") as handle:
            handle.write(json.dumps({"result": {}}) + "\n")
            handle.write(json.dumps({"trial_index": 1, "result": {}}) + "\n")
        with pytest.raises(StoreError, match="trial_index"):
            store.load_results(manifest.run_key)


class TestManifestAndMerge:
    def test_register_is_idempotent_and_raises_trial_count(self, registered):
        store, manifest = registered
        store.register_run(manifest)
        assert len(store.runs()) == 1
        bigger = manifest_for_run(SolverSpec("hycim"),
                                  generate_qkp_instance(num_items=10, seed=4,
                                                        name="store_prob"),
                                  manifest.instance_hash, 0, "serial", 50)
        store.register_run(bigger)
        reloaded = CampaignStore(store.root)
        assert reloaded.get_manifest(manifest.run_key).num_trials_requested == 50

    def test_get_manifest_prefix_resolution(self, registered):
        store, manifest = registered
        assert store.get_manifest(manifest.run_key[:10]) == \
            store.get_manifest(manifest.run_key)
        with pytest.raises(KeyError, match="no run"):
            store.get_manifest("zzzz")

    def test_merge_adds_only_missing_data(self, tmp_path, problem):
        left = CampaignStore(tmp_path / "left")
        right = CampaignStore(tmp_path / "right")
        manifest = manifest_for_run(SolverSpec("hycim"), problem,
                                    content_hash(problem), 0, "serial", 4)
        for store in (left, right):
            store.register_run(manifest)
        left.append_result(manifest.run_key, 0, make_result(0, energy=-1.0))
        right.append_result(manifest.run_key, 0, make_result(0, energy=-99.0))
        right.append_result(manifest.run_key, 1, make_result(1))
        other = manifest_for_run(SolverSpec("greedy"), problem,
                                 content_hash(problem), 1, "serial", 1)
        right.register_run(other)
        right.append_result(other.run_key, 0, make_result(0))

        added = left.merge(right)
        assert added == {"runs": 1, "trials": 2}
        # The shared trial keeps the destination's version.
        assert left.load_results(manifest.run_key)[0].best_energy == -1.0
        assert len(left.load_results(other.run_key)) == 1
        # Merging again is a no-op.
        assert left.merge(right) == {"runs": 0, "trials": 0}


class TestExportCsv:
    def test_floats_round_trip_through_the_csv(self, registered):
        import csv

        store, manifest = registered
        tricky = SolveResult(best_configuration=np.ones(3),
                             best_energy=0.1 + 0.2,  # needs 17 digits
                             best_objective=None, trial_seed=2**64 - 1,
                             wall_time=1e-7)
        store.append_result(manifest.run_key, 0, tricky)
        out = store.root / "trials.csv"
        assert store.export_csv(out) == 1
        with out.open() as handle:
            row = list(csv.DictReader(handle))[0]
        assert float(row["best_energy"]) == tricky.best_energy
        assert row["best_objective"] == ""
        assert int(row["trial_seed"]) == 2**64 - 1
        assert float(row["wall_time"]) == 1e-7
        assert row["run_key"] == manifest.run_key
