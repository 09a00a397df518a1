"""Integration tests: dynamics through run_trials / campaigns / the store.

Covers the executor's coupled-dynamics routing (every backend runs a coupled
replica group through the batched engine), the determinism and store-resume
guarantees of tempered runs, the chip-faithful shared-RNG mode, and run-key
canonicalisation of dynamics parameters.
"""

import numpy as np
import pytest

from repro.analysis.sweeps import sweep_exchange_interval
from repro.dynamics import Dynamics, ParallelTempering, TemperatureLadder
from repro.exact.local_search import reference_qkp_value
from repro.problems.generators import generate_qkp_instance
from repro.runtime import build_dynamics, run_campaign, run_trials
from repro.runtime.registry import run_single_trial
from repro.store import CampaignStore
from repro.store.schema import canonical_json

PARAMS = {"num_iterations": 25, "use_hardware": False}


@pytest.fixture(scope="module")
def problem():
    return generate_qkp_instance(num_items=18, density=0.5, max_weight=10,
                                 max_profit=50, seed=71, name="dyn_qkp")


def deterministic_fields(batch):
    return [(r.trial_seed, r.best_energy, r.best_objective, r.feasible,
             tuple(r.best_configuration))
            for r in batch.results]


class TestCoupledRouting:
    def test_all_backends_agree_on_one_tempered_group(self, problem):
        """With the default grouping (one ladder spanning the whole batch)
        serial, process and vectorized backends run the identical coupled
        group and must produce identical deterministic fields."""
        dynamics = ParallelTempering(exchange_interval=5)
        batches = {
            backend: run_trials(problem, "hycim", num_trials=6, params=PARAMS,
                                backend=backend, master_seed=17,
                                dynamics=dynamics,
                                **({"num_workers": 2}
                                   if backend == "process" else {}))
            for backend in ("serial", "vectorized", "process")
        }
        reference = deterministic_fields(batches["serial"])
        for backend in ("vectorized", "process"):
            assert deterministic_fields(batches[backend]) == reference, backend

    def test_tempered_runs_are_reproducible(self, problem):
        dynamics = ParallelTempering(exchange_interval=3)
        first = run_trials(problem, "hycim", num_trials=6, params=PARAMS,
                           backend="vectorized", master_seed=5,
                           dynamics=dynamics)
        second = run_trials(problem, "hycim", num_trials=6, params=PARAMS,
                            backend="vectorized", master_seed=5,
                            dynamics=ParallelTempering(exchange_interval=3))
        assert deterministic_fields(first) == deterministic_fields(second)

    def test_exchange_metadata_reaches_results(self, problem):
        batch = run_trials(problem, "hycim", num_trials=4, params=PARAMS,
                           backend="vectorized", master_seed=1,
                           dynamics=ParallelTempering(exchange_interval=2))
        for result in batch.results:
            assert result.metadata["ladder_rungs"] == 4
            assert result.metadata["exchange_interval"] == 2
            assert result.metadata["exchange_attempts"] > 0

    def test_uncoupled_dynamics_keep_scalar_parity(self, problem):
        """A dynamics bundle that only overrides the schedule is not coupled:
        scalar and vectorized paths stay bitwise identical."""
        from repro.dynamics.schedule import GeometricSchedule

        dynamics = Dynamics(schedule=GeometricSchedule(150.0, 0.4))
        serial = run_trials(problem, "hycim", num_trials=5, params=PARAMS,
                            backend="serial", master_seed=23,
                            dynamics=dynamics)
        vectorized = run_trials(problem, "hycim", num_trials=5, params=PARAMS,
                                backend="vectorized", master_seed=23,
                                dynamics=dynamics)
        assert deterministic_fields(serial) == deterministic_fields(vectorized)

    def test_sa_solver_supports_tempering(self, problem):
        batch = run_trials(problem, "sa", num_trials=4, params=PARAMS,
                           backend="vectorized", master_seed=9,
                           dynamics=ParallelTempering(exchange_interval=4))
        assert batch.num_trials == 4
        assert all(r.metadata["ladder_rungs"] == 4 for r in batch.results)

    def test_dqubo_solver_supports_tempering(self, problem):
        batch = run_trials(problem, "dqubo", num_trials=4,
                           params={"num_iterations": 15},
                           backend="vectorized", master_seed=9,
                           dynamics=ParallelTempering(exchange_interval=4))
        assert batch.num_trials == 4

    def test_solver_without_batched_engine_rejects_coupled(self, problem):
        with pytest.raises(ValueError, match="batched trial function"):
            run_trials(problem, "greedy", num_trials=2,
                       dynamics=ParallelTempering())

    def test_single_trial_runs_coupled_dynamics_as_one_replica_group(
            self, problem):
        # A single trial is the one-replica group of the batched engine, so
        # a coupled bundle is honoured, not dropped.
        dynamics = ParallelTempering(exchange_interval=5)
        group = run_trials(problem, "hycim", num_trials=1, params=PARAMS,
                           master_seed=17, dynamics=dynamics)
        single = run_single_trial(problem, ("hycim", {
            **PARAMS, "dynamics": dynamics}), seed=group.results[0].trial_seed)
        assert deterministic_fields(group)[0] == (
            single.trial_seed, single.best_energy, single.best_objective,
            single.feasible, tuple(single.best_configuration))
        assert single.metadata["ladder_rungs"] == 1

    def test_explicit_ladder_must_match_group_size(self, problem):
        dynamics = ParallelTempering(ladder=TemperatureLadder((1.0, 2.0)))
        with pytest.raises(ValueError, match="rungs"):
            run_trials(problem, "hycim", num_trials=3, params=PARAMS,
                       backend="vectorized", master_seed=2, dynamics=dynamics)

    def test_dynamics_in_params_is_equivalent_to_argument(self, problem):
        via_arg = run_trials(problem, "hycim", num_trials=4, params=PARAMS,
                             backend="vectorized", master_seed=3,
                             dynamics=ParallelTempering(exchange_interval=2))
        via_params = run_trials(
            problem, "hycim", num_trials=4,
            params={**PARAMS,
                    "dynamics": ParallelTempering(exchange_interval=2)},
            backend="vectorized", master_seed=3)
        assert deterministic_fields(via_arg) == deterministic_fields(via_params)


class TestSharedRngMode:
    def test_shared_mode_runs_and_tags_metadata(self, problem):
        batch = run_trials(problem, "hycim", num_trials=5, params=PARAMS,
                           backend="vectorized", master_seed=31,
                           dynamics=Dynamics(rng_mode="shared"))
        assert all(r.metadata["rng_mode"] == "shared" for r in batch.results)

    def test_shared_mode_intentionally_breaks_scalar_parity(self, problem):
        """All replicas draw from one stream, so per-seed results must (in
        general) differ from the per-replica-stream baseline -- the
        documented trade of scalar parity for batched draws."""
        per_replica = run_trials(problem, "hycim", num_trials=6, params=PARAMS,
                                 backend="vectorized", master_seed=31)
        shared = run_trials(problem, "hycim", num_trials=6, params=PARAMS,
                            backend="vectorized", master_seed=31,
                            dynamics=Dynamics(rng_mode="shared"))
        assert deterministic_fields(per_replica) != deterministic_fields(shared)

    def test_shared_mode_is_deterministic_per_master_seed(self, problem):
        runs = [
            run_trials(problem, "hycim", num_trials=5, params=PARAMS,
                       backend="vectorized", master_seed=8,
                       dynamics=Dynamics(rng_mode="shared"))
            for _ in range(2)
        ]
        assert deterministic_fields(runs[0]) == deterministic_fields(runs[1])

    def test_shared_mode_composes_with_tempering(self, problem):
        dynamics = ParallelTempering(exchange_interval=3, rng_mode="shared")
        batch = run_trials(problem, "hycim", num_trials=4, params=PARAMS,
                           backend="vectorized", master_seed=4,
                           dynamics=dynamics)
        for result in batch.results:
            assert result.metadata["rng_mode"] == "shared"
            assert result.metadata["exchange_interval"] == 3


class TestRunKeys:
    def test_dynamics_changes_the_run_key(self, problem, tmp_path):
        store = CampaignStore(tmp_path / "store")
        plain = run_trials(problem, "hycim", num_trials=2, params=PARAMS,
                           backend="vectorized", master_seed=1, store=store)
        tempered = run_trials(problem, "hycim", num_trials=2, params=PARAMS,
                              backend="vectorized", master_seed=1,
                              dynamics=ParallelTempering(), store=store)
        assert plain.run_key != tempered.run_key

    def test_dict_and_object_spelling_share_a_run_key(self, problem, tmp_path):
        store = CampaignStore(tmp_path / "store")
        via_dict = run_trials(
            problem, "hycim", num_trials=2, params=PARAMS,
            backend="vectorized", master_seed=1, store=store,
            dynamics={"kind": "parallel_tempering", "exchange_interval": 4})
        via_object = run_trials(
            problem, "hycim", num_trials=2, params=PARAMS,
            backend="vectorized", master_seed=1, store=store,
            dynamics=ParallelTempering(exchange_interval=4))
        assert via_dict.run_key == via_object.run_key
        assert via_object.num_loaded_from_store == 2

    def test_build_dynamics_canonicalises_components(self):
        built = build_dynamics({
            "kind": "dynamics",
            "schedule": {"kind": "geometric", "start_temperature": 9.0,
                         "end_temperature": 0.5},
            "ladder": [1.0, 2.0, 4.0],
            "exchange": {"kind": "even_odd", "exchange_interval": 7},
            "rng_mode": "shared",
        })
        from repro.dynamics import EvenOddExchange
        from repro.dynamics.schedule import GeometricSchedule

        handmade = Dynamics(
            schedule=GeometricSchedule(9.0, 0.5),
            ladder=TemperatureLadder((1.0, 2.0, 4.0)),
            exchange=EvenOddExchange(exchange_interval=7),
            rng_mode="shared")
        assert canonical_json(built) == canonical_json(handmade)

    def test_build_dynamics_rejects_unknown_kinds(self):
        with pytest.raises(ValueError, match="unknown dynamics kind"):
            build_dynamics({"kind": "quantum"})
        with pytest.raises(TypeError):
            build_dynamics("parallel_tempering")


class TestStoreResume:
    @pytest.mark.parametrize("backend", ["serial", "process", "vectorized"])
    def test_resumed_tempered_run_matches_uninterrupted(self, problem,
                                                        tmp_path, backend):
        """Group-aligned interruption: the first ladder of a two-ladder run
        is persisted, the resume executes only the second, and the combined
        result set is identical to an uninterrupted run."""
        dynamics = ParallelTempering(exchange_interval=5)
        kwargs = dict(params=PARAMS, master_seed=13, dynamics=dynamics,
                      chunk_size=3)
        full_store = CampaignStore(tmp_path / f"full-{backend}")
        uninterrupted = run_trials(problem, "hycim", num_trials=6,
                                   backend=backend, store=full_store,
                                   **kwargs)
        # "Interrupted" run: only the first chunk's ladder (trials 0-2)
        # completed before the crash.
        store = CampaignStore(tmp_path / f"store-{backend}")
        store.register_run(full_store.get_manifest(uninterrupted.run_key))
        persisted = full_store.load_results(uninterrupted.run_key)
        for index in (0, 1, 2):
            store.append_result(uninterrupted.run_key, index, persisted[index])
        resumed = run_trials(problem, "hycim", num_trials=6, backend=backend,
                             store=store, **kwargs)
        assert resumed.run_key == uninterrupted.run_key
        assert resumed.num_loaded_from_store == 3
        assert deterministic_fields(resumed) == \
            deterministic_fields(uninterrupted)

    def test_partially_persisted_group_reruns_whole(self, problem, tmp_path):
        """A ladder interrupted mid-group cannot resume trial by trial: a
        store holding only part of the group's trials (a crash between
        per-trial appends) triggers a whole re-run of the group, whose
        results supersede the fragment."""
        dynamics = ParallelTempering(exchange_interval=5)
        kwargs = dict(params=PARAMS, master_seed=13, dynamics=dynamics)
        full_store = CampaignStore(tmp_path / "full")
        uninterrupted = run_trials(problem, "hycim", num_trials=4,
                                   backend="vectorized", store=full_store,
                                   **kwargs)
        # Simulate the mid-group crash: same manifest, only trials 0-1
        # persisted.
        partial_store = CampaignStore(tmp_path / "partial")
        partial_store.register_run(
            full_store.get_manifest(uninterrupted.run_key))
        persisted = full_store.load_results(uninterrupted.run_key)
        for index in (0, 1):
            partial_store.append_result(uninterrupted.run_key, index,
                                        persisted[index])
        resumed = run_trials(problem, "hycim", num_trials=4,
                             backend="vectorized", store=partial_store,
                             **kwargs)
        assert resumed.run_key == uninterrupted.run_key
        assert resumed.num_loaded_from_store == 0
        assert deterministic_fields(resumed) == \
            deterministic_fields(uninterrupted)
        # The store now holds the full-group results (latest line wins).
        reloaded = run_trials(problem, "hycim", num_trials=4,
                              backend="vectorized", store=partial_store,
                              **kwargs)
        assert reloaded.num_loaded_from_store == 4
        assert deterministic_fields(reloaded) == \
            deterministic_fields(uninterrupted)

    def test_coupled_run_keys_include_the_grouping(self, problem, tmp_path):
        """Coupled trial outcomes depend on the replica-group composition,
        so a re-run under a different grouping must address a *fresh* run --
        never silently load results produced under another ladder shape --
        while uncoupled run keys keep their count-independent address."""
        dynamics = ParallelTempering(exchange_interval=5)
        kwargs = dict(params=PARAMS, master_seed=13, dynamics=dynamics,
                      backend="vectorized")
        store = CampaignStore(tmp_path / "store")
        wide = run_trials(problem, "hycim", num_trials=6, store=store,
                          **kwargs)
        narrow = run_trials(problem, "hycim", num_trials=3, store=store,
                            **kwargs)
        assert narrow.run_key != wide.run_key
        assert narrow.num_loaded_from_store == 0
        # The 3-rung ladder genuinely differs from rungs 0-2 of the 6-rung
        # ladder, which is exactly why the key must fork.
        assert deterministic_fields(narrow) != deterministic_fields(wide)[:3]
        regrouped = run_trials(problem, "hycim", num_trials=6, chunk_size=3,
                               store=store, **kwargs)
        assert regrouped.run_key not in (wide.run_key, narrow.run_key)
        # Uncoupled runs keep the count-independent address: a longer
        # re-run extends the same persisted run.
        plain_short = run_trials(problem, "hycim", num_trials=3,
                                 params=PARAMS, backend="vectorized",
                                 master_seed=13, store=store)
        plain_long = run_trials(problem, "hycim", num_trials=6,
                                params=PARAMS, backend="vectorized",
                                master_seed=13, store=store)
        assert plain_long.run_key == plain_short.run_key
        assert plain_long.num_loaded_from_store == 3

    def test_ladder_only_dynamics_are_coupled_not_silently_dropped(
            self, problem):
        """A ladder without exchange still makes a trial's result depend on
        its group position, so it must route through the batched engine on
        every backend (identical results), never silently degrade to
        per-trial scalar runs."""
        from repro.dynamics import MetropolisRule

        dynamics = Dynamics(ladder=TemperatureLadder((1.0, 2.0, 4.0, 8.0)))
        assert dynamics.coupled
        serial = run_trials(problem, "hycim", num_trials=4, params=PARAMS,
                            backend="serial", master_seed=29,
                            dynamics=dynamics)
        vectorized = run_trials(problem, "hycim", num_trials=4, params=PARAMS,
                                backend="vectorized", master_seed=29,
                                dynamics=dynamics)
        assert deterministic_fields(serial) == deterministic_fields(vectorized)
        assert all(r.metadata["ladder_rungs"] == 4 for r in serial.results)

        class AlwaysAccept(MetropolisRule):
            pass

        assert Dynamics(acceptance=AlwaysAccept()).coupled
        assert not Dynamics(acceptance=MetropolisRule()).coupled

    @pytest.mark.parametrize("backend", ["serial", "process", "vectorized"])
    def test_tempered_campaign_fingerprint_identical_after_resume(
            self, problem, tmp_path, backend):
        problems = [problem,
                    generate_qkp_instance(num_items=15, density=0.4,
                                          max_weight=8, max_profit=40,
                                          seed=72, name="dyn_qkp_b")]
        solvers = [("hycim", PARAMS)]
        references = {p.name: reference_qkp_value(p, seed=0)
                      for p in problems}
        dynamics = ParallelTempering(exchange_interval=5)
        kwargs = dict(num_trials=4, backend=backend, master_seed=37,
                      references=references, early_stop=False,
                      dynamics=dynamics)
        uninterrupted = run_campaign(problems, solvers, **kwargs)
        store = CampaignStore(tmp_path / f"campaign-{backend}")
        # Interrupt after the first instance: hierarchical seeding keeps the
        # surviving cell's master seed (and run key) unchanged.
        run_campaign(problems[:1], solvers, store=store, **kwargs)
        resumed = run_campaign(problems, solvers, store=store, **kwargs)
        assert resumed.fingerprint() == uninterrupted.fingerprint()
        assert resumed.records[0].batch.num_loaded_from_store == 4


class TestSweepExchangeInterval:
    def test_sweep_runs_and_reports_points(self, problem):
        points = sweep_exchange_interval(problem, intervals=(2, 10),
                                         num_replicas=6, sa_iterations=8,
                                         seed=3)
        assert [p.parameter for p in points] == [2.0, 10.0]
        for point in points:
            assert point.num_runs == 6
            assert 0.0 <= point.success_rate <= 1.0
            assert point.mean_normalized_value > 0

    def test_sweep_validates_inputs(self, problem):
        with pytest.raises(ValueError):
            sweep_exchange_interval(problem, intervals=(0,), num_replicas=4,
                                    sa_iterations=5)
        with pytest.raises(ValueError):
            sweep_exchange_interval(problem, num_replicas=0)
