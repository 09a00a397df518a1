"""Unit tests for the parallel trial executor.

The central claim (and the acceptance criterion of the runtime subsystem):
the ``process`` backend returns *bitwise identical* results to the ``serial``
backend for the same master seed, because every per-trial seed is spawned
with ``numpy.random.SeedSequence`` in the parent.
"""

import numpy as np
import pytest

from repro.annealing.result import SolveResult
from repro.problems.generators import generate_qkp_instance
from repro.runtime import (
    derive_trial_seeds,
    register_solver,
    replay_trial,
    run_trials,
    unregister_solver,
)
from repro.store import CampaignStore

HYCIM_FAST = {
    "num_iterations": 20,
    "moves_per_iteration": 12,
    "move_generator": "knapsack",
    "use_hardware": False,
}


class TestSeedDerivation:
    def test_seeds_are_deterministic(self):
        assert derive_trial_seeds(123, 8) == derive_trial_seeds(123, 8)

    def test_seeds_are_distinct_and_prefix_stable(self):
        seeds = derive_trial_seeds(0, 32)
        assert len(set(seeds)) == 32
        # Requesting more trials keeps the earlier seeds unchanged.
        assert derive_trial_seeds(0, 8) == seeds[:8]

    def test_different_master_seeds_differ(self):
        assert derive_trial_seeds(1, 4) != derive_trial_seeds(2, 4)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            derive_trial_seeds(0, -1)


class TestBackendEquivalence:
    def test_process_matches_serial_bitwise(self, small_qkp):
        """run_trials(..., backend="process") == backend="serial" (acceptance)."""
        serial = run_trials(small_qkp, solver="hycim", num_trials=20,
                            params=HYCIM_FAST, backend="serial", master_seed=11)
        process = run_trials(small_qkp, solver="hycim", num_trials=20,
                             params=HYCIM_FAST, backend="process",
                             master_seed=11, num_workers=2, chunk_size=4)
        np.testing.assert_array_equal(serial.best_energies, process.best_energies)
        for a, b in zip(serial.results, process.results):
            np.testing.assert_array_equal(a.best_configuration, b.best_configuration)
            assert a.trial_seed == b.trial_seed

    def test_chunk_size_does_not_change_results(self, small_qkp):
        one = run_trials(small_qkp, "hycim", num_trials=6, params=HYCIM_FAST,
                         backend="serial", master_seed=3, chunk_size=1)
        big = run_trials(small_qkp, "hycim", num_trials=6, params=HYCIM_FAST,
                         backend="serial", master_seed=3, chunk_size=4)
        np.testing.assert_array_equal(one.best_energies, big.best_energies)

    def test_dqubo_backend_equivalence(self, small_qkp):
        params = {"num_iterations": 15, "moves_per_iteration": 12}
        serial = run_trials(small_qkp, "dqubo", num_trials=4, params=params,
                            backend="serial", master_seed=5)
        process = run_trials(small_qkp, "dqubo", num_trials=4, params=params,
                             backend="process", master_seed=5, chunk_size=2)
        np.testing.assert_array_equal(serial.best_energies, process.best_energies)


class TestTrialBatch:
    def test_batch_metadata_and_ordering(self, small_qkp):
        batch = run_trials(small_qkp, "hycim", num_trials=5, params=HYCIM_FAST,
                           backend="serial", master_seed=7)
        assert batch.num_trials == 5
        assert batch.problem_name == "small"
        assert batch.backend == "serial"
        assert not batch.stopped_early
        assert [r.metadata["trial_index"] for r in batch.results] == list(range(5))
        assert batch.wall_time > 0

    def test_best_result_prefers_feasible_lowest_energy(self, small_qkp):
        batch = run_trials(small_qkp, "hycim", num_trials=5, params=HYCIM_FAST,
                           backend="serial", master_seed=7)
        best = batch.best_result
        assert best.feasible
        assert best.best_energy == batch.best_energies.min()

    def test_best_objectives_align_with_results(self, small_qkp):
        batch = run_trials(small_qkp, "hycim", num_trials=3, params=HYCIM_FAST,
                           backend="serial", master_seed=1)
        for value, result in zip(batch.best_objectives, batch.results):
            assert value == pytest.approx(result.best_objective)

    def test_initial_states_are_respected(self, tiny_qkp):
        # Zero iterations of movement is impossible, but with a tiny budget and
        # a fixed start the recorded best can only improve on the start energy.
        model = tiny_qkp.to_inequality_qubo()
        starts = [np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])]
        batch = run_trials(tiny_qkp, "hycim", num_trials=2,
                           params={"num_iterations": 2, "move_generator": "knapsack"},
                           initial_states=starts, master_seed=0)
        for start, result in zip(starts, batch.results):
            assert result.best_energy <= model.energy(start) + 1e-9

    def test_initial_states_length_mismatch(self, tiny_qkp):
        with pytest.raises(ValueError, match="initial_states"):
            run_trials(tiny_qkp, "hycim", num_trials=3,
                       initial_states=[np.zeros(3)])

    def test_validation_errors(self, tiny_qkp):
        with pytest.raises(ValueError, match="num_trials"):
            run_trials(tiny_qkp, "hycim", num_trials=0)
        with pytest.raises(ValueError, match="backend"):
            run_trials(tiny_qkp, "hycim", num_trials=1, backend="threads")
        with pytest.raises(ValueError, match="chunk_size"):
            run_trials(tiny_qkp, "hycim", num_trials=1, chunk_size=0)
        with pytest.raises(ValueError, match="num_workers"):
            run_trials(tiny_qkp, "hycim", num_trials=1, backend="process",
                       num_workers=0)

    def test_bad_worker_count_leaves_the_store_untouched(self, tiny_qkp,
                                                         tmp_path):
        store = CampaignStore(tmp_path / "store")
        with pytest.raises(ValueError, match="num_workers"):
            run_trials(tiny_qkp, "hycim", num_trials=4, backend="process",
                       chunk_size=2, num_workers=0, store=store)
        assert store.runs() == []
        assert not (store.root / "wall_times.jsonl").exists()


class TestEarlyStopping:
    def test_target_objective_stops_batch(self, tiny_qkp):
        # Brute-force optimum is 25; every trial reaches it, so the batch
        # should stop after the first chunk.
        batch = run_trials(tiny_qkp, "hycim", num_trials=10,
                           params={"num_iterations": 50, "moves_per_iteration": 3,
                                   "move_generator": "knapsack"},
                           master_seed=1, target_objective=20.0)
        assert batch.stopped_early
        assert batch.num_trials < 10
        assert batch.num_trials_requested == 10

    def test_unreachable_target_runs_all_trials(self, tiny_qkp):
        batch = run_trials(tiny_qkp, "hycim", num_trials=4,
                           params={"num_iterations": 5, "move_generator": "knapsack"},
                           master_seed=1, target_objective=1e9)
        assert not batch.stopped_early
        assert batch.num_trials == 4

    def test_target_energy_stops_batch(self, tiny_qkp):
        batch = run_trials(tiny_qkp, "hycim", num_trials=10,
                           params={"num_iterations": 50, "moves_per_iteration": 3,
                                   "move_generator": "knapsack"},
                           master_seed=1, target_energy=-20.0)
        assert batch.stopped_early


#: Trial indices executed by the counting stub solver, in execution order.
#: The stub reads its trial index from ``initial[0]`` and reports an energy
#: of ``-index``, so a ``target_energy`` pins exactly which trial triggers
#: the early stop.
_EXECUTED_TRIALS = []


def _counting_trial(problem, params, seed, initial):
    index = int(initial[0])
    _EXECUTED_TRIALS.append(index)
    return SolveResult(
        best_configuration=np.zeros(problem.num_variables),
        best_energy=-float(index),
        feasible=True,
        solver_name="counting",
    )


class TestEarlyStoppingChunkBehaviour:
    """Pin how chunked dispatch interacts with early stopping.

    The documented contract (see the executor module docstring): the chunk
    containing the triggering trial always runs to completion -- trials after
    the hit within that chunk still execute and are reported -- and on the
    serial/vectorized backends no later chunk ever starts.  On the process
    backend, chunks already started in pool workers may also run, but their
    results are discarded and never reported.
    """

    @pytest.fixture
    def counting_solver(self):
        _EXECUTED_TRIALS.clear()
        register_solver("counting_stub", _counting_trial, overwrite=True)
        yield "counting_stub"
        unregister_solver("counting_stub")

    def test_triggering_chunk_runs_to_completion(self, tiny_qkp, counting_solver):
        # Trial 1 (energy -1) hits the target inside chunk 0 = trials {0,1,2}:
        # trial 2 still executes, trials 3..8 never start.
        starts = [np.array([float(i), 0.0, 0.0]) for i in range(9)]
        batch = run_trials(tiny_qkp, counting_solver, num_trials=9,
                           backend="serial", chunk_size=3,
                           initial_states=starts, target_energy=-1.0)
        assert _EXECUTED_TRIALS == [0, 1, 2]
        assert batch.num_trials == 3
        assert batch.stopped_early
        assert batch.num_trials_requested == 9

    def test_hit_in_later_chunk_executes_all_earlier_chunks(self, tiny_qkp,
                                                            counting_solver):
        starts = [np.array([float(i), 0.0, 0.0]) for i in range(8)]
        batch = run_trials(tiny_qkp, counting_solver, num_trials=8,
                           backend="serial", chunk_size=2,
                           initial_states=starts, target_energy=-4.0)
        # Chunks {0,1}, {2,3}, {4,5} execute; trial 4 triggers; 6/7 never run.
        assert _EXECUTED_TRIALS == [0, 1, 2, 3, 4, 5]
        assert batch.num_trials == 6
        assert batch.stopped_early

    def test_process_backend_discards_unconsumed_chunks(self, tiny_qkp,
                                                        counting_solver):
        # The consumer stops at the first (in-order) chunk that meets the
        # target; even if later chunks completed in pool workers their
        # results never reach the batch.
        starts = [np.array([float(i + 1), 0.0, 0.0]) for i in range(6)]
        batch = run_trials(tiny_qkp, counting_solver, num_trials=6,
                           backend="process", num_workers=2, chunk_size=1,
                           initial_states=starts, target_energy=-1.0)
        assert batch.num_trials == 1
        assert batch.stopped_early
        assert [r.metadata["trial_index"] for r in batch.results] == [0]

    def test_vectorized_backend_early_stop_granularity(self, tiny_qkp):
        # Default vectorized chunking is one lock-step batch: the target is
        # only checked after the whole batch, so nothing stops early...
        params = {"num_iterations": 40, "moves_per_iteration": 3,
                  "move_generator": "knapsack"}
        whole = run_trials(tiny_qkp, "hycim", num_trials=8, params=params,
                           backend="vectorized", master_seed=1,
                           target_objective=20.0)
        assert whole.num_trials == 8
        assert not whole.stopped_early
        # ...while an explicit chunk_size restores chunk-level early stops.
        chunked = run_trials(tiny_qkp, "hycim", num_trials=8, params=params,
                             backend="vectorized", chunk_size=2,
                             master_seed=1, target_objective=20.0)
        assert chunked.stopped_early
        assert chunked.num_trials < 8


class TestReplay:
    def test_replay_reproduces_trial(self, small_qkp):
        batch = run_trials(small_qkp, "hycim", num_trials=4, params=HYCIM_FAST,
                           backend="serial", master_seed=13)
        for index in (0, 3):
            replayed = replay_trial(small_qkp, batch, index)
            assert replayed.best_energy == batch.results[index].best_energy
            np.testing.assert_array_equal(
                replayed.best_configuration,
                batch.results[index].best_configuration)

    def test_replay_index_out_of_range(self, small_qkp):
        batch = run_trials(small_qkp, "hycim", num_trials=2, params=HYCIM_FAST,
                           master_seed=13)
        with pytest.raises(IndexError):
            replay_trial(small_qkp, batch, 5)

    def test_replay_refuses_coupled_dynamics(self):
        """A tempered trial depended on its whole ladder, so a one-trial
        replay would silently return a different trial."""
        problem = generate_qkp_instance(num_items=20, density=0.5, seed=1)
        batch = run_trials(
            problem, ("hycim", {"num_iterations": 50, "use_hardware": False}),
            num_trials=4, backend="vectorized", master_seed=3,
            dynamics={"kind": "parallel_tempering", "hottest": 8.0,
                      "exchange_interval": 5})
        with pytest.raises(ValueError, match="replica group"):
            replay_trial(problem, batch, 0)


class TestSeedMetadata:
    @pytest.mark.parametrize("backend", ["serial", "process", "vectorized"])
    @pytest.mark.parametrize("solver", ["hycim", "sa", "dqubo", "greedy", "dp",
                                        "brute_force", "local_search"])
    def test_every_backend_stamps_the_trial_seed(self, small_qkp,
                                                 small_knapsack, solver,
                                                 backend):
        problem = small_knapsack if solver == "dp" else small_qkp
        params = {"num_iterations": 20, "use_hardware": False}
        batch = run_trials(problem, (solver, params), num_trials=3,
                           backend=backend, master_seed=5, num_workers=2)
        seeds = derive_trial_seeds(5, 3)
        assert [r.trial_seed for r in batch.results] == seeds
        assert [r.metadata["seed"] for r in batch.results] == seeds
