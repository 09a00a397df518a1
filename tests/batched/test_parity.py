"""Scalar-parity regression suite for the vectorised replica engine.

The acceptance contract of :mod:`repro.batched`: for fixed per-trial seeds,
the vectorised engine's per-replica trajectories -- energies, accept/reject
decisions (observable through the move counters and energy histories) and
final configurations -- must *exactly* match M independent scalar
``HyCiMSolver`` / ``SimulatedAnnealer`` runs in software mode, and match
within floating-point tolerance in (ideal) hardware mode.

All instances here come from the paper's integer-valued QKP family, where
batched BLAS reductions and scalar dot products are bit-identical (every
intermediate is an exactly representable float64 integer), so "exact" really
means exact.
"""

import numpy as np
import pytest

from repro.annealing.hycim import HyCiMSolver
from repro.annealing.sa import SimulatedAnnealer
from repro.batched import BatchedHyCiMSolver, BatchedSimulatedAnnealer
from repro.cim.crossbar import CrossbarConfig, FeFETCrossbar
from repro.dynamics.schedule import GeometricSchedule
from repro.runtime import derive_trial_seeds, run_trials

NUM_REPLICAS = 8


def assert_results_match(scalar_results, batched_results, exact=True):
    """Trajectory-level parity: energies, decisions, configurations."""
    assert len(scalar_results) == len(batched_results)
    for scalar, batched in zip(scalar_results, batched_results):
        if exact:
            assert scalar.best_energy == batched.best_energy
            assert scalar.energy_history == batched.energy_history
        else:
            assert batched.best_energy == pytest.approx(scalar.best_energy,
                                                        rel=1e-9)
            np.testing.assert_allclose(scalar.energy_history,
                                       batched.energy_history, rtol=1e-9)
        np.testing.assert_array_equal(scalar.best_configuration,
                                      batched.best_configuration)
        # Accept/reject and filter decisions, move for move.
        assert scalar.num_accepted_moves == batched.num_accepted_moves
        assert scalar.num_feasible_evaluations == batched.num_feasible_evaluations
        assert scalar.num_infeasible_skipped == batched.num_infeasible_skipped
        assert scalar.feasible == batched.feasible
        if scalar.best_objective is None:
            assert batched.best_objective is None
        else:
            assert scalar.best_objective == pytest.approx(batched.best_objective)


class TestEngineLevelParity:
    """Direct engine parity: M scalar solver runs vs one lock-step batch."""

    def _scalar_and_batched(self, solver_kwargs, problem, seeds):
        scalar_results = []
        for seed in seeds:
            solver = HyCiMSolver(problem, **solver_kwargs)
            rng = np.random.default_rng(seed)
            initial = problem.random_feasible_configuration(rng)
            scalar_results.append(solver.solve(initial=initial, rng=rng))

        shared = HyCiMSolver(problem, **solver_kwargs)
        rngs = [np.random.default_rng(seed) for seed in seeds]
        initials = np.stack([problem.random_feasible_configuration(rng)
                             for rng in rngs])
        batched_results = BatchedHyCiMSolver(shared).solve_batch(initials, rngs)
        return scalar_results, batched_results

    def test_software_mode_single_flip_exact(self, medium_qkp):
        seeds = derive_trial_seeds(11, NUM_REPLICAS)
        scalar, batched = self._scalar_and_batched(
            dict(use_hardware=False, num_iterations=60, record_history=True,
                 schedule=GeometricSchedule(200.0, 0.5)),
            medium_qkp, seeds)
        assert_results_match(scalar, batched, exact=True)

    def test_software_mode_knapsack_moves_exact(self, medium_qkp):
        from repro.dynamics.moves import KnapsackNeighborhoodMove
        seeds = derive_trial_seeds(5, NUM_REPLICAS)
        scalar, batched = self._scalar_and_batched(
            dict(use_hardware=False, num_iterations=40, moves_per_iteration=4,
                 move_generator=KnapsackNeighborhoodMove(),
                 record_history=True,
                 schedule=GeometricSchedule(200.0, 0.5)),
            medium_qkp, seeds)
        assert_results_match(scalar, batched, exact=True)

    def test_hardware_mode_matches_within_tolerance(self, small_qkp):
        seeds = derive_trial_seeds(3, NUM_REPLICAS)
        scalar, batched = self._scalar_and_batched(
            dict(use_hardware=True, num_iterations=40, record_history=True,
                 schedule=GeometricSchedule(200.0, 0.5)),
            small_qkp, seeds)
        assert_results_match(scalar, batched, exact=False)

    def test_hardware_matchline_noise_takes_scalar_stream_path(self, small_qkp):
        """With matchline noise the filter consumes per-candidate draws and
        short-circuits across constraints; the engine must fall back to
        per-replica evaluation and stay *exactly* on the scalar streams."""
        seeds = derive_trial_seeds(7, 4)
        scalar, batched = self._scalar_and_batched(
            dict(use_hardware=True, num_iterations=25,
                 matchline_noise_sigma=0.01, record_history=True,
                 schedule=GeometricSchedule(200.0, 0.5)),
            small_qkp, seeds)
        for a, b in zip(scalar, batched):
            np.testing.assert_array_equal(a.best_configuration,
                                          b.best_configuration)
            assert a.num_infeasible_skipped == b.num_infeasible_skipped
            assert a.num_accepted_moves == b.num_accepted_moves

    def test_equality_constraint_problems_match(self):
        """Problems with equality constraints (handled in SA logic, no
        hardware filter) run through the per-row constraint branch."""
        from repro.problems.generators import generate_coloring_instance
        problem = generate_coloring_instance(num_nodes=5, edge_probability=0.4,
                                             num_colors=3, seed=2)
        seeds = derive_trial_seeds(13, 4)
        scalar, batched = self._scalar_and_batched(
            dict(use_hardware=False, num_iterations=30,
                 schedule=GeometricSchedule(10.0, 0.1)),
            problem, seeds)
        assert_results_match(scalar, batched, exact=True)

    def test_sa_generic_move_generator_parity(self, medium_qkp):
        """Non-single-flip SA moves take the per-replica propose path but
        still evaluate energies in batch."""
        from repro.dynamics.moves import MultiFlipMove
        seeds = derive_trial_seeds(19, 4)
        qubo = medium_qkp.to_qubo()
        kwargs = dict(num_iterations=30, move_generator=MultiFlipMove(2),
                      schedule=GeometricSchedule(200.0, 0.5))
        scalar_results = []
        for seed in seeds:
            rng = np.random.default_rng(seed)
            initial = medium_qkp.random_feasible_configuration(rng)
            scalar_results.append(SimulatedAnnealer(**kwargs).anneal(
                qubo, initial=initial, rng=rng))
        rngs = [np.random.default_rng(seed) for seed in seeds]
        initials = np.stack([medium_qkp.random_feasible_configuration(rng)
                             for rng in rngs])
        batched_results = BatchedSimulatedAnnealer(
            SimulatedAnnealer(**kwargs)).anneal(qubo, initials, rngs)
        for a, b in zip(scalar_results, batched_results):
            assert a.best_energy == b.best_energy
            np.testing.assert_array_equal(a.best_configuration,
                                          b.best_configuration)
            assert a.num_accepted_moves == b.num_accepted_moves

    def test_sa_parity_with_feasibility_filter(self, medium_qkp):
        seeds = derive_trial_seeds(17, NUM_REPLICAS)
        qubo = medium_qkp.to_qubo()
        kwargs = dict(num_iterations=60, record_history=True,
                      schedule=GeometricSchedule(200.0, 0.5))

        scalar_results = []
        for seed in seeds:
            annealer = SimulatedAnnealer(seed=seed, **kwargs)
            rng = np.random.default_rng(seed)
            initial = medium_qkp.random_feasible_configuration(rng)
            scalar_results.append(annealer.anneal(
                qubo, initial=initial, rng=rng,
                accept_filter=medium_qkp.is_feasible))

        rngs = [np.random.default_rng(seed) for seed in seeds]
        initials = np.stack([medium_qkp.random_feasible_configuration(rng)
                             for rng in rngs])
        batched_results = BatchedSimulatedAnnealer(
            SimulatedAnnealer(**kwargs)).anneal(
                qubo, initials, rngs,
                accept_filter=medium_qkp.is_feasible,
                accept_filter_batch=medium_qkp.is_feasible_batch)
        for scalar, batched in zip(scalar_results, batched_results):
            assert scalar.best_energy == batched.best_energy
            assert scalar.energy_history == batched.energy_history
            np.testing.assert_array_equal(scalar.best_configuration,
                                          batched.best_configuration)
            assert scalar.num_accepted_moves == batched.num_accepted_moves
            assert scalar.num_infeasible_skipped == batched.num_infeasible_skipped


class TestBackendParity:
    """run_trials(backend="vectorized") vs backend="serial", per seed."""

    @pytest.mark.parametrize("params", [
        {"num_iterations": 40, "use_hardware": False},
        {"num_iterations": 30, "use_hardware": False,
         "move_generator": "knapsack", "moves_per_iteration": 4},
        {"num_iterations": 30, "use_hardware": False, "initial": "zeros",
         "record_history": True},
    ], ids=["single_flip", "knapsack_moves", "zeros_history"])
    def test_hycim_software_identical(self, medium_qkp, params):
        serial = run_trials(medium_qkp, "hycim", num_trials=NUM_REPLICAS,
                            params=params, backend="serial", master_seed=23)
        vectorized = run_trials(medium_qkp, "hycim", num_trials=NUM_REPLICAS,
                                params=params, backend="vectorized",
                                master_seed=23)
        assert vectorized.backend == "vectorized"
        np.testing.assert_array_equal(serial.best_energies,
                                      vectorized.best_energies)
        assert_results_match(serial.results, vectorized.results, exact=True)
        assert [r.trial_seed for r in serial.results] == \
            [r.trial_seed for r in vectorized.results]

    def test_hycim_hardware_within_tolerance(self, small_qkp):
        params = {"num_iterations": 30, "use_hardware": True}
        serial = run_trials(small_qkp, "hycim", num_trials=NUM_REPLICAS,
                            params=params, backend="serial", master_seed=31)
        vectorized = run_trials(small_qkp, "hycim", num_trials=NUM_REPLICAS,
                                params=params, backend="vectorized",
                                master_seed=31)
        np.testing.assert_allclose(serial.best_energies,
                                   vectorized.best_energies, rtol=1e-9)
        for a, b in zip(serial.results, vectorized.results):
            np.testing.assert_array_equal(a.best_configuration,
                                          b.best_configuration)

    @pytest.mark.parametrize("respect", [True, False])
    def test_sa_identical(self, medium_qkp, respect):
        params = {"num_iterations": 40, "respect_constraints": respect}
        serial = run_trials(medium_qkp, "sa", num_trials=NUM_REPLICAS,
                            params=params, backend="serial", master_seed=29)
        vectorized = run_trials(medium_qkp, "sa", num_trials=NUM_REPLICAS,
                                params=params, backend="vectorized",
                                master_seed=29)
        np.testing.assert_array_equal(serial.best_energies,
                                      vectorized.best_energies)
        assert_results_match(serial.results, vectorized.results, exact=True)

    @pytest.mark.parametrize("solver,params", [
        ("hycim", {"num_iterations": 20, "use_hardware": False}),
        ("sa", {"num_iterations": 20}),
    ], ids=["hycim", "sa"])
    def test_lockstep_start_draws_identical(self, small_qkp, solver, params):
        # 70 replicas reach the QKP group sampler's lock-step loop, which
        # the one-trial serial groups never do.
        from repro.problems.qkp import LOCKSTEP_MIN_GROUP

        assert 70 >= LOCKSTEP_MIN_GROUP
        serial = run_trials(small_qkp, solver, num_trials=70, params=params,
                            backend="serial", master_seed=37)
        vectorized = run_trials(small_qkp, solver, num_trials=70,
                                params=params, backend="vectorized",
                                master_seed=37)
        assert_results_match(serial.results, vectorized.results, exact=True)
        assert [r.best_objective for r in serial.results] == \
            [r.best_objective for r in vectorized.results]

    def test_infeasible_starts_drift_identically(self, medium_qkp):
        """Replicas whose incumbent is infeasible drift freely at energy 0
        (paper Eq. (6)); the batched drift bookkeeping must track the scalar
        flow move for move."""
        params = {"num_iterations": 40, "use_hardware": False,
                  "initial": "random", "record_history": True}
        serial = run_trials(medium_qkp, "hycim", num_trials=NUM_REPLICAS,
                            params=params, backend="serial", master_seed=53)
        vectorized = run_trials(medium_qkp, "hycim", num_trials=NUM_REPLICAS,
                                params=params, backend="vectorized",
                                master_seed=53)
        # Random uniform starts on a capacity-constrained QKP are mostly
        # infeasible, so the drift branch is genuinely exercised.
        assert any(r.num_infeasible_skipped > 0 for r in serial.results)
        assert_results_match(serial.results, vectorized.results, exact=True)

    def test_initial_states_respected(self, medium_qkp, rng):
        starts = [medium_qkp.random_feasible_configuration(rng)
                  for _ in range(4)]
        params = {"num_iterations": 25, "use_hardware": False}
        serial = run_trials(medium_qkp, "hycim", num_trials=4, params=params,
                            backend="serial", master_seed=2,
                            initial_states=starts)
        vectorized = run_trials(medium_qkp, "hycim", num_trials=4,
                                params=params, backend="vectorized",
                                master_seed=2, initial_states=starts)
        assert_results_match(serial.results, vectorized.results, exact=True)

    def test_variability_runs_batched_on_the_device_axis(self, small_qkp):
        """Per-trial device resampling runs as a batch of chips -- one
        device-axis slice per trial -- with per-seed results exactly matching
        serial trials, each a one-chip batch."""
        params = {"num_iterations": 15, "use_hardware": True,
                  "variability": {"threshold_sigma": 0.02,
                                  "on_current_sigma": 0.05}}
        serial = run_trials(small_qkp, "hycim", num_trials=4, params=params,
                            backend="serial", master_seed=19)
        vectorized = run_trials(small_qkp, "hycim", num_trials=4,
                                params=params, backend="vectorized",
                                master_seed=19)
        # The engine stamps its metadata on every result: proof the batch
        # went through the lock-step device axis as one group.
        assert all(r.metadata.get("vectorized") for r in vectorized.results)
        assert all(r.metadata.get("num_chips") == 4
                   for r in vectorized.results)
        np.testing.assert_array_equal(serial.best_energies,
                                      vectorized.best_energies)
        assert_results_match(serial.results, vectorized.results, exact=True)

    def test_variability_with_matchline_noise_stays_on_scalar_streams(
            self, small_qkp):
        """Matchline noise consumes per-candidate draws with short-circuit
        across constraints; the device-axis engine must evaluate chip by
        chip on exactly each trial's own stream."""
        params = {"num_iterations": 12, "use_hardware": True,
                  "matchline_noise_sigma": 0.01,
                  "variability": {"threshold_sigma": 0.02,
                                  "on_current_sigma": 0.05}}
        serial = run_trials(small_qkp, "hycim", num_trials=4, params=params,
                            backend="serial", master_seed=43)
        vectorized = run_trials(small_qkp, "hycim", num_trials=4,
                                params=params, backend="vectorized",
                                master_seed=43)
        assert all(r.metadata.get("vectorized") for r in vectorized.results)
        assert_results_match(serial.results, vectorized.results, exact=True)

    def test_variability_with_noisy_crossbar_matches_per_seed(self, small_qkp):
        """Each chip's crossbar noise, ON-current factors and ADC codes come
        from that chip's own seeded streams, so a chip draws the same in a
        group of four as alone."""
        from repro.cim.crossbar import CrossbarConfig
        params = {"num_iterations": 10, "use_hardware": True,
                  "variability": {"threshold_sigma": 0.02,
                                  "on_current_sigma": 0.05},
                  "crossbar_config": CrossbarConfig(
                      current_noise_sigma=0.01, adc_bits=8,
                      on_current_variation_sigma=0.05, seed=11)}
        serial = run_trials(small_qkp, "hycim", num_trials=4, params=params,
                            backend="serial", master_seed=13)
        vectorized = run_trials(small_qkp, "hycim", num_trials=4,
                                params=params, backend="vectorized",
                                master_seed=13)
        np.testing.assert_array_equal(serial.best_energies,
                                      vectorized.best_energies)
        for a, b in zip(serial.results, vectorized.results):
            np.testing.assert_array_equal(a.best_configuration,
                                          b.best_configuration)

    @pytest.mark.parametrize("extra", [
        {},
        {"matchline_noise_sigma": 0.01},
        {"crossbar_config": {"current_noise_sigma": 0.01, "adc_bits": 8,
                             "on_current_variation_sigma": 0.05, "seed": 11}},
    ], ids=["varied", "matchline_noise", "noisy_crossbar"])
    def test_device_axis_chip_matches_a_solver_built_on_its_model(
            self, small_qkp, extra):
        """A trial's device-axis chip reproduces a HyCiMSolver that builds
        its own filters and crossbar from the same variability model and
        seed, draw for draw."""
        from repro.cim.crossbar import CrossbarConfig
        from repro.batched.trials import _auto_schedule, _build_variability
        from repro.runtime.registry import run_single_trial
        template = {"threshold_sigma": 0.02, "on_current_sigma": 0.05}
        config = (CrossbarConfig(**extra["crossbar_config"])
                  if "crossbar_config" in extra else None)
        params = {"num_iterations": 15, "use_hardware": True,
                  "variability": template,
                  **dict(extra, crossbar_config=config)}
        for seed in derive_trial_seeds(29, 3):
            trial = run_single_trial(small_qkp, ("hycim", params), seed)
            rng = np.random.default_rng(seed)
            start = small_qkp.random_feasible_configuration(rng)
            direct = HyCiMSolver(
                small_qkp, num_iterations=15,
                schedule=_auto_schedule(small_qkp),
                crossbar_config=config,
                variability=_build_variability(template, seed),
                matchline_noise_sigma=extra.get("matchline_noise_sigma", 0.0),
                seed=seed).solve(initial=start, rng=rng)
            assert trial.metadata.get("num_chips") == 1
            assert_results_match([direct], [trial], exact=True)

    def test_variability_in_software_mode_is_a_no_op_batch(self, medium_qkp):
        """Software mode builds no hardware, so a variability template must
        not change results or force any fallback."""
        params = {"num_iterations": 20, "use_hardware": False,
                  "variability": {"threshold_sigma": 0.05}}
        plain = run_trials(medium_qkp, "hycim", num_trials=4,
                           params={"num_iterations": 20,
                                   "use_hardware": False},
                           backend="vectorized", master_seed=3)
        with_var = run_trials(medium_qkp, "hycim", num_trials=4,
                              params=params, backend="vectorized",
                              master_seed=3)
        np.testing.assert_array_equal(plain.best_energies,
                                      with_var.best_energies)
        assert all(r.metadata.get("vectorized") for r in with_var.results)

    def test_dqubo_identical(self, medium_qkp):
        """The dqubo baseline's batched engine replays the scalar streams
        (slack-bit seeding included) instead of falling back to scalar."""
        params = {"num_iterations": 25, "moves_per_iteration": 2,
                  "record_history": True}
        serial = run_trials(medium_qkp, "dqubo", num_trials=NUM_REPLICAS,
                            params=params, backend="serial", master_seed=47)
        vectorized = run_trials(medium_qkp, "dqubo", num_trials=NUM_REPLICAS,
                                params=params, backend="vectorized",
                                master_seed=47)
        assert all(r.metadata.get("vectorized") for r in vectorized.results)
        np.testing.assert_array_equal(serial.best_energies,
                                      vectorized.best_energies)
        for a, b in zip(serial.results, vectorized.results):
            np.testing.assert_array_equal(a.best_configuration,
                                          b.best_configuration)
            assert a.energy_history == b.energy_history
            assert a.feasible == b.feasible
            assert a.best_objective == b.best_objective
            assert a.num_accepted_moves == b.num_accepted_moves
            assert a.metadata["penalty_satisfied"] == \
                b.metadata["penalty_satisfied"]

    def test_dqubo_zeros_initial_seeds_slack_bits_identically(self, medium_qkp):
        """The empty selection takes extend_initial's random slack branch
        (one extra draw per replica), which must stay stream-aligned."""
        params = {"num_iterations": 15, "initial": "zeros"}
        serial = run_trials(medium_qkp, "dqubo", num_trials=4, params=params,
                            backend="serial", master_seed=59)
        vectorized = run_trials(medium_qkp, "dqubo", num_trials=4,
                                params=params, backend="vectorized",
                                master_seed=59)
        np.testing.assert_array_equal(serial.best_energies,
                                      vectorized.best_energies)

    #: Hardware D-QUBO crossbars: ideal at the matrix's own bit width, and
    #: one non-ideality each at 16 bits.
    DQUBO_CROSSBARS = {
        "ideal": None,
        "read-noise": CrossbarConfig(weight_bits=16, current_noise_sigma=0.02,
                                     seed=7),
        "adc": CrossbarConfig(weight_bits=16, adc_bits=8, seed=7),
        "on-current-variation": CrossbarConfig(
            weight_bits=16, on_current_variation_sigma=0.05, seed=7),
    }

    @pytest.mark.parametrize("crossbar", sorted(DQUBO_CROSSBARS))
    def test_dqubo_hardware_group_is_one_engine_batch(self, small_qkp,
                                                      crossbar):
        """Hardware-mode dqubo (the Fig. 9 overhead configuration) runs a
        vectorized group as one HyCiM engine batch, with the serial per-seed
        configurations, energies, objectives, counters and histories."""
        params = {"num_iterations": 30, "use_hardware": True,
                  "record_history": True,
                  "crossbar_config": self.DQUBO_CROSSBARS[crossbar]}
        serial = run_trials(small_qkp, "dqubo", num_trials=4, params=params,
                            backend="serial", master_seed=5)
        vectorized = run_trials(small_qkp, "dqubo", num_trials=4,
                                params=params, backend="vectorized",
                                master_seed=5)
        assert all(r.metadata["num_replicas"] == 4
                   for r in vectorized.results)
        assert_results_match(serial.results, vectorized.results, exact=True)
        for a, b in zip(serial.results, vectorized.results):
            assert a.metadata["penalty_satisfied"] == \
                b.metadata["penalty_satisfied"]

    @pytest.mark.parametrize("solver,params,per_trial", [
        ("hycim", {"variability": {"threshold_sigma": 0.02}}, True),
        ("hycim", {"crossbar_config": CrossbarConfig(
            current_noise_sigma=0.02, adc_bits=8, seed=7)}, True),
        ("hycim", {"crossbar_config": CrossbarConfig(
            adc_bits=8, on_current_variation_sigma=0.05, seed=7)}, False),
        ("hycim", {}, False),
        ("dqubo", {"crossbar_config": CrossbarConfig(
            weight_bits=16, current_noise_sigma=0.02, seed=7)}, True),
        ("dqubo", {}, False),
    ], ids=["hycim-variability", "hycim-read-noise", "hycim-quiet-chip",
            "hycim-ideal", "dqubo-read-noise", "dqubo-ideal"])
    def test_a_group_programs_one_crossbar(self, small_qkp, monkeypatch,
                                           solver, params, per_trial):
        """A group on per-trial chips builds only its device-axis crossbar
        (one slice per trial), and a shared-chip group only the shared
        one."""
        built = []
        program = FeFETCrossbar.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("device_seeds"))
            program(self, *args, **kwargs)

        monkeypatch.setattr(FeFETCrossbar, "__init__", counting)
        run_trials(small_qkp, solver, num_trials=4, backend="vectorized",
                   params={"num_iterations": 5, "use_hardware": True,
                           **params}, master_seed=3)
        assert len(built) == 1
        assert built[0] is None or len(built[0]) == 4
        assert (built[0] is not None) == per_trial

    def test_dqubo_hardware_group_runs_coupled_dynamics(self, small_qkp):
        """The HyCiM engine's replica exchange and kernel selection reach
        hardware-mode dqubo too; a tempering group is reproducible."""
        params = {"num_iterations": 20, "use_hardware": True,
                  "kernel": "auto",
                  "dynamics": {"kind": "parallel_tempering", "hottest": 4.0,
                               "exchange_interval": 5}}
        first, second = (run_trials(small_qkp, "dqubo", num_trials=4,
                                    params=params, backend="vectorized",
                                    master_seed=9) for _ in range(2))
        assert all(r.metadata["num_replicas"] == 4 for r in first.results)
        np.testing.assert_array_equal(first.best_energies,
                                      second.best_energies)

    def test_unbatched_solver_falls_back(self, small_qkp):
        """Reference solvers run no lock-step engine, but their trial
        functions take a group of seeds like every solver's, so they run on
        the vectorized backend (one group per chunk) with identical results."""
        serial = run_trials(small_qkp, "greedy", num_trials=2,
                            backend="serial", master_seed=0)
        vectorized = run_trials(small_qkp, "greedy", num_trials=2,
                                backend="vectorized", master_seed=0)
        np.testing.assert_array_equal(serial.best_energies,
                                      vectorized.best_energies)

    def test_process_backend_with_replica_groups(self, medium_qkp):
        """replicas_per_task composes process- and replica-parallelism
        without changing any per-seed result."""
        params = {"num_iterations": 25, "use_hardware": False}
        serial = run_trials(medium_qkp, "hycim", num_trials=8, params=params,
                            backend="serial", master_seed=37)
        composed = run_trials(medium_qkp, "hycim", num_trials=8, params=params,
                              backend="process", master_seed=37,
                              num_workers=2, chunk_size=4, replicas_per_task=4)
        np.testing.assert_array_equal(serial.best_energies,
                                      composed.best_energies)
        assert_results_match(serial.results, composed.results, exact=True)

    def test_replica_group_size_does_not_change_results(self, medium_qkp):
        params = {"num_iterations": 25, "use_hardware": False}
        whole = run_trials(medium_qkp, "hycim", num_trials=6, params=params,
                           backend="vectorized", master_seed=41)
        grouped = run_trials(medium_qkp, "hycim", num_trials=6, params=params,
                             backend="vectorized", master_seed=41,
                             chunk_size=6, replicas_per_task=2)
        np.testing.assert_array_equal(whole.best_energies,
                                      grouped.best_energies)
