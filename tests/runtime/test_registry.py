"""Unit tests for the solver registry and spec coercion."""

import pickle

import numpy as np
import pytest

from repro.annealing.result import SolveResult
from repro.runtime.registry import (
    DETERMINISTIC_SOLVERS,
    SolverSpec,
    as_solver_spec,
    available_solvers,
    get_trial_function,
    register_solver,
    run_single_trial,
    unregister_solver,
)


class TestRegistryContents:
    def test_all_paper_solvers_registered(self):
        expected = {"hycim", "sa", "dqubo", "greedy", "dp", "brute_force",
                    "local_search"}
        assert expected <= set(available_solvers())

    def test_unknown_solver_raises(self):
        with pytest.raises(KeyError, match="unknown solver"):
            get_trial_function("quantum_oracle")

    def test_deterministic_solvers_subset_of_registry(self):
        assert DETERMINISTIC_SOLVERS <= set(available_solvers())

    def test_trial_functions_are_picklable(self):
        for name in available_solvers():
            fn = get_trial_function(name)
            assert pickle.loads(pickle.dumps(fn)) is fn


class TestSolverSpec:
    def test_spec_from_name(self):
        spec = as_solver_spec("hycim")
        assert spec.solver == "hycim"
        assert spec.params == {}
        assert spec.display_name == "hycim"

    def test_spec_from_tuple_and_dict(self):
        spec = as_solver_spec(("sa", {"num_iterations": 5}))
        assert spec.params["num_iterations"] == 5
        spec = as_solver_spec({"solver": "sa", "num_iterations": 7,
                               "label": "sa-fast"})
        assert spec.params["num_iterations"] == 7
        assert spec.display_name == "sa-fast"

    def test_spec_rejects_unknown_solver(self):
        with pytest.raises(KeyError):
            SolverSpec("nope")

    def test_spec_dict_without_solver_key(self):
        with pytest.raises(ValueError, match="'solver' key"):
            as_solver_spec({"num_iterations": 5})

    def test_with_params_merges(self):
        spec = SolverSpec("hycim", {"num_iterations": 10})
        merged = spec.with_params(use_hardware=True)
        assert merged.params == {"num_iterations": 10, "use_hardware": True}
        assert spec.params == {"num_iterations": 10}

    def test_spec_is_picklable(self):
        spec = SolverSpec("hycim", {"move_generator": "knapsack"}, label="h")
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec


class TestTrialFunctions:
    def test_hycim_trial_from_plain_config_dict(self, tiny_qkp):
        result = run_single_trial(
            tiny_qkp,
            {"solver": "hycim", "num_iterations": 40,
             "moves_per_iteration": 3, "move_generator": "knapsack",
             "schedule": {"kind": "geometric", "start_temperature": 100.0,
                          "end_temperature": 0.1}},
            seed=5,
        )
        assert isinstance(result, SolveResult)
        assert result.feasible
        assert result.trial_seed == 5
        assert result.wall_time is not None and result.wall_time > 0

    def test_exact_trials_match_known_optimum(self, tiny_qkp):
        brute = run_single_trial(tiny_qkp, "brute_force", seed=0)
        assert brute.best_objective == pytest.approx(25.0)
        greedy = run_single_trial(tiny_qkp, "greedy", seed=0)
        assert greedy.feasible
        local = run_single_trial(tiny_qkp, "local_search", seed=0)
        assert local.best_objective <= brute.best_objective + 1e-9

    def test_exact_energy_matches_inequality_qubo_scale(self, tiny_qkp):
        brute = run_single_trial(tiny_qkp, "brute_force", seed=0)
        model = tiny_qkp.to_inequality_qubo()
        assert brute.best_energy == pytest.approx(
            model.energy(brute.best_configuration))

    def test_sa_trial_reports_native_objective(self, small_maxcut):
        result = run_single_trial(
            small_maxcut, ("sa", {"num_iterations": 50}), seed=1)
        assert result.feasible
        assert result.best_objective == pytest.approx(
            small_maxcut.objective(result.best_configuration))

    def test_sa_trial_respects_knapsack_constraint(self, small_qkp):
        # to_qubo() omits the capacity constraint; the sa trial must reject
        # infeasible candidates instead of drifting over capacity.
        result = run_single_trial(
            small_qkp, ("sa", {"num_iterations": 200,
                               "moves_per_iteration": 12}), seed=3)
        assert result.feasible
        assert small_qkp.is_feasible(result.best_configuration)
        assert result.num_infeasible_skipped > 0

    def test_dp_rejects_quadratic_problems(self, tiny_qkp):
        with pytest.raises(TypeError, match="linear knapsack"):
            run_single_trial(tiny_qkp, "dp", seed=0)

    def test_variability_template_resampled_per_trial_seed(self):
        from repro.fefet.variability import VariabilityModel
        from repro.batched.trials import _build_variability

        template = VariabilityModel(threshold_sigma=0.05, on_current_sigma=0.3,
                                    seed=0)
        # Different trial seeds sample different devices ...
        first = _build_variability(template, seed=1).sample_threshold_shift()
        second = _build_variability(template, seed=2).sample_threshold_shift()
        assert first != second
        # ... but the same trial seed reproduces the same devices, and the
        # template's sigmas are preserved.
        replay = _build_variability(template, seed=1)
        assert replay.sample_threshold_shift() == first
        assert replay.threshold_sigma == template.threshold_sigma
        # Plain config dicts work too, and None passes through.
        from_dict = _build_variability({"threshold_sigma": 0.05,
                                        "on_current_sigma": 0.3}, seed=1)
        assert from_dict.sample_threshold_shift() == first
        assert _build_variability(None, seed=1) is None

    def test_same_seed_same_result(self, tiny_qkp):
        spec = ("hycim", {"num_iterations": 30, "move_generator": "knapsack"})
        first = run_single_trial(tiny_qkp, spec, seed=99)
        second = run_single_trial(tiny_qkp, spec, seed=99)
        assert first.best_energy == second.best_energy
        np.testing.assert_array_equal(first.best_configuration,
                                      second.best_configuration)

    def test_unknown_schedule_and_move_raise(self, tiny_qkp):
        with pytest.raises(ValueError, match="schedule kind"):
            run_single_trial(
                tiny_qkp, ("hycim", {"schedule": {"kind": "cosine"}}), seed=0)
        with pytest.raises(ValueError, match="move generator"):
            run_single_trial(
                tiny_qkp, ("hycim", {"move_generator": "teleport"}), seed=0)
        with pytest.raises(ValueError, match="'kind' key"):
            run_single_trial(
                tiny_qkp, ("hycim", {"move_generator": {}}), seed=0)

    def test_bad_initial_policy_raises(self, tiny_qkp):
        with pytest.raises(ValueError, match="initial-state policy"):
            run_single_trial(tiny_qkp, ("hycim", {"initial": "warm"}), seed=0)


def _constant_trials(problem, params, seeds, initials):
    return [SolveResult(best_configuration=np.zeros(problem.num_variables),
                        best_energy=float(params.get("energy", 0.0)),
                        solver_name="constant")
            for _ in seeds]


class TestCustomRegistration:
    def test_register_and_run_custom_solver(self, tiny_qkp):
        register_solver("constant", _constant_trials)
        try:
            result = run_single_trial(tiny_qkp, ("constant", {"energy": -3.0}),
                                      seed=0)
            assert result.best_energy == -3.0
            assert result.trial_seed == 0
        finally:
            unregister_solver("constant")
        with pytest.raises(KeyError):
            get_trial_function("constant")

    def test_register_refuses_silent_overwrite(self):
        with pytest.raises(KeyError, match="already registered"):
            register_solver("hycim", _constant_trials)

    def test_register_validates_inputs(self):
        with pytest.raises(ValueError):
            register_solver("", _constant_trials)
        with pytest.raises(TypeError):
            register_solver("not_callable", 42)

    def test_overwritten_builtin_runs_on_every_backend(self, tiny_qkp):
        """A built-in replaced with ``overwrite=True`` is the one function
        every backend calls: nothing of the built-in engine survives."""
        from repro.runtime import run_trials
        original = get_trial_function("hycim")
        register_solver("hycim", _constant_trials, overwrite=True)
        try:
            batches = [run_trials(tiny_qkp, "hycim", num_trials=3,
                                  params={"energy": -7.0}, backend=backend,
                                  master_seed=0)
                       for backend in ("serial", "vectorized")]
        finally:
            register_solver("hycim", original, overwrite=True)
        for batch in batches:
            assert [r.best_energy for r in batch.results] == [-7.0] * 3
            assert all(r.solver_name == "constant" for r in batch.results)
            assert [r.metadata["trial_index"]
                    for r in batch.results] == [0, 1, 2]
