"""Unit tests for the batched kernels, engines and CiM batch paths."""

import numpy as np
import pytest

import repro.batched.engine as engine_module
from repro.annealing.hycim import HyCiMSolver
from repro.annealing.sa import SimulatedAnnealer
from repro.batched import BatchedHyCiMSolver, BatchedSimulatedAnnealer
from repro.cim.crossbar import CrossbarConfig, FeFETCrossbar
from repro.cim.inequality_filter import InequalityFilter
from repro.core.constraints import EqualityConstraint, InequalityConstraint
from repro.core.qubo import QUBOModel, batched_energies, batched_energy_delta
from repro.dynamics import LoopDriver
from repro.kernels.reference import as_replica_matrix
from repro.problems import get_family
from repro.problems.generators import generate_qkp_instance
from repro.runtime import run_trials


@pytest.fixture
def random_qubo(rng):
    matrix = rng.integers(-20, 20, size=(12, 12)).astype(float)
    return QUBOModel(matrix, offset=3.0)


@pytest.fixture
def replica_batch(rng):
    return rng.integers(0, 2, size=(7, 12)).astype(float)


class TestKernels:
    def test_batched_energies_match_scalar(self, random_qubo, replica_batch):
        expected = [random_qubo.energy(row) for row in replica_batch]
        np.testing.assert_array_equal(
            batched_energies(random_qubo.matrix, replica_batch,
                             random_qubo.offset),
            expected)

    def test_batched_delta_matches_scalar(self, random_qubo, replica_batch, rng):
        flips = rng.integers(0, 12, size=replica_batch.shape[0])
        expected = [random_qubo.energy_delta(row, int(i))
                    for row, i in zip(replica_batch, flips)]
        np.testing.assert_array_equal(
            batched_energy_delta(random_qubo.matrix, replica_batch, flips),
            expected)

    def test_batched_delta_precomputed_symmetric(self, random_qubo,
                                                 replica_batch, rng):
        flips = rng.integers(0, 12, size=replica_batch.shape[0])
        plain = batched_energy_delta(random_qubo.matrix, replica_batch, flips)
        symmetric = random_qubo.matrix + random_qubo.matrix.T
        np.testing.assert_array_equal(
            batched_energy_delta(random_qubo.matrix, replica_batch, flips,
                                 symmetric=symmetric),
            plain)

    def test_batched_delta_validation(self, random_qubo, replica_batch):
        with pytest.raises(ValueError, match="one entry per replica"):
            batched_energy_delta(random_qubo.matrix, replica_batch,
                                 np.zeros(3, dtype=int))
        with pytest.raises(IndexError):
            batched_energy_delta(random_qubo.matrix, replica_batch,
                                 np.full(replica_batch.shape[0], 99))
        for flip in (-1, 12):
            with pytest.raises(IndexError):
                batched_energy_delta(random_qubo.matrix, replica_batch[:1],
                                     np.array([flip]))

    def test_inequality_verdicts(self, rng):
        weights = rng.integers(1, 10, size=12).astype(float)
        batch = rng.integers(0, 2, size=(20, 12)).astype(float)
        bound = float(weights.sum()) / 2
        expected = [(row @ weights) <= bound + 1e-9 for row in batch]
        np.testing.assert_array_equal(
            InequalityConstraint(weights, bound).is_satisfied_batch(batch),
            expected)

    def test_as_replica_matrix_validation(self):
        assert as_replica_matrix(np.ones(4), 4).shape == (1, 4)
        with pytest.raises(ValueError, match="replica matrix"):
            as_replica_matrix(np.ones((2, 3)), 4)
        with pytest.raises(ValueError, match="binary"):
            as_replica_matrix(np.full((2, 4), 0.5), 4)


class TestEngineValidation:
    def test_generator_count_mismatch(self, tiny_qkp):
        solver = HyCiMSolver(tiny_qkp, use_hardware=False, num_iterations=5)
        initials = np.zeros((3, 3))
        with pytest.raises(ValueError, match="one Generator per replica"):
            BatchedHyCiMSolver(solver).solve_batch(
                initials, [np.random.default_rng(0)])

    def test_sa_generator_count_mismatch(self, tiny_qkp):
        annealer = SimulatedAnnealer(num_iterations=5)
        with pytest.raises(ValueError, match="one Generator per replica"):
            BatchedSimulatedAnnealer(annealer).anneal(
                tiny_qkp.to_qubo(), np.zeros((2, 3)),
                [np.random.default_rng(0)])

    def test_replicas_per_task_validation(self, tiny_qkp):
        with pytest.raises(ValueError, match="replicas_per_task"):
            run_trials(tiny_qkp, "hycim", num_trials=2, replicas_per_task=0)


class TestBatchedCimPaths:
    def test_crossbar_batch_matches_scalar_rows(self, rng):
        matrix = rng.integers(-15, 15, size=(10, 10)).astype(float)
        qubo = QUBOModel(matrix, offset=-2.0)
        crossbar = FeFETCrossbar.from_qubo(qubo, CrossbarConfig(weight_bits=7))
        batch = rng.integers(0, 2, size=(9, 10)).astype(float)
        expected = [crossbar.compute_energy(row) for row in batch]
        np.testing.assert_array_equal(crossbar.compute_energies(batch), expected)

    def test_crossbar_batch_with_adc_matches_scalar_rows(self, rng):
        matrix = rng.integers(0, 40, size=(10, 10)).astype(float)
        qubo = QUBOModel(matrix)
        crossbar = FeFETCrossbar.from_qubo(
            qubo, CrossbarConfig(weight_bits=7, adc_bits=6, seed=0))
        batch = rng.integers(0, 2, size=(6, 10)).astype(float)
        expected = [crossbar.compute_energy(row) for row in batch]
        np.testing.assert_array_equal(crossbar.compute_energies(batch), expected)

    def test_crossbar_batch_shape_validation(self, rng):
        qubo = QUBOModel(np.eye(5))
        crossbar = FeFETCrossbar.from_qubo(qubo)
        with pytest.raises(ValueError, match="crossbar dimension"):
            crossbar.compute_energies(np.zeros((2, 4)))
        with pytest.raises(ValueError, match="binary"):
            crossbar.compute_energies(np.full((2, 5), 0.3))

    def test_filter_batch_matches_scalar_rows(self, tiny_qkp, rng):
        cim_filter = InequalityFilter(tiny_qkp.constraint())
        batch = rng.integers(0, 2, size=(16, 3)).astype(float)
        expected = [cim_filter.is_feasible(row) for row in batch]
        verdicts = InequalityFilter(tiny_qkp.constraint()).is_feasible_batch(batch)
        np.testing.assert_array_equal(verdicts, expected)

    def test_filter_batch_counters(self, tiny_qkp):
        cim_filter = InequalityFilter(tiny_qkp.constraint())
        batch = np.zeros((5, 3))
        verdicts = cim_filter.is_feasible_batch(batch)
        assert cim_filter.num_evaluations == 5
        assert cim_filter.num_feasible_decisions == int(verdicts.sum()) == 5

    def test_problem_batch_feasibility_matches_scalar(self, medium_qkp, rng):
        batch = rng.integers(0, 2, size=(25, medium_qkp.num_items)).astype(float)
        expected = [medium_qkp.is_feasible(row) for row in batch]
        np.testing.assert_array_equal(medium_qkp.is_feasible_batch(batch),
                                      expected)
        # Both feasible and infeasible rows should be exercised.
        assert 0 < sum(expected) < len(expected)

    def test_base_class_batch_feasibility_fallback(self, small_maxcut, rng):
        batch = rng.integers(0, 2,
                             size=(4, small_maxcut.num_variables)).astype(float)
        np.testing.assert_array_equal(
            small_maxcut.is_feasible_batch(batch),
            [small_maxcut.is_feasible(row) for row in batch])

    def test_software_mode_judges_equality_constraints_in_batch(
            self, monkeypatch):
        """The coloring one-hot equalities have no filter: the engine judges
        each proposal round in one batched call, never row by row."""
        problem = get_family("coloring").conformance_instance(1)
        calls = []
        scalar = EqualityConstraint.is_satisfied

        def counted(self, x):
            calls.append(1)
            return scalar(self, x)

        monkeypatch.setattr(EqualityConstraint, "is_satisfied", counted)
        params = dict(get_family("coloring").solver_params(problem),
                      use_hardware=False, num_iterations=300)
        batch = run_trials(problem, "hycim", num_trials=8, params=params,
                           backend="vectorized", master_seed=3)
        assert len(batch.results) == 8
        assert not calls


class TestDegenerateRuns:
    def test_never_feasible_replicas_report_zero_objective(self):
        """A replica that never finds a feasible configuration mirrors the
        scalar solver: infeasible result, objective 0 under Eq. (6)."""
        from repro.problems.qkp import QuadraticKnapsackProblem
        problem = QuadraticKnapsackProblem(
            profits=np.diag([5.0, 4.0, 3.0]),
            weights=np.array([7.0, 8.0, 9.0]),
            capacity=2.0,  # only the empty selection is feasible
            name="tight")
        solver = HyCiMSolver(problem, use_hardware=False, num_iterations=1)
        rngs = [np.random.default_rng(0), np.random.default_rng(1)]
        initials = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
        results = BatchedHyCiMSolver(solver).solve_batch(initials, rngs)
        for index, (result, rng_seed) in enumerate(zip(results, (0, 1))):
            scalar = HyCiMSolver(problem, use_hardware=False,
                                 num_iterations=1).solve(
                initial=initials[index],
                rng=np.random.default_rng(rng_seed))
            assert result.feasible == scalar.feasible is False
            assert result.best_objective == scalar.best_objective == 0.0
            assert result.best_energy == scalar.best_energy

    @pytest.mark.parametrize("use_hardware", [False, True],
                             ids=["software", "hardware"])
    def test_empty_batch_has_no_results(self, tiny_qkp, use_hardware):
        solver = HyCiMSolver(tiny_qkp, use_hardware=use_hardware,
                             num_iterations=3)
        empty = np.zeros((0, tiny_qkp.num_variables))
        assert BatchedHyCiMSolver(solver).solve_batch(empty, []) == []
        annealer = BatchedSimulatedAnnealer(SimulatedAnnealer(num_iterations=3))
        assert annealer.anneal(tiny_qkp.to_qubo(), empty, []) == []


class TestVectorizedResultShape:
    def test_results_carry_metadata_and_seeds(self, small_qkp):
        batch = run_trials(small_qkp, "hycim", num_trials=4,
                           params={"num_iterations": 10, "use_hardware": False},
                           backend="vectorized", master_seed=6)
        assert batch.num_trials == 4
        for index, result in enumerate(batch.results):
            assert result.metadata["trial_index"] == index
            assert result.metadata["vectorized"] is True
            assert result.metadata["num_replicas"] == 4
            assert result.metadata["seed"] == result.trial_seed
            assert result.wall_time is not None and result.wall_time > 0

    def test_energy_history_recorded_per_replica(self, small_qkp):
        batch = run_trials(small_qkp, "hycim", num_trials=3,
                           params={"num_iterations": 12, "use_hardware": False,
                                   "record_history": True},
                           backend="vectorized", master_seed=6)
        for result in batch.results:
            assert len(result.energy_history) == 12
            # Incumbent-best histories are monotone non-increasing.
            assert all(a >= b for a, b in zip(result.energy_history,
                                              result.energy_history[1:]))


class TestDeviceAxisEngine:
    def test_chip_count_must_match_replicas(self, tiny_qkp):
        from repro.fefet.variability import VariabilityModel
        solver = HyCiMSolver(tiny_qkp, use_hardware=True, num_iterations=5)
        chips = VariabilityModel(seed=0).spawn_chips(2)
        engine = BatchedHyCiMSolver(solver, chips=chips,
                                    chip_seeds=[1, 2])
        initials = np.zeros((3, 3))
        rngs = [np.random.default_rng(s) for s in range(3)]
        with pytest.raises(ValueError, match="one chip per replica"):
            engine.solve_batch(initials, rngs)

    def test_chip_seed_count_must_match_chips(self, tiny_qkp):
        from repro.fefet.variability import VariabilityModel
        solver = HyCiMSolver(tiny_qkp, use_hardware=True, num_iterations=5)
        chips = VariabilityModel(seed=0).spawn_chips(2)
        with pytest.raises(ValueError, match="one chip seed per chip"):
            BatchedHyCiMSolver(solver, chips=chips, chip_seeds=[1])

    def test_software_mode_ignores_chips(self, tiny_qkp):
        """Chips only exist in hardware; the software engine must behave as
        if none were passed (the scalar path ignores variability too)."""
        from repro.fefet.variability import VariabilityModel
        solver = HyCiMSolver(tiny_qkp, use_hardware=False, num_iterations=10)
        chips = VariabilityModel(seed=0).spawn_chips(2)
        initials = np.zeros((2, 3))
        with_chips = BatchedHyCiMSolver(solver, chips=chips).solve_batch(
            initials, [np.random.default_rng(s) for s in (4, 5)])
        without = BatchedHyCiMSolver(solver).solve_batch(
            initials, [np.random.default_rng(s) for s in (4, 5)])
        for a, b in zip(with_chips, without):
            assert a.best_energy == b.best_energy
            np.testing.assert_array_equal(a.best_configuration,
                                          b.best_configuration)


class TestDriverExclusivity:
    """The engines tell the driver whether the replica generators are its
    alone: only then may it replay them in lanes."""

    @pytest.mark.parametrize("solver, params, exclusive", [
        ("hycim", {"use_hardware": False}, True),
        ("hycim", {"use_hardware": True}, True),
        ("hycim", {"move_generator": "knapsack"}, False),
        ("hycim", {"use_hardware": True, "matchline_noise_sigma": 0.01},
         False),
        ("sa", {}, True),
        ("sa", {"move_generator": "multi_flip"}, False),
    ], ids=["software", "hardware", "knapsack-move", "noisy-matchline",
            "sa", "sa-multi-flip"])
    def test_engine_states_exclusivity(self, monkeypatch, solver, params,
                                       exclusive):
        stated = []

        class Recording(LoopDriver):
            def __init__(self, *args, **kwargs):
                stated.append(kwargs["exclusive"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(engine_module, "LoopDriver", Recording)
        problem = generate_qkp_instance(num_items=12, seed=8)
        run_trials(problem, solver, num_trials=2, backend="vectorized",
                   params=dict(params, num_iterations=5), master_seed=3)
        assert stated == [exclusive]
