"""Backend parity: fused, interpreted-JIT and "auto" kernels vs the reference.

The contract from :mod:`repro.kernels.base`: on integer-valued instances the
fused backend consumes the same RNG draws and produces *exactly* equal
trajectories -- best energies, configurations, proposal counters, recorded
histories, and (crucially) the final per-replica generator states, so a
kernel swap mid-campaign cannot desynchronise a seeded experiment.  The
``"auto"`` arm holds whatever backend the environment resolves to (numba
when installed, else fused) to the same contract.  The ``"fused"`` arm runs
the C block wherever the system ``cc`` builds it, the ``"fused-numpy"`` arm
the NumPy loop on NumPy replay without the C library, and the
``"fused-c-draws"`` arm the NumPy loop on the loop driver's C draws; on
float data the loops agree bit for bit, as all apply the same IEEE
operations to each element in the same order.

The JIT kernels are exercised here through their interpreted fallback
(``_ALLOW_INTERPRETED``), so the compiled path's draw-replay logic is
covered even where numba is not installed; the CI optional-deps job re-runs
this module with numba present to cover the compiled path itself.
"""

import numpy as np
import pytest

import repro.kernels.fused as fused_module
import repro.kernels.jit as jit_module
import repro.kernels.native as native
from repro.annealing.hycim import HyCiMSolver
from repro.annealing.sa import SimulatedAnnealer
from repro.batched import BatchedHyCiMSolver, BatchedSimulatedAnnealer
from repro.core.constraints import EqualityConstraint
from repro.dynamics import (
    Dynamics,
    ExponentialSchedule,
    GeometricSchedule,
    ParallelTempering,
    exchange_stream,
)
from repro.problems.generators import generate_qkp_instance
from repro.problems.maxcut import MaxCutProblem
from repro.problems.multidim_knapsack import generate_mdqkp_instance
from repro.problems.qkp import QuadraticKnapsackProblem

NUM_REPLICAS = 5


def make_qkp(seed, n=18):
    rng = np.random.default_rng(seed)
    profits = np.zeros((n, n))
    np.fill_diagonal(profits, rng.integers(1, 100, size=n))
    upper = np.triu_indices(n, 1)
    values = (rng.integers(0, 60, size=len(upper[0]))
              * (rng.random(len(upper[0])) < 0.4))
    profits[upper] = values
    profits = profits + np.triu(profits, 1).T
    weights = rng.integers(1, 30, size=n).astype(float)
    return QuadraticKnapsackProblem(profits=profits, weights=weights,
                                    capacity=float(weights.sum()) * 0.5,
                                    name="parity_qkp")


def make_maxcut(seed, n=16):
    rng = np.random.default_rng(seed)
    adjacency = rng.integers(0, 8, size=(n, n)) * (rng.random((n, n)) < 0.3)
    adjacency = np.triu(adjacency, 1)
    return MaxCutProblem(adjacency=(adjacency + adjacency.T).astype(float))


def make_generators(seed, count=NUM_REPLICAS):
    return [np.random.default_rng([seed, k]) for k in range(count)]


def assert_exact_parity(reference, other, generator_pairs=None):
    """Results and (optionally) final RNG states are exactly equal."""
    for a, b in zip(reference, other):
        assert a.best_energy == b.best_energy
        np.testing.assert_array_equal(a.best_configuration,
                                      b.best_configuration)
        assert a.feasible == b.feasible
        assert a.num_accepted_moves == b.num_accepted_moves
        assert a.num_feasible_evaluations == b.num_feasible_evaluations
        assert a.num_infeasible_skipped == b.num_infeasible_skipped
        assert a.energy_history == b.energy_history
    if generator_pairs is not None:
        for mine, theirs in zip(*generator_pairs):
            state_a = mine.bit_generator.state
            state_b = theirs.bit_generator.state
            assert state_a["state"]["state"] == state_b["state"]["state"]
            assert state_a["has_uint32"] == state_b["has_uint32"]
            assert state_a["uinteger"] == state_b["uinteger"]


def disable_c_block(monkeypatch):
    """Fused kernels built from here on run their NumPy loop."""
    monkeypatch.setattr(native, "_loaded", "C block disabled")


@pytest.fixture(params=["fused", "fused-numpy", "fused-c-draws", "numba",
                        "auto"])
def backend(request, monkeypatch):
    if request.param == "numba":
        # Run the JIT kernels interpreted when numba is missing -- the
        # stream-replay and commit logic is identical either way.
        monkeypatch.setattr(jit_module, "_ALLOW_INTERPRETED", True)
    if request.param == "fused-numpy":
        disable_c_block(monkeypatch)
        return "fused"
    if request.param == "fused-c-draws":
        # The NumPy loop, drawing through the driver's C lanes.
        request.getfixturevalue("c_block")
        monkeypatch.setattr(fused_module, "compiled_block",
                            lambda kernel, lanes: None)
        return "fused"
    return request.param


@pytest.fixture(params=["fused", "fused-numpy"])
def incremental(request, monkeypatch):
    """The fused kernels' two loops: both support CSR and equalities."""
    if request.param == "fused-numpy":
        disable_c_block(monkeypatch)
    return "fused"


@pytest.fixture
def qkp():
    return make_qkp(5)


@pytest.fixture
def qkp_initials(qkp):
    rng = np.random.default_rng(7)
    return np.stack([qkp.random_feasible_configuration(rng)
                     for _ in range(NUM_REPLICAS)])


def anneal_qkp(annealer, qkp, initials, generators, kernel):
    return BatchedSimulatedAnnealer(annealer).anneal(
        qkp.to_qubo(), initials, generators,
        accept_filter_batch=qkp.is_feasible_batch,
        feasibility_constraints=qkp.linear_feasibility_constraints(),
        kernel=kernel)


class TestSAParity:
    def test_constrained_qkp(self, backend, qkp, qkp_initials):
        annealer = SimulatedAnnealer(num_iterations=150)
        ref_gens, gens = make_generators(11), make_generators(11)
        reference = anneal_qkp(annealer, qkp, qkp_initials, ref_gens,
                               "reference")
        other = anneal_qkp(annealer, qkp, qkp_initials, gens, backend)
        assert_exact_parity(reference, other, (ref_gens, gens))

    def test_unconstrained_maxcut(self, backend):
        problem = make_maxcut(3)
        annealer = SimulatedAnnealer(num_iterations=150)
        initials = (np.random.default_rng(1)
                    .random((NUM_REPLICAS, problem.num_variables))
                    < 0.5).astype(float)
        ref_gens, gens = make_generators(21), make_generators(21)
        reference = BatchedSimulatedAnnealer(annealer).anneal(
            problem.to_qubo(), initials, ref_gens, kernel="reference")
        other = BatchedSimulatedAnnealer(annealer).anneal(
            problem.to_qubo(), initials, gens, kernel=backend)
        assert_exact_parity(reference, other, (ref_gens, gens))

    def test_recorded_history(self, backend, qkp, qkp_initials):
        annealer = SimulatedAnnealer(num_iterations=80, record_history=True)
        ref_gens, gens = make_generators(61), make_generators(61)
        reference = anneal_qkp(annealer, qkp, qkp_initials, ref_gens,
                               "reference")
        other = anneal_qkp(annealer, qkp, qkp_initials, gens, backend)
        assert_exact_parity(reference, other, (ref_gens, gens))
        assert reference[0].energy_history  # the histories were recorded

    def test_multiple_moves_per_iteration(self, backend, qkp, qkp_initials):
        annealer = SimulatedAnnealer(num_iterations=60, moves_per_iteration=3)
        ref_gens, gens = make_generators(71), make_generators(71)
        reference = anneal_qkp(annealer, qkp, qkp_initials, ref_gens,
                               "reference")
        other = anneal_qkp(annealer, qkp, qkp_initials, gens, backend)
        assert_exact_parity(reference, other, (ref_gens, gens))


class TestSparseParity:
    def test_sparse_fused_equals_dense_reference(self, qkp, qkp_initials):
        self.check(qkp, qkp_initials)

    def test_sparse_numpy_loop_equals_dense_reference(self, qkp,
                                                      qkp_initials,
                                                      monkeypatch):
        disable_c_block(monkeypatch)
        self.check(qkp, qkp_initials)

    @staticmethod
    def check(qkp, qkp_initials):
        pytest.importorskip("scipy")
        annealer = SimulatedAnnealer(num_iterations=150)
        ref_gens, gens = make_generators(31), make_generators(31)
        reference = anneal_qkp(annealer, qkp, qkp_initials, ref_gens,
                               "reference")
        sparse = BatchedSimulatedAnnealer(annealer).anneal(
            qkp.to_sparse_qubo(), qkp_initials, gens,
            accept_filter_batch=qkp.is_feasible_batch,
            feasibility_constraints=qkp.linear_feasibility_constraints(),
            kernel="fused")
        assert_exact_parity(reference, sparse, (ref_gens, gens))


class TestEqualityParity:
    @pytest.mark.parametrize("sparse", [False, True])
    def test_equality_and_inequality_loads(self, incremental, sparse, qkp):
        # Items 0-5 must hold exactly three picks; flips elsewhere keep the
        # equality load, so both feasible moves and rejections occur.  The
        # last two replicas start off the equality, where every flip is
        # rejected.
        if sparse:
            pytest.importorskip("scipy")
        n = qkp.num_variables
        group = np.zeros(n)
        group[:6] = 1.0
        constraints = [*qkp.linear_feasibility_constraints(),
                       EqualityConstraint(group, 3.0)]

        def feasible(batch):
            return np.array([all(c.is_satisfied(row) for c in constraints)
                             for row in batch])

        initials = np.zeros((NUM_REPLICAS, n))
        initials[:3, :3] = 1.0
        annealer = SimulatedAnnealer(num_iterations=150)
        matrix = qkp.to_sparse_qubo() if sparse else qkp.to_qubo()
        ref_gens, gens = make_generators(33), make_generators(33)
        runs = [BatchedSimulatedAnnealer(annealer).anneal(
            model, initials, generators, accept_filter_batch=feasible,
            feasibility_constraints=constraints, kernel=backend)
            for model, generators, backend in (
                (qkp.to_qubo(), ref_gens, "reference"),
                (matrix, gens, incremental))]
        assert_exact_parity(*runs, (ref_gens, gens))
        assert all(r.num_infeasible_skipped > 0 for r in runs[0])
        assert all(r.num_accepted_moves > 0 for r in runs[0][:3])


def make_float_qkp(seed, n=24):
    """A QKP with fractional profits and weights (exactly symmetric)."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) * 40.0 * (rng.random((n, n)) < 0.5), 1)
    profits = upper + upper.T
    np.fill_diagonal(profits, rng.random(n) * 90.0 + 1.0)
    weights = rng.random(n) * 29.0 + 1.0
    return QuadraticKnapsackProblem(profits=profits, weights=weights,
                                    capacity=float(weights.sum()) * 0.5,
                                    name="float_qkp")


@pytest.mark.usefixtures("c_block")
class TestFloatData:
    """The C block equals the NumPy loop bit for bit on non-integer
    coefficients.

    The schedule starts hot, at the scale of the profits, so flips both
    ways are accepted and any reordered operation would move an energy.
    """

    HOT = GeometricSchedule(300.0, 1.0)

    @staticmethod
    def both_loops(run, seed, monkeypatch):
        """``run(generators)`` on the NumPy loop, then on the C block."""
        numpy_gens, gens = make_generators(seed), make_generators(seed)
        with monkeypatch.context() as patch:
            disable_c_block(patch)
            numpy_loop = run(numpy_gens)
        assert_exact_parity(numpy_loop, run(gens), (numpy_gens, gens))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_hycim(self, seed, monkeypatch):
        problem = make_float_qkp(seed)
        initials = np.stack([
            problem.random_feasible_configuration(np.random.default_rng(seed))
            for _ in range(NUM_REPLICAS)])
        solver = HyCiMSolver(problem, use_hardware=False, num_iterations=300,
                             schedule=self.HOT, record_history=True)
        self.both_loops(
            lambda generators: BatchedHyCiMSolver(solver).solve_batch(
                initials, generators, kernel="fused"), seed, monkeypatch)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_sa_ladder(self, seed, monkeypatch):
        problem = make_float_qkp(seed)
        initials = np.zeros((NUM_REPLICAS, problem.num_variables))
        annealer = SimulatedAnnealer(num_iterations=300, schedule=self.HOT,
                                     record_history=True)
        self.both_loops(
            lambda generators: BatchedSimulatedAnnealer(annealer).anneal(
                problem.to_qubo(), initials, generators,
                accept_filter_batch=problem.is_feasible_batch,
                feasibility_constraints=(
                    problem.linear_feasibility_constraints()),
                dynamics=ParallelTempering(exchange_interval=7),
                exchange_rng=exchange_stream([7]), kernel="fused"),
            seed, monkeypatch)


class TestHyCiMParity:
    def test_software_mode(self, backend, qkp, qkp_initials):
        solver = HyCiMSolver(qkp, use_hardware=False, num_iterations=150)
        ref_gens, gens = make_generators(41), make_generators(41)
        reference = BatchedHyCiMSolver(solver).solve_batch(
            qkp_initials, ref_gens, kernel="reference")
        other = BatchedHyCiMSolver(solver).solve_batch(
            qkp_initials, gens, kernel=backend)
        assert_exact_parity(reference, other, (ref_gens, gens))

    def test_ladder_with_replica_exchange(self, backend, qkp, qkp_initials):
        solver = HyCiMSolver(qkp, use_hardware=False, num_iterations=150)
        dynamics = ParallelTempering(exchange_interval=5)
        ref_gens, gens = make_generators(51), make_generators(51)
        reference = BatchedHyCiMSolver(solver).solve_batch(
            qkp_initials, ref_gens, dynamics=dynamics,
            exchange_rng=exchange_stream([4242]), kernel="reference")
        other = BatchedHyCiMSolver(solver).solve_batch(
            qkp_initials, gens, dynamics=dynamics,
            exchange_rng=exchange_stream([4242]), kernel=backend)
        assert_exact_parity(reference, other, (ref_gens, gens))
        # Exchange really happened, identically on both backends.
        assert (reference[0].metadata["exchange_accepted"]
                == other[0].metadata["exchange_accepted"])
        assert reference[0].metadata["exchange_attempts"] > 0


    def test_recorded_history(self, backend, qkp, qkp_initials):
        solver = HyCiMSolver(qkp, use_hardware=False, num_iterations=80,
                             record_history=True)
        ref_gens, gens = make_generators(43), make_generators(43)
        reference = BatchedHyCiMSolver(solver).solve_batch(
            qkp_initials, ref_gens, kernel="reference")
        other = BatchedHyCiMSolver(solver).solve_batch(
            qkp_initials, gens, kernel=backend)
        assert_exact_parity(reference, other, (ref_gens, gens))
        assert reference[0].energy_history  # the histories were recorded

    def test_multiple_moves_per_iteration(self, backend, qkp, qkp_initials):
        solver = HyCiMSolver(qkp, use_hardware=False, num_iterations=60,
                             moves_per_iteration=3)
        ref_gens, gens = make_generators(47), make_generators(47)
        reference = BatchedHyCiMSolver(solver).solve_batch(
            qkp_initials, ref_gens, kernel="reference")
        other = BatchedHyCiMSolver(solver).solve_batch(
            qkp_initials, gens, kernel=backend)
        assert_exact_parity(reference, other, (ref_gens, gens))

    @pytest.mark.parametrize("ladder", [False, True],
                             ids=["independent", "ladder"])
    def test_infeasible_starts(self, backend, qkp, ladder):
        # Random starts, two of five over capacity: those replicas drift at
        # energy 0 (paper Eq. (6)) until they accept a feasible state, and
        # on a ladder exchange moves the drifting incumbents between
        # replicas whose best states are feasible.
        initials = (np.random.default_rng(3).random(
            (NUM_REPLICAS, qkp.num_variables)) < 0.6).astype(float)
        assert qkp.is_feasible_batch(initials).tolist() == [
            False, False, True, True, True]
        solver = HyCiMSolver(qkp, use_hardware=False, num_iterations=150)

        def run(generators, kernel):
            coupling = (dict(dynamics=ParallelTempering(exchange_interval=3),
                             exchange_rng=exchange_stream([4242]))
                        if ladder else {})
            return BatchedHyCiMSolver(solver).solve_batch(
                initials, generators, kernel=kernel, **coupling)

        ref_gens, gens = make_generators(57), make_generators(57)
        reference = run(ref_gens, "reference")
        assert_exact_parity(reference, run(gens, backend), (ref_gens, gens))
        assert all(r.feasible for r in reference)

    def test_multidimensional_constraints(self, backend):
        # Several running loads per replica: every constraint column must
        # gate the same proposals the reference's batch filter rejects.
        # A hot schedule keeps items moving in and out of the knapsacks.
        problem = generate_mdqkp_instance(num_items=16, num_constraints=4,
                                          seed=8)
        initials = np.zeros((NUM_REPLICAS, problem.num_variables))
        solver = HyCiMSolver(problem, use_hardware=False, num_iterations=150,
                             schedule=GeometricSchedule(1000.0, 1.0))
        ref_gens, gens = make_generators(53), make_generators(53)
        reference = BatchedHyCiMSolver(solver).solve_batch(
            initials, ref_gens, kernel="reference")
        other = BatchedHyCiMSolver(solver).solve_batch(
            initials, gens, kernel=backend)
        assert_exact_parity(reference, other, (ref_gens, gens))
        assert all(r.num_infeasible_skipped > 0 for r in reference)
        assert all(r.num_accepted_moves > 0 for r in reference)


class TestAliasedGenerators:
    """One ``Generator`` serving two replicas in per-replica mode: its draws
    follow one another, so no backend may replay it as two streams."""

    def test_every_backend_draws_one_stream(self, draw_path, monkeypatch):
        problem = generate_qkp_instance(num_items=30, seed=3)
        annealer = SimulatedAnnealer(
            schedule=ExponentialSchedule(2000.0, 0.995), num_iterations=300)

        def run(kernel):
            shared = np.random.default_rng(5)
            return BatchedSimulatedAnnealer(annealer).anneal(
                problem.to_qubo(), np.zeros((2, problem.num_variables)),
                [shared, shared], kernel=kernel), shared

        # The generator calls themselves, one replica after the other.
        with monkeypatch.context() as patch:
            disable_c_block(patch)
            calls, calls_rng = run("reference")
        assert calls[0].num_accepted_moves > 0
        for kernel in ("reference", "fused", "auto"):
            results, shared = run(kernel)
            assert_exact_parity(calls, results, ([calls_rng], [shared]))


class TestSharedRNGMode:
    def test_fused_falls_back_to_driver_draws(self, qkp, qkp_initials):
        # Shared-RNG mode is not stream-replayable; the fused kernel must
        # fall back to driver-mediated draws and still match exactly.
        annealer = SimulatedAnnealer(num_iterations=100)
        shared_ref = np.random.default_rng(5)
        shared_fused = np.random.default_rng(5)
        reference = BatchedSimulatedAnnealer(annealer).anneal(
            qkp.to_qubo(), qkp_initials, [shared_ref] * NUM_REPLICAS,
            accept_filter_batch=qkp.is_feasible_batch,
            feasibility_constraints=qkp.linear_feasibility_constraints(),
            dynamics=Dynamics(rng_mode="shared"), shared_rng=shared_ref,
            kernel="reference")
        fused = BatchedSimulatedAnnealer(annealer).anneal(
            qkp.to_qubo(), qkp_initials, [shared_fused] * NUM_REPLICAS,
            accept_filter_batch=qkp.is_feasible_batch,
            feasibility_constraints=qkp.linear_feasibility_constraints(),
            dynamics=Dynamics(rng_mode="shared"), shared_rng=shared_fused,
            kernel="fused")
        assert_exact_parity(reference, fused)
        assert (shared_ref.bit_generator.state["state"]["state"]
                == shared_fused.bit_generator.state["state"]["state"])
