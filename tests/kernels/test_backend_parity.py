"""Backend parity: fused, interpreted-JIT and "auto" kernels vs the reference.

The contract from :mod:`repro.kernels.base`: on integer-valued instances the
fused backend consumes the same RNG draws and produces *exactly* equal
trajectories -- best energies, configurations, proposal counters, recorded
histories, and (crucially) the final per-replica generator states, so a
kernel swap mid-campaign cannot desynchronise a seeded experiment.  The
``"auto"`` arm holds whatever backend the environment resolves to (numba
when installed, else fused) to the same contract.

The JIT kernels are exercised here through their interpreted fallback
(``_ALLOW_INTERPRETED``), so the compiled path's draw-replay logic is
covered even where numba is not installed; the CI optional-deps job re-runs
this module with numba present to cover the compiled path itself.
"""

import numpy as np
import pytest

import repro.kernels.jit as jit_module
from repro.annealing.hycim import HyCiMSolver
from repro.annealing.sa import SimulatedAnnealer
from repro.batched import BatchedHyCiMSolver, BatchedSimulatedAnnealer
from repro.dynamics import (
    Dynamics,
    GeometricSchedule,
    ParallelTempering,
    exchange_stream,
)
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


@pytest.fixture(params=["fused", "numba", "auto"])
def backend(request, monkeypatch):
    if request.param == "numba":
        # Run the JIT kernels interpreted when numba is missing -- the
        # stream-replay and commit logic is identical either way.
        monkeypatch.setattr(jit_module, "_ALLOW_INTERPRETED", True)
    return request.param


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
