"""Packed-backend specifics beyond the shared parity suite.

``tests/kernels/test_backend_parity.py`` already runs the packed backend
through every parity scenario (exchange ladders, histories, final RNG
states) via its backend fixture.  This module covers what is unique to the
bit-packed representation: the words/popcount state stays consistent with a
dense recomputation under arbitrary sweeps (hypothesis), block boundaries
are unobservable, the shared-RNG fallback and CSR matrices stay exact, the
store addresses packed runs separately from reference ones, and the packed
travelling state is an order of magnitude smaller per replica.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.annealing.sa import SimulatedAnnealer
from repro.batched import BatchedSimulatedAnnealer
from repro.batched.kernels import batched_energies
from repro.core.constraints import InequalityConstraint
from repro.core.sparse import symmetrized_matrix
from repro.dynamics import Dynamics
from repro.dynamics.driver import LoopDriver
from repro.dynamics.schedule import GeometricSchedule
from repro.kernels import make_sa_kernel
from repro.kernels.bits import popcount_rows, unpack_bits
from repro.kernels.packed import PackedSAKernel
from repro.problems.generators import generate_qkp_instance
from repro.runtime import run_trials
from repro.store import CampaignStore

from test_backend_parity import (
    NUM_REPLICAS,
    assert_exact_parity,
    make_generators,
    make_qkp,
)


@st.composite
def annealing_run(draw):
    """An integer QKP-like model, zero starts, and an iteration count."""
    n = draw(st.integers(3, 20))
    m = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    matrix = -np.triu(rng.integers(0, 40, size=(n, n)).astype(float))
    weights = rng.integers(1, 9, size=n).astype(float)
    constraints = ([InequalityConstraint(weights, float(weights.sum()) * 0.6)]
                   if draw(st.booleans()) else None)
    return matrix, np.zeros((m, n)), constraints, draw(st.integers(1, 60)), \
        draw(st.integers(0, 999))


def _unconsulted_filter(batch):  # pragma: no cover - must never run
    raise AssertionError(
        "the packed kernel must track feasibility incrementally, never "
        "through the opaque batch filter")


def _make_packed(matrix, starts, constraints, num_iterations, seed):
    generators = [np.random.default_rng([seed, k])
                  for k in range(starts.shape[0])]
    driver = LoopDriver(GeometricSchedule(5.0, 0.1), num_iterations,
                        generators)
    current = starts.copy()
    kernel = make_sa_kernel(
        "packed", matrix=matrix, offset=0.0, driver=driver,
        move_generator=None, single_flip=True, moves_per_iteration=1,
        current=current, current_energy=batched_energies(matrix, current),
        accept_filter_batch=(_unconsulted_filter if constraints else None),
        feasibility_constraints=constraints, generators=generators)
    assert isinstance(kernel, PackedSAKernel)
    return kernel


class TestPackedStateConsistency:
    @given(annealing_run())
    @settings(max_examples=40, deadline=None)
    def test_words_equal_dense_recomputation_after_sweeps(self, run):
        matrix, starts, constraints, iterations, seed = run
        kernel = _make_packed(matrix, starts, constraints, iterations, seed)
        kernel.run_block(0, iterations)
        n = matrix.shape[0]
        decoded = unpack_bits(kernel.words, n)
        # The popcount tally and the running constraint loads track the
        # packed words exactly ...
        np.testing.assert_array_equal(kernel._ones,
                                      popcount_rows(kernel.words))
        if constraints is not None:
            weights = np.stack([c.weight_vector for c in constraints], axis=1)
            np.testing.assert_array_equal(kernel.loads, decoded @ weights)
        # ... and the incremental energies equal a full re-evaluation.
        np.testing.assert_array_equal(kernel.current_energy,
                                      batched_energies(matrix, decoded))
        kernel.finalize()
        np.testing.assert_array_equal(kernel.current, decoded)
        np.testing.assert_array_equal(
            kernel.best_energy, batched_energies(matrix, kernel.best))

    @given(annealing_run())
    @settings(max_examples=20, deadline=None)
    def test_one_block_of_k_equals_k_single_steps(self, run):
        matrix, starts, constraints, iterations, seed = run
        fused = _make_packed(matrix, starts, constraints, iterations, seed)
        stepped = _make_packed(matrix, starts, constraints, iterations, seed)
        fused.run_block(0, iterations)
        for iteration in range(iterations):
            stepped.run_block(iteration, 1)
        fused.finalize()
        stepped.finalize()
        np.testing.assert_array_equal(fused.current, stepped.current)
        np.testing.assert_array_equal(fused.best, stepped.best)
        np.testing.assert_array_equal(fused.best_energy, stepped.best_energy)
        np.testing.assert_array_equal(fused.num_accepted, stepped.num_accepted)


@pytest.fixture
def qkp():
    return make_qkp(5)


@pytest.fixture
def qkp_initials(qkp):
    rng = np.random.default_rng(7)
    return np.stack([qkp.random_feasible_configuration(rng)
                     for _ in range(NUM_REPLICAS)])


class TestSharedRNGFallback:
    def test_packed_falls_back_to_driver_draws(self, qkp, qkp_initials):
        # Shared-RNG mode is not stream-replayable; the packed kernel must
        # fall back to driver-mediated draws and still match exactly.
        annealer = SimulatedAnnealer(num_iterations=100)
        shared_ref = np.random.default_rng(5)
        shared_packed = np.random.default_rng(5)
        reference = BatchedSimulatedAnnealer(annealer).anneal(
            qkp.to_qubo(), qkp_initials, [shared_ref] * NUM_REPLICAS,
            accept_filter_batch=qkp.is_feasible_batch,
            feasibility_constraints=qkp.linear_feasibility_constraints(),
            dynamics=Dynamics(rng_mode="shared"), shared_rng=shared_ref,
            kernel="reference")
        packed = BatchedSimulatedAnnealer(annealer).anneal(
            qkp.to_qubo(), qkp_initials, [shared_packed] * NUM_REPLICAS,
            accept_filter_batch=qkp.is_feasible_batch,
            feasibility_constraints=qkp.linear_feasibility_constraints(),
            dynamics=Dynamics(rng_mode="shared"), shared_rng=shared_packed,
            kernel="packed")
        assert_exact_parity(reference, packed)
        assert (shared_ref.bit_generator.state["state"]["state"]
                == shared_packed.bit_generator.state["state"]["state"])


class TestSparsePacked:
    def test_sparse_packed_equals_dense_reference(self, qkp, qkp_initials):
        pytest.importorskip("scipy")
        annealer = SimulatedAnnealer(num_iterations=150)
        ref_gens, gens = make_generators(31), make_generators(31)
        reference = BatchedSimulatedAnnealer(annealer).anneal(
            qkp.to_qubo(), qkp_initials, ref_gens,
            accept_filter_batch=qkp.is_feasible_batch,
            feasibility_constraints=qkp.linear_feasibility_constraints(),
            kernel="reference")
        sparse = BatchedSimulatedAnnealer(annealer).anneal(
            qkp.to_sparse_qubo(), qkp_initials, gens,
            accept_filter_batch=qkp.is_feasible_batch,
            feasibility_constraints=qkp.linear_feasibility_constraints(),
            kernel="packed")
        assert_exact_parity(reference, sparse, (ref_gens, gens))


PARAMS = {"num_iterations": 60, "use_hardware": False}


class TestStoreRunKeys:
    @pytest.fixture
    def problem(self):
        return generate_qkp_instance(num_items=20, density=0.5, seed=412,
                                     name="packed_runkey_qkp")

    def test_packed_addresses_its_own_run(self, problem, tmp_path):
        store = CampaignStore(tmp_path / "store")
        run_trials(problem, "hycim", num_trials=2, params=PARAMS,
                   master_seed=6, store=store)
        packed = run_trials(problem, "hycim", num_trials=2,
                            params=dict(PARAMS, kernel="packed"),
                            master_seed=6, store=store)
        # Exact per-seed parity notwithstanding, an explicit backend keeps
        # its own run key -- loading another backend's shards would hide
        # which backend actually produced the persisted trials.
        assert packed.num_loaded_from_store == 0

    def test_packed_run_resumes_warm(self, problem, tmp_path):
        store = CampaignStore(tmp_path / "store")
        params = dict(PARAMS, kernel="packed")
        cold = run_trials(problem, "hycim", num_trials=3, params=params,
                          master_seed=6, store=store)
        assert cold.num_loaded_from_store == 0
        warm = run_trials(problem, "hycim", num_trials=3, params=params,
                          master_seed=6, store=store)
        assert warm.num_loaded_from_store == 3
        np.testing.assert_array_equal(cold.best_energies, warm.best_energies)
        manifest = store.get_manifest(cold.run_key)
        assert manifest.provenance.get("kernel_resolved") == "packed"


class TestStateFootprint:
    def test_packed_state_is_far_smaller_per_replica(self, qkp, qkp_initials):
        args = dict(
            matrix=qkp.to_qubo().matrix, offset=0.0,
            move_generator=None, single_flip=True, moves_per_iteration=1,
            accept_filter_batch=qkp.is_feasible_batch,
            feasibility_constraints=qkp.linear_feasibility_constraints())
        kernels = {}
        for backend in ("fused", "packed"):
            generators = make_generators(17)
            current = qkp_initials.copy()
            driver = LoopDriver(GeometricSchedule(5.0, 0.1), 10, generators)
            kernels[backend] = make_sa_kernel(
                backend, driver=driver, current=current,
                current_energy=batched_energies(args["matrix"], current),
                generators=generators, **args)
        packed = kernels["packed"].state_nbytes_per_replica()
        fused = kernels["fused"].state_nbytes_per_replica()
        assert packed < fused / 4
