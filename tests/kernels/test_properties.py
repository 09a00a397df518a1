"""Hypothesis property tests for the fused sweep kernel.

Three invariants back the incremental arithmetic:

1. the batched single-flip delta computed against a CSR matrix equals the
   dense computation, for arbitrary QUBO matrices and flip choices;
2. after an arbitrary run of fused sweeps, the local-field cache and the
   running constraint loads equal a from-scratch recomputation from the
   travelling configurations (and the incremental energies equal a full
   re-evaluation, exactly, on integer data);
3. fusing K iterations into one ``run_block`` call leaves exactly the same
   state as K single-iteration calls (block boundaries are unobservable).

The kernel carries each invariant both as SA runs it (every incumbent
feasible, the raw energy a copy of the energies) and as HyCiM runs it,
from arbitrary (possibly infeasible) batches so the drift path is covered
too.  A fourth invariant pins the best-so-far state: every feasible best
configuration re-evaluates to its recorded best energy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import InequalityConstraint
from repro.core.qubo import batched_energies, batched_energy_delta
from repro.core.sparse import symmetrized_matrix
from repro.dynamics.driver import LoopDriver
from repro.dynamics.schedule import GeometricSchedule
from repro.kernels.fused import FusedHyCiMKernel

scipy_sparse = pytest.importorskip("scipy.sparse")


@st.composite
def qubo_and_batch(draw, max_variables=10, max_replicas=6):
    """A random integer QUBO matrix plus a binary replica batch and flips."""
    n = draw(st.integers(2, max_variables))
    m = draw(st.integers(1, max_replicas))
    element = st.integers(-50, 50)
    matrix = np.array(
        draw(st.lists(st.lists(element, min_size=n, max_size=n),
                      min_size=n, max_size=n)),
        dtype=float)
    batch = np.array(
        draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                      min_size=m, max_size=m)),
        dtype=float)
    flips = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m,
                                   max_size=m)), dtype=int)
    return matrix, batch, flips


class TestDenseSparseEquality:
    @given(qubo_and_batch())
    @settings(max_examples=60, deadline=None)
    def test_csr_delta_equals_dense_delta(self, data):
        matrix, batch, flips = data
        sparse = scipy_sparse.csr_matrix(matrix)
        dense_delta = batched_energy_delta(matrix, batch, flips)
        sparse_delta = batched_energy_delta(sparse, batch, flips)
        # Integer-valued data: the summation-order difference is invisible.
        np.testing.assert_array_equal(dense_delta, sparse_delta)

    @given(qubo_and_batch())
    @settings(max_examples=60, deadline=None)
    def test_csr_energies_equal_dense_energies(self, data):
        matrix, batch, _ = data
        sparse = scipy_sparse.csr_matrix(matrix)
        np.testing.assert_array_equal(batched_energies(matrix, batch, 3.0),
                                      batched_energies(sparse, batch, 3.0))


def _make_kernel(matrix, starts, constraints, num_iterations, seed,
                 sparse=False):
    """The fused kernel as the SA engine builds it, on a fresh driver."""
    generators = [np.random.default_rng([seed, k])
                  for k in range(starts.shape[0])]
    driver = LoopDriver(GeometricSchedule(5.0, 0.1), num_iterations,
                        generators, exclusive=True)
    current = starts.copy()
    energy = batched_energies(matrix, current)
    return FusedHyCiMKernel(
        matrix=scipy_sparse.csr_matrix(matrix) if sparse else matrix,
        driver=driver, single_flip=True, moves_per_iteration=1,
        constraints=constraints, current=current, current_energy=energy,
        current_feasible=np.ones(current.shape[0], dtype=bool),
        raw_energy=energy.copy())


@st.composite
def annealing_run(draw):
    """An integer QKP-like model, feasible starts, and an iteration count."""
    n = draw(st.integers(3, 12))
    m = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    matrix = -rng.integers(0, 40, size=(n, n)).astype(float)
    matrix = np.triu(matrix)
    weights = rng.integers(1, 9, size=n).astype(float)
    bound = float(weights.sum()) * 0.6
    constrained = draw(st.booleans())
    constraints = ([InequalityConstraint(weights, bound)]
                   if constrained else [])
    starts = np.zeros((m, n))
    iterations = draw(st.integers(1, 60))
    return matrix, starts, constraints, iterations, draw(st.integers(0, 999))


def _make_hycim_kernel(matrix, starts, constraints, num_iterations, seed):
    """A software-mode FusedHyCiMKernel wired to a fresh driver.

    Incumbents start as the batched engine sets them up: infeasible rows at
    energy 0 (paper Eq. (6)), the raw QUBO value tracked for every row.
    """
    generators = [np.random.default_rng([seed, k])
                  for k in range(starts.shape[0])]
    driver = LoopDriver(GeometricSchedule(5.0, 0.1), num_iterations,
                        generators, exclusive=True)
    current = starts.copy()
    raw_energy = batched_energies(matrix, current)
    feasible = _satisfies(current, constraints)
    return FusedHyCiMKernel(
        matrix=matrix, driver=driver, single_flip=True,
        moves_per_iteration=1, constraints=constraints, current=current,
        current_energy=np.where(feasible, raw_energy, 0.0),
        current_feasible=feasible, raw_energy=raw_energy)


def _satisfies(batch, constraints):
    """Row-wise verdict of every inequality constraint on ``batch``."""
    verdict = np.ones(batch.shape[0], dtype=bool)
    for constraint in constraints:
        verdict &= batch @ constraint.weight_vector <= constraint.bound + 1e-9
    return verdict


@st.composite
def hycim_run(draw):
    """Like :func:`annealing_run`, but from random, possibly infeasible,
    starting batches."""
    matrix, starts, constraints, iterations, seed = draw(annealing_run())
    rng = np.random.default_rng(seed)
    starts = (rng.random(starts.shape) < 0.5).astype(float)
    return matrix, starts, constraints, iterations, seed


class TestFieldCacheConsistency:
    @given(annealing_run())
    @settings(max_examples=40, deadline=None)
    def test_caches_equal_recomputation_after_arbitrary_sweeps(self, run):
        matrix, starts, constraints, iterations, seed = run
        kernel = _make_kernel(matrix, starts, constraints, iterations, seed)
        kernel.run_block(0, iterations)
        # Local fields: row k must equal current[k] @ (Q + Q^T) recomputed
        # from scratch.  Integer coefficients make this exact.
        np.testing.assert_array_equal(
            kernel.field, kernel.current @ symmetrized_matrix(matrix))
        # Running constraint loads match a fresh matvec.
        if constraints:
            weights = np.stack([c.weight_vector for c in constraints], axis=1)
            np.testing.assert_array_equal(kernel.loads,
                                          kernel.current @ weights)
            # And the travelling batch still satisfies every constraint.
            for constraint in constraints:
                assert (kernel.current @ constraint.weight_vector
                        <= constraint.bound + 1e-9).all()
        # Incremental energies equal full re-evaluation; with every
        # incumbent feasible the raw energy never parts from them.
        np.testing.assert_array_equal(kernel.current_energy,
                                      batched_energies(matrix, kernel.current))
        np.testing.assert_array_equal(kernel.raw_energy, kernel.current_energy)
        assert kernel.current_feasible.all()

    @given(hycim_run())
    @settings(max_examples=40, deadline=None)
    def test_hycim_caches_equal_recomputation_after_arbitrary_sweeps(self,
                                                                     run):
        matrix, starts, constraints, iterations, seed = run
        kernel = _make_hycim_kernel(matrix, starts, constraints, iterations,
                                    seed)
        kernel.run_block(0, iterations)
        current = kernel.current
        np.testing.assert_array_equal(
            kernel.field, current @ symmetrized_matrix(matrix))
        if constraints:
            weights = np.stack([c.weight_vector for c in constraints], axis=1)
            np.testing.assert_array_equal(kernel.loads, current @ weights)
        # The feasibility flags follow the travelling rows, the raw energy
        # tracks every row, and a drifting (infeasible) row sits at 0.
        feasible = _satisfies(current, constraints)
        np.testing.assert_array_equal(kernel.current_feasible, feasible)
        np.testing.assert_array_equal(kernel.raw_energy,
                                      batched_energies(matrix, current))
        np.testing.assert_array_equal(
            kernel.current_energy, np.where(feasible, kernel.raw_energy, 0.0))

    @given(annealing_run())
    @settings(max_examples=20, deadline=None)
    def test_sparse_kernel_caches_equal_recomputation(self, run):
        matrix, starts, constraints, iterations, seed = run
        kernel = _make_kernel(matrix, starts, constraints, iterations, seed,
                              sparse=True)
        kernel.run_block(0, iterations)
        np.testing.assert_array_equal(
            kernel.field, kernel.current @ symmetrized_matrix(matrix))
        np.testing.assert_array_equal(kernel.current_energy,
                                      batched_energies(matrix, kernel.current))


class TestBlockFusionInvariance:
    @given(annealing_run())
    @settings(max_examples=40, deadline=None)
    def test_one_block_of_k_equals_k_single_steps(self, run):
        matrix, starts, constraints, iterations, seed = run
        fused = _make_kernel(matrix, starts, constraints, iterations, seed)
        stepped = _make_kernel(matrix, starts, constraints, iterations, seed)
        fused.run_block(0, iterations)
        for iteration in range(iterations):
            stepped.run_block(iteration, 1)
        np.testing.assert_array_equal(fused.current, stepped.current)
        np.testing.assert_array_equal(fused.current_energy,
                                      stepped.current_energy)
        np.testing.assert_array_equal(fused.best, stepped.best)
        np.testing.assert_array_equal(fused.best_energy, stepped.best_energy)
        np.testing.assert_array_equal(fused.num_accepted, stepped.num_accepted)
        np.testing.assert_array_equal(fused.num_feasible, stepped.num_feasible)
        np.testing.assert_array_equal(fused.num_skipped, stepped.num_skipped)

    @given(hycim_run())
    @settings(max_examples=20, deadline=None)
    def test_hycim_one_block_of_k_equals_k_single_steps(self, run):
        matrix, starts, constraints, iterations, seed = run
        fused = _make_hycim_kernel(matrix, starts, constraints, iterations,
                                   seed)
        stepped = _make_hycim_kernel(matrix, starts, constraints, iterations,
                                     seed)
        fused.run_block(0, iterations)
        for iteration in range(iterations):
            stepped.run_block(iteration, 1)
        for name in ("current", "current_energy", "current_feasible",
                     "raw_energy", "best", "best_energy", "best_feasible",
                     "num_accepted", "num_feasible", "num_skipped"):
            np.testing.assert_array_equal(getattr(fused, name),
                                          getattr(stepped, name))


class TestBestTracking:
    @given(annealing_run())
    @settings(max_examples=30, deadline=None)
    def test_sa_best_reevaluates_to_best_energy(self, run):
        matrix, starts, constraints, iterations, seed = run
        kernel = _make_kernel(matrix, starts, constraints, iterations, seed)
        kernel.run_block(0, iterations)
        np.testing.assert_array_equal(kernel.best_energy,
                                      batched_energies(matrix, kernel.best))
        assert (kernel.best_energy <= kernel.current_energy).all()
        assert _satisfies(kernel.best, constraints).all()

    @given(hycim_run())
    @settings(max_examples=30, deadline=None)
    def test_hycim_best_reevaluates_to_best_energy(self, run):
        matrix, starts, constraints, iterations, seed = run
        kernel = _make_hycim_kernel(matrix, starts, constraints, iterations,
                                    seed)
        kernel.run_block(0, iterations)
        found = kernel.best_feasible
        np.testing.assert_array_equal(
            kernel.best_energy[found],
            batched_energies(matrix, kernel.best[found]))
        assert _satisfies(kernel.best[found], constraints).all()
        # A feasible incumbent never sits below its recorded best.
        settled = found & kernel.current_feasible
        assert (kernel.best_energy[settled]
                <= kernel.current_energy[settled]).all()
        # A replica that never reached feasibility keeps its start as best.
        np.testing.assert_array_equal(kernel.best[~found], starts[~found])
