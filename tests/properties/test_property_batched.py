"""Hypothesis property tests for the batched replica kernels.

Two invariants back the vectorised engine's correctness:

1. the batched single-flip delta equals a full energy recomputation for
   arbitrary QUBO matrices, configurations and flip choices;
2. batched inequality-filter verdicts equal per-row scalar verdicts for
   arbitrary integer constraints and replica batches.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cim.inequality_filter import InequalityFilter
from repro.core.constraints import InequalityConstraint
from repro.core.qubo import QUBOModel, batched_energies, batched_energy_delta


@st.composite
def qubo_and_batch(draw, max_variables=10, max_replicas=8, integer=False):
    """A random QUBO model plus a random replica batch over its variables."""
    n = draw(st.integers(2, max_variables))
    m = draw(st.integers(1, max_replicas))
    if integer:
        element = st.integers(-50, 50)
    else:
        element = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
    matrix = np.array(
        draw(st.lists(st.lists(element, min_size=n, max_size=n),
                      min_size=n, max_size=n)),
        dtype=float)
    offset = float(draw(st.integers(-20, 20)))
    batch = np.array(
        draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                      min_size=m, max_size=m)),
        dtype=float)
    flips = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m,
                                   max_size=m)), dtype=int)
    return QUBOModel(matrix, offset=offset), batch, flips


class TestBatchedDelta:
    @given(qubo_and_batch())
    @settings(max_examples=80, deadline=None)
    def test_delta_equals_full_recomputation(self, payload):
        """Flipping then re-evaluating must equal energy + batched delta."""
        qubo, batch, flips = payload
        deltas = batched_energy_delta(qubo.matrix, batch, flips)
        rows = np.arange(batch.shape[0])
        flipped = batch.copy()
        flipped[rows, flips] = 1.0 - flipped[rows, flips]
        recomputed = np.array([qubo.energy(row) for row in flipped])
        base = np.array([qubo.energy(row) for row in batch])
        np.testing.assert_allclose(base + deltas, recomputed,
                                   rtol=1e-9, atol=1e-6)

    @given(qubo_and_batch())
    @settings(max_examples=60, deadline=None)
    def test_delta_matches_scalar_kernel(self, payload):
        qubo, batch, flips = payload
        deltas = batched_energy_delta(qubo.matrix, batch, flips)
        scalar = [qubo.energy_delta(row, int(i))
                  for row, i in zip(batch, flips)]
        np.testing.assert_allclose(deltas, scalar, rtol=1e-9, atol=1e-6)

    @given(qubo_and_batch(integer=True))
    @settings(max_examples=60, deadline=None)
    def test_delta_exact_for_integer_matrices(self, payload):
        """On integer data the batched kernel is bit-identical to scalar --
        the property the scalar-parity suite relies on."""
        qubo, batch, flips = payload
        deltas = batched_energy_delta(qubo.matrix, batch, flips)
        scalar = [qubo.energy_delta(row, int(i))
                  for row, i in zip(batch, flips)]
        np.testing.assert_array_equal(deltas, scalar)

    @given(qubo_and_batch(integer=True))
    @settings(max_examples=60, deadline=None)
    def test_batched_energies_exact_for_integer_matrices(self, payload):
        qubo, batch, _ = payload
        energies = batched_energies(qubo.matrix, batch, qubo.offset)
        np.testing.assert_array_equal(
            energies, [qubo.energy(row) for row in batch])


@st.composite
def constraint_and_batch(draw, max_items=10, max_replicas=10):
    n = draw(st.integers(2, max_items))
    m = draw(st.integers(1, max_replicas))
    weights = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))
    bound = draw(st.integers(0, sum(weights) + 10))
    batch = np.array(
        draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                      min_size=m, max_size=m)),
        dtype=float)
    constraint = InequalityConstraint(weights, bound)
    return constraint, batch


class TestBatchedFilterVerdicts:
    @given(constraint_and_batch())
    @settings(max_examples=50, deadline=None)
    def test_kernel_verdicts_match_scalar_constraint(self, payload):
        constraint, batch = payload
        verdicts = constraint.is_satisfied_batch(batch)
        np.testing.assert_array_equal(
            verdicts, [constraint.is_satisfied(row) for row in batch])

    @given(constraint_and_batch(max_items=8, max_replicas=6))
    @settings(max_examples=25, deadline=None)
    def test_hardware_filter_batch_matches_scalar_rows(self, payload):
        """The CiM filter's batched decision path equals row-wise scalar
        evaluation for ideal devices, configuration by configuration."""
        constraint, batch = payload
        scalar_filter = InequalityFilter(constraint)
        batch_filter = InequalityFilter(constraint)
        expected = [scalar_filter.is_feasible(row) for row in batch]
        np.testing.assert_array_equal(
            batch_filter.is_feasible_batch(batch), expected)
        assert batch_filter.num_evaluations == batch.shape[0]
