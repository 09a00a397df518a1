"""Hypothesis property: the scalar evaluations are one-row batches.

The annealing engines evaluate energies, flip deltas and linear verdicts
with the batched functions of :mod:`repro.core.qubo` and
:mod:`repro.core.constraints`; the scalar methods are their one-row views.
On float data a separately written scalar form adds in another order and
differs in the last bits, so these properties draw float matrices, weights
and offsets and compare bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.constraints import EqualityConstraint, InequalityConstraint
from repro.core.qubo import QUBOModel, batched_energies, batched_energy_delta
from repro.core.sparse import SparseQUBOModel, have_scipy
from repro.core.transformation import InequalityQUBO

FLOATS = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


@st.composite
def float_cases(draw):
    """A float QUBO, a float constraint, a binary row and a flip index."""
    n = draw(st.integers(1, 40))
    model = QUBOModel(draw(arrays(np.float64, (n, n), elements=FLOATS)),
                      offset=draw(st.floats(-10.0, 10.0, allow_nan=False)))
    weights = draw(arrays(np.float64, (n,), elements=FLOATS))
    x = draw(arrays(np.int64, (n,), elements=st.integers(0, 1))).astype(float)
    # A bound at the row's load (within the tolerance's reach) makes a last
    # bit of the load decide the verdict.
    load = float(x @ weights)
    bound = draw(st.one_of(FLOATS, st.sampled_from(
        [load, load - 1e-9, np.nextafter(load - 1e-9, np.inf)])))
    index = draw(st.integers(0, n - 1))
    return model, weights, bound, x, index


class TestScalarViewsAreOneRowBatches:
    @given(float_cases())
    @settings(max_examples=100, deadline=None)
    def test_qubo_energy_and_delta(self, case):
        model, _, _, x, index = case
        row = x[None, :]
        assert model.energy(x) == batched_energies(model.matrix, row,
                                                   model.offset)[0]
        assert model.energy_delta(x, index) == batched_energy_delta(
            model.matrix, row, np.array([index]))[0]

    @pytest.mark.skipif(not have_scipy(), reason="needs SciPy")
    @given(float_cases())
    @settings(max_examples=50, deadline=None)
    def test_sparse_qubo_energy(self, case):
        model, _, _, x, _ = case
        sparse = SparseQUBOModel.from_dense(model)
        assert sparse.energy(x) == batched_energies(
            sparse.matrix, x[None, :], sparse.offset)[0]

    @given(float_cases())
    @settings(max_examples=100, deadline=None)
    def test_constraint_verdicts_and_inequality_qubo_energy(self, case):
        model, weights, bound, x, _ = case
        row = x[None, :]
        inequality = InequalityConstraint(weights, bound)
        equality = EqualityConstraint(weights, bound)
        for constraint in (inequality, equality):
            assert constraint.is_satisfied(x) == bool(
                constraint.is_satisfied_batch(row)[0])
        feasible = bool(inequality.is_satisfied_batch(row)[0])
        expected = (batched_energies(model.matrix, row, model.offset)[0]
                    if feasible else 0.0)
        assert InequalityQUBO(model, (inequality,)).energy(x) == expected
