"""Feasibility that ``CombinatorialProblem`` derives from a linear form, and
the loads the families report from the same constraints."""

import numpy as np
import pytest

from repro.core.constraints import FEASIBILITY_TOLERANCE, all_satisfied
from repro.core.qubo import QUBOModel
from repro.problems.base import CombinatorialProblem
from repro.problems.bin_packing import BinPackingProblem
from repro.problems.knapsack import KnapsackProblem
from repro.problems.multidim_knapsack import (
    MultiDimensionalKnapsackProblem,
    generate_mdqkp_instance,
)
from repro.problems.qkp import QuadraticKnapsackProblem


class Opaque(CombinatorialProblem):
    """A problem with neither a linear form nor its own ``is_feasible``."""

    num_variables = 2

    def objective(self, x):
        return 0.0

    def to_qubo(self):
        return QUBOModel.zeros(2)


def test_feasibility_is_the_stored_linear_form(medium_qkp, rng):
    mdqkp = generate_mdqkp_instance(num_items=12, num_constraints=3, seed=4)
    for problem in (medium_qkp, mdqkp):
        constraints = problem.linear_feasibility_constraints()
        assert constraints is problem.linear_feasibility_constraints()
        assert problem.to_inequality_qubo().constraints == constraints
        assert not any(c.weights.flags.writeable for c in constraints)
        batch = rng.integers(0, 2, size=(40, problem.num_variables)).astype(float)
        verdicts = all_satisfied(constraints, batch)
        assert 0 < verdicts.sum() < len(verdicts)
        np.testing.assert_array_equal(problem.is_feasible_batch(batch), verdicts)
        assert [problem.is_feasible(row) for row in batch] == verdicts.tolist()


def test_a_problem_without_a_linear_form_must_override_is_feasible():
    with pytest.raises(NotImplementedError, match="Opaque"):
        Opaque().is_feasible([0, 1])
    with pytest.raises(NotImplementedError, match="Opaque"):
        Opaque().is_feasible_batch(np.zeros((2, 2)))


def test_reported_loads_are_the_verdicts_loads(rng):
    # On float weights a second product could round the other way at the
    # capacity; the reported load is the one the verdict compares.
    n = 30
    weights = rng.random(n) * 9.0 + 0.1
    profits = np.diag(rng.random(n) * 50.0)
    qkp = QuadraticKnapsackProblem(profits, weights, float(weights.sum()) / 2)
    knapsack = KnapsackProblem(rng.random(n), weights, float(weights.sum()) / 2)
    mdqkp = MultiDimensionalKnapsackProblem(
        profits, rng.random((3, n)) * 9.0, rng.random(3) * 20.0 + 10.0)
    packing = BinPackingProblem(rng.random(6) * 4.0 + 0.5, 5.0, num_bins=3)
    for _ in range(20):
        x = rng.integers(0, 2, size=n).astype(float)
        for problem in (qkp, knapsack):
            load, = (c.lhs(x) for c in problem.linear_feasibility_constraints())
            assert problem.total_weight(x) == load
            assert problem.is_feasible(x) == (
                load <= problem.capacity + FEASIBILITY_TOLERANCE)
        usage = mdqkp.resource_usage(x)
        assert usage.tolist() == [c.lhs(x) for c in mdqkp.constraints()]
        assert mdqkp.is_feasible(x) == bool(
            (usage <= mdqkp.capacities + FEASIBILITY_TOLERANCE).all())
        y = rng.integers(0, 2, size=packing.num_variables).astype(float)
        assert packing.bin_loads(y).tolist() == [
            c.lhs(y) for c in packing.capacity_constraints()]
