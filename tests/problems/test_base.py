"""Feasibility that ``CombinatorialProblem`` derives from a linear form."""

import numpy as np
import pytest

from repro.core.constraints import all_satisfied
from repro.core.qubo import QUBOModel
from repro.problems.base import CombinatorialProblem
from repro.problems.multidim_knapsack import generate_mdqkp_instance


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
