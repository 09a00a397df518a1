"""The family contract proper: feasibility, QUBO identity, filter soundness.

Each test here states one clause of the contract a registered
:class:`~repro.problems.families.ProblemFamily` must satisfy; the ``family``
fixture runs every clause against every registered family.
"""

import numpy as np
import pytest

from repro.cim.inequality_filter import InequalityFilter
from repro.core.constraints import InequalityConstraint
from repro.problems.qkp import QuadraticKnapsackProblem

from harness import feasible_states


class TestFeasibilityParity:
    def test_batched_verdicts_match_scalar(self, instance, rng):
        """Clause 1: ``is_feasible_batch(B)[k] == is_feasible(B[k])`` for a
        mixed batch of random and known-feasible states."""
        batch = np.vstack([
            rng.integers(0, 2, size=(32, instance.num_variables)).astype(float),
            feasible_states(instance, rng),
        ])
        verdicts = instance.is_feasible_batch(batch)
        expected = np.array([instance.is_feasible(row) for row in batch])
        np.testing.assert_array_equal(verdicts, expected)

    def test_feasible_sampler_agrees_with_both_apis(self, instance, rng):
        states = feasible_states(instance, rng)
        assert all(instance.is_feasible(row) for row in states)
        assert instance.is_feasible_batch(states).all()


class TestObjectiveParity:
    def test_batched_objectives_match_scalar(self, instance, rng):
        """Clause 1b: ``objective_batch(B)[k] == objective(B[k])`` exactly
        on feasible states, the rows the engines score."""
        states = feasible_states(instance, rng)
        values = instance.objective_batch(states)
        assert values.dtype == np.float64
        assert values.tolist() == [instance.objective(row) for row in states]

    def test_float_profit_qkp_matches_scalar(self, rng):
        """Float profits keep the per-row form, the only exact one."""
        n = 40
        upper = np.triu(rng.uniform(0.5, 100.0, size=(n, n)))
        problem = QuadraticKnapsackProblem(
            profits=upper + np.triu(upper, k=1).T,
            weights=rng.uniform(1.0, 20.0, size=n), capacity=150.0)
        states = np.vstack([feasible_states(problem, rng),
                            rng.integers(0, 2, size=(16, n)).astype(float)])
        values = problem.objective_batch(states)
        assert values.tolist() == [problem.objective(row) for row in states]


class TestQuboEnergyIdentity:
    def test_energy_matches_native_objective_on_feasible_states(
            self, family, instance, rng):
        """Clause 2: on every feasible state the detached-constraint QUBO
        energy equals the family's declared energy↔objective identity."""
        model = instance.to_inequality_qubo()
        for x in feasible_states(instance, rng):
            assert model.qubo.energy(x) == pytest.approx(
                family.expected_energy(instance, x), abs=1e-9)

    def test_reference_solution_is_feasible_and_minimises_energy(
            self, family, instance, reference, rng):
        """The exact reference optimum is feasible and no sampled feasible
        state beats its QUBO energy (minimisation orientation)."""
        best_x, _ = reference
        assert instance.is_feasible(best_x)
        model = instance.to_inequality_qubo()
        best_energy = model.qubo.energy(best_x)
        assert best_energy == pytest.approx(
            family.expected_energy(instance, best_x), abs=1e-9)
        for x in feasible_states(instance, rng):
            assert model.qubo.energy(x) >= best_energy - 1e-9


class TestFilterSoundness:
    def test_hardware_filter_rejects_no_feasible_state(self, family, instance,
                                                       rng):
        """Clause 3: every detached inequality runs on the FeFET filter
        without rejecting a single feasible state (and, on integer
        conformance data, without accepting an infeasible one)."""
        inequalities = [c for c in instance.to_inequality_qubo().constraints
                        if isinstance(c, InequalityConstraint)]
        if not inequalities:
            assert family.filtered_constraints == "--"
            pytest.skip(f"{family.name}: no hardware-filtered constraints")
        batch = np.vstack([
            rng.integers(0, 2, size=(48, instance.num_variables)).astype(float),
            feasible_states(instance, rng),
        ])
        for constraint in inequalities:
            cim_filter = InequalityFilter(constraint)
            verdicts = np.array([cim_filter.is_feasible(row) for row in batch])
            exact = np.array([constraint.is_satisfied(row) for row in batch])
            np.testing.assert_array_equal(verdicts, exact)

    def test_declared_filter_split_matches_constraints(self, family, instance):
        """The family's documented penalty-vs-filter split is live code, not
        prose: filtered families expose inequalities, unfiltered do not."""
        inequalities = [c for c in instance.to_inequality_qubo().constraints
                        if isinstance(c, InequalityConstraint)]
        if family.filtered_constraints == "--":
            assert not inequalities
        else:
            assert inequalities
