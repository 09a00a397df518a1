"""QKP and MD-QKP objectives, start-state samplers and the QKP inequality
QUBO against the code they replaced.

``objective`` evaluates the pairwise profit as ``(x.(P x) - sum p_ii x_i^2)
/ 2``, ``objective_batch`` does so for a whole batch in one product, the
samplers draw their coins in one ``rng.random(n)`` call (the QKP group
sampler runs every replica's fit test in lock-step), the QKP inequality
QUBO is built from ``to_qubo()``, and ``to_qubo()`` builds ``-P_upper`` in
the stored form the ``QUBOModel`` fold would return.  The code they replaced
is kept below as the reference: the samples and the generators' final states
must match it exactly, the objective must match the ``x @ triu(P, 1) @ x``
form exactly on integer profits, and the QUBO matrices must match byte for
byte.
"""

import numpy as np
import pytest

from repro.batched.trials import _replica_starts
from repro.core.qubo import QUBOModel
from repro.core.transformation import to_inequality_qubo
from repro.problems.generators import generate_qkp_instance
from repro.problems.multidim_knapsack import (
    MultiDimensionalKnapsackProblem,
    generate_mdqkp_instance,
)
from repro.problems.qkp import LOCKSTEP_MIN_GROUP, QuadraticKnapsackProblem

#: Fixed before measuring: the identity reorders float sums, so float profits
#: may differ from the triangle form in the last bits only.
FLOAT_RTOL = 1e-12

SEEDS = (0, 1, 7, 123, 2024)


def triu_objective(problem, x):
    """The replaced objective: the strict upper triangle, copied per call."""
    vec = np.asarray(x, dtype=float)
    linear = float(np.diag(problem.profits) @ vec)
    pairwise = float(vec @ np.triu(problem.profits, k=1) @ vec)
    return linear + pairwise


def qkp_sample_loop(problem, rng):
    """The replaced QKP sampler: one ``rng.random()`` per fitting item."""
    order = rng.permutation(problem.num_items)
    x = np.zeros(problem.num_items)
    remaining = problem.capacity
    for idx in order:
        if problem.weights[idx] <= remaining and rng.random() < 0.5:
            x[idx] = 1.0
            remaining -= problem.weights[idx]
    return x


def qkp_inequality_qubo_halves(problem):
    """The replaced QKP inequality QUBO: the upper triangle halved into a
    symmetric matrix, negated by the core transformation and folded back."""
    p_upper = np.diag(np.diag(problem.profits)) + np.triu(problem.profits, k=1)
    symmetric = (p_upper + p_upper.T) / 2.0
    return to_inequality_qubo(symmetric, problem.constraint(), maximize=True)


def mdqkp_sample_loop(problem, rng):
    """The replaced MD-QKP sampler: one ``rng.random()`` per item."""
    order = rng.permutation(problem.num_items)
    x = np.zeros(problem.num_items)
    usage = np.zeros(problem.num_constraints)
    for item in order:
        if rng.random() < 0.5:
            continue
        candidate_usage = usage + problem.weights[:, item]
        if np.all(candidate_usage <= problem.capacities):
            x[item] = 1.0
            usage = candidate_usage
    return x


def plain(value):
    """A bit-generator state with arrays as lists (MT19937 keeps a key array)."""
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    return value.tolist() if isinstance(value, np.ndarray) else value


def state_of(generator):
    return plain(generator.bit_generator.state)


def make_generator(kind, seed):
    bit_generator = {"pcg64": np.random.PCG64,
                     "mt19937": np.random.MT19937}[kind]
    return np.random.Generator(bit_generator(seed))


CAPACITIES = ["below_every_weight", "half_total", "above_total"]

#: Group sizes on both sides of the lock-step threshold.
GROUP_SIZES = (1, 5, 64, 70)
assert 5 < LOCKSTEP_MIN_GROUP <= 64


def qkp_with_capacity(kind, num_items=40, seed=3):
    base = generate_qkp_instance(num_items=num_items, density=0.5,
                                 max_weight=20, max_profit=50, seed=seed)
    # Every weight is >= 2, so a capacity of 1 fits no item and no coin is
    # drawn; above the total weight every item fits and all n are drawn.
    weights = base.weights + 1.0
    capacity = {"below_every_weight": 1.0,
                "half_total": float(np.floor(weights.sum() / 2)),
                "above_total": float(weights.sum() + 10.0)}[kind]
    return QuadraticKnapsackProblem(profits=base.profits, weights=weights,
                                    capacity=capacity)


def mdqkp_with_capacity(kind, num_items=40, seed=5):
    base = generate_mdqkp_instance(num_items=num_items, num_constraints=3,
                                   seed=seed)
    weights = base.weights + 1.0
    if kind == "below_every_weight":
        capacities = np.full(3, 0.5)
    elif kind == "above_total":
        capacities = weights.sum(axis=1) + 10.0
    else:
        capacities = np.floor(weights.sum(axis=1) / 2)
    return MultiDimensionalKnapsackProblem(profits=base.profits,
                                           weights=weights,
                                           capacities=capacities)


class TestQKPSampler:
    @pytest.mark.parametrize("kind", ["pcg64", "mt19937"])
    @pytest.mark.parametrize("capacity", CAPACITIES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_loop_sampler_and_final_state(self, kind, capacity, seed):
        # The final-state comparison is what pins the rewind: a sampler
        # that left all n coins consumed would return the same samples.
        problem = qkp_with_capacity(capacity)
        mine = make_generator(kind, seed)
        theirs = make_generator(kind, seed)
        for _ in range(3):
            np.testing.assert_array_equal(
                problem.random_feasible_configuration(mine),
                qkp_sample_loop(problem, theirs))
            assert state_of(mine) == state_of(theirs)
        assert mine.random() == theirs.random()

    @pytest.mark.parametrize("kind", ["pcg64", "mt19937"])
    @pytest.mark.parametrize("capacity", CAPACITIES)
    @pytest.mark.parametrize("size", GROUP_SIZES)
    def test_group_matches_loop_sampler_and_final_states(self, kind,
                                                         capacity, size):
        problem = qkp_with_capacity(capacity)
        mine = [make_generator(kind, seed) for seed in range(size)]
        theirs = [make_generator(kind, seed) for seed in range(size)]
        samples = problem.random_feasible_configurations(mine)
        assert samples.shape == (size, problem.num_items)
        for k in range(size):
            np.testing.assert_array_equal(samples[k],
                                          qkp_sample_loop(problem, theirs[k]))
            assert state_of(mine[k]) == state_of(theirs[k])

    @pytest.mark.parametrize("kind", ["pcg64", "mt19937"])
    def test_aliased_group_draws_one_sample_after_another(self, kind):
        # A shared-RNG group lists one generator M times: replica k's draws
        # must follow replica k-1's, so no lock-step loop may run.
        problem = qkp_with_capacity("half_total")
        shared = make_generator(kind, 5)
        theirs = make_generator(kind, 5)
        samples = problem.random_feasible_configurations([shared] * 70)
        for row in samples:
            np.testing.assert_array_equal(row, qkp_sample_loop(problem, theirs))
        assert state_of(shared) == state_of(theirs)

    def test_group_with_explicit_initial_states_mixed_in(self):
        # 10 of 80 replicas bring their own start and draw nothing; the
        # other 70 are one lock-step group.
        problem = qkp_with_capacity("half_total")
        size = 80
        explicit = {k: (np.arange(problem.num_items) % 2).astype(float)
                    for k in range(0, size, 8)}
        initials = [explicit.get(k) for k in range(size)]
        mine = [make_generator("pcg64", seed) for seed in range(size)]
        theirs = [make_generator("pcg64", seed) for seed in range(size)]
        starts = _replica_starts(problem, {}, mine, initials)
        for k in range(size):
            expected = (explicit[k] if k in explicit
                        else qkp_sample_loop(problem, theirs[k]))
            np.testing.assert_array_equal(starts[k], expected)
            assert state_of(mine[k]) == state_of(theirs[k])


class TestQKPInequalityQubo:
    @pytest.mark.parametrize("profits", ["integer", "float_with_zeros"])
    def test_matrix_bytes_match_the_halved_form(self, profits):
        if profits == "integer":
            problem = integer_families()["qkp"]
        else:
            values = float_profits(60, 17)
            rng = np.random.default_rng(18)
            zeros = np.triu(rng.random((60, 60)) < 0.3)
            values[zeros | zeros.T] = 0.0
            # Negative zeros too, on the diagonal and off it.
            values[[0, 3, 9, 5], [0, 9, 3, 5]] = -0.0
            problem = QuadraticKnapsackProblem(
                profits=values, weights=np.arange(1.0, 61.0), capacity=400.0)
        new = problem.to_inequality_qubo()
        old = qkp_inequality_qubo_halves(problem)
        assert new.qubo.matrix.tobytes() == old.qubo.matrix.tobytes()
        assert new.qubo.offset == old.qubo.offset
        assert new.constraints == old.constraints


def folded_objective_qubo(profits):
    """The replaced ``to_qubo``: ``-P_upper`` built whole, then folded by
    the ``QUBOModel`` constructor."""
    return QUBOModel(-(np.diag(np.diag(profits)) + np.triu(profits, k=1)))


class TestObjectiveQubo:
    @pytest.mark.parametrize("profits", ["integer", "float_with_zeros"])
    @pytest.mark.parametrize("family", ["qkp", "mdqkp"])
    def test_stored_form_matches_the_fold(self, family, profits):
        if profits == "integer":
            problem = integer_families()[family]
        else:
            values = float_profits(120, 19)
            rng = np.random.default_rng(20)
            zeros = np.triu(rng.random((120, 120)) < 0.3)
            values[zeros | zeros.T] = 0.0
            # Negative zeros on the diagonal, in both triangles, and facing
            # a positive zero across it.
            values[[0, 3, 9, 5, 7], [0, 9, 3, 5, 8]] = -0.0
            values[8, 7] = 0.0
            base = float_families()[family]
            problem = (QuadraticKnapsackProblem(
                profits=values, weights=base.weights, capacity=300.0)
                if family == "qkp" else MultiDimensionalKnapsackProblem(
                    profits=values, weights=base.weights,
                    capacities=base.capacities))
        new = problem.to_qubo()
        old = folded_objective_qubo(problem.profits)
        assert new.matrix.tobytes() == old.matrix.tobytes()
        assert new.offset == old.offset
        assert new.variable_names == old.variable_names


class TestMDQKPSampler:
    @pytest.mark.parametrize("kind", ["pcg64", "mt19937"])
    @pytest.mark.parametrize("capacity", CAPACITIES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_loop_sampler_and_final_state(self, kind, capacity, seed):
        problem = mdqkp_with_capacity(capacity)
        mine = make_generator(kind, seed)
        theirs = make_generator(kind, seed)
        for _ in range(3):
            np.testing.assert_array_equal(
                problem.random_feasible_configuration(mine),
                mdqkp_sample_loop(problem, theirs))
            assert state_of(mine) == state_of(theirs)
        assert mine.random() == theirs.random()


def objective_cases(problem, seed=0):
    n = problem.num_variables
    rng = np.random.default_rng(seed)
    cases = [np.zeros(n), np.ones(n)]
    cases += [(rng.random(n) < p).astype(float) for p in (0.1, 0.5, 0.9)]
    return cases


def integer_families():
    return {"qkp": generate_qkp_instance(num_items=120, density=0.7,
                                         max_profit=100, seed=11),
            "mdqkp": generate_mdqkp_instance(num_items=120, num_constraints=4,
                                             density=0.7, seed=12)}


def float_profits(n, seed):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.uniform(0.5, 100.0, size=(n, n)))
    return upper + np.triu(upper, k=1).T


def float_families():
    profits = float_profits(120, 13)
    weights = np.random.default_rng(14).uniform(1.0, 20.0, size=(4, 120))
    return {"qkp": QuadraticKnapsackProblem(profits=profits,
                                            weights=weights[0],
                                            capacity=300.0),
            "mdqkp": MultiDimensionalKnapsackProblem(
                profits=profits, weights=weights,
                capacities=np.full(4, 300.0))}


class TestObjective:
    @pytest.mark.parametrize("family", ["qkp", "mdqkp"])
    def test_exact_on_integer_profits(self, family):
        problem = integer_families()[family]
        assert np.array_equal(problem.profits, np.round(problem.profits))
        for x in objective_cases(problem):
            assert problem.objective(x) == triu_objective(problem, x)

    @pytest.mark.parametrize("family", ["qkp", "mdqkp"])
    def test_all_zeros_and_all_ones(self, family):
        problem = integer_families()[family]
        n = problem.num_variables
        assert problem.objective(np.zeros(n)) == 0.0
        total = float(np.triu(problem.profits).sum())
        assert problem.objective(np.ones(n)) == total

    @pytest.mark.parametrize("profits", ["integer", "float"])
    @pytest.mark.parametrize("family", ["qkp", "mdqkp"])
    def test_batch_equals_rows(self, family, profits):
        # One product on integer profits, the per-row form on float ones:
        # both must return objective(row) exactly.
        problem = {"integer": integer_families,
                   "float": float_families}[profits]()[family]
        batch = np.stack(objective_cases(problem, seed=4))
        values = problem.objective_batch(batch)
        assert values.dtype == np.float64
        assert values.tolist() == [problem.objective(row) for row in batch]

    @pytest.mark.parametrize("family", ["qkp", "mdqkp"])
    def test_float_profits_within_relative_tolerance(self, family):
        problem = float_families()[family]
        for x in objective_cases(problem, seed=3):
            expected = triu_objective(problem, x)
            got = problem.objective(x)
            assert abs(got - expected) <= FLOAT_RTOL * abs(expected)
