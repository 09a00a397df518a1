"""Unit tests for the D-QUBO baseline transformation (paper Fig. 1(b))."""

import numpy as np
import pytest

from repro.core.constraints import InequalityConstraint
from repro.core.dqubo import (
    SlackEncoding,
    predict_dqubo_dimension,
    predict_dqubo_qmax,
    to_dqubo,
)
from repro.core.qubo import QUBOModel


@pytest.fixture
def tiny_objective(tiny_qkp):
    return tiny_qkp.to_qubo()


@pytest.fixture
def tiny_constraint(tiny_qkp):
    return tiny_qkp.constraint()


class TestConstruction:
    def test_one_hot_dimension_is_n_plus_capacity(self, tiny_objective, tiny_constraint):
        transformation = to_dqubo(tiny_objective, tiny_constraint)
        assert transformation.num_problem_variables == 3
        assert transformation.num_auxiliary_variables == 9
        assert transformation.num_variables == 12
        assert transformation.search_space_bits() == 12

    def test_binary_dimension_is_logarithmic(self, tiny_objective, tiny_constraint):
        transformation = to_dqubo(tiny_objective, tiny_constraint,
                                  encoding=SlackEncoding.BINARY)
        # ceil(log2(9 + 1)) = 4 slack bits.
        assert transformation.num_auxiliary_variables == 4
        assert transformation.num_variables == 7

    def test_capacity_must_be_positive_integer(self, tiny_objective):
        with pytest.raises(ValueError):
            to_dqubo(tiny_objective, InequalityConstraint([1, 1, 1], 2.5))
        with pytest.raises(ValueError):
            to_dqubo(tiny_objective, InequalityConstraint([1, 1, 1], 0))

    def test_arity_mismatch(self, tiny_objective):
        with pytest.raises(ValueError):
            to_dqubo(tiny_objective, InequalityConstraint([1, 1], 3))


class TestPenaltySemantics:
    """The defining property of the D-QUBO form: for configurations whose
    auxiliary variables are set consistently, the penalty vanishes and the
    combined energy equals the original objective; any inconsistency adds a
    positive penalty."""

    def test_consistent_assignment_has_zero_penalty(self, tiny_qkp, tiny_objective,
                                                    tiny_constraint):
        transformation = to_dqubo(tiny_objective, tiny_constraint)
        # x = items {0, 2}: weight 6 -> y_6 = 1 (index 5).
        x = np.array([1.0, 0.0, 1.0])
        aux = np.zeros(9)
        aux[5] = 1.0
        full = np.concatenate([x, aux])
        assert transformation.is_penalty_satisfied(full)
        assert transformation.qubo.energy(full) == pytest.approx(
            tiny_objective.energy(x)
        )

    def test_inconsistent_assignment_pays_positive_penalty(self, tiny_objective,
                                                           tiny_constraint):
        transformation = to_dqubo(tiny_objective, tiny_constraint)
        x = np.array([1.0, 0.0, 1.0])        # weight 6
        aux = np.zeros(9)
        aux[2] = 1.0                          # claims weight 3
        full = np.concatenate([x, aux])
        assert not transformation.is_penalty_satisfied(full)
        assert transformation.qubo.energy(full) > tiny_objective.energy(x)

    def test_all_zero_slack_violates_one_hot(self, tiny_objective, tiny_constraint):
        transformation = to_dqubo(tiny_objective, tiny_constraint)
        full = np.zeros(12)
        assert not transformation.is_penalty_satisfied(full)
        # alpha * (1 - 0)^2 = 2 with the default alpha.
        assert transformation.qubo.energy(full) == pytest.approx(2.0)

    def test_binary_encoding_consistency(self, tiny_objective, tiny_constraint):
        transformation = to_dqubo(tiny_objective, tiny_constraint,
                                  encoding=SlackEncoding.BINARY)
        x = np.array([1.0, 0.0, 1.0])         # weight 6, slack 3
        aux = np.array([1.0, 1.0, 0.0, 0.0])  # 1 + 2 = 3
        full = np.concatenate([x, aux])
        assert transformation.is_penalty_satisfied(full)
        assert transformation.qubo.energy(full) == pytest.approx(
            tiny_objective.energy(x)
        )

    def test_global_minimum_recovers_optimum_with_strong_penalties(self, tiny_qkp,
                                                                   tiny_objective,
                                                                   tiny_constraint):
        # With penalty weights large enough the D-QUBO global minimum is the
        # feasible optimum of the original problem.
        transformation = to_dqubo(tiny_objective, tiny_constraint, alpha=50.0, beta=50.0)
        best_full, best_energy = transformation.qubo.brute_force_minimum()
        decoded = transformation.decode(best_full)
        assert transformation.is_feasible(best_full)
        assert tiny_qkp.objective(decoded) == pytest.approx(25.0)
        assert best_energy == pytest.approx(-25.0)

    def test_paper_penalty_weights_admit_infeasible_global_minimum(self, tiny_qkp,
                                                                   tiny_objective,
                                                                   tiny_constraint):
        # With the paper's alpha = beta = 2 the penalty is weak enough that the
        # global minimum of the combined QUBO sits at an infeasible
        # configuration -- one root cause of the baseline's low success rate.
        transformation = to_dqubo(tiny_objective, tiny_constraint, alpha=2.0, beta=2.0)
        best_full, best_energy = transformation.qubo.brute_force_minimum()
        assert best_energy < -25.0
        assert not transformation.is_feasible(best_full)

    def test_decoding_helpers(self, tiny_objective, tiny_constraint):
        transformation = to_dqubo(tiny_objective, tiny_constraint)
        full = np.concatenate([np.array([1.0, 1.0, 0.0]), np.zeros(9)])
        problem_part, aux = transformation.split(full)
        assert problem_part.shape == (3,)
        assert aux.shape == (9,)
        assert not transformation.is_feasible(full)  # weight 11 > 9
        with pytest.raises(ValueError):
            transformation.split(np.zeros(5))


class TestGrowthPredictions:
    def test_predicted_dimension_matches_construction(self, tiny_objective,
                                                      tiny_constraint):
        for encoding in SlackEncoding:
            transformation = to_dqubo(tiny_objective, tiny_constraint, encoding=encoding)
            predicted = predict_dqubo_dimension(3, tiny_constraint.bound, encoding)
            assert predicted == transformation.num_variables

    def test_predicted_qmax_matches_construction_one_hot(self, tiny_qkp):
        objective = tiny_qkp.to_qubo()
        constraint = tiny_qkp.constraint()
        transformation = to_dqubo(objective, constraint)
        predicted = predict_dqubo_qmax(
            objective_qmax=objective.max_abs_coefficient,
            max_weight=float(tiny_qkp.weights.max()),
            capacity=constraint.bound,
        )
        assert predicted == pytest.approx(transformation.max_abs_coefficient)

    def test_predicted_qmax_matches_random_instances(self):
        from repro.problems.generators import generate_qkp_instance

        for seed in range(3):
            problem = generate_qkp_instance(num_items=10, density=0.6, max_weight=8,
                                            seed=seed)
            objective = problem.to_qubo()
            constraint = problem.constraint()
            transformation = to_dqubo(objective, constraint)
            predicted = predict_dqubo_qmax(
                objective_qmax=objective.max_abs_coefficient,
                max_weight=float(problem.weights.max()),
                capacity=constraint.bound,
            )
            assert predicted == pytest.approx(transformation.max_abs_coefficient)

    def test_qmax_grows_quadratically_with_capacity(self):
        q_small = predict_dqubo_qmax(100, 50, 100)
        q_large = predict_dqubo_qmax(100, 50, 1000)
        assert q_large > 90 * q_small  # ~ (1000/100)^2

    def test_dimension_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            predict_dqubo_dimension(10, -1)
        with pytest.raises(ValueError):
            predict_dqubo_qmax(1, 1, 0.3)


def dqubo_loops(objective, constraint, alpha=2.0, beta=2.0,
                encoding=SlackEncoding.ONE_HOT):
    """The replaced construction, kept as the reference: one Python step per
    matrix entry."""
    capacity = int(round(constraint.bound))
    weights = constraint.weight_vector
    n = objective.num_variables
    if encoding is SlackEncoding.ONE_HOT:
        m = capacity
        slack_values = np.arange(1, m + 1, dtype=float)
    else:
        m = int(np.ceil(np.log2(capacity + 1)))
        slack_values = np.array([2.0 ** j for j in range(m)])
    total = n + m
    q = np.zeros((total, total))
    offset = 0.0
    q[:n, :n] += objective.matrix
    offset += objective.offset
    if encoding is SlackEncoding.ONE_HOT:
        offset += alpha
        for k in range(m):
            q[n + k, n + k] += alpha * (-2.0 + 1.0)
            for l in range(k + 1, m):
                q[n + k, n + l] += 2.0 * alpha
        for i in range(n):
            q[i, i] += beta * weights[i] ** 2
            for j in range(i + 1, n):
                q[i, j] += 2.0 * beta * weights[i] * weights[j]
        for k in range(m):
            q[n + k, n + k] += beta * slack_values[k] ** 2
            for l in range(k + 1, m):
                q[n + k, n + l] += 2.0 * beta * slack_values[k] * slack_values[l]
        for i in range(n):
            for k in range(m):
                q[i, n + k] += -2.0 * beta * weights[i] * slack_values[k]
    else:
        combined = np.concatenate([weights, slack_values])
        for a in range(total):
            q[a, a] += beta * (combined[a] ** 2 - 2.0 * capacity * combined[a])
            for b in range(a + 1, total):
                q[a, b] += 2.0 * beta * combined[a] * combined[b]
        offset += beta * capacity ** 2
    return QUBOModel(q, offset=offset)


def pow_sensitive_weights(count, seed=0):
    """Weights whose scalar square ``pow(v, 2)`` differs from ``v * v``
    where the platform's ``pow`` allows it (else plain random weights)."""
    values = np.random.default_rng(seed).uniform(0.5, 5.0, 20000).tolist()
    differing = [v for v in values if v ** 2 != v * v]
    return np.array((differing + values)[:count])


PENALTIES = [(2.0, 2.0), (0.75, 3.5)]
ENCODINGS = [SlackEncoding.ONE_HOT, SlackEncoding.BINARY]


class TestMatchesLoopConstruction:
    """The row-slice construction is byte-equal to the per-entry loops."""

    @staticmethod
    def _assert_byte_equal(objective, constraint, alpha, beta, encoding):
        got = to_dqubo(objective, constraint, alpha=alpha, beta=beta,
                       encoding=encoding).qubo
        expected = dqubo_loops(objective, constraint, alpha=alpha, beta=beta,
                               encoding=encoding)
        assert got.matrix.tobytes() == expected.matrix.tobytes()
        assert repr(got.offset) == repr(expected.offset)

    @pytest.mark.parametrize("encoding", ENCODINGS)
    @pytest.mark.parametrize("alpha,beta", PENALTIES)
    @pytest.mark.parametrize("capacity", [1, 2, 3])
    def test_small_capacities(self, tiny_objective, capacity, alpha, beta,
                              encoding):
        constraint = InequalityConstraint([1.0, 2.0, 1.0], capacity)
        self._assert_byte_equal(tiny_objective, constraint, alpha, beta,
                                encoding)

    @pytest.mark.parametrize("encoding", ENCODINGS)
    @pytest.mark.parametrize("alpha,beta", PENALTIES)
    def test_hundred_item_qkp(self, alpha, beta, encoding):
        from repro.problems.generators import generate_qkp_instance
        from repro.problems.qkp import QuadraticKnapsackProblem

        base = generate_qkp_instance(num_items=100, density=0.5, seed=4)
        problem = QuadraticKnapsackProblem(profits=base.profits,
                                           weights=base.weights,
                                           capacity=300.0)
        self._assert_byte_equal(problem.to_qubo(), problem.constraint(),
                                alpha, beta, encoding)

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_fractional_weights(self, encoding):
        weights = pow_sensitive_weights(6)
        objective = QUBOModel(-np.diag(np.arange(1.0, 7.0)))
        constraint = InequalityConstraint(weights, 7)
        self._assert_byte_equal(objective, constraint, 1.5, 2.5, encoding)
