"""Edge-shape contract of ``is_feasible_batch`` across every family.

The batched API is the (D, M, n) contract's M axis; these tests pin the
corner cases the vectorized backend relies on: the M=1 view, the empty
batch, all-infeasible batches, dtype stability and loud validation.
``objective_batch`` shares the M=1 view and the empty batch.
"""

import numpy as np
import pytest

from harness import feasible_states, find_infeasible_state


class TestSingleRowView:
    def test_one_dimensional_input_is_the_m1_view(self, instance, rng):
        x = instance.random_feasible_configuration(rng)
        verdicts = instance.is_feasible_batch(x)
        assert verdicts.shape == (1,)
        assert verdicts[0] == instance.is_feasible(x)
        assert instance.objective_batch(x).tolist() == [instance.objective(x)]

    def test_single_row_matrix_matches_scalar(self, instance, rng):
        x = rng.integers(0, 2, size=instance.num_variables).astype(float)
        verdicts = instance.is_feasible_batch(x[None, :])
        assert verdicts.shape == (1,)
        assert verdicts[0] == instance.is_feasible(x)


class TestEmptyBatch:
    def test_empty_batch_returns_empty_bool_verdicts(self, instance):
        verdicts = instance.is_feasible_batch(
            np.empty((0, instance.num_variables)))
        assert verdicts.shape == (0,)
        assert verdicts.dtype == np.bool_

    def test_empty_batch_returns_empty_float_objectives(self, instance):
        values = instance.objective_batch(
            np.empty((0, instance.num_variables)))
        assert values.shape == (0,)
        assert values.dtype == np.float64


class TestAllInfeasibleBatch:
    def test_all_infeasible_batch_is_all_false(self, family, instance, rng):
        infeasible = find_infeasible_state(instance, rng)
        if infeasible is None:
            # Unconstrained families have no infeasible states at all.
            assert family.filtered_constraints == "--"
            assert family.move_constraints == "--"
            batch = rng.integers(0, 2,
                                 size=(64, instance.num_variables)).astype(float)
            assert instance.is_feasible_batch(batch).all()
            pytest.skip(f"{family.name}: unconstrained, no infeasible states")
        batch = np.tile(infeasible, (5, 1))
        verdicts = instance.is_feasible_batch(batch)
        assert verdicts.shape == (5,)
        assert not verdicts.any()


class TestDtypeStability:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64,
                                       np.int8, bool])
    def test_verdicts_are_bool_for_any_input_dtype(self, instance, rng, dtype):
        batch = np.vstack([
            rng.integers(0, 2, size=(6, instance.num_variables)).astype(float),
            feasible_states(instance, rng, count=4),
        ]).astype(dtype)
        verdicts = instance.is_feasible_batch(batch)
        assert verdicts.dtype == np.bool_
        expected = np.array([instance.is_feasible(row.astype(float))
                             for row in batch])
        np.testing.assert_array_equal(verdicts, expected)


class TestValidation:
    def test_wrong_width_raises(self, instance):
        with pytest.raises(ValueError, match="batch"):
            instance.is_feasible_batch(
                np.zeros((3, instance.num_variables + 1)))

    def test_non_binary_values_raise(self, instance):
        batch = np.zeros((2, instance.num_variables))
        batch[1, 0] = 0.5
        with pytest.raises(ValueError, match="binary"):
            instance.is_feasible_batch(batch)

    def test_three_dimensional_input_raises(self, instance):
        with pytest.raises(ValueError, match="batch"):
            instance.is_feasible_batch(
                np.zeros((2, 2, instance.num_variables)))
