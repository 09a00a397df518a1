"""Unit tests for the SA move generators."""

import numpy as np
import pytest

from repro.dynamics.moves import (
    KnapsackNeighborhoodMove,
    MultiFlipMove,
    OneHotGroupMove,
    PermutationSwapMove,
    SingleFlipMove,
)


class TestSingleFlip:
    def test_flips_exactly_one_bit(self, rng):
        move = SingleFlipMove()
        x = rng.integers(0, 2, size=12).astype(float)
        for _ in range(30):
            candidate = move.propose(x, rng)
            assert int(np.sum(candidate != x)) == 1

    def test_does_not_modify_input(self, rng):
        move = SingleFlipMove()
        x = np.zeros(5)
        move.propose(x, rng)
        np.testing.assert_array_equal(x, np.zeros(5))

    def test_rejects_non_binary(self, rng):
        with pytest.raises(ValueError):
            SingleFlipMove().propose(np.array([0.5, 1.0]), rng)


class TestMultiFlip:
    def test_flips_requested_number(self, rng):
        move = MultiFlipMove(num_flips=3)
        x = np.zeros(10)
        for _ in range(20):
            candidate = move.propose(x, rng)
            assert int(np.sum(candidate != x)) == 3

    def test_caps_at_vector_length(self, rng):
        move = MultiFlipMove(num_flips=10)
        candidate = move.propose(np.zeros(4), rng)
        assert int(candidate.sum()) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiFlipMove(num_flips=0)


class TestKnapsackNeighborhood:
    def test_moves_change_selection_by_at_most_two(self, rng):
        move = KnapsackNeighborhoodMove()
        x = rng.integers(0, 2, size=20).astype(float)
        for _ in range(50):
            candidate = move.propose(x, rng)
            assert 1 <= int(np.sum(candidate != x)) <= 2

    def test_swap_preserves_cardinality(self, rng):
        move = KnapsackNeighborhoodMove(add_probability=0.0, drop_probability=0.0)
        x = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
        for _ in range(20):
            candidate = move.propose(x, rng)
            assert candidate.sum() == x.sum()

    def test_handles_all_selected_and_all_empty(self, rng):
        move = KnapsackNeighborhoodMove()
        full = np.ones(6)
        empty = np.zeros(6)
        assert move.propose(full, rng).sum() in (5.0, 6.0)
        assert move.propose(empty, rng).sum() in (0.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            KnapsackNeighborhoodMove(add_probability=0.8, drop_probability=0.5)
        with pytest.raises(ValueError):
            KnapsackNeighborhoodMove(add_probability=-0.1)


class TestOneHotGroupMove:
    def test_preserves_one_hot_structure(self, rng):
        move = OneHotGroupMove(group_sizes=[3, 3, 3])
        x = np.array([1, 0, 0, 0, 1, 0, 0, 0, 1], dtype=float)
        for _ in range(40):
            candidate = move.propose(x, rng)
            blocks = candidate.reshape(3, 3)
            assert np.all(blocks.sum(axis=1) == 1)
            x = candidate

    def test_repairs_invalid_groups(self, rng):
        move = OneHotGroupMove(group_sizes=[2, 2])
        broken = np.array([1, 1, 0, 0], dtype=float)
        repaired_any = False
        for _ in range(20):
            candidate = move.propose(broken, rng)
            first_block = candidate[:2]
            if first_block.sum() == 1:
                repaired_any = True
        assert repaired_any

    def test_validation(self):
        with pytest.raises(ValueError):
            OneHotGroupMove(group_sizes=[])
        with pytest.raises(ValueError):
            OneHotGroupMove(group_sizes=[2, 0])

    def test_length_mismatch(self, rng):
        move = OneHotGroupMove(group_sizes=[2, 2])
        with pytest.raises(ValueError):
            move.propose(np.zeros(5), rng)


class TestPermutationSwap:
    def test_swap_preserves_permutation_validity(self, rng):
        from repro.problems.generators import generate_tsp_instance

        tsp = generate_tsp_instance(num_cities=5, seed=0)
        move = PermutationSwapMove(num_groups=5, group_size=5)
        x = tsp.encode_tour([0, 1, 2, 3, 4])
        for _ in range(30):
            x = move.propose(x, rng)
            assert tsp.is_feasible(x)

    def test_swap_changes_two_groups(self, rng):
        move = PermutationSwapMove(num_groups=3, group_size=3)
        x = np.array([1, 0, 0, 0, 1, 0, 0, 0, 1], dtype=float)
        candidate = move.propose(x, rng)
        changed_groups = sum(
            1 for g in range(3)
            if not np.array_equal(candidate[g * 3:(g + 1) * 3], x[g * 3:(g + 1) * 3])
        )
        assert changed_groups in (0, 2)  # identical blocks may swap invisibly

    def test_validation(self):
        with pytest.raises(ValueError):
            PermutationSwapMove(num_groups=1, group_size=3)
