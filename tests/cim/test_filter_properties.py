"""Hypothesis property: every filter verdict equals the matchline comparison.

:meth:`InequalityFilter.evaluate` reads both matchlines and hands the two
voltages to the comparator -- the paper's analog decision.  The verdict
methods (:meth:`~InequalityFilter.is_feasible`,
:meth:`~InequalityFilter.is_feasible_batch` and
:meth:`~InequalityFilter.is_feasible_devices`) must reach the same decision
for every row on every chip: over integer and decimal weights, any bound,
any array depth, one to three chips with sampled threshold shifts and a
comparator with a sampled static offset -- including rows sitting exactly at
the bound, chips that reject every load and chips that accept every load.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cim.comparator import TwoStageComparator
from repro.cim.inequality_filter import InequalityFilter
from repro.core.constraints import InequalityConstraint
from repro.fefet.variability import VariabilityModel


@st.composite
def filter_cases(draw, max_items=10, max_chips=3, max_replicas=6):
    """A filter over 1-3 varied chips, a comparator and a replica batch."""
    n = draw(st.integers(1, max_items))
    decimals = draw(st.sampled_from([0, 0, 1, 2]))
    codes = draw(st.lists(st.integers(0, 60), min_size=n, max_size=n))
    weights = [code / 10 ** decimals for code in codes]
    replicas = draw(st.integers(1, max_replicas))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    rows = (rng.random((replicas, n)) < 0.5).astype(float)
    if draw(st.booleans()):
        # A bound equal to some row's load: that row sits exactly on it.
        bound = float(rows[draw(st.integers(0, replicas - 1))] @ weights)
    else:
        bound = draw(st.integers(0, max(1, sum(codes)))) / 10 ** decimals
    num_chips = draw(st.integers(1, max_chips))
    sigma = draw(st.sampled_from([0.0, 0.02, 0.08]))
    chips = [VariabilityModel(threshold_sigma=sigma, on_current_sigma=0.05,
                              seed=draw(st.integers(0, 2**16)))
             for _ in range(num_chips)]
    comparator = TwoStageComparator(
        static_offset_sigma=draw(st.sampled_from([0.0, 0.01, 0.1, 2.0])),
        seed=draw(st.integers(0, 2**16)))
    cim_filter = InequalityFilter(
        InequalityConstraint(weights, bound),
        num_rows=draw(st.integers(1, 16)),
        variability=chips if num_chips > 1 or draw(st.booleans()) else chips[0],
        comparator=comparator)
    return cim_filter, rows


def all_configurations(n):
    """Every binary configuration of ``n`` items, item 0 in the lowest bit."""
    return np.array([[(bits >> k) & 1 for k in range(n)]
                     for bits in range(2 ** n)], dtype=float)


def voltage_verdicts(cim_filter, rows, device):
    """Row-wise matchline-vs-replica decisions of chip ``device``."""
    return np.array([cim_filter.evaluate(row, device=device).feasible
                     for row in rows])


def assert_verdicts_match_voltages(cim_filter, rows):
    num_chips = cim_filter.num_devices
    expected = np.stack([voltage_verdicts(cim_filter, rows, device)
                         for device in range(num_chips)])
    for device in range(num_chips):
        scalar = [cim_filter.is_feasible(row, device=device) for row in rows]
        np.testing.assert_array_equal(scalar, expected[device])
        np.testing.assert_array_equal(
            cim_filter.is_feasible_batch(rows, device=device),
            expected[device])
    # Every chip judges the batch at once, in reverse chip order.
    order = np.arange(num_chips)[::-1]
    np.testing.assert_array_equal(
        cim_filter.is_feasible_devices(np.broadcast_to(
            rows, (num_chips,) + rows.shape), devices=order),
        expected[order])
    # The one-replica-per-chip convenience form.
    np.testing.assert_array_equal(
        cim_filter.is_feasible_devices(np.repeat(rows[:1], num_chips, 0)),
        expected[:, 0])
    return expected


class TestVerdictsEqualMatchlineComparison:
    @given(filter_cases())
    @settings(max_examples=120, deadline=None)
    def test_verdict_methods_match_evaluate(self, case):
        cim_filter, rows = case
        before = cim_filter.num_evaluations
        assert_verdicts_match_voltages(cim_filter, rows)
        # evaluate, is_feasible and is_feasible_batch once per row and chip,
        # then the device batch and its one-replica form.
        num_chips, num_rows = cim_filter.num_devices, rows.shape[0]
        assert cim_filter.num_evaluations - before == (
            3 * num_chips * num_rows + num_chips * num_rows + num_chips)

    def test_row_at_the_bound_of_fig_5f_is_feasible(self):
        """4 x1 + 7 x2 + 2 x3 <= 9: ``011`` loads the bound exactly."""
        cim_filter = InequalityFilter(InequalityConstraint([4, 7, 2], 9))
        rows = all_configurations(3)
        expected = assert_verdicts_match_voltages(cim_filter, rows)
        assert expected[0].tolist() == [True, True, True, False,
                                        True, True, True, False]
        assert cim_filter.is_feasible([0, 1, 1])

    def test_reprogrammed_working_array_is_read_at_call_time(self):
        cim_filter = InequalityFilter(InequalityConstraint([4, 7, 2], 9))
        cim_filter.working_array.reprogram([1, 1, 9])
        rows = all_configurations(3)
        expected = assert_verdicts_match_voltages(cim_filter, rows)
        assert expected[0].tolist() == list(rows @ [1, 1, 9] <= 9)

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_chips_rejecting_or_accepting_every_load(self, sign):
        """An offset beyond the rail makes a chip reject even the empty
        configuration, or accept even the full one."""
        seed = next(s for s in range(100)
                    if sign * TwoStageComparator(static_offset_sigma=3.0,
                                                 seed=s).offset > 2.5)
        chips = [VariabilityModel(threshold_sigma=0.05, on_current_sigma=0.0,
                                  seed=s) for s in (1, 2)]
        cim_filter = InequalityFilter(
            InequalityConstraint([3, 5, 8, 1], 7), variability=chips,
            comparator=TwoStageComparator(static_offset_sigma=3.0, seed=seed))
        rows = all_configurations(4)
        expected = assert_verdicts_match_voltages(cim_filter, rows)
        assert np.all(expected == (sign > 0))


class TestNoisyFiltersKeepTheVoltagePath:
    """With matchline noise the verdicts compare freshly read voltages,
    drawn from the caller's stream: working array first, then replica."""

    ROWS = all_configurations(3)

    def _filter(self, chips=None):
        return InequalityFilter(InequalityConstraint([4, 7, 2], 9),
                                variability=chips, matchline_noise_sigma=0.05)

    def test_batch_verdicts_replay_the_matchline_readouts(self):
        cim_filter = self._filter()
        verdicts = cim_filter.is_feasible_batch(
            self.ROWS, rng=np.random.default_rng(3))
        stream = np.random.default_rng(3)
        working = cim_filter.working_array.evaluate_batch(self.ROWS, rng=stream)
        replica = cim_filter.replica_array.evaluate_batch(8, rng=stream)
        np.testing.assert_array_equal(verdicts, working >= replica)

    def test_device_verdicts_replay_the_matchline_readouts(self):
        chips = [VariabilityModel(threshold_sigma=0.03, on_current_sigma=0.0,
                                  seed=seed) for seed in (5, 6)]
        cim_filter = self._filter(chips)
        batch = np.stack([self.ROWS, self.ROWS[::-1]])
        verdicts = cim_filter.is_feasible_devices(
            batch, rng=np.random.default_rng(4), devices=[1, 0])
        stream = np.random.default_rng(4)
        working = cim_filter.working_array.evaluate_devices(
            batch, rng=stream, devices=[1, 0])
        replica = cim_filter.replica_array.evaluate_devices(
            8, rng=stream, devices=[1, 0])
        np.testing.assert_array_equal(verdicts, working >= replica)
        assert cim_filter.num_evaluations == 16

    def test_comparator_noise_counts_every_decision(self):
        comparator = TwoStageComparator(noise_sigma=0.01, seed=4)
        cim_filter = InequalityFilter(InequalityConstraint([4, 7, 2], 9),
                                      comparator=comparator)
        cim_filter.is_feasible_batch(np.ones((5, 3)))
        cim_filter.is_feasible([1, 0, 0])
        assert comparator.num_decisions == 6
