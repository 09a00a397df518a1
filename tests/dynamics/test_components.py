"""Unit tests for acceptance rules, exchange policies, bundles and the driver."""

import numpy as np
import pytest

from repro.dynamics import (
    Dynamics,
    EvenOddExchange,
    LoopDriver,
    MetropolisRule,
    MoveProposal,
    NoExchange,
    ParallelTempering,
    SingleFlipMove,
    TemperatureLadder,
    acceptance_probability,
    exchange_stream,
    shared_stream,
)
from repro.dynamics.schedule import (
    ConstantSchedule,
    GeometricSchedule,
    TemperatureSchedule,
)
from repro.kernels import KernelUnavailableError, native
from repro.kernels.streams import ReplayStreams


class _Table(TemperatureSchedule):
    """Per-iteration temperatures read from a table, zero and negative
    ones included (the validated schedules refuse them)."""

    def __init__(self, table):
        self.table = list(table)

    def _value(self, iteration, num_iterations):
        return self.table[iteration]


@pytest.fixture(params=["c", "generators", "numpy-replay"])
def draws(request, monkeypatch):
    """How an exclusive driver draws: C lanes (skipped without a C
    compiler); without the C library, ``Generator`` calls (the reference
    kernel) or NumPy lookahead replay (the fused NumPy loop)."""
    if request.param == "c":
        try:
            native.library()
        except KernelUnavailableError as error:
            pytest.skip(f"C library unavailable: {error}")
    else:
        monkeypatch.setattr(native, "_loaded", "C library disabled")
    return request.param


class TestMetropolisRule:
    def test_accept_scalar_consumes_exactly_one_draw(self):
        rule = MetropolisRule()
        rng = np.random.default_rng(3)
        mirror = np.random.default_rng(3)
        decision = rule.accept_scalar(2.0, 1.0, rng)
        assert decision == (mirror.random() < acceptance_probability(2.0, 1.0))
        # Both streams advanced by exactly one uniform.
        assert rng.random() == mirror.random()

    def test_downhill_always_accepted_but_still_draws(self):
        rule = MetropolisRule()
        rng = np.random.default_rng(0)
        mirror = np.random.default_rng(0)
        assert rule.accept_scalar(-1.0, 0.5, rng) is True
        mirror.random()
        assert rng.random() == mirror.random()

    def test_batched_accept_matches_inline_formula(self):
        rule = MetropolisRule()
        rngs = [np.random.default_rng(seed) for seed in (1, 2, 3, 4)]
        mirrors = [np.random.default_rng(seed) for seed in (1, 2, 3, 4)]
        delta = np.array([-1.0, 0.5, 3.0, 0.0])
        indices = np.arange(4)
        verdicts = rule.accept(delta, 2.0, [g.random for g in rngs], indices)
        expected = np.array([
            m.random() < acceptance_probability(float(d), 2.0)
            for m, d in zip(mirrors, delta)
        ])
        np.testing.assert_array_equal(verdicts, expected)

    def test_per_replica_temperature_array_is_indexed_by_replica_id(self):
        rule = MetropolisRule()
        temps = np.array([1e-9, 1e9])
        draws_hot = [lambda: 0.5, lambda: 0.5]
        # Same uphill delta: cold replica rejects, hot replica accepts.
        verdicts = rule.accept(np.array([5.0, 5.0]), temps, draws_hot,
                               np.array([0, 1]))
        assert verdicts.tolist() == [False, True]

    def test_accept_batch_vectorised_semantics(self):
        rule = MetropolisRule()
        delta = np.array([-1.0, 0.0, 1e9, 0.7])
        draws = np.array([0.99, 0.99, 0.0, 0.0])
        verdicts = rule.accept_batch(delta, 1.0, draws)
        assert verdicts.tolist() == [True, True, False, True]

    def test_accept_batch_zero_temperature_rejects_uphill(self):
        rule = MetropolisRule()
        verdicts = rule.accept_batch(np.array([1.0, -1.0]), 0.0,
                                     np.array([0.0, 0.9]))
        assert verdicts.tolist() == [False, True]


class TestExchangePolicies:
    def test_no_exchange_is_inert(self):
        policy = NoExchange()
        assert not policy.is_active
        assert policy.swap_pairs(0, 8).shape == (0, 2)

    def test_even_odd_pairs_alternate(self):
        policy = EvenOddExchange(exchange_interval=1)
        assert policy.swap_pairs(0, 6).tolist() == [[0, 1], [2, 3], [4, 5]]
        assert policy.swap_pairs(1, 6).tolist() == [[1, 2], [3, 4]]
        assert policy.swap_pairs(2, 6).tolist() == [[0, 1], [2, 3], [4, 5]]

    def test_pairs_are_disjoint_every_round(self):
        policy = EvenOddExchange()
        for round_index in range(4):
            for num_replicas in (1, 2, 5, 9):
                pairs = policy.swap_pairs(round_index, num_replicas)
                flat = pairs.ravel().tolist()
                assert len(flat) == len(set(flat))

    def test_single_replica_has_no_pairs(self):
        assert EvenOddExchange().swap_pairs(0, 1).shape == (0, 2)

    def test_decide_favours_energy_sorted_ladder(self):
        policy = EvenOddExchange()
        pairs = np.array([[0, 1]])
        temps = np.array([1.0, 4.0])
        # Hot rung holds the lower energy: deterministically swap.
        verdict = policy.decide(pairs, np.array([10.0, -5.0]), temps,
                                np.array([0.999]))
        assert verdict.tolist() == [True]
        # Cold rung already holds the lower energy: swap only with luck.
        unlucky = policy.decide(pairs, np.array([-5.0, 10.0]), temps,
                                np.array([0.999]))
        assert unlucky.tolist() == [False]

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            EvenOddExchange(exchange_interval=0)


class TestDynamicsBundles:
    def test_default_dynamics_is_uncoupled(self):
        dynamics = Dynamics()
        assert not dynamics.coupled
        assert dynamics.ladder_factors(8) is None

    def test_shared_rng_mode_is_coupled(self):
        assert Dynamics(rng_mode="shared").coupled

    def test_rng_mode_validated(self):
        with pytest.raises(ValueError):
            Dynamics(rng_mode="per_chip")

    def test_component_types_validated(self):
        with pytest.raises(TypeError):
            Dynamics(schedule="geometric")
        with pytest.raises(TypeError):
            Dynamics(exchange="even_odd")
        with pytest.raises(TypeError):
            Dynamics(ladder=[1.0, 2.0])

    def test_parallel_tempering_defaults(self):
        pt = ParallelTempering()
        assert pt.coupled
        assert isinstance(pt.exchange, EvenOddExchange)
        assert pt.exchange.interval == pt.exchange_interval
        factors = pt.ladder_factors(4)
        assert factors[0] == pytest.approx(1.0)
        assert factors[-1] == pytest.approx(pt.hottest)

    def test_parallel_tempering_explicit_ladder_wins(self):
        ladder = TemperatureLadder((1.0, 3.0))
        pt = ParallelTempering(ladder=ladder)
        np.testing.assert_array_equal(pt.ladder_factors(2), [1.0, 3.0])
        with pytest.raises(ValueError):
            pt.ladder_factors(3)

    def test_parallel_tempering_validation(self):
        with pytest.raises(ValueError):
            ParallelTempering(hottest=0.5)

    def test_auxiliary_streams_are_deterministic_and_distinct(self):
        seeds = [11, 22, 33]
        a = exchange_stream(seeds).random(4)
        b = exchange_stream(seeds).random(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, shared_stream(seeds).random(4))
        assert not np.array_equal(a, exchange_stream([11, 22]).random(4))

    def test_bundles_pickle(self):
        import pickle

        for bundle in (Dynamics(), ParallelTempering(exchange_interval=3),
                       Dynamics(rng_mode="shared")):
            revived = pickle.loads(pickle.dumps(bundle))
            assert revived.coupled == bundle.coupled


class TestLoopDriver:
    def _driver(self, num_replicas=4, dynamics=None, seeds=(1, 2, 3, 4),
                **kwargs):
        generators = [np.random.default_rng(s) for s in seeds[:num_replicas]]
        return LoopDriver(ConstantSchedule(1.0), 10, generators,
                          dynamics=dynamics, **kwargs), generators

    @staticmethod
    def _exclusive(draws, seeds, schedule=None, dynamics=None,
                   num_iterations=10):
        """An exclusive driver drawing the ``draws`` way, and its
        generators."""
        generators = [np.random.default_rng(s) for s in seeds]
        driver = LoopDriver(schedule or ConstantSchedule(1.0),
                            num_iterations, generators, dynamics=dynamics,
                            exclusive=True)
        if draws == "numpy-replay":
            assert isinstance(driver.replay(), ReplayStreams)
        elif draws == "c":
            assert isinstance(driver.replay(), native.NativeLanes)
        else:
            assert driver._lanes is None
        return driver, generators

    @staticmethod
    def _assert_same_states(generators, mirrors):
        for mine, theirs in zip(generators, mirrors):
            assert mine.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("num_replicas", [1, 3, 4, 32])
    def test_flip_indices_replay_per_replica_streams(self, draws,
                                                     num_replicas):
        seeds = range(1, num_replicas + 1)
        driver, generators = self._exclusive(draws, seeds)
        mirrors = [np.random.default_rng(s) for s in seeds]
        with driver:
            for bound in (17, 1, 2**31 + 1, 2**32, 5):
                flips = driver.flip_indices(bound)
                expected = [int(m.integers(0, bound)) for m in mirrors]
                assert flips.dtype == np.intp
                assert flips.tolist() == expected
        self._assert_same_states(generators, mirrors)

    def test_propose_matches_scalar_move_generator(self):
        driver, _ = self._driver()
        mirrors = [np.random.default_rng(s) for s in (1, 2, 3, 4)]
        current = np.zeros((4, 6))
        move = SingleFlipMove()
        assert isinstance(move, MoveProposal)
        candidates = driver.propose(move, current)
        expected = np.stack([move.propose(current[k], mirrors[k])
                             for k in range(4)])
        np.testing.assert_array_equal(candidates, expected)

    def test_ladder_temperatures(self):
        dynamics = Dynamics(ladder=TemperatureLadder((1.0, 2.0, 4.0, 8.0)))
        driver, _ = self._driver(dynamics=dynamics)
        np.testing.assert_allclose(driver.temperature(0), [1.0, 2.0, 4.0, 8.0])
        np.testing.assert_allclose(driver.temperature_row(3),
                                   [1.0, 2.0, 4.0, 8.0])

    def test_flat_batch_temperature_is_scalar(self):
        driver, _ = self._driver()
        assert driver.temperature(0) == 1.0
        np.testing.assert_array_equal(driver.temperature_row(0), np.ones(4))

    def test_exchange_requires_stream(self):
        with pytest.raises(ValueError):
            self._driver(dynamics=ParallelTempering())

    def test_shared_mode_requires_stream(self):
        with pytest.raises(ValueError):
            self._driver(dynamics=Dynamics(rng_mode="shared"))

    def test_exchange_swaps_all_state_arrays_together(self):
        dynamics = ParallelTempering(exchange_interval=1, hottest=4.0)
        driver, _ = self._driver(dynamics=dynamics,
                                 exchange_rng=exchange_stream([7]))
        configs = np.arange(8.0).reshape(4, 2)
        # Hot rungs hold strictly better energies: every proposed adjacent
        # pair swaps deterministically.
        energies = np.array([3.0, 2.0, 1.0, 0.0])
        flags = np.array([True, False, True, False])
        driver.maybe_exchange(0, energies, (configs, energies, flags))
        np.testing.assert_array_equal(energies, [2.0, 3.0, 0.0, 1.0])
        np.testing.assert_array_equal(configs[0], [2.0, 3.0])
        np.testing.assert_array_equal(flags, [False, True, False, True])
        assert driver.exchange_attempts == 2
        assert driver.exchange_accepted == 2

    def test_exchange_respects_interval(self):
        dynamics = ParallelTempering(exchange_interval=3)
        driver, _ = self._driver(dynamics=dynamics,
                                 exchange_rng=exchange_stream([7]))
        energies = np.array([3.0, 2.0, 1.0, 0.0])
        driver.maybe_exchange(0, energies, (energies,))
        assert driver.exchange_attempts == 0
        driver.maybe_exchange(2, energies, (energies,))
        assert driver.exchange_attempts > 0

    def test_exchange_preserves_configuration_multiset(self):
        dynamics = ParallelTempering(exchange_interval=1)
        driver, _ = self._driver(dynamics=dynamics,
                                 exchange_rng=exchange_stream([13]))
        rng = np.random.default_rng(5)
        configs = rng.integers(0, 2, size=(4, 6)).astype(float)
        energies = rng.normal(size=4)
        before = sorted(map(tuple, configs))
        for iteration in range(10):
            driver.maybe_exchange(iteration, energies, (configs, energies))
        assert sorted(map(tuple, configs)) == before

    def test_shared_mode_draws_come_from_one_stream(self):
        shared = shared_stream([1, 2])
        mirror = shared_stream([1, 2])
        dynamics = Dynamics(rng_mode="shared")
        generators = [shared, shared]
        driver = LoopDriver(ConstantSchedule(1.0), 5, generators,
                            dynamics=dynamics)
        flips = driver.flip_indices(9)
        np.testing.assert_array_equal(
            flips, mirror.integers(0, 9, size=2).astype(np.intp))
        verdicts = driver.metropolis(np.array([0.5, -1.0]), np.arange(2), 0)
        expected_draws = mirror.random(2)
        assert verdicts[1]  # downhill always accepted
        assert verdicts[0] == (expected_draws[0] < np.exp(-0.5))

    def test_shared_mode_refuses_generators_that_are_not_one_stream(self):
        dynamics = Dynamics(rng_mode="shared")
        shared = shared_stream([1, 2])
        for generators in ([shared, shared_stream([1, 2])],
                           [np.random.default_rng(1), np.random.default_rng(2)],
                           [None, None], []):
            with pytest.raises(ValueError, match="one shared stream"):
                LoopDriver(ConstantSchedule(1.0), 5, generators,
                           dynamics=dynamics)

    def test_metadata_reports_non_default_dynamics(self):
        driver, _ = self._driver()
        assert driver.metadata() == {}
        tempered, _ = self._driver(dynamics=ParallelTempering(),
                                   exchange_rng=exchange_stream([1]))
        meta = tempered.metadata()
        assert meta["ladder_rungs"] == 4
        assert meta["exchange_interval"] == 10

    def test_default_driver_metropolis_matches_scalar_rule(self, draws):
        driver, _ = self._exclusive(draws, (9, 10, 11, 12))
        mirrors = [np.random.default_rng(s) for s in (9, 10, 11, 12)]
        delta = np.array([0.3, -2.0, 5.0])
        replica_ids = np.array([0, 2, 3])
        verdicts = driver.metropolis(delta, replica_ids, 0)
        rule = MetropolisRule()
        expected = [rule.accept_scalar(float(d), 1.0, mirrors[r])
                    for d, r in zip(delta, replica_ids)]
        assert verdicts.dtype == bool
        assert verdicts.tolist() == expected

    #: Iteration temperatures: hot, zero, negative, tiny (every uphill
    #: exponent below -700), then cold.
    TABLE = (40.0, 0.0, -3.0, 1e-300, 0.5, 2.0)

    @pytest.mark.parametrize("num_replicas", [1, 3, 32])
    @pytest.mark.parametrize("ladder", [False, True], ids=["flat", "ladder"])
    def test_a_run_of_draws_matches_the_scalar_rule(self, draws,
                                                    num_replicas, ladder):
        seeds = [[7, k] for k in range(num_replicas)]
        dynamics = (Dynamics(ladder=TemperatureLadder(
            tuple(np.geomspace(1.0, 8.0, num_replicas))))
            if ladder else None)
        driver, generators = self._exclusive(
            draws, seeds, schedule=_Table(self.TABLE), dynamics=dynamics,
            num_iterations=len(self.TABLE))
        mirrors = [np.random.default_rng(s) for s in seeds]
        rule = MetropolisRule()
        pattern = np.random.default_rng(num_replicas)
        with driver:
            for iteration in range(len(self.TABLE)):
                flips = driver.flip_indices(23)
                assert flips.tolist() == [int(m.integers(0, 23))
                                          for m in mirrors]
                # Downhill, flat and uphill steps, some of them huge.
                delta = pattern.choice([-5.0, 0.0, 0.25, 3.0, 1e6],
                                       size=num_replicas)
                listed = np.flatnonzero(pattern.random(num_replicas) < 0.7)
                step = delta[listed]
                verdicts = driver.metropolis(step, listed, iteration)
                temperatures = driver.temperature_row(iteration)
                assert verdicts.tolist() == [
                    rule.accept_scalar(float(d), float(temperatures[k]),
                                       mirrors[k])
                    for d, k in zip(step, listed)]
        self._assert_same_states(generators, mirrors)

    def test_states_are_written_back_when_the_run_raises(self, draws):
        driver, generators = self._exclusive(draws, (3, 4, 5))
        mirrors = [np.random.default_rng(s) for s in (3, 4, 5)]
        with pytest.raises(RuntimeError, match="mid-run"):
            with driver:
                driver.flip_indices(9)
                driver.metropolis(np.array([1.0, 2.0]), np.array([0, 2]), 0)
                raise RuntimeError("mid-run")
        for mirror in mirrors:
            mirror.integers(0, 9)
        mirrors[0].random()
        mirrors[2].random()
        self._assert_same_states(generators, mirrors)
        # The lanes are handed back: later draws go through the generators.
        assert driver.replay() is None

    def test_repeated_and_negative_indices_draw_in_list_order(
            self, draw_path):
        # The fused NumPy loop (NumPy replay) lists each replica once.
        driver, _ = self._exclusive(
            "c" if draw_path == "c" else "generators", (3, 4, 5))
        mirrors = [np.random.default_rng(s) for s in (3, 4, 5)]
        rule = MetropolisRule()
        listed = np.array([2, 0, 2, -1, 1, 1, 0, 2])
        step = np.linspace(-1.0, 2.0, listed.shape[0])
        verdicts = driver.metropolis(step, listed, 0)
        assert verdicts.tolist() == [rule.accept_scalar(float(d), 1.0,
                                                        mirrors[k])
                                     for d, k in zip(step, listed)]
        with pytest.raises(IndexError):
            driver.metropolis(np.array([1.0]), np.array([3]), 0)

    def test_a_driver_that_is_not_exclusive_keeps_generator_draws(self):
        # A generic move or a noisy matchline draws from the generators too.
        driver, generators = self._driver(seeds=(1, 2))
        assert driver.replay() is None
        before = generators[0].bit_generator.state
        driver.flip_indices(5)
        assert generators[0].bit_generator.state != before
