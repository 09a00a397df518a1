"""ReplayStreams vs real NumPy generators: bit-exact draw replay.

Where the loop driver replays the per-replica PCG64 streams, the fused
NumPy loop draws them vectorised instead of calling each ``Generator`` in a
Python loop.  These tests pin the replay contract against NumPy itself:
every ``uniforms``/``integers`` draw matches what the corresponding
``Generator`` would have produced (including Lemire rejection resampling
and the 32-bit buffering of ``integers``), and ``write_back`` leaves the
generators exactly where real draws would have.  ``TestEligibility`` pins
the driver's rule for which runs replay at all, with the C library loaded
and unavailable.
"""

import numpy as np
import pytest

from repro.dynamics.acceptance import (
    MetropolisRule,
    acceptance_probability,
    metropolis_decisions,
)
from repro.dynamics.schedule import GeometricSchedule
from repro.dynamics.dynamics import Dynamics, ParallelTempering
from repro.dynamics.driver import LoopDriver
from repro.kernels import native
from repro.kernels.base import KernelUnsupportedError
from repro.kernels.streams import (
    _JUMP_INCC_HI,
    _JUMP_INCC_LO,
    _JUMP_MULT_HI,
    _JUMP_MULT_LO,
    BUFFER_OUTPUTS,
    ReplayStreams,
    _mul128,
)


def make_generators(count, seed=5):
    return [np.random.default_rng([seed, k]) for k in range(count)]


class TestDrawReplay:
    def test_uniforms_match_generator_random(self):
        generators = make_generators(3)
        control = make_generators(3)
        streams = ReplayStreams(generators)
        lanes = np.arange(3)
        # Cross several refill boundaries (the jump buffer holds
        # BUFFER_OUTPUTS outputs per lane).
        for _ in range(3 * BUFFER_OUTPUTS + 7):
            got = streams.uniforms(lanes)
            expected = [g.random() for g in control]
            np.testing.assert_array_equal(got, expected)

    def test_uniforms_partial_lane_subsets(self):
        generators = make_generators(4)
        control = make_generators(4)
        streams = ReplayStreams(generators)
        rng = np.random.default_rng(0)
        for _ in range(200):
            lanes = np.flatnonzero(rng.random(4) < 0.6)
            if lanes.size == 0:
                continue
            got = streams.uniforms(lanes)
            expected = [control[k].random() for k in lanes]
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("bound", [2, 3, 7, 24, 1000, 2**31 + 11])
    def test_integers_match_generator_integers(self, bound):
        generators = make_generators(3)
        control = make_generators(3)
        streams = ReplayStreams(generators)
        for _ in range(150):
            got = streams.integers(bound)
            expected = [g.integers(0, bound) for g in control]
            np.testing.assert_array_equal(got, expected)

    def test_bound_of_one_consumes_no_draws(self):
        generators = make_generators(2)
        control = make_generators(2)
        streams = ReplayStreams(generators)
        assert np.array_equal(streams.integers(1), [0, 0])
        # NumPy's integers(0, 1) consumes nothing either, so the streams
        # stay aligned afterwards.
        np.testing.assert_array_equal(
            streams.uniforms(np.arange(2)),
            [g.random() for g in control])

    def test_mixed_integer_uniform_interleaving(self):
        # integers() buffers the unused high half of each 64-bit output in
        # has_uint32/uinteger; interleaved random() calls must not disturb
        # that bookkeeping.
        generators = make_generators(3)
        control = make_generators(3)
        streams = ReplayStreams(generators)
        lanes = np.arange(3)
        pattern_rng = np.random.default_rng(1)
        for _ in range(300):
            if pattern_rng.random() < 0.5:
                np.testing.assert_array_equal(
                    streams.integers(24),
                    [g.integers(0, 24) for g in control])
            else:
                np.testing.assert_array_equal(
                    streams.uniforms(lanes),
                    [g.random() for g in control])


class LaneRefillStreams(ReplayStreams):
    """The replaced refill policy, kept as a reference: each exhausted lane
    of the requested subset refills on its own from ``_st[k, -1]``."""

    def _refill_lanes(self, lanes):
        s_hi = self.s_hi[lanes, None]
        s_lo = self.s_lo[lanes, None]
        hi_a, lo_a = _mul128(_JUMP_MULT_HI, _JUMP_MULT_LO, s_hi, s_lo)
        hi_b, lo_b = _mul128(_JUMP_INCC_HI, _JUMP_INCC_LO,
                             self.i_hi[lanes, None], self.i_lo[lanes, None])
        lo = lo_a + lo_b
        hi = hi_a + hi_b + (lo < lo_a)
        self._st_hi[lanes] = hi
        self._st_lo[lanes] = lo
        rot = hi >> np.uint64(58)
        word = hi ^ lo
        self._out[lanes] = ((word >> rot)
                            | (word << ((np.uint64(64) - rot) & np.uint64(63))))

    def _next64(self, lanes):
        positions = self._pos[lanes]
        depleted = positions == BUFFER_OUTPUTS
        if depleted.any():
            exhausted = lanes[depleted]
            self.s_hi[exhausted] = self._st_hi[exhausted, -1]
            self.s_lo[exhausted] = self._st_lo[exhausted, -1]
            self._refill_lanes(exhausted)
            self._pos[exhausted] = 0
            positions = self._pos[lanes]
        self._pos[lanes] = positions + 1
        return self._out[lanes, positions]


class TestDepletionEvents:
    """One refill per depletion event, with lanes drawing at different rates.

    Lane 0 draws on every call, lane 1 never, lanes 2-3 on every second and
    third call and lanes 4-5 at random, so at each event most lanes are
    part-way through their buffers.
    """

    LANES = 6
    CALLS = 5 * BUFFER_OUTPUTS + 11

    def _schedule(self):
        pattern = np.random.default_rng(3)
        for call in range(self.CALLS):
            wanted = [0]
            wanted += [2] if call % 2 == 0 else []
            wanted += [3] if call % 3 == 0 else []
            wanted += [k for k in (4, 5) if pattern.random() < 0.4]
            yield np.array(wanted)

    def _count_refills(self, streams):
        calls = []
        refill = streams._refill

        def counted():
            calls.append(None)
            refill()

        streams._refill = counted
        return calls

    def test_draws_and_write_back_match_generators(self):
        generators = make_generators(self.LANES)
        control = make_generators(self.LANES)
        reference_generators = make_generators(self.LANES)
        streams = ReplayStreams(generators)
        reference = LaneRefillStreams(reference_generators)
        refills = self._count_refills(streams)
        for lanes in self._schedule():
            got = streams.uniforms(lanes)
            np.testing.assert_array_equal(got,
                                          [control[k].random() for k in lanes])
            np.testing.assert_array_equal(got, reference.uniforms(lanes))
        # Lane 0 draws on every call, so it alone sets off the events: one
        # per BUFFER_OUTPUTS calls.
        assert len(refills) == 5
        streams.write_back()
        reference.write_back()
        for mine, theirs, old in zip(generators, control,
                                     reference_generators):
            assert mine.bit_generator.state == theirs.bit_generator.state
            assert old.bit_generator.state == theirs.bit_generator.state

    def test_integer_draws_across_events(self):
        # integers() runs every lane through the 32-bit buffer; uniforms for
        # a subset in between knock the lanes' 64-bit positions apart.
        generators = make_generators(self.LANES)
        control = make_generators(self.LANES)
        streams = ReplayStreams(generators)
        refills = self._count_refills(streams)
        for lanes in self._schedule():
            np.testing.assert_array_equal(
                streams.integers(1000), [g.integers(0, 1000) for g in control])
            np.testing.assert_array_equal(
                streams.uniforms(lanes), [control[k].random() for k in lanes])
        assert len(refills) >= 4
        streams.write_back()
        for mine, theirs in zip(generators, control):
            assert mine.bit_generator.state == theirs.bit_generator.state


class TestWriteBack:
    @pytest.mark.parametrize("draws", [0, 1, 7, BUFFER_OUTPUTS,
                                       2 * BUFFER_OUTPUTS + 3])
    def test_generators_resume_exactly_after_write_back(self, draws):
        generators = make_generators(3)
        control = make_generators(3)
        streams = ReplayStreams(generators)
        lanes = np.arange(3)
        for _ in range(draws):
            streams.uniforms(lanes)
            for g in control:
                g.random()
        streams.integers(24)
        for g in control:
            g.integers(0, 24)
        streams.write_back()
        # The written-back generators produce the same continuation as
        # generators that made the identical draws natively -- including the
        # parked 32-bit half left by integers().
        for mine, theirs in zip(generators, control):
            assert mine.bit_generator.state == theirs.bit_generator.state
            assert mine.integers(0, 1000) == theirs.integers(0, 1000)
            assert mine.random() == theirs.random()


class TestEligibility:
    def test_non_pcg64_generators_are_rejected(self):
        bad = [np.random.Generator(np.random.MT19937(3))]
        with pytest.raises(KernelUnsupportedError, match="PCG64"):
            ReplayStreams(bad)

    def _driver(self, generators, dynamics=None, shared_rng=None,
                exchange_rng=None, exclusive=True):
        return LoopDriver(GeometricSchedule(10.0, 0.1), 10, generators,
                          dynamics=dynamics, shared_rng=shared_rng,
                          exchange_rng=exchange_rng, exclusive=exclusive)

    def test_replay_accepts_default_configuration(self, draw_path):
        driver = self._driver(make_generators(2))
        lanes = driver.replay()
        assert lanes is not None and driver.replay() is lanes
        assert isinstance(lanes, native.NativeLanes) == (draw_path == "c")

    def test_replay_rejects_shared_rng(self, draw_path):
        driver = self._driver(make_generators(2),
                              dynamics=Dynamics(rng_mode="shared"),
                              shared_rng=np.random.default_rng(0))
        assert driver.replay() is None

    def test_replay_needs_the_engines_exclusivity(self, draw_path):
        assert self._driver(make_generators(2),
                            exclusive=False).replay() is None

    def test_replay_rejects_non_metropolis_acceptance(self, draw_path):
        class CustomRule(MetropolisRule):
            pass

        driver = self._driver(make_generators(2),
                              dynamics=Dynamics(acceptance=CustomRule()))
        assert driver.replay() is None

    def test_replay_rejects_non_pcg64(self, draw_path):
        generators = [np.random.Generator(np.random.MT19937(k))
                      for k in range(2)]
        assert self._driver(generators).replay() is None

    def test_replay_rejects_aliased_generators(self, draw_path):
        shared = np.random.default_rng(4)
        # Two Generator objects over one bit generator alias it too.
        twin = np.random.Generator(shared.bit_generator)
        for generators in ([shared, shared], [shared, twin]):
            assert self._driver(generators).replay() is None

    def test_replay_rejects_an_exchange_stream_that_is_a_replica(
            self, draw_path):
        generators = make_generators(2)
        driver = self._driver(generators, dynamics=ParallelTempering(),
                              exchange_rng=generators[1])
        assert driver.replay() is None

    def test_oversized_lemire_bound_hands_back_to_the_generators(
            self, draw_path):
        generators = make_generators(2)
        control = make_generators(2)
        with self._driver(generators) as driver:
            driver.replay()
            np.testing.assert_array_equal(
                driver.flip_indices(7), [g.integers(0, 7) for g in control])
            np.testing.assert_array_equal(
                driver.flip_indices(2**32 + 1),
                [g.integers(0, 2**32 + 1) for g in control])
            assert driver.replay() is None
            with pytest.raises(ValueError):
                driver.flip_indices(0)
        for mine, theirs in zip(generators, control):
            assert mine.bit_generator.state == theirs.bit_generator.state


class TestMetropolisDecisions:
    def test_matches_scalar_acceptance_probability(self):
        rng = np.random.default_rng(2)
        step = rng.normal(scale=3.0, size=500)
        temperature = 0.8
        draws = rng.random(500)
        got = metropolis_decisions(step, temperature, draws)
        expected = [d < acceptance_probability(float(s), temperature)
                    for s, d in zip(step, draws)]
        np.testing.assert_array_equal(got, expected)

    def test_negative_step_always_accepts(self):
        step = np.array([-1.0, 0.0, -1e-300])
        draws = np.array([0.999999, 0.999999, 0.999999])
        assert metropolis_decisions(step, 1e-12, draws).all()

    def test_zero_temperature_accepts_only_downhill(self):
        step = np.array([-1.0, 0.0, 1.0])
        draws = np.zeros(3)
        np.testing.assert_array_equal(
            metropolis_decisions(step, 0.0, draws), [True, True, False])

    def test_per_replica_temperature_rows(self):
        step = np.array([1.0, 1.0, -0.5])
        temps = np.array([0.5, 2.0, 1.0])
        draws = np.array([0.2, 0.2, 0.9])
        got = metropolis_decisions(step, temps, draws)
        expected = [d < acceptance_probability(float(s), float(t))
                    for s, t, d in zip(step, temps, draws)]
        np.testing.assert_array_equal(got, expected)

    def test_extreme_uphill_step_rejects_without_warning(self):
        step = np.array([1e6])
        draws = np.array([0.0])
        with np.errstate(all="raise"):
            assert not metropolis_decisions(step, 1e-3, draws)[0]
