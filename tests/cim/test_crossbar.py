"""Unit tests for the bit-sliced FeFET QUBO crossbar."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.cim.crossbar import CrossbarConfig, FeFETCrossbar
from repro.core.qubo import QUBOModel
from repro.fefet.variability import VariabilityModel


@pytest.fixture
def integer_qubo(rng):
    matrix = rng.integers(-50, 51, size=(10, 10)).astype(float)
    return QUBOModel(matrix, offset=3.0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CrossbarConfig(weight_bits=0)
        with pytest.raises(ValueError):
            CrossbarConfig(cell_on_current=0.0)
        with pytest.raises(ValueError):
            CrossbarConfig(current_noise_sigma=-0.1)
        with pytest.raises(ValueError):
            CrossbarConfig(adc_bits=0)


class TestIdealCrossbar:
    def test_integer_matrix_is_stored_losslessly(self, integer_qubo):
        crossbar = FeFETCrossbar.from_qubo(integer_qubo, CrossbarConfig(weight_bits=7))
        assert crossbar.quantization_error() == 0.0
        np.testing.assert_allclose(crossbar.quantized_matrix(), integer_qubo.matrix)

    def test_energy_matches_exact_arithmetic(self, integer_qubo, rng):
        crossbar = FeFETCrossbar.from_qubo(integer_qubo, CrossbarConfig(weight_bits=7))
        for _ in range(20):
            x = rng.integers(0, 2, size=10).astype(float)
            assert crossbar.compute_energy(x) == pytest.approx(integer_qubo.energy(x))

    def test_batch_energies(self, integer_qubo, rng):
        crossbar = FeFETCrossbar.from_qubo(integer_qubo, CrossbarConfig(weight_bits=7))
        batch = rng.integers(0, 2, size=(6, 10)).astype(float)
        np.testing.assert_allclose(crossbar.compute_energies(batch),
                                   integer_qubo.energies(batch))

    def test_quantization_error_bounded_for_fractional_matrices(self, rng):
        matrix = rng.normal(scale=10.0, size=(8, 8))
        qubo = QUBOModel(matrix)
        crossbar = FeFETCrossbar.from_qubo(qubo, CrossbarConfig(weight_bits=8))
        max_abs = np.max(np.abs(qubo.matrix))
        assert crossbar.quantization_error() <= max_abs / (2 ** 8 - 1)

    def test_few_bits_lose_precision_gracefully(self, integer_qubo, rng):
        coarse = FeFETCrossbar.from_qubo(integer_qubo, CrossbarConfig(weight_bits=3))
        fine = FeFETCrossbar.from_qubo(integer_qubo, CrossbarConfig(weight_bits=7))
        x = rng.integers(0, 2, size=10).astype(float)
        exact = integer_qubo.energy(x)
        assert abs(fine.compute_energy(x) - exact) <= abs(coarse.compute_energy(x) - exact) + 1e-9

    def test_input_validation(self, integer_qubo):
        crossbar = FeFETCrossbar.from_qubo(integer_qubo)
        with pytest.raises(ValueError):
            crossbar.compute_energy(np.zeros(5))
        with pytest.raises(ValueError):
            crossbar.compute_energy(np.full(10, 0.5))

    def test_cell_count_accounting(self, integer_qubo):
        crossbar = FeFETCrossbar.from_qubo(integer_qubo, CrossbarConfig(weight_bits=7))
        assert crossbar.num_cells == 2 * 7 * 10 * 10
        assert crossbar.num_variables == 10


class TestNonIdealCrossbar:
    def test_device_variation_keeps_energy_close(self, integer_qubo, rng):
        crossbar = FeFETCrossbar.from_qubo(
            integer_qubo,
            CrossbarConfig(weight_bits=7, on_current_variation_sigma=0.05, seed=1),
        )
        for _ in range(10):
            x = rng.integers(0, 2, size=10).astype(float)
            exact = integer_qubo.energy(x)
            scale = max(abs(exact), 50.0)
            assert abs(crossbar.compute_energy(x) - exact) <= 0.25 * scale

    def test_read_noise_is_zero_mean(self, integer_qubo):
        crossbar = FeFETCrossbar.from_qubo(
            integer_qubo,
            CrossbarConfig(weight_bits=7, current_noise_sigma=0.02, seed=2),
        )
        x = np.ones(10)
        exact = integer_qubo.energy(x)
        samples = np.array([crossbar.compute_energy(x) for _ in range(100)])
        assert np.std(samples) > 0.0
        assert abs(samples.mean() - exact) <= 0.1 * abs(exact)

    def test_adc_quantization_changes_result_for_low_resolution(self, integer_qubo, rng):
        coarse_adc = FeFETCrossbar.from_qubo(
            integer_qubo, CrossbarConfig(weight_bits=7, adc_bits=2, seed=0)
        )
        x = rng.integers(0, 2, size=10).astype(float)
        # 2-bit column ADCs cannot represent every partial sum exactly, so some
        # configurations must deviate from the exact energy.
        deviations = [
            abs(coarse_adc.compute_energy(row) - integer_qubo.energy(row))
            for row in rng.integers(0, 2, size=(20, 10)).astype(float)
        ]
        assert max(deviations) > 0.0

    def test_varied_chip_reads_each_row_as_a_lone_row(self, rng):
        """A varied chip's energy for a row does not depend on how many rows
        share the read: a batch equals its rows read one at a time, bit for
        bit (at n=100, where one product over all rows rounds differently)."""
        qubo = QUBOModel(rng.integers(-60, 61, size=(100, 100)).astype(float))
        crossbar = FeFETCrossbar.from_qubo(
            qubo, CrossbarConfig(weight_bits=7,
                                 on_current_variation_sigma=0.05, seed=4))
        batch = rng.integers(0, 2, size=(16, 100)).astype(float)
        np.testing.assert_array_equal(
            crossbar.compute_energies(batch),
            [crossbar.compute_energy(row) for row in batch])


class TestLinearity:
    def test_column_current_scales_linearly(self):
        qubo = QUBOModel(np.ones((32, 32)))
        crossbar = FeFETCrossbar.from_qubo(qubo, CrossbarConfig(weight_bits=1))
        counts, currents = crossbar.linearity_sweep(range(0, 25, 4))
        assert currents[0] == pytest.approx(0.0)
        # Perfect linearity without non-idealities.
        expected = counts * crossbar.config.cell_on_current
        np.testing.assert_allclose(currents, expected)

    def test_column_current_bounds(self):
        qubo = QUBOModel(np.ones((8, 8)))
        crossbar = FeFETCrossbar.from_qubo(qubo, CrossbarConfig(weight_bits=1))
        with pytest.raises(ValueError):
            crossbar.column_current(9)
        with pytest.raises(ValueError):
            crossbar.column_current(-1)


class TestDeviceAxis:
    """The (D, M, n) contract: one programmed chip per device seed."""

    def test_device_batch_matches_per_chip_rebuilds(self, integer_qubo, rng):
        """Chip d of a device-axis crossbar must behave exactly like a
        scalar crossbar rebuilt with chip d's seed -- factors, read noise
        and ADC codes included."""
        config = CrossbarConfig(weight_bits=7, on_current_variation_sigma=0.05,
                                current_noise_sigma=0.01, adc_bits=8)
        seeds = [101, 102, 103]
        stacked = FeFETCrossbar.from_qubo(integer_qubo, config,
                                          device_seeds=seeds)
        assert stacked.num_devices == 3
        batch = rng.integers(0, 2, size=(3, 5, 10)).astype(float)
        energies = stacked.compute_energies_devices(batch)
        assert energies.shape == (3, 5)
        for d, seed in enumerate(seeds):
            rebuilt = FeFETCrossbar.from_qubo(
                integer_qubo,
                CrossbarConfig(weight_bits=7, on_current_variation_sigma=0.05,
                               current_noise_sigma=0.01, adc_bits=8, seed=seed))
            np.testing.assert_array_equal(energies[d],
                                          rebuilt.compute_energies(batch[d]))

    def test_chip_results_do_not_depend_on_batch_neighbours(self, integer_qubo, rng):
        """Evaluating a chip alone (device selection) reproduces its codes
        from the full-batch evaluation -- per-chip noise determinism."""
        config = CrossbarConfig(weight_bits=7, current_noise_sigma=0.02)
        seeds = [7, 8]
        batch = rng.integers(0, 2, size=(2, 4, 10)).astype(float)
        together = FeFETCrossbar.from_qubo(integer_qubo, config,
                                           device_seeds=seeds)
        full = together.compute_energies_devices(batch)
        alone = FeFETCrossbar.from_qubo(integer_qubo, config,
                                        device_seeds=seeds)
        only_second = alone.compute_energies_devices(
            batch[1][None], devices=np.array([1]))
        np.testing.assert_array_equal(full[1], only_second[0])

    def test_ideal_chips_share_exact_bit_planes(self, integer_qubo, rng):
        """Without variation every chip computes the exact quantized energy
        through the shared-plane fast path."""
        stacked = FeFETCrossbar.from_qubo(integer_qubo,
                                          CrossbarConfig(weight_bits=7),
                                          device_seeds=[1, 2, 3, 4])
        batch = rng.integers(0, 2, size=(4, 6, 10)).astype(float)
        energies = stacked.compute_energies_devices(batch)
        for d in range(4):
            np.testing.assert_array_equal(energies[d],
                                          integer_qubo.energies(batch[d]))

    def test_device_batch_validation(self, integer_qubo):
        stacked = FeFETCrossbar.from_qubo(integer_qubo,
                                          CrossbarConfig(weight_bits=7),
                                          device_seeds=[1, 2])
        with pytest.raises(ValueError):
            stacked.compute_energies_devices(np.zeros((1, 3, 10)))
        with pytest.raises(IndexError):
            stacked.compute_energies_devices(np.zeros((1, 3, 10)),
                                             devices=np.array([2]))
        with pytest.raises(ValueError):
            stacked.compute_energies_devices(np.zeros((2, 10)))
        with pytest.raises(ValueError):
            FeFETCrossbar.from_qubo(integer_qubo, device_seeds=[])


class TestStoredStacks:
    """Chips that share a seed share one stored stack of live bit planes."""

    CONFIG = CrossbarConfig(weight_bits=7, on_current_variation_sigma=0.05,
                            current_noise_sigma=0.02, adc_bits=8)

    def test_repeated_seeds_read_like_one_chip_crossbars(self, integer_qubo,
                                                         rng):
        """Every slice reads bit for bit as a lone crossbar with its seed,
        read for read -- factors, read noise and ADC codes included."""
        seeds = [7, 9, 7, 7]
        stacked = FeFETCrossbar.from_qubo(integer_qubo, self.CONFIG,
                                          device_seeds=seeds)
        lone = [FeFETCrossbar.from_qubo(
                    integer_qubo, dataclasses.replace(self.CONFIG, seed=seed))
                for seed in seeds]
        for devices in ([0, 1, 2, 3], [3, 1], [0, 1, 2, 3], [2]):
            batch = rng.integers(0, 2, size=(len(devices), 5, 10)).astype(float)
            energies = stacked.compute_energies_devices(
                batch, devices=np.array(devices))
            for k, device in enumerate(devices):
                np.testing.assert_array_equal(
                    energies[k], lone[device].compute_energies(batch[k]))

    def test_unseeded_varied_chips_are_not_merged(self, integer_qubo):
        config = CrossbarConfig(weight_bits=7, on_current_variation_sigma=0.05)
        crossbar = FeFETCrossbar.from_qubo(integer_qubo, config,
                                           device_seeds=[None, None])
        energies = crossbar.compute_energies_devices(np.ones((2, 1, 10)))
        assert energies[0, 0] != energies[1, 0]

    def test_same_seed_chips_are_sampled_and_stored_once(self, rng,
                                                         monkeypatch):
        """Sixteen chips on one seed sample ``2 * bits`` planes of factors,
        not ``16 * 2 * bits``, and take less than twice one chip's memory."""
        qubo = QUBOModel(rng.integers(-100, 101, size=(64, 64)).astype(float))
        config = CrossbarConfig(weight_bits=7, on_current_variation_sigma=0.05,
                                current_noise_sigma=0.02, adc_bits=8,
                                seed=2024)

        def peak(seeds):
            tracemalloc.start()
            try:
                FeFETCrossbar.from_qubo(qubo, config, device_seeds=seeds)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak([2024])  # warm up one-time allocations
        assert peak([2024] * 16) < 2 * peak([2024])

        sampled = []
        original = VariabilityModel.sample_on_current_factors

        def counted(model, count):
            sampled.append(count)
            return original(model, count)

        monkeypatch.setattr(VariabilityModel, "sample_on_current_factors",
                            counted)
        FeFETCrossbar.from_qubo(qubo, config, device_seeds=[2024] * 16)
        assert sampled == [64 * 64] * (2 * 7)

    def test_varied_chip_over_a_zero_qubo_reads_the_offset(self, rng):
        """No plane is live, yet noise and ADC still run over the stack."""
        qubo = QUBOModel(np.zeros((6, 6)), offset=2.5)
        crossbar = FeFETCrossbar.from_qubo(
            qubo, dataclasses.replace(self.CONFIG, seed=3),
            device_seeds=[3, 4])
        batch = rng.integers(0, 2, size=(2, 4, 6)).astype(float)
        np.testing.assert_array_equal(
            crossbar.compute_energies_devices(batch), np.full((2, 4), 2.5))
