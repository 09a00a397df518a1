"""Hypothesis properties: every crossbar read is the per-plane add-shift-sum.

An ideal chip (no ON-current variation, read noise or ADC) evaluates
``x^T Q_q x`` as one matrix-vector product with its stored integer matrix
instead of reading bit plane by bit plane.  This pins that shortcut to the
hardware's per-plane add-shift-sum, recomputed here from the bit planes,
bit for bit -- over signed integer matrices, weight widths from 1 to 12
bits (lossy scaling included) and any number of chips.

A non-ideal chip reads all of its bit planes in one pass.  The second
property pins that pass to the same add-shift-sum read one plane at a time
-- ON-current factors, read noise and ADC codes drawn from fresh per-chip
streams in the plane-by-plane order -- bit for bit, for any selection of
distinct chips in any order.  Chip seeds come from a pool of two, so chips
repeat (and share one stored stack), and the matrix is signed, one-signed
or zero, so whole signs and single bit planes are dead.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cim.crossbar import CrossbarConfig, FeFETCrossbar
from repro.core.qubo import QUBOModel
from repro.fefet.variability import VariabilityModel


@st.composite
def ideal_crossbars(draw, max_variables=24, max_chips=3, max_replicas=5):
    """A signed-integer QUBO, a weight width, a chip count and a batch."""
    n = draw(st.integers(1, max_variables))
    bits = draw(st.integers(1, 12))
    chips = draw(st.integers(1, max_chips))
    replicas = draw(st.integers(1, max_replicas))
    magnitude = draw(st.sampled_from([1, 7, 100, 5000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    matrix = rng.integers(-magnitude, magnitude + 1, size=(n, n)).astype(float)
    offset = float(rng.integers(-50, 51))
    batch = (rng.random((chips, replicas, n)) < 0.5).astype(float)
    return QUBOModel(matrix, offset=offset), bits, chips, batch


def add_shift_sum(crossbar: FeFETCrossbar, batch: np.ndarray) -> np.ndarray:
    """Per-plane column currents, shifted by ``2**b`` and summed, per sign."""
    matrix = crossbar.qubo.matrix
    scale = crossbar.quantization_scale
    total = np.zeros(batch.shape[:2])
    for sign, part in ((1, np.maximum(matrix, 0.0)),
                       (-1, np.maximum(-matrix, 0.0))):
        codes = np.round(part * scale).astype(np.int64)
        for b in range(crossbar.config.weight_bits):
            plane = ((codes >> b) & 1).astype(float)
            column_currents = (batch @ plane) * batch
            total += sign * column_currents.sum(axis=2) * (2 ** b)
    return total / scale + crossbar.qubo.offset


class TestIdealMVMIsAddShiftSum:
    @given(ideal_crossbars())
    @settings(max_examples=80, deadline=None)
    def test_device_energies_equal_add_shift_sum(self, case):
        qubo, bits, chips, batch = case
        crossbar = FeFETCrossbar.from_qubo(
            qubo, CrossbarConfig(weight_bits=bits),
            device_seeds=list(range(chips)))
        np.testing.assert_array_equal(
            crossbar.compute_energies_devices(batch),
            add_shift_sum(crossbar, batch))


@st.composite
def non_ideal_crossbars(draw, max_variables=16, max_chips=4, max_replicas=4):
    """A QUBO, a non-ideal config, chip seeds and a batch on distinct chips.

    The matrix is signed, all ``<= 0``, all ``>= 0`` or all zero, and the
    chip seeds are drawn from a pool of two values.
    """
    n = draw(st.integers(1, max_variables))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    magnitude = draw(st.sampled_from([1, 7, 100]))
    matrix = rng.integers(-magnitude, magnitude + 1, size=(n, n)).astype(float)
    if draw(st.booleans()):
        matrix = matrix + rng.random((n, n)) - 0.5
    sign = draw(st.sampled_from(["signed", "non-positive", "non-negative",
                                 "zero"]))
    if sign == "non-positive":
        matrix = -np.abs(matrix)
    elif sign == "non-negative":
        matrix = np.abs(matrix)
    elif sign == "zero":
        matrix = np.zeros((n, n))
    config = CrossbarConfig(
        weight_bits=draw(st.integers(1, 8)),
        current_noise_sigma=draw(st.sampled_from([0.0, 0.02, 0.3])),
        adc_bits=draw(st.sampled_from([None, 1, 3, 8])),
        on_current_variation_sigma=draw(st.sampled_from([0.0, 0.05])),
        seed=draw(st.integers(0, 2**16)))
    chips = draw(st.integers(1, max_chips))
    pool = [int(seed) for seed in rng.integers(0, 2**31, size=2)]
    seeds = [pool[i] for i in rng.integers(0, 2, size=chips)]
    devices = rng.permutation(chips)[:draw(st.integers(1, chips))]
    batch = (rng.random((devices.size, draw(st.integers(1, max_replicas)), n))
             < 0.5).astype(float)
    return QUBOModel(matrix, offset=float(rng.integers(-9, 10))), config, \
        seeds, devices, batch


def plane_by_plane_read(crossbar: FeFETCrossbar, seeds, devices,
                        batch: np.ndarray) -> np.ndarray:
    """Read one sign and one bit plane at a time, chips in selection order
    and each replica row on its own.

    Each chip's ON-current factors (positive planes, then negative) and
    read noise come from fresh streams seeded by its chip seed; the column
    ADC spans ``[0, n]`` with ``2**adc_bits`` codes.
    """
    config = crossbar.config
    n = crossbar.num_variables
    bits = config.weight_bits
    scale = crossbar.quantization_scale
    matrix = crossbar.qubo.matrix
    signs = [np.round(np.maximum(sign * matrix, 0.0) * scale).astype(np.int64)
             for sign in (1, -1)]
    planes = [[((codes >> b) & 1).astype(float) for b in range(bits)]
              for codes in signs]
    if config.on_current_variation_sigma > 0:
        models = [VariabilityModel(0.0, config.on_current_variation_sigma,
                                   seed=seed) for seed in seeds]
        factors = [[[model.sample_on_current_factors(n * n).reshape(n, n)
                     for _ in range(bits)] for model in models]
                   for _ in signs]
    noise = [np.random.default_rng(seed) for seed in seeds]
    totals = []
    for sign in range(2):
        total = np.zeros(batch.shape[:2])
        for b in range(bits):
            currents = np.empty(batch.shape)
            for k, chip in enumerate(devices):
                plane = planes[sign][b]
                if config.on_current_variation_sigma > 0:
                    plane = factors[sign][chip][b] * plane
                # Each replica row is a read of its own.
                currents[k] = np.concatenate(
                    [row[None] @ plane for row in batch[k]]) * batch[k]
                if config.current_noise_sigma > 0:
                    currents[k] = np.maximum(currents[k] * (
                        1.0 + noise[chip].normal(
                            0.0, config.current_noise_sigma,
                            size=batch.shape[1:])), 0.0)
            if config.adc_bits is not None:
                lsb = n / (2 ** config.adc_bits - 1)
                currents = np.round(np.clip(currents, 0.0, n) / lsb) * lsb
            total += currents.sum(axis=2) * (2 ** b)
        totals.append(total)
    return (totals[0] - totals[1]) / scale + crossbar.qubo.offset


class TestNonIdealReadIsPlaneByPlane:
    @given(non_ideal_crossbars())
    @settings(max_examples=120, deadline=None)
    def test_one_pass_read_equals_plane_by_plane_read(self, case):
        qubo, config, seeds, devices, batch = case
        crossbar = FeFETCrossbar.from_qubo(qubo, config, device_seeds=seeds)
        np.testing.assert_array_equal(
            crossbar.compute_energies_devices(batch, devices=devices),
            plane_by_plane_read(crossbar, seeds, devices, batch))
