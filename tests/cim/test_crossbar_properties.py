"""Hypothesis property: an ideal crossbar's MVM is the add-shift-sum.

An ideal chip (no ON-current variation, read noise or ADC) evaluates
``x^T Q_q x`` as one matrix-vector product with its stored integer matrix
instead of reading bit plane by bit plane.  This pins that shortcut to the
hardware's per-plane add-shift-sum, recomputed here from the bit planes,
bit for bit -- over signed integer matrices, weight widths from 1 to 12
bits (lossy scaling included) and any number of chips.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cim.crossbar import CrossbarConfig, FeFETCrossbar
from repro.core.qubo import QUBOModel


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
