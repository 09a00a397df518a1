"""FeFET-based CiM crossbar for QUBO computation (paper Sec. 3.4, Fig. 6(a)).

The crossbar stores the QUBO matrix ``Q`` bit-sliced: each matrix element is
quantized to ``M`` magnitude bits, and every bit plane of every column of
``Q`` occupies one physical crossbar column of 1-bit 1FeFET1R cells.  During a
QUBO computation the input vector ``x`` drives both the wordlines (gates,
``x^T``) and the drain lines (``x``); every cell therefore contributes
``x_j * q_bit * x_i`` to its column current (the single-transistor
multiplication of Fig. 2(c)).  Column currents are digitised by per-column
ADCs and combined by the add-shift-sum peripheral logic into the VMV result
``x^T Q x``.

Signed matrices are handled with the standard differential mapping: positive
and negative parts of ``Q`` are stored in separate bit-sliced planes and
subtracted digitally.

The model includes the analog non-idealities that matter at array level:
per-cell ON-current variation (static, sampled at program time), readout
noise and ADC quantization.  With all non-idealities disabled the crossbar is
bit-exact with the quantized matrix, which the unit tests rely on: the
add-shift-sum of exact integer planes is then one integer MVM with the
stored matrix, and that is how an ideal chip evaluates.

Device axis
-----------
Constructed with ``device_seeds`` the crossbar simulates one programmed chip
per seed: chip ``d`` samples its static ON-current factors, draws its read
noise and runs its column ADCs from streams seeded by ``device_seeds[d]``
alone, so each chip's analog behaviour is reproducible independently of
which other chips share a batch (the same per-chip determinism a freshly
rebuilt scalar crossbar with that seed would exhibit).
:meth:`FeFETCrossbar.compute_energies_devices` evaluates a ``(D, M, n)``
batch -- one MVM per bit plane (one in all for an ideal chip) covering every
chip and replica -- and the scalar :meth:`FeFETCrossbar.compute_energy` /
single-chip :meth:`FeFETCrossbar.compute_energies` are degenerate views over
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.cim.adc import ADCModel
from repro.cim.device_axis import resolve_device_selection
from repro.core.qubo import QUBOModel
from repro.fefet.variability import VariabilityModel


@dataclass(frozen=True)
class CrossbarConfig:
    """Configuration of the bit-sliced QUBO crossbar.

    Attributes
    ----------
    weight_bits:
        Magnitude bits ``M`` per matrix element.
    cell_on_current:
        Nominal ON current of one cell (amperes); sets the analog scale of the
        column currents reported by :meth:`FeFETCrossbar.column_current`.
    current_noise_sigma:
        Relative (fractional) Gaussian read noise applied to every column
        current at every evaluation.
    adc_bits:
        Column ADC resolution.  ``None`` disables ADC quantization (ideal
        digitisation), which is also the setting used when a plane's dynamic
        range already fits the ADC.
    on_current_variation_sigma:
        Log-normal sigma of the static per-cell ON-current variation sampled
        at program time.
    seed:
        RNG seed for all stochastic components (the single-chip device seed).
    """

    weight_bits: int = 7
    cell_on_current: float = 2e-6
    current_noise_sigma: float = 0.0
    adc_bits: Optional[int] = None
    on_current_variation_sigma: float = 0.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not 1 <= self.weight_bits <= 32:
            raise ValueError("weight_bits must be between 1 and 32")
        if self.cell_on_current <= 0:
            raise ValueError("cell_on_current must be positive")
        if self.current_noise_sigma < 0 or self.on_current_variation_sigma < 0:
            raise ValueError("noise sigmas must be non-negative")
        if self.adc_bits is not None and not 1 <= self.adc_bits <= 16:
            raise ValueError("adc_bits must be between 1 and 16")


class FeFETCrossbar:
    """A bit-sliced FeFET crossbar programmed with a QUBO matrix.

    Use :meth:`from_qubo` to build one; :meth:`compute_energy` evaluates
    ``x^T Q x`` (plus the model offset) through the analog pipeline.  Pass
    ``device_seeds`` to program one chip per seed along the device axis.
    """

    def __init__(self, qubo: QUBOModel, config: Optional[CrossbarConfig] = None,
                 device_seeds: Optional[Sequence[Optional[int]]] = None) -> None:
        self.config = config or CrossbarConfig()
        self.qubo = qubo
        if device_seeds is None:
            self._device_seeds = [self.config.seed]
        else:
            self._device_seeds = list(device_seeds)
            if not self._device_seeds:
                raise ValueError("device_seeds must name at least one chip")
        self._noise_rngs = [np.random.default_rng(seed)
                            for seed in self._device_seeds]
        self._rng = self._noise_rngs[0]
        self._program(qubo.matrix)

    @classmethod
    def from_qubo(cls, qubo: QUBOModel,
                  config: Optional[CrossbarConfig] = None,
                  device_seeds: Optional[Sequence[Optional[int]]] = None,
                  ) -> "FeFETCrossbar":
        """Program a crossbar with the given QUBO model."""
        return cls(qubo, config=config, device_seeds=device_seeds)

    # ------------------------------------------------------------------ #
    # Programming
    # ------------------------------------------------------------------ #
    def _program(self, matrix: np.ndarray) -> None:
        """Quantize the matrix and pick the evaluation path once.

        An ideal chip (no ON-current variation, read noise or ADC, and every
        add-shift-sum partial below ``2**53``) keeps only the signed integer
        matrix.  Otherwise each sign is sliced into bit planes; sampled
        ON-current factors are folded into them here, once per chip.
        """
        n = matrix.shape[0]
        self._n = n
        config = self.config
        bits = config.weight_bits
        max_abs = float(np.max(np.abs(matrix))) if matrix.size else 0.0
        is_integer_matrix = bool(np.all(np.abs(matrix - np.round(matrix)) < 1e-9))
        if max_abs == 0.0:
            self._scale = 1.0
        elif is_integer_matrix and max_abs <= 2 ** bits - 1:
            # Integer matrices that already fit the bit budget are stored
            # losslessly (scale 1), which makes the crossbar bit-exact for the
            # HyCiM QKP mapping (Q_max <= 100 with 7-bit cells).
            self._scale = 1.0
        else:
            self._scale = (2 ** bits - 1) / max_abs
        positive = np.round(np.maximum(matrix, 0.0) * self._scale).astype(np.int64)
        negative = np.round(np.maximum(-matrix, 0.0) * self._scale).astype(np.int64)
        #: The stored signed integer matrix ``Q_q`` (exact in float64).
        self._codes = (positive - negative).astype(float)

        ideal = (config.on_current_variation_sigma == 0
                 and config.current_noise_sigma == 0
                 and config.adc_bits is None
                 and 2 ** bits * n * n < 2 ** 53)
        #: ``None`` on an ideal chip; otherwise the (positive, negative)
        #: bit planes, per chip once ON-current factors are folded in.
        self._planes: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if not ideal:
            # planes[b][j, i] in {0, 1} is bit b of |Q_ji| for one sign.
            self._planes = (self._slice_bits(positive),
                            self._slice_bits(negative))
            if config.on_current_variation_sigma > 0:
                self._planes = self._fold_on_current_factors(self._planes)

        # Column ADC covering the worst-case column current (all n cells ON),
        # one noise stream per chip.
        if config.adc_bits is not None:
            self._adc = ADCModel(
                bits=config.adc_bits, full_scale=float(n),
                seed=config.seed,
                device_seeds=(tuple(self._device_seeds)
                              if self.num_devices > 1 else None))
        else:
            self._adc = None

    def _slice_bits(self, quantized: np.ndarray) -> np.ndarray:
        """Return an array of shape ``(bits, n, n)`` of 0/1 bit planes."""
        bits = self.config.weight_bits
        planes = np.zeros((bits, quantized.shape[0], quantized.shape[1]))
        for b in range(bits):
            planes[b] = (quantized >> b) & 1
        return planes

    def _fold_on_current_factors(self, signs: Tuple[np.ndarray, np.ndarray]
                                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Each chip's ``(D, bits, n, n)`` effective conductances per sign.

        Chip ``d`` samples its static per-cell ON-current factors from its
        own seed in program order (positive planes first, then negative),
        exactly as a freshly built scalar crossbar with that seed would;
        the shared 0/1 planes are multiplied into them in place.
        """
        bits, n, _ = signs[0].shape
        sigma = self.config.on_current_variation_sigma
        chips = [VariabilityModel(threshold_sigma=0.0, on_current_sigma=sigma,
                                  seed=seed)
                 for seed in self._device_seeds]
        folded = []
        for planes in signs:
            conductances = np.empty((len(chips), bits, n, n))
            for chip, var in zip(conductances, chips):
                for b in range(bits):
                    chip[b] = var.sample_on_current_factors(n * n).reshape(n, n)
            conductances *= planes
            folded.append(conductances)
        return tuple(folded)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_variables(self) -> int:
        """QUBO dimension ``n``."""
        return self._n

    @property
    def num_devices(self) -> int:
        """Number of simulated chips ``D`` along the device axis."""
        return len(self._device_seeds)

    @property
    def num_cells(self) -> int:
        """Total 1-bit cells used per chip (both signs, all bit planes)."""
        return 2 * self.config.weight_bits * self._n * self._n

    @property
    def quantization_scale(self) -> float:
        """Multiplier mapping matrix values to integer codes."""
        return self._scale

    def quantized_matrix(self) -> np.ndarray:
        """The signed, quantized matrix actually stored (in original units)."""
        return self._codes / self._scale

    def quantization_error(self) -> float:
        """Max absolute difference between the stored and the exact matrix."""
        return float(np.max(np.abs(self.quantized_matrix() - self.qubo.matrix)))

    # ------------------------------------------------------------------ #
    # Analog evaluation
    # ------------------------------------------------------------------ #
    def compute_energy(self, x: Sequence[int]) -> float:
        """Evaluate ``x^T Q x + offset`` through the analog crossbar pipeline.

        The ``D = M = 1`` view over :meth:`compute_energies_devices`: the
        one-row batch draws the same noise values in the same order and
        performs the identical element-wise ADC quantization, so there is
        exactly one add-shift-sum implementation to keep faithful to the
        hardware.
        """
        vec = np.asarray(list(x) if not isinstance(x, np.ndarray) else x, dtype=float)
        if vec.ndim != 1 or vec.shape[0] != self._n:
            raise ValueError(f"input length {vec.shape} != crossbar dimension {self._n}")
        return float(self.compute_energies(vec[None, :])[0])

    def _accumulate_devices(self, planes: np.ndarray, batch: np.ndarray,
                            devices: np.ndarray) -> np.ndarray:
        """Add-shift-sum accumulation of one sign's bit planes, device-batched.

        ``batch`` is a ``(K, M, n)`` replica tensor whose slice ``k`` runs on
        chip ``devices[k]``.  Shared ``(bits, n, n)`` planes take one matrix
        product per bit plane over the flattened replica axis (the crossbar
        evaluating an array of candidates in one shot); per-chip
        ``(D, bits, n, n)`` conductances one stacked MVM per bit plane.  Read
        noise and ADC quantization are applied element-wise from each chip's
        own stream, i.e. independently per replica row, exactly as the scalar
        path applies them per evaluation.
        """
        num_chips, num_replicas, n = batch.shape
        total = np.zeros((num_chips, num_replicas))
        for b in range(self.config.weight_bits):
            if planes.ndim == 3:
                flat = batch.reshape(num_chips * num_replicas, n)
                column_currents = (flat @ planes[b]).reshape(batch.shape) * batch
            else:
                column_currents = np.matmul(batch, planes[devices, b]) * batch
            if self.config.current_noise_sigma > 0:
                for k, device in enumerate(devices):
                    noise = self._noise_rngs[device].normal(
                        0.0, self.config.current_noise_sigma,
                        size=(num_replicas, n))
                    column_currents[k] = column_currents[k] * (1.0 + noise)
                column_currents = np.maximum(column_currents, 0.0)
            if self._adc is not None:
                column_currents = self._adc.quantize_devices(
                    column_currents,
                    devices=(devices if self._adc.num_devices > 1 else
                             np.zeros(num_chips, dtype=int)))
            total += column_currents.sum(axis=2) * (2 ** b)
        return total

    def compute_energies(self, configurations: np.ndarray) -> np.ndarray:
        """Evaluate an ``(M, n)`` batch of configurations on chip 0.

        The single-chip view over :meth:`compute_energies_devices`: one
        matrix product per bit plane covers every replica row, with read
        noise and ADC quantization applied per replica.  Noise-free results
        equal the scalar path's (bit-for-bit for losslessly stored integer
        matrices); with read noise enabled the draw order differs from ``M``
        scalar calls, so noisy batches are reproducible at batch granularity
        only.
        """
        batch = np.asarray(configurations, dtype=float)
        if batch.ndim == 1:
            batch = batch[None, :]
        if batch.ndim != 2 or batch.shape[1] != self._n:
            raise ValueError(
                f"batch shape {batch.shape} incompatible with crossbar dimension {self._n}"
            )
        return self.compute_energies_devices(batch[None, :, :],
                                             devices=np.zeros(1, dtype=int))[0]

    def compute_energies_devices(self, configurations: np.ndarray,
                                 devices: Optional[np.ndarray] = None,
                                 ) -> np.ndarray:
        """Evaluate a ``(K, M, n)`` device-axis batch in one crossbar pass.

        Slice ``k`` of the batch runs on chip ``devices[k]`` (all chips in
        order when omitted, requiring ``K = D``).  Returns a ``(K, M)``
        energy matrix; each chip's noise and ADC codes come from its own
        seeded streams, so a chip's results do not depend on its batch
        neighbours.
        """
        batch = np.asarray(configurations, dtype=float)
        if batch.ndim != 3 or batch.shape[2] != self._n:
            raise ValueError(
                f"device batch shape {batch.shape} is not (chips, replicas, "
                f"{self._n})"
            )
        if not np.all((batch == 0) | (batch == 1)):
            raise ValueError("crossbar inputs must be binary")
        selected = resolve_device_selection(batch.shape[0], devices,
                                            self.num_devices,
                                            kind="crossbar chip batch")
        if self._planes is None:
            # Ideal chip: every add-shift-sum partial is an integer below
            # 2**53, so one MVM with the stored matrix is bit-identical.
            energies = ((batch @ self._codes) * batch).sum(-1)
        else:
            pos_planes, neg_planes = self._planes
            energies = (self._accumulate_devices(pos_planes, batch, selected)
                        - self._accumulate_devices(neg_planes, batch, selected))
        return energies / self._scale + self.qubo.offset

    def column_current(self, num_activated_cells: int) -> float:
        """Analog current of a column with ``num_activated_cells`` cells ON.

        Reproduces the linearity measurement of Fig. 7(d): the summed column
        current grows linearly with the number of activated cells, with the
        configured per-cell variation and read noise superimposed.
        """
        if not 0 <= num_activated_cells <= self._n:
            raise ValueError(
                f"num_activated_cells must be within 0..{self._n}"
            )
        factors = (
            VariabilityModel(threshold_sigma=0.0,
                             on_current_sigma=self.config.on_current_variation_sigma,
                             seed=None if self.config.seed is None else self.config.seed + 1)
            .sample_on_current_factors(num_activated_cells)
            if self.config.on_current_variation_sigma > 0
            else np.ones(num_activated_cells)
        )
        current = float(np.sum(self.config.cell_on_current * factors))
        if self.config.current_noise_sigma > 0:
            current *= 1.0 + float(self._rng.normal(0.0, self.config.current_noise_sigma))
        return max(0.0, current)

    def linearity_sweep(self, counts: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Column current versus activated-cell count over a sweep of counts."""
        counts_arr = np.asarray(list(counts), dtype=int)
        currents = np.array([self.column_current(int(c)) for c in counts_arr])
        return counts_arr, currents
