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
rebuilt scalar crossbar with that seed would exhibit).  Chips that share an
integer seed sample the same factors, so they share one stored
conductance stack, and only the *live* bit planes (those with at least one
set cell) are stored at all: a one-signed matrix, such as the QKP and
MD-QKP inequality QUBOs, keeps half of them.
:meth:`FeFETCrossbar.compute_energies_devices` evaluates a ``(D, M, n)``
batch in one pass -- one MVM in all for an ideal chip, otherwise every bit
plane of every chip read at once, with one noise draw per chip and one ADC
call -- and the scalar :meth:`FeFETCrossbar.compute_energy` / single-chip
:meth:`FeFETCrossbar.compute_energies` are degenerate views over it.
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
        matrix.  Otherwise each sign is sliced into bit planes and only the
        live ones are kept, as one ``(L, n, n)`` conductance stack: the 0/1
        planes, shared by every chip, or with ON-current variation one
        stack per distinct chip seed with its sampled factors folded in.
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
        #: ``None`` on an ideal chip; otherwise the ``(U, L, n, n)`` live
        #: planes of ``U`` stored stacks and the live planes' indices
        #: ``sign * bits + b`` (positive planes first).  Chip ``d`` reads
        #: ``_stacks[_stack_of[d]]``, or the one shared 0/1 stack where
        #: ``_stack_of`` is ``None``.
        self._stacks: Optional[np.ndarray] = None
        self._stack_of: Optional[np.ndarray] = None
        if not ideal:
            self._live, planes = self._slice_bits(positive, negative)
            if config.on_current_variation_sigma > 0:
                self._stacks, self._stack_of = \
                    self._fold_on_current_factors(planes)
            else:
                self._stacks = planes.astype(float)[None]

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

    def _slice_bits(self, positive: np.ndarray, negative: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """The live planes' indices and their ``(L, n, n)`` 0/1 patterns.

        Plane ``sign * bits + b`` holds bit ``b`` of one sign's codes; it is
        live when any of its cells is set, that is when the OR of all of
        that sign's codes has bit ``b``.  Dead planes are never built.
        """
        bits = self.config.weight_bits
        live, planes = [], []
        for sign, codes in enumerate((positive, negative)):
            present = int(np.bitwise_or.reduce(codes, axis=None))
            for b in range(bits):
                if (present >> b) & 1:
                    live.append(sign * bits + b)
                    planes.append(((codes >> b) & 1).astype(np.uint8))
        return (np.array(live, dtype=np.intp),
                np.array(planes, dtype=np.uint8).reshape(
                    len(live), *positive.shape))

    def _fold_on_current_factors(self, planes: np.ndarray
                                 ) -> Tuple[np.ndarray, np.ndarray]:
        """One ``(L, n, n)`` stack of effective conductances per chip seed.

        Returns the ``(U, L, n, n)`` stacks and the ``(D,)`` index of each
        chip's stack.  Chips with the same integer seed would sample
        bit-identical factors, so they share a stack; a ``None`` seed (fresh
        entropy) or any other seed gets one of its own.  Each stack samples
        ``n * n`` factors per plane from its seed in program order
        (positive planes first, then negative), exactly as a freshly built
        scalar crossbar with that seed would, and keeps the live planes'
        draws multiplied by their 0/1 ``planes``; a dead plane's draws are
        taken and dropped.
        """
        n = self._n
        sigma = self.config.on_current_variation_sigma
        slots = dict(zip(self._live.tolist(), range(self._live.size)))
        first, seeds = {}, []
        stack_of = np.empty(self.num_devices, dtype=np.intp)
        for d, seed in enumerate(self._device_seeds):
            key = seed if isinstance(seed, (int, np.integer)) else ("chip", d)
            if key not in first:
                first[key] = len(seeds)
                seeds.append(seed)
            stack_of[d] = first[key]
        stacks = np.empty((len(seeds), self._live.size, n, n))
        for stack, seed in zip(stacks, seeds):
            chip = VariabilityModel(threshold_sigma=0.0, on_current_sigma=sigma,
                                    seed=seed)
            for plane in range(2 * self.config.weight_bits):
                factors = chip.sample_on_current_factors(n * n).reshape(n, n)
                if plane in slots:
                    np.multiply(factors, planes[slots[plane]],
                                out=stack[slots[plane]])
        return stacks, stack_of

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

    def _read_planes(self, batch: np.ndarray,
                     devices: np.ndarray) -> np.ndarray:
        """Add-shift-sum read of every bit plane of both signs in one pass.

        ``batch`` is a ``(K, M, n)`` replica tensor whose slice ``k`` runs on
        chip ``devices[k]``.  All ``2 * bits`` planes land in one zeroed
        ``(K, 2, bits, M, n)`` column-current stack, of which only the
        ``L`` live planes are computed; dead planes read ``+0.0``, as their
        all-zero conductances would.  Shared 0/1 planes take one stacked
        product over the flattened replica axis (exact).  Varied
        conductances take one product per stored stack over the slices on
        it, made of one ``(1, n) @ (n, n)`` product per replica row and
        plane, so a row's floats are those of a lone row's read whatever
        ``M`` is (a product over ``M`` rows may associate its sums
        differently).  Slice ``k`` then draws its read noise for the whole
        stack at once from chip ``devices[k]``'s stream -- for distinct
        chips the very values a plane-by-plane read draws (positive planes,
        then negative, one plane at a time, dead planes included); a chip
        named twice draws slice by slice rather than interleaved plane by
        plane.  One ADC call digitises the stack, dead planes' zeros
        included, and each sign's per-plane row sums are shifted by
        ``2**b`` and added in increasing ``b``.  Returns the ``(K, M)``
        positive-minus-negative sums.
        """
        config = self.config
        bits = config.weight_bits
        num_chips, num_replicas, n = batch.shape
        currents = np.zeros((num_chips, 2, bits, num_replicas, n))
        planes = currents.reshape(num_chips, 2 * bits, num_replicas, n)
        if self._stack_of is None:
            flat = batch.reshape(num_chips * num_replicas, n)
            planes[:, self._live] = (flat @ self._stacks[0]).reshape(
                -1, num_chips, num_replicas, n).swapaxes(0, 1)
        else:
            stack_of = self._stack_of[devices]
            for stack in np.unique(stack_of):
                slices = np.flatnonzero(stack_of == stack)
                products = np.matmul(batch[slices][:, None, :, None],
                                     self._stacks[stack][:, None])
                planes[slices[:, None], self._live] = products[..., 0, :]
        currents *= batch[:, None, None]
        if config.current_noise_sigma > 0:
            for k, device in enumerate(devices):
                currents[k] *= 1.0 + self._noise_rngs[device].normal(
                    0.0, config.current_noise_sigma, size=currents.shape[1:])
            np.maximum(currents, 0.0, out=currents)
        if self._adc is not None:
            currents = self._adc.quantize_devices(
                currents,
                devices=(devices if self._adc.num_devices > 1 else
                         np.zeros(num_chips, dtype=int)))
        plane_sums = currents.sum(axis=-1)
        totals = np.zeros((num_chips, 2, num_replicas))
        for b in range(bits):
            totals += plane_sums[:, :, b] * (2 ** b)
        return totals[:, 0] - totals[:, 1]

    def compute_energies(self, configurations: np.ndarray) -> np.ndarray:
        """Evaluate an ``(M, n)`` batch of configurations on chip 0.

        The single-chip view over :meth:`compute_energies_devices`: one
        read covers every replica row, with read noise and ADC quantization
        applied per replica.  Noise-free results
        equal the scalar path's bit for bit; with read noise enabled the
        draw order differs from ``M`` scalar calls, so noisy batches are
        reproducible at batch granularity only.
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
        neighbours.  A selection naming one noisy chip twice draws that
        chip's read noise slice by slice (see :meth:`_read_planes`).
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
        if self._stacks is None:
            # Ideal chip: every add-shift-sum partial is an integer below
            # 2**53, so one MVM with the stored matrix is bit-identical.
            energies = ((batch @ self._codes) * batch).sum(-1)
        else:
            energies = self._read_planes(batch, selected)
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
