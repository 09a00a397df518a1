"""Analog-to-digital converter model for crossbar column readout.

The crossbar (paper Fig. 6(a)) senses every column current with an ADC before
the digital add-shift-sum stage.  The behavioural model quantizes a
non-negative analog value to ``2^bits`` uniform levels over ``[0, full_scale]``
with optional input-referred noise, clipping out-of-range inputs.

The model carries the device axis of the hardware stack: constructed with
``device_seeds`` it owns one independent noise stream per simulated chip, and
:meth:`convert_devices` / :meth:`quantize_devices` treat the leading axis of
their input as that chip axis.  Each chip's noise is then a pure function of
its own seed -- slicing a chip out of a batch, or batching it with different
neighbours, cannot change its codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.cim.device_axis import resolve_device_selection


@dataclass
class ADCModel:
    """Uniform ADC with ``bits`` of resolution over ``[0, full_scale]``.

    Parameters
    ----------
    bits:
        Resolution in bits (1..16 supported).
    full_scale:
        Analog input that maps to the top code.
    noise_sigma:
        Standard deviation of Gaussian input-referred noise, in the same
        units as the input (0 disables noise).
    seed:
        RNG seed for the noise source (the single-device stream, and the
        stream behind the scalar/array methods).
    device_seeds:
        Optional per-chip noise seeds.  When given, the model represents one
        ADC instance per simulated chip: device ``d`` draws its noise from
        ``default_rng(device_seeds[d])``, so its codes are reproducible per
        chip regardless of batch composition.  The scalar methods keep using
        device 0.
    """

    bits: int = 8
    full_scale: float = 1.0
    noise_sigma: float = 0.0
    seed: Optional[int] = None
    device_seeds: Optional[Sequence[Optional[int]]] = None

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 16:
            raise ValueError("ADC resolution must be between 1 and 16 bits")
        if self.full_scale <= 0:
            raise ValueError("full_scale must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        if self.device_seeds is None:
            self._rngs = [np.random.default_rng(self.seed)]
        else:
            seeds = list(self.device_seeds)
            if not seeds:
                raise ValueError("device_seeds must name at least one device")
            self._rngs = [np.random.default_rng(s) for s in seeds]
        self._rng = self._rngs[0]

    @property
    def num_devices(self) -> int:
        """Number of device slices (independent noise streams)."""
        return len(self._rngs)

    @property
    def num_levels(self) -> int:
        """Number of output codes (``2^bits``)."""
        return 1 << self.bits

    @property
    def lsb(self) -> float:
        """Analog value of one least-significant bit."""
        return self.full_scale / (self.num_levels - 1)

    def convert(self, value: float) -> int:
        """Quantize a single analog value to its output code."""
        noisy = value + (self._rng.normal(0.0, self.noise_sigma) if self.noise_sigma else 0.0)
        clipped = min(max(noisy, 0.0), self.full_scale)
        return int(round(clipped / self.lsb))

    def convert_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`convert` over an array of analog values."""
        arr = np.asarray(values, dtype=float)
        if self.noise_sigma:
            arr = arr + self._rng.normal(0.0, self.noise_sigma, size=arr.shape)
        clipped = np.clip(arr, 0.0, self.full_scale)
        return np.round(clipped / self.lsb).astype(int)

    def convert_devices(self, values: np.ndarray,
                        devices: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-chip :meth:`convert_array`: axis 0 of ``values`` selects chips.

        Slice ``k`` draws its noise from device ``devices[k]``'s own stream
        (all devices in order when ``devices`` is omitted), so each chip's
        codes are deterministic in its own seed alone.
        """
        return self._device_codes(values, devices).astype(int)

    def _device_codes(self, values: np.ndarray,
                      devices: Optional[np.ndarray]) -> np.ndarray:
        """:meth:`convert_devices`' codes as a fresh float array."""
        arr = np.asarray(values, dtype=float)
        if arr.ndim < 1:
            raise ValueError("device-axis conversion needs a leading device axis")
        selected = resolve_device_selection(arr.shape[0], devices,
                                            self.num_devices, kind="ADC batch")
        if self.noise_sigma:
            arr = arr.copy()
            for k, device in enumerate(selected):
                arr[k] += self._rngs[device].normal(0.0, self.noise_sigma,
                                                    size=arr.shape[1:])
        codes = np.clip(arr, 0.0, self.full_scale)
        codes /= self.lsb
        return np.round(codes, out=codes)

    def reconstruct(self, code: int) -> float:
        """Analog value corresponding to an output code (mid-tread)."""
        return float(code) * self.lsb

    def reconstruct_array(self, codes: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`reconstruct`."""
        return np.asarray(codes, dtype=float) * self.lsb

    def quantize(self, value: float) -> float:
        """Round-trip convert + reconstruct (quantized analog value)."""
        return self.reconstruct(self.convert(value))

    def quantize_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`quantize`."""
        return self.reconstruct_array(self.convert_array(values))

    def quantize_devices(self, values: np.ndarray,
                         devices: Optional[np.ndarray] = None) -> np.ndarray:
        """Round-trip :meth:`convert_devices` + :meth:`reconstruct_array`.

        The codes stay floats between the two steps -- exact, being
        integers far below ``2**53`` -- and are scaled in place.
        """
        codes = self._device_codes(values, devices)
        codes *= self.lsb
        return codes
