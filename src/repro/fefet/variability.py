"""Device-to-device variability model for FeFETs.

Fig. 2(b) of the paper shows ID-VG curves measured on 60 devices: the
threshold voltage of each programmed level spreads by a few tens of
millivolts and the ON current spreads roughly log-normally.  The 1FeFET1R
cell (Fig. 4(a,b)) clamps the ON current with a series resistor precisely to
suppress the latter.  This module samples both variation sources so the CiM
simulators can be exercised with and without non-idealities.

RNG layering
------------
One :class:`VariabilityModel` owns one :class:`numpy.random.SeedSequence` and
one ``Generator`` stream; every sampling method consumes that stream.  Two
contracts make the model usable from both the scalar and the batched
(device-axis) hardware paths:

* **Batch draws replay the scalar order.**  ``sample_threshold_shift(size=N)``
  returns exactly the values ``N`` successive scalar calls would return, and
  :meth:`sample_device_table` returns the interleaved (shift, factor) pairs
  ``N`` successive :class:`~repro.fefet.device.FeFETDevice` constructions
  would sample.  A device-axis array can therefore sample a whole chip in one
  vectorised draw and still be bit-identical to cell-by-cell programming.
* **One spawned stream per chip.**  :meth:`spawn_chips` derives independent
  child models through ``SeedSequence.spawn``, so a Monte-Carlo study over
  ``D`` simulated chips gives every chip its own reproducible stream that
  does not depend on how many chips share the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

SeedLike = Union[int, np.random.SeedSequence, None]


@dataclass
class VariabilityModel:
    """Samples per-device threshold and ON-current deviations.

    Parameters
    ----------
    threshold_sigma:
        Standard deviation (in volts) of the Gaussian threshold-voltage shift
        applied identically to every programmed level of a device.
    on_current_sigma:
        Log-normal sigma of the multiplicative ON-current variation
        (``i_on_actual = i_on_nominal * lognormal(0, sigma)``).
    seed:
        RNG seed (an ``int``, an already-spawned ``SeedSequence``, or ``None``
        for fresh entropy); separate models with the same seed sample
        identical devices.
    """

    threshold_sigma: float = 0.03
    on_current_sigma: float = 0.15
    seed: SeedLike = None

    def __post_init__(self) -> None:
        if self.threshold_sigma < 0 or self.on_current_sigma < 0:
            raise ValueError("variability sigmas must be non-negative")
        if isinstance(self.seed, np.random.SeedSequence):
            self._seed_sequence = self.seed
        else:
            self._seed_sequence = np.random.SeedSequence(self.seed)
        self._rng = np.random.default_rng(self._seed_sequence)

    @classmethod
    def ideal(cls) -> "VariabilityModel":
        """A variation-free model (useful for functional unit tests)."""
        return cls(threshold_sigma=0.0, on_current_sigma=0.0, seed=0)

    # ------------------------------------------------------------------ #
    # Sampling (scalar and batched views over the same stream)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _check_size(size: int) -> int:
        count = int(size)
        if count < 0:
            raise ValueError("count must be non-negative")
        return count

    def sample_threshold_shift(
        self, size: Optional[int] = None
    ) -> Union[float, np.ndarray]:
        """Gaussian threshold-voltage shift(s) in volts.

        Without ``size`` returns one scalar shift; with ``size=N`` returns an
        array of ``N`` shifts drawn in one batch, bit-identical to ``N``
        successive scalar calls (zero-sigma models consume no stream either
        way).
        """
        if size is None:
            if self.threshold_sigma == 0.0:
                return 0.0
            return float(self._rng.normal(0.0, self.threshold_sigma))
        count = self._check_size(size)
        if self.threshold_sigma == 0.0:
            return np.zeros(count)
        return self._rng.normal(0.0, self.threshold_sigma, size=count)

    def sample_on_current_factor(
        self, size: Optional[int] = None
    ) -> Union[float, np.ndarray]:
        """Multiplicative ON-current factor(s) (log-normal, mean ~1).

        Scalar without ``size``; with ``size=N`` a one-batch draw replaying
        the sequential scalar order exactly.
        """
        if size is None:
            if self.on_current_sigma == 0.0:
                return 1.0
            return float(self._rng.lognormal(0.0, self.on_current_sigma))
        count = self._check_size(size)
        if self.on_current_sigma == 0.0:
            return np.ones(count)
        return self._rng.lognormal(0.0, self.on_current_sigma, size=count)

    def sample_threshold_shifts(self, count: int) -> np.ndarray:
        """Vectorised threshold shifts for ``count`` devices."""
        return np.asarray(self.sample_threshold_shift(size=count))

    def sample_on_current_factors(self, count: int) -> np.ndarray:
        """Vectorised ON-current factors for ``count`` devices."""
        return np.asarray(self.sample_on_current_factor(size=count))

    def sample_device_table(self, num_devices: int) -> Tuple[np.ndarray, np.ndarray]:
        """(shifts, factors) for ``num_devices`` devices in construction order.

        Each :class:`~repro.fefet.device.FeFETDevice` samples its threshold
        shift and then its ON-current factor; programming an array therefore
        interleaves the two draws cell by cell.  This method reproduces that
        interleaved stream consumption in one vectorised draw: both
        ``Generator.normal`` and ``Generator.lognormal`` reduce to scaled
        standard normals, so one ``standard_normal(2 * N)`` batch carries the
        exact values of ``N`` sequential (shift, factor) pairs.  The factors
        are read by replaying the same ``2 * N`` draws through
        ``Generator.lognormal`` from the saved bit-generator state and
        keeping every second entry -- its per-element libm ``exp`` is the
        scalar sampler's, which numpy's SIMD ``np.exp`` can miss by one ulp.
        Zero-sigma components are skipped without consuming the stream,
        exactly as the scalar samplers do.
        """
        count = self._check_size(num_devices)
        t_sigma, o_sigma = self.threshold_sigma, self.on_current_sigma
        if t_sigma == 0.0 and o_sigma == 0.0:
            return np.zeros(count), np.ones(count)
        if t_sigma > 0.0 and o_sigma > 0.0:
            bit_generator = self._rng.bit_generator
            state = bit_generator.state
            factors = self._rng.lognormal(0.0, o_sigma, size=2 * count)[1::2]
            bit_generator.state = state
            draws = self._rng.standard_normal(2 * count)
            return t_sigma * draws[0::2], factors
        if t_sigma > 0.0:
            return self.sample_threshold_shifts(count), np.ones(count)
        return np.zeros(count), self.sample_on_current_factors(count)

    # ------------------------------------------------------------------ #
    # Chip spawning (the per-chip stream layer)
    # ------------------------------------------------------------------ #
    def spawn_chips(self, num_chips: int) -> List["VariabilityModel"]:
        """Derive one independent child model per simulated chip.

        Children are spawned from this model's ``SeedSequence``, so every
        chip samples from its own statistically independent stream; for a
        fixed parent seed the ``d``-th chip is identical regardless of how
        many chips share the batch.  Successive calls keep spawning fresh
        (deterministic) children rather than repeating earlier ones.
        """
        count = self._check_size(num_chips)
        return [
            VariabilityModel(self.threshold_sigma, self.on_current_sigma, seed=child)
            for child in self._seed_sequence.spawn(count)
        ]
