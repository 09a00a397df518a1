"""Two-stage voltage comparator (paper Fig. 5(c-e)).

The inequality filter compares the working-array matchline voltage against the
replica-array matchline voltage.  The paper uses a differential pre-amplifier
followed by a dynamic latched comparator; behaviourally the decision is

    decide(v_plus, v_minus)  =  (v_plus + offset + noise) >= v_minus

where ``offset`` is a static input-referred offset sampled once per comparator
instance (mismatch) and ``noise`` is per-decision Gaussian noise.  Both are
zero by default so functional tests are deterministic; the non-ideality
ablation benchmark sweeps them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class TwoStageComparator:
    """Behavioural latched voltage comparator.

    Parameters
    ----------
    static_offset_sigma:
        Standard deviation (volts) of the static input-referred offset,
        sampled once at construction.
    noise_sigma:
        Standard deviation (volts) of per-decision Gaussian noise.
    seed:
        RNG seed for both the offset sample and the per-decision noise.
    """

    static_offset_sigma: float = 0.0
    noise_sigma: float = 0.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.static_offset_sigma < 0 or self.noise_sigma < 0:
            raise ValueError("comparator sigmas must be non-negative")
        self._rng = np.random.default_rng(self.seed)
        self._offset = (
            float(self._rng.normal(0.0, self.static_offset_sigma))
            if self.static_offset_sigma
            else 0.0
        )
        self._num_decisions = 0

    @property
    def offset(self) -> float:
        """The sampled static input-referred offset (volts)."""
        return self._offset

    @property
    def num_decisions(self) -> int:
        """How many comparisons this instance has performed.

        Counts :meth:`decide` / :meth:`decide_batch` calls only.  A noise-free
        :class:`~repro.cim.inequality_filter.InequalityFilter` settles its
        verdict methods on per-chip load limits without calling the
        comparator; its :meth:`evaluate` readouts, and every verdict of a
        noisy filter, still count here.
        """
        return self._num_decisions

    def decide(self, v_plus: float, v_minus: float) -> bool:
        """``True`` when the positive input is at or above the negative input.

        In the inequality filter, ``v_plus`` is the working-array matchline
        and ``v_minus`` the replica matchline: ``True`` therefore means
        ``w . x <= C`` (feasible).
        """
        noise = float(self._rng.normal(0.0, self.noise_sigma)) if self.noise_sigma else 0.0
        self._num_decisions += 1
        return (v_plus + self._offset + noise) >= v_minus

    def decide_batch(self, v_plus: np.ndarray, v_minus: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`decide` over aligned arrays of voltages."""
        plus = np.asarray(v_plus, dtype=float)
        minus = np.asarray(v_minus, dtype=float)
        if plus.shape != minus.shape:
            raise ValueError("comparator inputs must have matching shapes")
        noise = (
            self._rng.normal(0.0, self.noise_sigma, size=plus.shape)
            if self.noise_sigma
            else np.zeros_like(plus)
        )
        self._num_decisions += int(plus.size)
        return (plus + self._offset + noise) >= minus
