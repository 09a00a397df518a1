"""Acceptance rules: who decides whether a proposed move is taken.

Per the ARCHITECTURE.md shape contract, the batched ``(M,)``-shaped decision
is the **only** decision code path: :meth:`AcceptanceRule.accept` decides for
a whole replica batch while preserving each replica's ``Generator`` stream,
and every annealer -- a one-replica trial included -- decides through it.
:meth:`AcceptanceRule.accept_scalar` is the ``M = 1`` view over the same
decision for one-off callers outside the engines, so a borderline uniform
draw cannot decide differently between them.

:class:`MetropolisRule` is the rule of the paper's SA logic (and the only
built-in today): always accept downhill moves, accept an uphill move of size
``delta`` at temperature ``T`` with probability ``exp(-delta / T)``.
:func:`metropolis_decisions` is that rule over pre-drawn uniforms, the one
vectorised form: the shared-RNG mode's :meth:`MetropolisRule.accept_batch`
and the replayed streams of :mod:`repro.kernels.streams` both decide
through it.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

TemperatureLike = Union[float, np.ndarray]


#: Draws within this relative distance of the vectorised probability are
#: re-judged with the scalar rule (``np.exp`` vs ``math.exp`` last-ulp
#: disagreement is far inside this margin).
_BORDERLINE_RTOL = 8e-16


def acceptance_probability(delta: float, temperature: float) -> float:
    """Metropolis acceptance probability for an energy increase ``delta``.

    ``delta <= 0`` is always accepted; otherwise ``exp(-delta / T)``.
    """
    if delta <= 0:
        return 1.0
    if temperature <= 0:
        return 0.0
    exponent = -delta / temperature
    if exponent < -700:
        return 0.0
    return math.exp(exponent)


def metropolis_decisions(step: np.ndarray, temperatures: TemperatureLike,
                         draws: np.ndarray) -> np.ndarray:
    """Vectorised Metropolis verdicts, bit-identical to the scalar rule.

    ``temperatures`` is a scalar (flat batch) or already gathered to the
    same shape as ``step`` (ladder rows indexed by the listed replicas).
    ``np.exp`` and ``math.exp`` may disagree in the last ulp, so any draw
    landing within a few ulps of the vectorised probability is re-judged
    through :func:`acceptance_probability`; the re-judge triggers with
    probability ~1e-15 per draw.
    """
    if isinstance(temperatures, np.ndarray):
        positive = temperatures > 0.0
        exponent = np.where(positive,
                            -step / np.where(positive, temperatures, 1.0),
                            -np.inf)
    elif temperatures <= 0.0:
        return step <= 0.0
    else:
        exponent = -step / temperatures
    # Exponents past the double range underflow to exactly 0, matching the
    # scalar rule; flushing is intended, so mask the underflow flag.
    with np.errstate(under="ignore"):
        probability = np.where(exponent < -700.0, 0.0,
                               np.exp(np.minimum(exponent, 0.0)))
    decisions = (step <= 0.0) | (draws < probability)
    # A draw within a few ulps of the probability could be decided by the
    # np.exp-vs-math.exp last ulp; re-judge those through the scalar rule.
    borderline = (np.abs(draws - probability)
                  <= _BORDERLINE_RTOL * probability) & (step > 0.0)
    if borderline.any():  # pragma: no cover - ~1e-15 per draw
        for index in np.flatnonzero(borderline):
            temperature = (float(temperatures[index])
                           if isinstance(temperatures, np.ndarray)
                           else float(temperatures))
            decisions[index] = draws[index] < acceptance_probability(
                float(step[index]), temperature)
    return decisions


class AcceptanceRule(ABC):
    """Decides, per replica, whether a proposed move replaces the incumbent."""

    @abstractmethod
    def accept(self, delta: np.ndarray, temperatures: TemperatureLike,
               uniform_draws: Sequence[Callable[[], float]],
               replica_indices: np.ndarray) -> np.ndarray:
        """Stream-preserving decisions for the listed replicas.

        Parameters
        ----------
        delta:
            Energy increases, one per entry of ``replica_indices``.
        temperatures:
            A scalar temperature shared by all replicas, or an ``(M,)`` array
            indexed by *absolute* replica id (a per-replica ladder).
        uniform_draws:
            ``uniform_draws[k]`` is replica ``k``'s bound
            ``Generator.random`` -- exactly one draw is consumed per listed
            replica, from that replica's own stream, whatever the decision.
        replica_indices:
            Absolute replica ids of the ``delta`` entries.
        """

    @abstractmethod
    def accept_batch(self, delta: np.ndarray, temperatures: TemperatureLike,
                     draws: np.ndarray) -> np.ndarray:
        """Vectorised decisions from pre-drawn uniforms (shared-stream mode).

        ``temperatures`` is a scalar or an array already aligned with
        ``delta``.  Used by the chip-faithful shared-RNG mode, where all
        replicas draw from one stream and exact per-replica stream parity is
        deliberately given up for batched draws.
        """

    def accept_scalar(self, delta: float, temperature: float,
                      rng: np.random.Generator) -> bool:
        """The ``M = 1`` view over :meth:`accept` (one replica, one draw)."""
        return bool(self.accept(
            np.array([float(delta)]), float(temperature), (rng.random,),
            np.zeros(1, dtype=np.intp))[0])


@dataclass
class MetropolisRule(AcceptanceRule):
    """The Metropolis criterion of the paper's SA logic (Fig. 6(b)).

    Exactly one uniform draw per listed replica, from that replica's own
    generator, compared against the *scalar* :func:`acceptance_probability`
    (the same ``math.exp`` for every engine, so a borderline draw cannot
    decide differently due to a vectorised-exp ulp).
    """

    def accept(self, delta: np.ndarray, temperatures: TemperatureLike,
               uniform_draws: Sequence[Callable[[], float]],
               replica_indices: np.ndarray) -> np.ndarray:
        per_replica = isinstance(temperatures, np.ndarray) and temperatures.ndim > 0
        decisions = np.empty(replica_indices.shape[0], dtype=bool)
        for position, (replica, step) in enumerate(
                zip(replica_indices.tolist(), np.asarray(delta).tolist())):
            draw = uniform_draws[replica]()
            temperature = (float(temperatures[replica]) if per_replica
                           else float(temperatures))
            # delta <= 0 is always accepted (probability 1 > any uniform
            # draw), but the draw above still happens to keep the stream
            # at one draw per feasible candidate.
            decisions[position] = step <= 0 or \
                draw < acceptance_probability(float(step), temperature)
        return decisions

    def accept_batch(self, delta: np.ndarray, temperatures: TemperatureLike,
                     draws: np.ndarray) -> np.ndarray:
        if not (isinstance(temperatures, np.ndarray) and temperatures.ndim):
            temperatures = float(temperatures)
        return metropolis_decisions(np.asarray(delta, dtype=float),
                                    temperatures,
                                    np.asarray(draws, dtype=float))
