"""Per-replica PCG64 lanes, and their vectorised replay in NumPy.

:class:`Lanes` holds every replica's PCG64 state as uint64 lanes, the rows
of one ``(6, M)`` array: state high and low limbs, increment high and low,
and the bit generator's parked 32-bit half (``has_uint32`` / ``uinteger``).
:class:`~repro.dynamics.driver.LoopDriver` owns the lanes of a run and
writes them back into the ``Generator`` objects when it exits; the C draws
(:mod:`repro.kernels.native`) and the numba blocks advance them in place.

:class:`ReplayStreams` is the replay for the fused kernels' NumPy loop where
the C library cannot be built.  Profiling that loop showed its floor was not
the ΔE arithmetic but the per-replica Python draw loops behind it:
``Generator.integers`` called once per replica, and ``MetropolisRule.accept``
looping replicas for the uniform draws.  At ``M = 32`` those two loops cost
more than the whole incremental sweep.

:class:`ReplayStreams` removes them by replaying every lane in numpy uint64
arithmetic -- the same limb arithmetic the numba backend compiles (see
:mod:`repro.kernels.jit`), applied batch-wide.  Advancing the 128-bit LCG
one draw at a time would still cost a dozen numpy calls per proposal, so
the replay exploits that the LCG is affine:

    state_j = MULT**j * state_0  +  (MULT**j - 1) / (MULT - 1) * inc

with both coefficients precomputed per lookahead depth ``j``, a lane's next
:data:`BUFFER_OUTPUTS` raw 64-bit outputs (XSL-RR applied to each
``state_j``) materialise in one vectorised pass, and the per-proposal cost
collapses to buffered reads.  On top of the raw outputs sit the exact
``Generator`` draw pipelines:

* ``Generator.random()`` as ``(next64() >> 11) * 2**-53``;
* ``Generator.integers(0, n)`` (``n <= 2**32``) as numpy's 32-bit Lemire
  bounded sampler over PCG64's *buffered* ``next32`` -- low half of a 64-bit
  draw first, high half parked per lane (``has_uint32`` / ``uinteger``).

Each lane advances exactly as its ``Generator`` object would, so the draws
are bit-identical to the reference engine's, and :meth:`Lanes.write_back`
leaves the ``Generator`` objects exactly where a reference run would have.
Lanes consume at different rates (uniforms are drawn only for feasible
candidates, Lemire rejections redraw), so refilling only the exhausted
lanes would fire a refill on almost every draw once they drift out of step.
Instead there is one refill per depletion event: when any lane's lookahead
runs out, every lane is rebased on the state it has reached and all lanes
refill in one vectorised pass.

Its Metropolis verdicts come from
:func:`~repro.dynamics.acceptance.metropolis_decisions`, the vectorised
acceptance rule, bit-identical to the scalar
:class:`~repro.dynamics.acceptance.MetropolisRule`.

Which runs replay at all is the driver's rule
(:meth:`~repro.dynamics.driver.LoopDriver.replay`): per-replica streams on
distinct PCG64 bit generators, plain :class:`MetropolisRule` acceptance, and
an engine that lets nothing else draw from them during the sweep.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.dynamics.acceptance import metropolis_decisions
from repro.kernels.base import KernelUnsupportedError

__all__ = ["Lanes", "ReplayStreams"]

#: PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_ROT_SHIFT = np.uint64(58)
_SHIFT11 = np.uint64(11)
_C64 = np.uint64(64)
_C63 = np.uint64(63)
#: ``Generator.random()`` scale: 2**-53.
_INV53 = 1.0 / 9007199254740992.0

#: Raw 64-bit outputs generated ahead per lane and refill.
BUFFER_OUTPUTS = 64

#: Largest ``integers`` bound the 32-bit Lemire sampler covers.
MAX_LEMIRE_BOUND = 2 ** 32


def _mulhi64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of ``a * b`` via 32-bit partial products."""
    a_lo = a & _MASK32
    a_hi = a >> _SHIFT32
    b_lo = b & _MASK32
    b_hi = b >> _SHIFT32
    lo_lo = a_lo * b_lo
    hi_lo = a_hi * b_lo
    cross = (lo_lo >> _SHIFT32) + (hi_lo & _MASK32) + a_lo * b_hi
    return (hi_lo >> _SHIFT32) + (cross >> _SHIFT32) + a_hi * b_hi


def _mul128(a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.ndarray,
            b_lo: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``a * b mod 2**128`` on 64-bit limb arrays (broadcasting)."""
    lo = a_lo * b_lo
    hi = _mulhi64(a_lo, b_lo) + a_lo * b_hi + a_hi * b_lo
    return hi, lo


def _split(value: int) -> Tuple[np.uint64, np.uint64]:
    """A 128-bit Python int as (hi, lo) uint64 limbs."""
    return np.uint64((value >> 64) & _MASK64), np.uint64(value & _MASK64)


def _jump_tables() -> Tuple[np.ndarray, ...]:
    """``MULT**j`` and ``(MULT**j - 1) / (MULT - 1)`` for each lookahead.

    ``state_j = mult_j * state_0 + incc_j * inc  (mod 2**128)``: the j-step
    jump of the LCG, exact because the coefficients satisfy
    ``mult_j = mult_{j-1} * MULT`` and ``incc_j = incc_{j-1} * MULT + 1``.
    """
    mult_hi = np.empty(BUFFER_OUTPUTS, dtype=np.uint64)
    mult_lo = np.empty(BUFFER_OUTPUTS, dtype=np.uint64)
    incc_hi = np.empty(BUFFER_OUTPUTS, dtype=np.uint64)
    incc_lo = np.empty(BUFFER_OUTPUTS, dtype=np.uint64)
    mult, incc = 1, 0
    mask128 = (1 << 128) - 1
    for j in range(BUFFER_OUTPUTS):
        mult = (mult * _PCG_MULT) & mask128
        incc = (incc * _PCG_MULT + 1) & mask128
        mult_hi[j], mult_lo[j] = _split(mult)
        incc_hi[j], incc_lo[j] = _split(incc)
    return mult_hi, mult_lo, incc_hi, incc_lo


_JUMP_MULT_HI, _JUMP_MULT_LO, _JUMP_INCC_HI, _JUMP_INCC_LO = _jump_tables()


class Lanes:
    """Per-replica PCG64 states as uint64 lanes: the rows of :attr:`array`.

    ``factors`` are the driver's ladder factors (``None`` for a flat
    batch), which the Metropolis draws of subclasses read.  Raises
    :class:`~repro.kernels.base.KernelUnsupportedError` if any generator is
    not PCG64-backed.
    """

    def __init__(self, generators: Sequence[np.random.Generator],
                 factors: Optional[np.ndarray] = None) -> None:
        self.generators = list(generators)
        self.factors = factors
        self.array = np.empty((6, len(self.generators)), dtype=np.uint64)
        (self.s_hi, self.s_lo, self.i_hi, self.i_lo, self.has32,
         self.buffered) = self.array
        for k, generator in enumerate(self.generators):
            state = generator.bit_generator.state
            if state.get("bit_generator") != "PCG64":
                raise KernelUnsupportedError(
                    f"replica {k} uses bit generator "
                    f"{state.get('bit_generator')!r}; stream replay covers "
                    "PCG64 only")
            raw = state["state"]["state"]
            inc = state["state"]["inc"]
            self.s_hi[k] = (raw >> 64) & _MASK64
            self.s_lo[k] = raw & _MASK64
            self.i_hi[k] = (inc >> 64) & _MASK64
            self.i_lo[k] = inc & _MASK64
            self.has32[k] = int(state["has_uint32"])
            self.buffered[k] = int(state["uinteger"])

    def _state(self, k: int) -> Tuple[int, int]:
        """Lane ``k``'s current LCG state as (hi, lo) limbs."""
        return int(self.s_hi[k]), int(self.s_lo[k])

    def write_back(self) -> None:
        """Restore the advanced states into the ``Generator`` objects."""
        for k, generator in enumerate(self.generators):
            hi, lo = self._state(k)
            state = generator.bit_generator.state
            state["state"]["state"] = (hi << 64) | lo
            state["has_uint32"] = int(self.has32[k])
            state["uinteger"] = int(self.buffered[k])
            generator.bit_generator.state = state


class ReplayStreams(Lanes):
    """:class:`Lanes` drawn in lock step by vectorised NumPy lookahead."""

    def __init__(self, generators: Sequence[np.random.Generator],
                 factors: Optional[np.ndarray] = None) -> None:
        super().__init__(generators, factors)
        self._all = np.arange(self.array.shape[1])
        # Lookahead buffers (set by ``_refill``): per lane, the raw outputs
        # of the next BUFFER_OUTPUTS steps (``_out``) and the state each
        # step lands on (``_st_hi``/``_st_lo``).  ``s_hi``/``s_lo`` stay the
        # state *before* slot 0 of the buffer; ``_pos[k]`` is the next
        # unconsumed slot.
        self._pos = np.zeros(self.array.shape[1], dtype=np.intp)
        self._refill()

    # ------------------------------------------------------------------ #
    # Raw output stream (lane-subset aware, buffered lookahead)
    # ------------------------------------------------------------------ #
    def _refill(self) -> None:
        """Jump every lane's buffer forward from its base state."""
        hi_a, lo_a = _mul128(_JUMP_MULT_HI, _JUMP_MULT_LO,
                             self.s_hi[:, None], self.s_lo[:, None])
        hi_b, lo_b = _mul128(_JUMP_INCC_HI, _JUMP_INCC_LO,
                             self.i_hi[:, None], self.i_lo[:, None])
        lo = lo_a + lo_b
        hi = hi_a + hi_b + (lo < lo_a)
        self._st_hi = hi
        self._st_lo = lo
        # XSL-RR output permutation of every jumped state.
        rot = hi >> _ROT_SHIFT
        word = hi ^ lo
        self._out = (word >> rot) | (word << ((_C64 - rot) & _C63))

    def _next64(self, lanes: np.ndarray) -> np.ndarray:
        """The listed lanes' next raw 64-bit outputs (refilling as needed)."""
        positions = self._pos[lanes]
        if (positions == BUFFER_OUTPUTS).any():
            # Rebase every lane on the state it has reached -- the last
            # consumed slot, or the old base if it drew nothing since the
            # last refill -- and refill all lanes at once.
            drawn = np.flatnonzero(self._pos)
            reached = self._pos[drawn] - 1
            self.s_hi[drawn] = self._st_hi[drawn, reached]
            self.s_lo[drawn] = self._st_lo[drawn, reached]
            self._refill()
            self._pos[:] = 0
            positions = self._pos[lanes]
        self._pos[lanes] = positions + 1
        return self._out[lanes, positions]

    # ------------------------------------------------------------------ #
    # Generator draw pipelines
    # ------------------------------------------------------------------ #
    def _next32(self, lanes: np.ndarray) -> np.ndarray:
        """Buffered 32-bit draws: parked high halves first, else a next64.

        Lanes usually stay parity-synchronised (uniform draws bypass the
        32-bit buffer and Lemire rejections are rare), so the all-parked /
        all-fresh fast paths cover almost every call.
        """
        parked = self.has32[lanes] != 0
        if not parked.any():
            value = self._next64(lanes)
            self.buffered[lanes] = value >> _SHIFT32
            self.has32[lanes] = 1
            return value & _MASK32
        if parked.all():
            out = self.buffered[lanes]
            self.has32[lanes] = 0
            return out
        out = np.empty(lanes.shape[0], dtype=np.uint64)
        consumed = lanes[parked]
        out[parked] = self.buffered[consumed]
        self.has32[consumed] = 0
        fresh = lanes[~parked]
        value = self._next64(fresh)
        out[~parked] = value & _MASK32
        self.buffered[fresh] = value >> _SHIFT32
        self.has32[fresh] = 1
        return out

    def integers(self, bound: int) -> np.ndarray:
        """``Generator.integers(0, bound)`` for every lane (32-bit Lemire)."""
        if bound <= 1:
            # numpy consumes no draw for an empty/singleton range.
            return np.zeros(self._all.shape[0], dtype=np.intp)
        wide = np.uint64(bound)
        product = self._next32(self._all) * wide
        # ``threshold < bound``, so numpy's ``leftover < bound`` pre-check
        # before computing the threshold never changes the verdict.
        threshold = np.uint64((MAX_LEMIRE_BOUND - bound) % bound)
        rejected = (product & _MASK32) < threshold
        if rejected.any():
            retry = np.flatnonzero(rejected)
            while retry.size:
                redrawn = self._next32(retry) * wide
                product[retry] = redrawn
                retry = retry[(redrawn & _MASK32) < threshold]
        return (product >> _SHIFT32).astype(np.intp)

    def uniforms(self, lanes: np.ndarray) -> np.ndarray:
        """``Generator.random()`` for the listed lanes."""
        return (self._next64(lanes) >> _SHIFT11) * _INV53

    def metropolis(self, delta: np.ndarray, replica_indices: np.ndarray,
                   base: float) -> np.ndarray:
        """Metropolis verdicts for the listed lanes at temperature ``base``
        (times each lane's ladder factor), one uniform draw per entry."""
        draws = self.uniforms(replica_indices)
        temperatures = (float(base) if self.factors is None
                        else (base * self.factors)[replica_indices])
        return metropolis_decisions(delta, temperatures, draws)

    def _state(self, k: int) -> Tuple[int, int]:
        position = self._pos[k]
        if position == 0:
            return int(self.s_hi[k]), int(self.s_lo[k])
        return (int(self._st_hi[k, position - 1]),
                int(self._st_lo[k, position - 1]))
