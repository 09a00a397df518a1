"""Optional numba JIT backend: the compiled per-replica sweep loop.

The fused kernel already makes the per-proposal work O(M) (plus O(n) or
O(degree) per *accepted* flip), but every proposal still crosses the
Python/NumPy boundary several times -- generator method calls, fancy
indexing, boolean masks.  The kernel here compiles the whole fused block
into one ``numba.njit`` function that loops replicas and iterations in
native code, including the random streams themselves.  Like the other
backends it serves both engines: plain SA is the HyCiM block with every
incumbent feasible.

**RNG replay.**  numba cannot call ``numpy.random.Generator`` methods, so
the compiled loop re-implements the exact draw pipeline of PCG64 +
``Generator`` and advances the uint64 lanes the
:class:`~repro.dynamics.driver.LoopDriver` replays each replica's stream in
(:meth:`LoopDriver.replay`):

* the 128-bit LCG advance ``state = state * PCG_MULT + inc`` on two 64-bit
  limbs, with the XSL-RR output permutation;
* ``Generator.random()`` as ``(next64() >> 11) * 2**-53``;
* ``Generator.integers(0, n)`` (``n <= 2**32``) as numpy's 32-bit Lemire
  bounded sampler fed by PCG64's *buffered* ``next32`` -- the low half of a
  64-bit draw first, the high half parked in the bit generator's
  ``has_uint32``/``uinteger`` fields.

Every primitive is validated bit-for-bit against numpy by the test suite
(which runs the same functions interpreted when numba is absent), and the
driver writes the advanced lanes back into the ``Generator`` objects when it
exits, so anything consuming the streams afterwards continues exactly where
a reference run would.

**Support matrix.**  Everything the fused kernel supports *except*
shared-RNG mode (its draws are batched, not per-replica), non-Metropolis
acceptance rules and any other run whose streams the driver does not
replay (non-PCG64 or aliased bit generators) -- those raise
:class:`~repro.kernels.base.KernelUnsupportedError` so ``kernel="auto"``
falls back to the fused backend.  A missing numba installation raises
:class:`~repro.kernels.base.KernelUnavailableError` instead; tests may set
``_ALLOW_INTERPRETED`` to exercise the (slow) interpreted fallback, which
runs the very same functions undecorated.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.core.constraints import (
    FEASIBILITY_TOLERANCE,
    EqualityConstraint,
    InequalityConstraint,
)
from repro.dynamics.acceptance import MetropolisRule
from repro.dynamics.driver import LoopDriver
from repro.kernels.base import KernelUnavailableError, KernelUnsupportedError
from repro.kernels.fused import FusedHyCiMKernel

__all__ = ["HAVE_NUMBA", "JitHyCiMKernel"]

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the CI default (no numba)
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        """No-op decorator: the kernels run interpreted (tests only)."""
        if args and callable(args[0]):
            return args[0]

        def decorate(function):
            return function

        return decorate


#: Tests flip this to run the compiled functions interpreted (numpy uint64
#: scalar arithmetic) on machines without numba; ``"auto"`` still treats the
#: backend as unavailable unless numba is importable.
_ALLOW_INTERPRETED = False

# PCG64's 128-bit LCG multiplier, split into 64-bit limbs.
_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_MULT_LO = np.uint64(0x4385DF649FCCF645)
_MASK32 = np.uint64(0xFFFFFFFF)
_TWO32 = np.uint64(0x100000000)
_SHIFT32 = np.uint64(32)
_ROT_SHIFT = np.uint64(58)
_SHIFT11 = np.uint64(11)
_C64 = np.uint64(64)
_C63 = np.uint64(63)
_ONE = np.uint64(1)
_ZERO = np.uint64(0)
#: ``Generator.random()`` scale: 2**-53.
_INV53 = 1.0 / 9007199254740992.0


# --------------------------------------------------------------------- #
# PCG64 + Generator draw pipeline on uint64 limbs
# --------------------------------------------------------------------- #
@njit(cache=False)
def _pcg_next64(s_hi, s_lo, i_hi, i_lo):
    """Advance one PCG64 state (two uint64 limbs) and emit its output."""
    # mulhi64(s_lo, MULT_LO) via 32-bit partial products.
    a_lo = s_lo & _MASK32
    a_hi = s_lo >> _SHIFT32
    b_lo = _MULT_LO & _MASK32
    b_hi = _MULT_LO >> _SHIFT32
    lo_lo = a_lo * b_lo
    hi_lo = a_hi * b_lo
    cross = (lo_lo >> _SHIFT32) + (hi_lo & _MASK32) + a_lo * b_hi
    carry = (hi_lo >> _SHIFT32) + (cross >> _SHIFT32) + a_hi * b_hi
    # state * MULT (mod 2**128) ...
    new_lo = s_lo * _MULT_LO
    new_hi = s_hi * _MULT_LO + s_lo * _MULT_HI + carry
    # ... + inc (mod 2**128).
    summed = new_lo + i_lo
    if summed < new_lo:
        new_hi = new_hi + _ONE
    new_hi = new_hi + i_hi
    # XSL-RR output permutation.
    rot = new_hi >> _ROT_SHIFT
    word = new_hi ^ summed
    out = (word >> rot) | (word << ((_C64 - rot) & _C63))
    return new_hi, summed, out


@njit(cache=False)
def _pcg_next32(s_hi, s_lo, i_hi, i_lo, has32, buffered):
    """PCG64's buffered 32-bit draw: low half first, high half parked."""
    if has32 != _ZERO:
        return s_hi, s_lo, _ZERO, buffered, buffered
    s_hi, s_lo, value = _pcg_next64(s_hi, s_lo, i_hi, i_lo)
    return s_hi, s_lo, _ONE, value >> _SHIFT32, value & _MASK32


@njit(cache=False)
def _pcg_random(s_hi, s_lo, i_hi, i_lo):
    """``Generator.random()``: top 53 bits of one 64-bit draw."""
    s_hi, s_lo, value = _pcg_next64(s_hi, s_lo, i_hi, i_lo)
    return s_hi, s_lo, (value >> _SHIFT11) * _INV53


@njit(cache=False)
def _pcg_integers(s_hi, s_lo, i_hi, i_lo, has32, buffered, bound):
    """``Generator.integers(0, bound)``: numpy's 32-bit Lemire sampler."""
    if bound <= _ONE:
        return s_hi, s_lo, has32, buffered, _ZERO
    s_hi, s_lo, has32, buffered, value = _pcg_next32(
        s_hi, s_lo, i_hi, i_lo, has32, buffered)
    product = value * bound
    leftover = product & _MASK32
    if leftover < bound:
        threshold = (_TWO32 - bound) % bound
        while leftover < threshold:
            s_hi, s_lo, has32, buffered, value = _pcg_next32(
                s_hi, s_lo, i_hi, i_lo, has32, buffered)
            product = value * bound
            leftover = product & _MASK32
    return s_hi, s_lo, has32, buffered, product >> _SHIFT32


@njit(cache=False)
def _metropolis_accept(step, temperature, draw):
    """Scalar Metropolis verdict, mirroring ``acceptance_probability``."""
    if step <= 0.0:
        return True
    if temperature <= 0.0:
        return False
    exponent = -step / temperature
    if exponent < -700.0:
        return False
    return draw < math.exp(exponent)


# --------------------------------------------------------------------- #
# The compiled sweep block
# --------------------------------------------------------------------- #
@njit(cache=False)
def _commit_flip(k, flip, sign, bit, current, loads, candidate,
                 num_constraints, is_sparse, symmetric, sym_indptr,
                 sym_indices, sym_data, field):
    """Apply replica ``k``'s accepted/drifting flip: bit, loads, field row."""
    current[k, flip] = 1.0 - bit
    for c in range(num_constraints):
        loads[k, c] = candidate[c]
    if is_sparse:
        for position in range(sym_indptr[flip], sym_indptr[flip + 1]):
            field[k, sym_indices[position]] += sign * sym_data[position]
    else:
        for j in range(field.shape[1]):
            field[k, j] += sign * symmetric[flip, j]


@njit(cache=False)
def _hycim_block(start, num_iterations, moves_per_iteration, base, factors,
                 is_sparse, symmetric, sym_indptr, sym_indices, sym_data,
                 diag, current, field, current_energy, raw_energy,
                 current_feasible, best, best_energy, best_feasible, loads,
                 weights_t, bounds, num_constraints, num_feasible,
                 num_skipped, num_accepted, rs_hi, rs_lo, ri_hi, ri_lo,
                 r_has, r_buf, num_variables):
    num_replicas = current.shape[0]
    candidate = np.empty(num_constraints, dtype=np.float64)
    # Replicas are independent between exchange boundaries (each owns its
    # stream and its state rows), so looping them outermost is equivalent
    # to the reference lock-step order.
    for k in range(num_replicas):
        s_hi = rs_hi[k]
        s_lo = rs_lo[k]
        i_hi = ri_hi[k]
        i_lo = ri_lo[k]
        has32 = r_has[k]
        buffered = r_buf[k]
        for iteration in range(start, start + num_iterations):
            temperature = base[iteration] * factors[k]
            for _ in range(moves_per_iteration):
                s_hi, s_lo, has32, buffered, drawn = _pcg_integers(
                    s_hi, s_lo, i_hi, i_lo, has32, buffered, num_variables)
                flip = np.int64(drawn)
                bit = current[k, flip]
                sign = 1.0 - 2.0 * bit
                d = diag[flip]
                delta = sign * (d + field[k, flip] - 2.0 * d * bit)
                candidate_raw = raw_energy[k] + delta
                passed = True
                for c in range(num_constraints):
                    value = loads[k, c] + sign * weights_t[flip, c]
                    candidate[c] = value
                    if not (value <= bounds[c] + FEASIBILITY_TOLERANCE):
                        passed = False
                if not passed:
                    num_skipped[k] += 1
                    # Infeasible incumbents drift freely at energy 0
                    # (paper Eq. (6)), exactly as the fused kernel.
                    if not current_feasible[k]:
                        current_energy[k] = 0.0
                        raw_energy[k] = candidate_raw
                        _commit_flip(k, flip, sign, bit, current, loads,
                                     candidate, num_constraints, is_sparse,
                                     symmetric, sym_indptr, sym_indices,
                                     sym_data, field)
                    continue
                num_feasible[k] += 1
                step = candidate_raw - current_energy[k]
                s_hi, s_lo, draw = _pcg_random(s_hi, s_lo, i_hi, i_lo)
                if _metropolis_accept(step, temperature, draw):
                    current_energy[k] = candidate_raw
                    raw_energy[k] = candidate_raw
                    current_feasible[k] = True
                    _commit_flip(k, flip, sign, bit, current, loads,
                                 candidate, num_constraints, is_sparse,
                                 symmetric, sym_indptr, sym_indices,
                                 sym_data, field)
                    num_accepted[k] += 1
                    if (current_energy[k] < best_energy[k]
                            or not best_feasible[k]):
                        best_energy[k] = current_energy[k]
                        best_feasible[k] = True
                        for j in range(current.shape[1]):
                            best[k, j] = current[k, j]
        rs_hi[k] = s_hi
        rs_lo[k] = s_lo
        r_has[k] = has32
        r_buf[k] = buffered


def _require_jit(driver: LoopDriver) -> None:
    if not HAVE_NUMBA and not _ALLOW_INTERPRETED:
        raise KernelUnavailableError(
            "the numba backend needs numba installed "
            "(pip install repro[jit])")
    if driver._shared_rng is not None:
        raise KernelUnsupportedError(
            "shared-RNG mode draws in a different order than the compiled "
            "per-replica loop; it runs on the fused/reference backends")
    if type(driver.dynamics.acceptance) is not MetropolisRule:
        raise KernelUnsupportedError(
            f"acceptance rule {type(driver.dynamics.acceptance).__name__} "
            "has no compiled equivalent; the numba backend implements "
            "MetropolisRule exactly")


def _reject_equality(constraints) -> None:
    # The compiled block hard-codes the ``load <= bound + tol`` compare;
    # equality constraints run on the (pure-NumPy) fused backend instead.
    for constraint in constraints or ():
        if isinstance(constraint, EqualityConstraint):
            raise KernelUnsupportedError(
                "equality constraints have no compiled feasibility compare; "
                "the numba backend covers linear inequalities only")


class JitHyCiMKernel(FusedHyCiMKernel):
    """Compiled counterpart of :class:`~repro.kernels.fused.FusedHyCiMKernel`:
    its model and state, with the driver's lanes advanced by ``_hycim_block``."""

    backend = "numba"

    def __init__(self, *, matrix, driver: LoopDriver, single_flip: bool,
                 moves_per_iteration: int,
                 constraints: Optional[Sequence[InequalityConstraint]],
                 current: np.ndarray, current_energy: np.ndarray,
                 current_feasible: np.ndarray,
                 raw_energy: Optional[np.ndarray],
                 use_hardware_filters: bool = False,
                 use_crossbar: bool = False) -> None:
        _require_jit(driver)
        _reject_equality(constraints)
        super().__init__(matrix=matrix, driver=driver,
                         single_flip=single_flip,
                         moves_per_iteration=moves_per_iteration,
                         constraints=constraints, current=current,
                         current_energy=current_energy,
                         current_feasible=current_feasible,
                         raw_energy=raw_energy,
                         use_hardware_filters=use_hardware_filters,
                         use_crossbar=use_crossbar)

    def _init_draws(self) -> None:
        """The compiled block's inputs, in place of the fused kernel's draws."""
        driver = self.driver
        if self._num_variables > 2 ** 32:
            raise KernelUnsupportedError(
                "the compiled Lemire sampler covers bounds up to 2**32")
        # The driver's lanes (state layout, buffered next32 fields, the
        # write-back when it exits); the compiled block mutates them in
        # place.
        self._lanes = driver.replay()
        if self._lanes is None:
            raise KernelUnsupportedError(
                "the driver does not replay these replica streams (bit "
                "generators that are not PCG64 or shared between replicas)")
        self._jit_base = np.ascontiguousarray(driver._base, dtype=np.float64)
        factors = driver._factors
        self._jit_factors = (np.ones(self.current.shape[0])
                             if factors is None
                             else np.ascontiguousarray(factors,
                                                       dtype=np.float64))
        self._num_variables_u = np.uint64(self._num_variables)
        # The compiled block takes both dense and CSR model arrays and
        # branches on ``is_sparse``; the unused side is a typed dummy.
        if self._sparse:
            self._jit_symmetric = np.zeros((1, 1))
        else:
            self._jit_symmetric = self._symmetric
            self._sym_indptr = np.zeros(1, dtype=np.int64)
            self._sym_indices = np.zeros(0, dtype=np.int64)
            self._sym_data = np.zeros(0, dtype=np.float64)

    def run_block(self, start_iteration: int, num_iterations: int) -> None:
        streams = self._lanes
        with np.errstate(over="ignore"):
            _hycim_block(start_iteration, num_iterations,
                         self.moves_per_iteration, self._jit_base,
                         self._jit_factors, self._sparse,
                         self._jit_symmetric, self._sym_indptr,
                         self._sym_indices, self._sym_data, self._diag,
                         self.current, self.field, self.current_energy,
                         self.raw_energy, self.current_feasible, self.best,
                         self.best_energy, self.best_feasible, self.loads,
                         self._weights_t, self._bounds,
                         self._num_constraints, self.num_feasible,
                         self.num_skipped, self.num_accepted, streams.s_hi,
                         streams.s_lo, streams.i_hi, streams.i_lo,
                         streams.has32, streams.buffered,
                         self._num_variables_u)
