"""The compiled sweep blocks and replica draws, built by the system C compiler.

``native.c`` serves two callers over the same PCG64 draw pipeline as
:mod:`repro.kernels.streams`:

* :class:`NativeLanes` are the lanes :class:`~repro.dynamics.driver.
  LoopDriver` replays its replicas' streams in wherever the library loads.
  Its ``flip_indices`` and ``metropolis`` are then one C call each
  (``draw_flips``, ``metropolis``) for every kernel, the reference kernel
  included: the buffers' addresses are fixed at construction, so a call
  copies its arguments into them and passes one struct pointer.
* :func:`compiled_block` ports the fused kernel's per-replica loop to C --
  the local-field delta, the running inequality and equality loads, the
  HyCiM drift rule and best tracking, for SA and HyCiM runs alike -- by
  pointing one ``sweep_t`` at a fused kernel's arrays (model, state and the
  driver's lanes) and returning its ``run_block`` as one C call.

Per element the C code applies the IEEE operations the NumPy loop applies,
in the same order, and decides acceptance with ``-delta / T``, the -700
cutoff and libm ``exp``, which is what ``math.exp`` calls, so both agree
with the Python paths bit for bit on any data.  They run wherever the driver
replays the streams (:meth:`LoopDriver.replay`); elsewhere, and without a
library, the draws go through the ``Generator`` objects and the fused
kernels run their NumPy loop.

The first run that can use it builds the library with ``cc`` (``FLAGS``;
importing this module starts no process) into ``$XDG_CACHE_HOME/repro`` or
``~/.cache/repro``, created 0700, named by the sha256 of the source, the
machine, ``cc --version`` and the flags.  Each build goes to a temporary
file that is ``os.replace``-d into place, so concurrent workers never load a
partial file.  The cache is used only if no other user can change what it
holds: the ``repro`` directory must be a real directory of this user that
group and others cannot write, and no directory above it may let another
user rename it (each owned by this user or root, and not writable by group
or others unless sticky).  Otherwise the build goes to a private temporary
directory, removed once the library is loaded.  No ``cc``, a failed build
or a failed load leave the Python paths in place; :func:`library` raises
:class:`KernelUnavailableError` naming the cause.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from repro.kernels.base import KernelUnavailableError, SweepKernel
from repro.kernels.streams import MAX_LEMIRE_BOUND, Lanes

__all__ = ["NativeLanes", "compiled_block", "library"]

SOURCE = Path(__file__).with_name("native.c")
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

#: The kernel attributes the blocks write in place, with their dtypes.
_STATE = {"current": np.float64, "current_energy": np.float64,
          "raw_energy": np.float64, "current_feasible": np.bool_,
          "best": np.float64, "best_energy": np.float64,
          "best_feasible": np.bool_, "field": np.float64,
          "loads": np.float64, "num_feasible": np.int64,
          "num_skipped": np.int64, "num_accepted": np.int64}
#: Read-only model arrays: LoopDriver._base/_factors, else self._<name>.
_MODEL = {"base": np.float64, "factors": np.float64, "diag": np.float64,
          "symmetric": np.float64, "sym_indptr": np.int64,
          "sym_indices": np.int64, "sym_data": np.float64,
          "weights_t": np.float64, "bounds": np.float64,
          "equality": np.bool_}


class _Sweep(ctypes.Structure):
    """``sweep_t`` of native.c: sizes, then one pointer per array."""

    _fields_ = ([(name, ctypes.c_int64) for name in
                 ("replicas", "n", "constraints", "moves", "sparse")]
                + [(name, ctypes.c_void_p)
                   for name in (*_STATE, *_MODEL, "lanes")])


class _Draws(ctypes.Structure):
    """``draws_t`` of native.c: the driver's lanes and draw buffers."""

    _fields_ = [("replicas", ctypes.c_int64)] + [
        (name, ctypes.c_void_p) for name in
        ("lanes", "factors", "flips", "delta", "indices", "verdicts")]


#: The loaded library, or why it could not be built; set on first use.
_loaded: Union[ctypes.CDLL, str, None] = None

_SHARED_WRITE = stat.S_IWGRP | stat.S_IWOTH


def _private_cache() -> Optional[Path]:
    """The per-user build cache, or ``None`` if another user could change
    what it holds."""
    root = (os.environ.get("XDG_CACHE_HOME")
            or os.path.join(os.path.expanduser("~"), ".cache"))
    path = Path(root).resolve() / "repro"
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        own = os.lstat(path)
        above = [os.lstat(parent) for parent in path.parents]
    except OSError:
        return None
    if (not stat.S_ISDIR(own.st_mode) or own.st_uid != os.getuid()
            or own.st_mode & _SHARED_WRITE):
        return None
    for info in above:
        if info.st_uid not in (os.getuid(), 0) or (
                info.st_mode & _SHARED_WRITE
                and not info.st_mode & stat.S_ISVTX):
            return None
    return path


def _compile(compiler: str, target: Path) -> None:
    """Compile the source into ``target`` through a temporary file."""
    handle, partial = tempfile.mkstemp(suffix=".so", dir=target.parent)
    os.close(handle)
    try:
        built = subprocess.run(
            [compiler, *FLAGS, "-o", partial, str(SOURCE), "-lm"],
            capture_output=True, text=True)
        if built.returncode != 0:
            raise KernelUnavailableError(
                f"compiling {SOURCE.name} with {compiler} failed: "
                f"{built.stderr.strip()}")
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


def _build() -> ctypes.CDLL:
    compiler = shutil.which("cc")
    if compiler is None:
        raise KernelUnavailableError(
            "the compiled sweep needs a C compiler and found no `cc` on PATH")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             check=True).stdout
    key = hashlib.sha256(b"\0".join((
        SOURCE.read_bytes(), platform.machine().encode(), version,
        " ".join(FLAGS).encode()))).hexdigest()
    name = f"native-{key[:24]}.so"
    cache = _private_cache()
    if cache is not None:
        if not (cache / name).exists():
            _compile(compiler, cache / name)
        return ctypes.CDLL(str(cache / name))
    with tempfile.TemporaryDirectory(prefix="repro-native-") as private:
        _compile(compiler, Path(private) / name)
        return ctypes.CDLL(str(Path(private) / name))


def library() -> ctypes.CDLL:
    """The compiled blocks, built on the first call in a process.

    Raises :class:`KernelUnavailableError` -- on this and every later call
    -- when they cannot be built or loaded.
    """
    global _loaded
    if _loaded is None:
        try:
            loaded = _build()
            loaded.run_block.argtypes = (ctypes.POINTER(_Sweep),
                                         ctypes.c_int64, ctypes.c_int64)
            loaded.run_block.restype = None
            loaded.draw_flips.argtypes = (ctypes.c_void_p, ctypes.c_uint64)
            loaded.draw_flips.restype = None
            loaded.metropolis.argtypes = (ctypes.c_void_p, ctypes.c_int64,
                                          ctypes.c_double)
            loaded.metropolis.restype = ctypes.c_int64
            loaded.draw_stream.argtypes = (ctypes.c_void_p, ctypes.c_int64,
                                           ctypes.c_void_p, ctypes.c_void_p)
            loaded.draw_stream.restype = None
            _loaded = loaded
        except (KernelUnavailableError, OSError,
                subprocess.CalledProcessError) as error:
            _loaded = str(error)
    if isinstance(_loaded, str):
        raise KernelUnavailableError(_loaded)
    return _loaded


class NativeLanes(Lanes):
    """:class:`~repro.kernels.streams.Lanes` drawn by native.c.

    Raises :class:`KernelUnavailableError` when the library cannot be
    built or loaded (and, as :class:`Lanes` does, ``KernelUnsupportedError``
    for a generator that is not PCG64-backed).
    """

    def __init__(self, generators, factors: Optional[np.ndarray] = None
                 ) -> None:
        loaded = library()
        if factors is not None:
            factors = np.ascontiguousarray(factors, np.float64)
        super().__init__(generators, factors)
        self._draw_flips = loaded.draw_flips
        self._metropolis = loaded.metropolis
        count = self.array.shape[1]
        self._flips = np.empty(count, dtype=np.int64)
        self._draws = _Draws(
            replicas=count, lanes=self.array.ctypes.data,
            factors=None if factors is None else factors.ctypes.data,
            flips=self._flips.ctypes.data)
        self._address = ctypes.addressof(self._draws)
        self._reserve(count)

    def _reserve(self, count: int) -> None:
        """Buffers for ``metropolis`` calls of up to ``count`` entries."""
        self._capacity = count
        self._delta = np.empty(count)
        self._indices = np.empty(count, dtype=np.int64)
        self._verdicts = np.empty(count, dtype=np.bool_)
        self._draws.delta = self._delta.ctypes.data
        self._draws.indices = self._indices.ctypes.data
        self._draws.verdicts = self._verdicts.ctypes.data

    def integers(self, bound: int) -> np.ndarray:
        """``Generator.integers(0, bound)`` for every lane, ``bound <= 2**32``."""
        self._draw_flips(self._address, int(bound))
        return self._flips.astype(np.intp)

    def metropolis(self, delta: np.ndarray, replica_indices: np.ndarray,
                   base: float) -> np.ndarray:
        """Metropolis verdicts for the listed lanes at temperature ``base``
        (times each lane's ladder factor), one ``random()`` per entry."""
        count = replica_indices.shape[0]
        if count > self._capacity:
            self._reserve(count)
        self._delta[:count] = delta
        self._indices[:count] = replica_indices
        stopped = self._metropolis(self._address, count, base)
        if stopped >= 0:
            raise IndexError(
                f"replica index {replica_indices[stopped]} is out of range "
                f"for {self.array.shape[1]} replicas")
        return self._verdicts[:count].copy()


def compiled_block(kernel: SweepKernel, lanes: Optional[Lanes]
                   ) -> Optional[Callable[[int, int], None]]:
    """``kernel.run_block`` as one C call, or ``None`` where the NumPy loop
    must run: ``lanes``, what ``kernel.driver.replay()`` returned, are not
    C lanes, or the flip bound is past the 32-bit Lemire sampler.

    ``kernel`` is a fused kernel whose model and state arrays are set up;
    state arrays that are not contiguous or not of the C dtype are replaced
    by converted copies, which the NumPy loop works on just as well.
    """
    driver = kernel.driver
    if (not isinstance(lanes, NativeLanes)
            or not 1 <= kernel._num_variables <= MAX_LEMIRE_BOUND):
        return None
    run_block = library().run_block
    for name, dtype in _STATE.items():
        if getattr(kernel, name, None) is not None:
            setattr(kernel, name,
                    np.ascontiguousarray(getattr(kernel, name), dtype))
    arrays = {name: getattr(kernel, name, None) for name in _STATE}
    schedule = {"base": driver._base, "factors": driver._factors}
    for name, dtype in _MODEL.items():
        array = schedule.get(name, getattr(kernel, "_" + name, None))
        arrays[name] = (None if array is None
                        else np.ascontiguousarray(array, dtype))
    arrays["lanes"] = lanes.array
    sweep = ctypes.pointer(_Sweep(
        replicas=kernel.current.shape[0], n=kernel._num_variables,
        constraints=kernel._num_constraints,
        moves=kernel.moves_per_iteration, sparse=int(kernel._sparse),
        **{name: None if array is None else array.ctypes.data
           for name, array in arrays.items()}))

    def block(start_iteration: int, num_iterations: int) -> None:
        run_block(sweep, start_iteration, num_iterations)

    # The sweep_t holds raw pointers: keep every array it names alive.
    block.arrays = arrays
    return block
