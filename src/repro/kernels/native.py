"""The fused kernels' block compiled by the system C compiler.

``native.c`` ports the per-replica loop of the fused kernels to C -- the
PCG64 draw pipeline of :mod:`repro.kernels.streams`, the local-field delta,
the running inequality and equality loads, the HyCiM drift rule and best
tracking.  :func:`compiled_block` points one ``sweep_t`` at a fused kernel's
arrays (model, state and :class:`~repro.kernels.streams.ReplayStreams`
lanes, which fused's ``finalize`` writes back) and returns its
``run_block`` as one C call.  Per element the C code applies the IEEE
operations the NumPy loop applies, in the same order, and decides
acceptance with libm ``exp`` as ``math.exp`` does, so the two loops agree
bit for bit on any data.  It runs wherever the kernel replays one PCG64
stream per replica (no shared RNG, plain :class:`MetropolisRule`,
``n <= 2**32``); elsewhere, and without a library, the NumPy loop runs.

The first fused kernel that can use it builds the library with ``cc``
(``FLAGS``; importing this module starts no process) into
``$XDG_CACHE_HOME/repro`` or ``~/.cache/repro``, created 0700, named by the
sha256 of the source, the machine, ``cc --version`` and the flags.  Each
build goes to a temporary file that is ``os.replace``-d into place, so
concurrent workers never load a partial file.  The cache is used only if
no other user can change what it holds: the ``repro`` directory must be a
real directory of this user that group and others cannot write, and no
directory above it may let another user rename it (each owned by this user
or root, and not writable by group or others unless sticky).  Otherwise
the build goes to a private temporary directory, removed once the library
is loaded.  No ``cc``, a failed build or a failed load leave the NumPy loop
in place; :func:`library` raises :class:`KernelUnavailableError` naming
the cause.
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

__all__ = ["compiled_block", "library"]

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
_LANES = ("s_hi", "s_lo", "i_hi", "i_lo", "has32", "buffered")


class _Sweep(ctypes.Structure):
    """``sweep_t`` of native.c: sizes, then one pointer per array."""

    _fields_ = ([(name, ctypes.c_int64) for name in
                 ("replicas", "n", "constraints", "moves", "sparse")]
                + [(name, ctypes.c_void_p)
                   for name in (*_STATE, *_MODEL, *_LANES)])


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


def compiled_block(kernel: SweepKernel
                   ) -> Optional[Callable[[int, int], None]]:
    """``kernel.run_block`` as one C call, or ``None`` where the NumPy loop
    must run: draws not replayed per replica, or no library.

    ``kernel`` is a fused kernel whose model and state arrays are set up;
    state arrays that are not contiguous or not of the C dtype are replaced
    by converted copies, which the NumPy loop works on just as well.
    """
    streams = kernel._streams
    if streams is None:
        return None
    try:
        run_block = library().run_block
    except KernelUnavailableError:
        return None
    for name, dtype in _STATE.items():
        if getattr(kernel, name, None) is not None:
            setattr(kernel, name,
                    np.ascontiguousarray(getattr(kernel, name), dtype))
    arrays = {name: getattr(kernel, name, None) for name in _STATE}
    driver = kernel.driver
    schedule = {"base": driver._base, "factors": driver._factors}
    for name, dtype in _MODEL.items():
        array = schedule.get(name, getattr(kernel, "_" + name, None))
        arrays[name] = (None if array is None
                        else np.ascontiguousarray(array, dtype))
    arrays.update({lane: getattr(streams, lane) for lane in _LANES})
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
