"""The sweep-kernel interface: one object owns the inner SA sweep.

The lock-step engines in :mod:`repro.batched.engine` used to inline their
propose -> filter -> evaluate -> accept -> update loop; that loop is now a
:class:`SweepKernel` the engines' one run routine drives block-wise:

    kernel = make_hycim_kernel(backend, driver=..., move_generator=...,
                               moves_per_iteration=..., feasible_batch=...,
                               energies=..., current=..., current_energy=...,
                               current_feasible=..., matrix=...,
                               raw_energy=..., constraints=...)
    while iteration < total:
        block = driver.block_length(iteration, limit)
        kernel.run_block(iteration, block)
        iteration += block
        ... exchange / probes / history at the block boundary ...

The factory takes only what a kernel cannot derive.  A kernel reads the
variable count from ``current``, the single-flip path from the move
generator's type, and the incremental-delta path from ``raw_energy``: an
array of raw QUBO values to update by flip deltas, or ``None`` where every
candidate is evaluated through ``energies`` (generic moves, and hardware
mode, whose crossbar the incremental kernels therefore refuse).

Each backend has one kernel, and both engines run it: the HyCiM sweep of
paper Fig. 6(b), whose infeasible incumbents drift at the zero energy of
Eq. (6), and plain SA, which is that sweep with every incumbent feasible
(so none drifts, and the best rule is plain ``<``).  A kernel owns the
travelling sweep state (configurations, energies, feasibility flags,
best-so-far, proposal counters) and advances it ``block`` iterations per
:meth:`SweepKernel.run_block` call.  :class:`~repro.dynamics.driver.
LoopDriver` stays the single authority on temperatures, RNG draws,
acceptance and exchange, and the one owner of the replicas' streams --
kernels draw through it, or, for the compiled blocks, advance the lanes it
replays the streams in -- and
:meth:`~repro.dynamics.driver.LoopDriver.block_length` guarantees blocks end
exactly where an exchange round or telemetry probe is due.

Backends
--------
``"reference"``
    The engines' original NumPy code: one full-batch matmul / gather per
    proposal.  Its trajectories are the ones the golden cells pin byte for
    byte; supports every engine configuration.
``"fused"``
    Incremental kernels: per-replica local-field caches make the energy
    delta an O(M) gather, inequality feasibility is maintained as running
    constraint loads, and CSR matrices are supported end-to-end (flip
    updates cost O(degree)).  Consumes the *same* RNG draws through the
    same ``LoopDriver`` calls, so trajectories are exactly equal whenever
    the arithmetic is (integer-valued coefficient data -- the conformance
    families); float data agrees to summation-order tolerance.  Where the
    driver replays the replicas' streams in C lanes, a block is one call
    into the same loop compiled from C (:mod:`repro.kernels.native`, built
    by the system ``cc`` on first use); without a working compiler the
    NumPy loop runs.  The two agree bit for bit on any data.
``"numba"``
    The fused loop JIT-compiled (:mod:`repro.kernels.jit`), replaying each
    replica's PCG64 stream bit-exactly inside the compiled block.  Only
    available when :mod:`numba` is importable; selecting it otherwise
    raises :class:`KernelUnavailableError`.
``"auto"``
    The fastest backend that supports the requested configuration
    (``numba`` > ``fused`` > ``reference``); never raises for support
    reasons.  Note the resolved backend depends on the environment (numba
    present or not), so persisted runs that must be reproducible elsewhere
    should pin an explicit backend instead.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "KERNEL_BACKENDS",
    "KernelUnavailableError",
    "KernelUnsupportedError",
    "SweepKernel",
    "canonical_kernel_param",
    "resolve_kernel_backend",
]

#: Explicit kernel backends, fastest last.  ``"auto"`` resolves to one of
#: these at engine-construction time.
KERNEL_BACKENDS = ("reference", "fused", "numba")

#: The backend engines use when none is requested (and the one the golden
#: trajectory suite pins byte-for-byte).
DEFAULT_KERNEL = "reference"


class KernelUnsupportedError(ValueError):
    """The selected backend cannot run this engine configuration.

    Raised at kernel construction (never mid-sweep) with the unsupported
    feature named, e.g. hardware-mode evaluation under ``"fused"``.  The
    ``"auto"`` backend catches this and falls back to the next backend.
    """


class KernelUnavailableError(RuntimeError):
    """The selected backend's optional dependency is not importable (or
    the fused kernels' C block cannot be built)."""


def resolve_kernel_backend(kernel: Optional[str]) -> str:
    """Validate a kernel backend name (``None`` means the default).

    Returns one of :data:`KERNEL_BACKENDS` or ``"auto"``; raises
    ``ValueError`` for unknown names so typos fail at engine construction
    instead of silently running the default.
    """
    if kernel is None:
        return DEFAULT_KERNEL
    name = str(kernel)
    if name == "auto" or name in KERNEL_BACKENDS:
        return name
    raise ValueError(
        f"unknown kernel backend {kernel!r}; choose from "
        f"{KERNEL_BACKENDS + ('auto',)}"
    )


def canonical_kernel_param(kernel: Optional[str]) -> Optional[str]:
    """Canonical form of a ``params['kernel']`` entry for store run keys.

    The default backend canonicalises to ``None`` (the key is dropped), so
    runs that never mention ``kernel`` and runs that spell out
    ``kernel="reference"`` address the same persisted run -- and every run
    key minted before the kernel layer existed stays valid.  Non-default
    backends stay in the params: ``"fused"``/``"numba"`` are only *exactly*
    equal to the reference on integer-valued instances, so conservatively
    they address their own runs.
    """
    name = resolve_kernel_backend(kernel)
    return None if name == DEFAULT_KERNEL else name


class SweepKernel:
    """Base class for sweep kernels (state container + block stepping).

    Subclasses implement :meth:`run_block` and expose the travelling state
    as attributes; the engines read them at block boundaries for exchange,
    probes, history recording and final result assembly.

    Attributes
    ----------
    current, current_energy, current_feasible:
        The ``(M, n)`` incumbent configurations, their ``(M,)`` energies and
        feasibility flags (an infeasible incumbent's energy is 0).
    best, best_energy, best_feasible:
        Best-so-far configurations/energies/flags (same shapes).
    num_feasible, num_skipped, num_accepted:
        Cumulative ``(M,)`` integer proposal counters (feasible candidates,
        filter-rejected candidates, accepted moves).
    """

    #: Class-level backend tag (for result metadata / introspection).
    backend: str = "reference"

    def _init_state(self, current: np.ndarray, current_energy: np.ndarray,
                    current_feasible: np.ndarray) -> None:
        """Adopt the engine's incumbents (not copied -- the engine hands
        over the travelling state); the best states start as copies."""
        self.current = current
        self.current_energy = current_energy
        self.current_feasible = current_feasible
        self.best = current.copy()
        self.best_energy = current_energy.copy()
        self.best_feasible = current_feasible.copy()
        num_replicas = current.shape[0]
        self.num_feasible = np.zeros(num_replicas, dtype=int)
        self.num_skipped = np.zeros(num_replicas, dtype=int)
        self.num_accepted = np.zeros(num_replicas, dtype=int)
        self._all_feasible = False

    def _settled(self) -> bool:
        """Whether every incumbent and every best state is feasible: then
        no replica drifts (paper Eq. (6)) and the best rule is plain ``<``.
        It stays so -- an accepted move only marks states feasible, and an
        exchange permutes the incumbents -- so a true answer is kept."""
        if not self._all_feasible:
            self._all_feasible = bool(self.current_feasible.all()
                                      and self.best_feasible.all())
        return self._all_feasible

    def run_block(self, start_iteration: int, num_iterations: int) -> None:
        """Advance the sweep ``num_iterations`` iterations in one call."""
        raise NotImplementedError

    def swap_arrays(self) -> tuple:
        """Per-replica arrays whose rows travel in a replica exchange.

        The driver swaps *rows* of these arrays in place, so every cache a
        kernel keys by replica (local fields, constraint loads, raw
        energies) must be listed here alongside the configurations and
        energies -- otherwise an exchange would silently desynchronise the
        cache from the configuration it summarises.
        """
        raise NotImplementedError
