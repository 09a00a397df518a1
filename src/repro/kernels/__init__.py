"""Sweep kernels: pluggable inner loops for the lock-step batched engines.

See :mod:`repro.kernels.base` for the interface and the backend matrix.
Each backend has one kernel, which runs both engines: plain SA is the
HyCiM sweep with every incumbent feasible.  The factory here is what the
engines call: given a backend name (or ``"auto"``) and the engine's loop
state, it constructs the matching :class:`~repro.kernels.base.SweepKernel`,
falling back along ``numba -> fused -> reference`` when ``"auto"`` meets
an unsupported configuration or a missing optional dependency.  Importing
this package imports :mod:`repro.kernels.native` (through the fused
kernel) but compiles nothing: the C library is built when the first loop
driver that replays its streams is constructed.
"""

from __future__ import annotations

from typing import Optional

from repro.kernels.base import (
    DEFAULT_KERNEL,
    KERNEL_BACKENDS,
    KernelUnavailableError,
    KernelUnsupportedError,
    SweepKernel,
    canonical_kernel_param,
    resolve_kernel_backend,
)
from repro.kernels.fused import FusedHyCiMKernel
from repro.kernels.reference import ReferenceHyCiMKernel

__all__ = [
    "DEFAULT_KERNEL",
    "KERNEL_BACKENDS",
    "FusedHyCiMKernel",
    "KernelUnavailableError",
    "KernelUnsupportedError",
    "ReferenceHyCiMKernel",
    "SweepKernel",
    "canonical_kernel_param",
    "make_hycim_kernel",
    "resolve_kernel_backend",
]

#: ``"auto"`` tries backends in this order, falling through on
#: KernelUnsupportedError / KernelUnavailableError; the reference backend
#: supports everything, so "auto" never fails for support reasons.
AUTO_ORDER = ("numba", "fused", "reference")


def _jit_kernel(**kwargs) -> SweepKernel:
    """Import the numba backend on first use: importing numba is slow."""
    from repro.kernels.jit import JitHyCiMKernel

    return JitHyCiMKernel(**kwargs)


#: The incremental backends; they take the same keywords, the reference
#: kernel its own.
_KERNELS = {"fused": FusedHyCiMKernel, "numba": _jit_kernel}


def make_hycim_kernel(kernel: Optional[str], *, num_variables, driver,
                      move_generator, single_flip, moves_per_iteration,
                      feasible_batch, energies, current, current_energy,
                      current_feasible, use_delta, matrix, raw_energy,
                      constraints, use_hardware_filters, use_crossbar
                      ) -> SweepKernel:
    """Construct the sweep kernel of either engine for the requested backend.

    ``feasible_batch=None`` runs without a filter; ``constraints`` is the
    filter's linear form, ``None`` where it has none (which only the
    reference kernel runs).
    """
    shared = dict(matrix=matrix, driver=driver, single_flip=single_flip,
                  moves_per_iteration=moves_per_iteration, current=current,
                  current_energy=current_energy,
                  current_feasible=current_feasible)

    def construct(name: str) -> SweepKernel:
        if name == "reference":
            return ReferenceHyCiMKernel(
                num_variables=num_variables, move_generator=move_generator,
                feasible_batch=feasible_batch, energies=energies,
                use_delta=use_delta, raw_energy=raw_energy, **shared)
        return _KERNELS[name](
            constraints=constraints,
            raw_energy=raw_energy if use_delta else None,
            use_hardware_filters=use_hardware_filters,
            use_crossbar=use_crossbar, **shared)

    name = resolve_kernel_backend(kernel)
    if name != "auto":
        return construct(name)
    for candidate in AUTO_ORDER[:-1]:
        # Unbound on purpose: a caught exception kept in a local holds its
        # traceback, whose frames hold the local -- a cycle that keeps the
        # whole call (solver, matrices, generators) alive until the cyclic
        # collector runs.
        try:
            return construct(candidate)
        except (KernelUnsupportedError, KernelUnavailableError):
            pass
    return construct(AUTO_ORDER[-1])
