"""Sweep kernels: pluggable inner loops for the lock-step batched engines.

See :mod:`repro.kernels.base` for the interface and the backend matrix.
The factories here are what the engines call: given a backend name (or
``"auto"``) and the engine's loop state, they construct the matching
:class:`~repro.kernels.base.SweepKernel`, falling back along
``numba -> packed -> fused -> reference`` when ``"auto"`` meets an
unsupported configuration or a missing optional dependency.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.kernels.base import (
    DEFAULT_KERNEL,
    KERNEL_BACKENDS,
    KernelUnavailableError,
    KernelUnsupportedError,
    SweepKernel,
    canonical_kernel_param,
    resolve_kernel_backend,
)
from repro.kernels.fused import FusedHyCiMKernel, FusedSAKernel
from repro.kernels.packed import PackedHyCiMKernel, PackedSAKernel
from repro.kernels.reference import ReferenceHyCiMKernel, ReferenceSAKernel

__all__ = [
    "DEFAULT_KERNEL",
    "KERNEL_BACKENDS",
    "FusedHyCiMKernel",
    "FusedSAKernel",
    "KernelUnavailableError",
    "KernelUnsupportedError",
    "PackedHyCiMKernel",
    "PackedSAKernel",
    "ReferenceHyCiMKernel",
    "ReferenceSAKernel",
    "SweepKernel",
    "canonical_kernel_param",
    "make_hycim_kernel",
    "make_sa_kernel",
    "resolve_kernel_backend",
]

#: ``"auto"`` tries backends in this order, falling through on
#: KernelUnsupportedError / KernelUnavailableError; the reference backend
#: supports everything, so "auto" never fails for support reasons.
AUTO_ORDER = ("numba", "packed", "fused", "reference")


def _jit_kernel(name: str) -> Callable[..., SweepKernel]:
    """Import the numba backend on first use: importing numba is slow."""

    def construct(**kwargs) -> SweepKernel:
        from repro.kernels import jit

        return getattr(jit, name)(**kwargs)

    return construct


#: backend -> constructor per family.  Every non-reference backend of a
#: family takes the same keywords; the reference kernels take their own.
_SA_KERNELS = {"fused": FusedSAKernel, "packed": PackedSAKernel,
               "numba": _jit_kernel("JitSAKernel")}
_HYCIM_KERNELS = {"fused": FusedHyCiMKernel, "packed": PackedHyCiMKernel,
                  "numba": _jit_kernel("JitHyCiMKernel")}


def _build(backend: Optional[str], kernels: dict,
           reference: Callable[[], SweepKernel], **kwargs) -> SweepKernel:
    def construct(name: str) -> SweepKernel:
        return reference() if name == "reference" else kernels[name](**kwargs)

    name = resolve_kernel_backend(backend)
    if name != "auto":
        return construct(name)
    last_error: Optional[Exception] = None
    for candidate in AUTO_ORDER:
        try:
            return construct(candidate)
        except (KernelUnsupportedError, KernelUnavailableError) as error:
            last_error = error
    raise last_error  # pragma: no cover - reference never raises


def make_sa_kernel(kernel: Optional[str], *, matrix, offset, driver,
                   move_generator, single_flip, moves_per_iteration,
                   current, current_energy, accept_filter=None,
                   accept_filter_batch=None, feasibility_constraints=None,
                   generators=None) -> SweepKernel:
    """Construct the SA sweep kernel for the requested backend."""
    shared = dict(matrix=matrix, offset=offset, driver=driver,
                  single_flip=single_flip,
                  moves_per_iteration=moves_per_iteration, current=current,
                  current_energy=current_energy, accept_filter=accept_filter,
                  accept_filter_batch=accept_filter_batch)
    return _build(
        kernel, _SA_KERNELS,
        lambda: ReferenceSAKernel(move_generator=move_generator, **shared),
        constraints=feasibility_constraints, generators=generators, **shared)


def make_hycim_kernel(kernel: Optional[str], *, num_variables, driver,
                      move_generator, single_flip, moves_per_iteration,
                      feasible_batch, energies, current, current_energy,
                      current_feasible, use_delta, matrix, raw_energy,
                      constraints, use_hardware_filters, use_crossbar,
                      generators=None) -> SweepKernel:
    """Construct the HyCiM sweep kernel for the requested backend."""
    shared = dict(matrix=matrix, driver=driver, single_flip=single_flip,
                  moves_per_iteration=moves_per_iteration, current=current,
                  current_energy=current_energy,
                  current_feasible=current_feasible)

    def reference() -> SweepKernel:
        return ReferenceHyCiMKernel(
            num_variables=num_variables, move_generator=move_generator,
            feasible_batch=feasible_batch, energies=energies,
            use_delta=use_delta, raw_energy=raw_energy, **shared)

    return _build(
        kernel, _HYCIM_KERNELS, reference, constraints=constraints,
        raw_energy=raw_energy if use_delta else None,
        use_hardware_filters=use_hardware_filters, use_crossbar=use_crossbar,
        generators=generators, **shared)
