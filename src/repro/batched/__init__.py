"""Vectorised multi-replica annealing: M replicas per instance in lock-step.

The scalar solvers advance one configuration at a time; this package advances
a whole replica batch per NumPy operation -- lock-step replica engines that
preserve per-replica ``Generator`` streams for exact scalar parity
(:mod:`repro.batched.engine`, whose batched energy, delta and verdict
primitives live with the reference sweep in :mod:`repro.kernels.reference`),
a batch-of-chips mode that runs per-trial device ``variability`` or a
noisy crossbar as one slice of the hardware stack's device axis per trial
(see ARCHITECTURE.md),
and the trial functions of the runtime's ``"hycim"``, ``"sa"`` and
``"dqubo"`` solvers -- one per solver, any group of trial seeds -- with
their setup from parameter dicts (:mod:`repro.batched.trials`).

The front door is :func:`repro.runtime.run_trials` with
``backend="vectorized"`` (whole batch in-process) or ``replicas_per_task`` on
the process backend (vectorised groups inside each worker task); both produce
per-seed results identical to the serial backend in software mode on
integer-valued objective data (the paper's QKP benchmarks -- float
coefficients agree to floating-point tolerance, see
:mod:`repro.kernels.reference`).

The engines' control loops (temperature tables, acceptance, replica
exchange, RNG topology) are owned by :mod:`repro.dynamics`;
``run_trials(..., dynamics=ParallelTempering())`` runs a replica batch as
one tempered ladder with exchange at the iteration boundaries the replicas
already share.
"""

from repro.batched.engine import BatchedHyCiMSolver, BatchedSimulatedAnnealer
from repro.batched.trials import dqubo_trials, hycim_trials, sa_trials

__all__ = [
    "BatchedHyCiMSolver",
    "BatchedSimulatedAnnealer",
    "dqubo_trials",
    "hycim_trials",
    "sa_trials",
]
