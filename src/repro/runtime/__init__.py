"""Parallel solver runtime: registry, executor, campaigns, portfolios.

The single front door for running any solver of the reproduction at scale.
The paper's whole evaluation protocol is "many independent SA trials per
instance, score the success rate"; this package owns that loop:

* :mod:`repro.runtime.registry` -- solver names -> picklable trial functions
  (``"hycim"``, ``"sa"``, ``"dqubo"``, ``"greedy"``, ``"dp"``,
  ``"brute_force"``, ``"local_search"``), constructible from plain config
  dicts; every one runs a group of trial seeds per call, one result per
  seed.
* :mod:`repro.runtime.executor` -- :func:`run_trials`: N replica seeds per
  instance, fanned out over a ``multiprocessing`` pool (``backend=
  "process"``), run in-process (``backend="serial"``) or advanced in
  lock-step through the vectorised replica engine of :mod:`repro.batched`
  (``backend="vectorized"``), with ``SeedSequence.spawn`` seed derivation
  making all backends identical per seed (bitwise in software mode on
  integer-valued objective data; float data within fp tolerance).
  ``replicas_per_task`` composes process-level and replica-level
  parallelism: each worker task runs vectorised replica groups.
* :mod:`repro.runtime.campaign` -- (instance x solver x params) sweeps with
  per-cell aggregation and early stopping on the success bar.
* :mod:`repro.runtime.portfolio` -- several solvers racing on one instance,
  best feasible answer wins.
* :mod:`repro.runtime.aggregate` -- best-of / success-rate /
  time-to-solution statistics compatible with :mod:`repro.analysis.metrics`.
"""

# Import order matters: registry and executor must be bound before the
# aggregation modules, whose import of repro.analysis.metrics triggers
# repro.analysis.__init__, whose submodules import run_trials back from this
# (then partially initialised) package.
from repro.runtime.registry import (
    DETERMINISTIC_SOLVERS,
    SolverSpec,
    as_solver_spec,
    available_solvers,
    build_dynamics,
    get_trial_function,
    register_solver,
    run_single_trial,
    unregister_solver,
)
from repro.runtime.executor import (
    BACKENDS,
    TrialBatch,
    concatenate_batches,
    derive_trial_seeds,
    replay_trial,
    run_trials,
)
from repro.runtime.aggregate import (
    DETERMINISTIC_STATISTICS_FIELDS,
    STATISTICS_HEADER,
    TrialStatistics,
    aggregate_trials,
    mean_success_over_batches,
    meets_success_bar,
    race_key,
    statistics_fingerprint,
    statistics_table,
    success_bar,
)
from repro.runtime.campaign import (
    CampaignRecord,
    CampaignResult,
    expand_param_grid,
    run_campaign,
)
from repro.runtime.portfolio import DEFAULT_PORTFOLIO, PortfolioResult, run_portfolio

__all__ = [
    "BACKENDS",
    "DEFAULT_PORTFOLIO",
    "DETERMINISTIC_SOLVERS",
    "DETERMINISTIC_STATISTICS_FIELDS",
    "STATISTICS_HEADER",
    "CampaignRecord",
    "CampaignResult",
    "PortfolioResult",
    "SolverSpec",
    "TrialBatch",
    "TrialStatistics",
    "aggregate_trials",
    "as_solver_spec",
    "available_solvers",
    "build_dynamics",
    "concatenate_batches",
    "derive_trial_seeds",
    "expand_param_grid",
    "get_trial_function",
    "mean_success_over_batches",
    "meets_success_bar",
    "race_key",
    "register_solver",
    "replay_trial",
    "run_campaign",
    "run_portfolio",
    "run_single_trial",
    "run_trials",
    "statistics_fingerprint",
    "statistics_table",
    "success_bar",
    "unregister_solver",
]
