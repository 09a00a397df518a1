"""Solver registry: names -> picklable trial functions.

The runtime executes *trials* -- one independent solver run on one problem
instance -- possibly in worker processes.  For that to work every solver must
be constructible from data that survives ``pickle``: a string name plus a
plain parameter dict.  This module maps the canonical solver names

    "hycim", "sa", "dqubo", "greedy", "dp", "brute_force", "local_search"

to module-level trial functions with the one signature

    trial_fn(problem, params, seeds, initials) -> [SolveResult, ...]

A trial function runs a group of trials, one per seed, and returns one
result per seed in order.  Trial ``k`` must consume
``np.random.default_rng(seeds[k])`` exactly as it would alone, so the
results are identical per seed however the executor groups the trials.  The
annealers' trial functions live in :mod:`repro.batched.trials`: a group is
one lock-step replica batch, and the solver is built afresh for every
group (per-trial device variability becomes one freshly sampled chip per
device-axis slice, ARCHITECTURE.md), seeded deterministically from the
trial seeds.  Exact / heuristic reference solvers are wrapped here so they
return the same :class:`~repro.annealing.result.SolveResult` shape as the
annealers.  A solver reads only the params it understands.

:func:`run_trial_group` runs a trial function inside the group's telemetry
span and stamps each result's trial seed and wall time; the executor's
chunk loop and :func:`run_single_trial` both go through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.annealing.result import SolveResult
from repro.batched.trials import (
    build_dynamics,
    dqubo_trials,
    hycim_trials,
    sa_trials,
)
from repro.core.transformation import InequalityQUBO
from repro.exact.brute_force import solve_brute_force
from repro.exact.dp_knapsack import solve_knapsack_dp
from repro.exact.greedy import solve_qkp_greedy
from repro.exact.local_search import improve_qkp_local_search
from repro.problems.base import CombinatorialProblem
from repro.telemetry.recorder import current_recorder, worker_attrs

#: A trial function runs one group of trials: one per seed, returning one
#: SolveResult per seed in order (see the module docstring).
TrialFunction = Callable[
    [CombinatorialProblem, Mapping[str, Any], Sequence[int],
     Sequence[Optional[np.ndarray]]], List[SolveResult]
]


# --------------------------------------------------------------------- #
# Solver specs
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SolverSpec:
    """A picklable description of one solver configuration.

    Attributes
    ----------
    solver:
        Registry name (``"hycim"``, ``"sa"``, ...).
    params:
        Keyword parameters handed to the trial function.
    label:
        Display name used in campaign / portfolio reports; defaults to the
        solver name.
    """

    solver: str
    params: Mapping[str, Any] = field(default_factory=dict)
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.solver not in _REGISTRY:
            raise KeyError(
                f"unknown solver {self.solver!r}; available: {available_solvers()}"
            )
        object.__setattr__(self, "params", dict(self.params))

    @property
    def display_name(self) -> str:
        return self.label or self.solver

    def with_params(self, **overrides: Any) -> "SolverSpec":
        """A copy of this spec with ``overrides`` merged into the params."""
        merged = dict(self.params)
        merged.update(overrides)
        return SolverSpec(self.solver, merged, label=self.label)


SpecLike = Union[str, SolverSpec, Mapping[str, Any], Tuple[str, Mapping[str, Any]]]


def as_solver_spec(spec: SpecLike) -> SolverSpec:
    """Coerce a name / dict / (name, params) pair into a :class:`SolverSpec`."""
    if isinstance(spec, SolverSpec):
        return spec
    if isinstance(spec, str):
        return SolverSpec(spec)
    if isinstance(spec, tuple) and len(spec) == 2:
        return SolverSpec(spec[0], dict(spec[1]))
    if isinstance(spec, Mapping):
        payload = dict(spec)
        try:
            name = payload.pop("solver")
        except KeyError as error:
            raise ValueError("solver spec dicts need a 'solver' key") from error
        label = payload.pop("label", None)
        params = payload.pop("params", None)
        if params is not None:
            payload.update(params)
        return SolverSpec(name, payload, label=label)
    raise TypeError(f"cannot interpret {type(spec).__name__} as a solver spec")


# --------------------------------------------------------------------- #
# Exact / reference trial functions
# --------------------------------------------------------------------- #
#: ``solver_name`` of each reference solver's results, by registry name.
_REFERENCE_NAMES = {"greedy": "Greedy", "dp": "DP",
                    "brute_force": "BruteForce",
                    "local_search": "LocalSearch"}


def _exact_result(problem: CombinatorialProblem, model: InequalityQUBO,
                  x: np.ndarray, value: float, solver: str,
                  num_evaluated: int = 0) -> SolveResult:
    """A reference solver's result; ``model`` is the problem's HyCiM
    inequality-QUBO form, built once per group, so exact solvers report
    energies on the same scale as the annealers.  Only the
    :data:`DETERMINISTIC_SOLVERS` are marked ``deterministic``: a local
    search from random starts is not."""
    x = np.array(x, dtype=float)
    return SolveResult(
        best_configuration=x,
        best_energy=float(model.energy(x)),
        best_objective=float(value),
        feasible=problem.is_feasible(x),
        num_iterations=num_evaluated,
        num_feasible_evaluations=num_evaluated,
        solver_name=_REFERENCE_NAMES[solver],
        metadata=({"deterministic": True}
                  if solver in DETERMINISTIC_SOLVERS else {}),
    )


def _greedy_trials(problem: CombinatorialProblem, params: Mapping[str, Any],
                   seeds: Sequence[int],
                   initials: Sequence[Optional[np.ndarray]]) -> List[SolveResult]:
    outcome = solve_qkp_greedy(problem)
    model = problem.to_inequality_qubo()
    return [_exact_result(problem, model, outcome.configuration,
                          outcome.value, "greedy") for _ in seeds]


def _dp_trials(problem: CombinatorialProblem, params: Mapping[str, Any],
               seeds: Sequence[int],
               initials: Sequence[Optional[np.ndarray]]) -> List[SolveResult]:
    profits = getattr(problem, "profits", None)
    if profits is None or np.ndim(profits) != 1:
        raise TypeError(
            "solver 'dp' needs a linear knapsack problem (1-D profits); "
            f"got {type(problem).__name__} -- use 'brute_force' or "
            "'hycim' for quadratic objectives"
        )
    outcome = solve_knapsack_dp(problem)
    model = problem.to_inequality_qubo()
    return [_exact_result(problem, model, outcome.best_configuration,
                          outcome.best_value, "dp") for _ in seeds]


def _brute_force_trials(problem: CombinatorialProblem,
                        params: Mapping[str, Any], seeds: Sequence[int],
                        initials: Sequence[Optional[np.ndarray]]
                        ) -> List[SolveResult]:
    outcome = solve_brute_force(
        problem, max_variables=int(params.get("max_variables", 22)))
    model = problem.to_inequality_qubo()
    return [_exact_result(problem, model, outcome.best_configuration,
                          outcome.best_value, "brute_force",
                          num_evaluated=outcome.num_evaluated)
            for _ in seeds]


def _local_search_trials(problem: CombinatorialProblem,
                         params: Mapping[str, Any], seeds: Sequence[int],
                         initials: Sequence[Optional[np.ndarray]]
                         ) -> List[SolveResult]:
    model = problem.to_inequality_qubo()
    results = []
    for seed, initial in zip(seeds, initials):
        if initial is not None:
            start = np.asarray(initial, dtype=float)
        elif params.get("greedy_start", False):
            start = solve_qkp_greedy(problem).configuration
        else:
            start = problem.random_feasible_configuration(
                np.random.default_rng(seed))
        outcome = improve_qkp_local_search(
            problem, start, max_passes=int(params.get("max_passes", 50)))
        results.append(_exact_result(problem, model, outcome.configuration,
                                     outcome.value, "local_search",
                                     num_evaluated=outcome.iterations))
    return results


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
_REGISTRY: Dict[str, TrialFunction] = {
    "hycim": hycim_trials,
    "sa": sa_trials,
    "dqubo": dqubo_trials,
    "greedy": _greedy_trials,
    "dp": _dp_trials,
    "brute_force": _brute_force_trials,
    "local_search": _local_search_trials,
}

#: Solvers that produce the same result on every trial; campaigns and
#: portfolios run these once instead of ``num_trials`` times.
DETERMINISTIC_SOLVERS = frozenset({"greedy", "dp", "brute_force"})


def available_solvers() -> Tuple[str, ...]:
    """The registered solver names, sorted."""
    return tuple(sorted(_REGISTRY))


def register_solver(name: str, trial_fn: TrialFunction, *,
                    overwrite: bool = False) -> None:
    """Register a custom trial function under ``name``.

    ``trial_fn`` must honour the ``(problem, params, seeds, initials) ->
    [SolveResult, ...]`` signature: one result per seed, in order, trial
    ``k`` consuming ``default_rng(seeds[k])`` as it would alone (the
    executor relies on this to keep every backend identical per seed).  It
    must be picklable (a module-level function) when the process backend is
    used.
    """
    if not name or not isinstance(name, str):
        raise ValueError("solver name must be a non-empty string")
    if name in _REGISTRY and not overwrite:
        raise KeyError(f"solver {name!r} is already registered (pass overwrite=True)")
    if not callable(trial_fn):
        raise TypeError("trial_fn must be callable")
    _REGISTRY[name] = trial_fn


def unregister_solver(name: str) -> None:
    """Remove a previously registered custom solver (built-ins included)."""
    _REGISTRY.pop(name, None)


def get_trial_function(name: str) -> TrialFunction:
    """Look up the trial function for ``name``; raises ``KeyError`` if unknown."""
    try:
        return _REGISTRY[name]
    except KeyError as error:
        raise KeyError(
            f"unknown solver {name!r}; available: {available_solvers()}"
        ) from error


def kernel_resolved(result: SolveResult) -> Optional[str]:
    """The sweep-kernel backend ``result`` ran on, as spans and manifests
    record it.

    The engine's stamp (what ``kernel="auto"`` actually picked) when present;
    ``"reference"`` for an engine result without one; ``"scalar"`` for a
    result without the engine's ``vectorized`` marker, such as one persisted
    by the scalar loops that single trials ran on before they became
    one-replica engine runs.  Reference solvers, told apart by their
    ``solver_name``, run no sweep kernel: ``None``.
    """
    if result.solver_name in _REFERENCE_NAMES.values():
        return None
    metadata = result.metadata
    if "kernel" in metadata:
        return str(metadata["kernel"])
    return "reference" if metadata.get("vectorized") else "scalar"


def run_trial_group(trial_fn: TrialFunction, problem: CombinatorialProblem,
                    solver: str, params: Mapping[str, Any],
                    seeds: Sequence[int],
                    initials: Sequence[Optional[np.ndarray]],
                    grouped: bool = False) -> List[SolveResult]:
    """Run ``trial_fn`` on ``seeds`` inside one telemetry span, then stamp
    each result's seed (``trial_seed`` and ``metadata["seed"]``) and wall
    time.

    The span is ``trial_group`` (with ``replicas``) when the executor groups
    trials -- ``replicas_per_task > 1`` or coupled dynamics -- and ``trial``
    (with ``seed``) for a lone trial; either way it carries the solver name,
    the emitting process (:func:`~repro.telemetry.recorder.worker_attrs`)
    and, on its end, :func:`kernel_resolved`.  The trials of a group share
    one wall clock, so each result reports the span's time divided by the
    group size: the per-trial *throughput* cost the runtime benchmarks
    compare across backends.
    """
    seeds = [int(seed) for seed in seeds]
    attrs = {"replicas": len(seeds)} if grouped else {"seed": seeds[0]}
    with current_recorder().span("trial_group" if grouped else "trial",
                                 solver=solver, **attrs,
                                 **worker_attrs()) as span:
        results = trial_fn(problem, params, seeds, initials)
        resolved = kernel_resolved(results[0]) if results else None
        if resolved is not None:
            span.annotate(kernel_resolved=resolved)
    per_trial = span.elapsed / max(len(results), 1)
    for result, seed in zip(results, seeds):
        result.trial_seed = seed
        result.wall_time = per_trial
        result.metadata["seed"] = seed
    return results


def run_single_trial(problem: CombinatorialProblem, spec: SpecLike, seed: int,
                     initial: Optional[np.ndarray] = None) -> SolveResult:
    """Execute one trial in-process, as the executor runs a lone trial."""
    resolved = as_solver_spec(spec)
    return run_trial_group(get_trial_function(resolved.solver), problem,
                           resolved.solver, resolved.params, [seed],
                           [initial])[0]
