"""Solver registry: names -> picklable trial functions.

The runtime executes *trials* -- one independent solver run on one problem
instance -- possibly in worker processes.  For that to work every solver must
be constructible from data that survives ``pickle``: a string name plus a
plain parameter dict.  This module maps the canonical solver names

    "hycim", "sa", "dqubo", "greedy", "dp", "brute_force", "local_search"

to module-level trial functions with the uniform signature

    trial_fn(problem, params, seed, initial) -> SolveResult

and the annealers among them to batched trial functions as well.
Annealing solvers are rebuilt from scratch inside every trial (so device
variability and crossbar programming are re-sampled per trial exactly as a
real chip would be reprogrammed), seeded deterministically from the trial
seed.  Their trial functions, single and batched, and the setup they share
live in :mod:`repro.batched.trials`: a single trial is the solver's replica
runner on one seed (a one-replica run of the lock-step engine), a batched
trial the same runner on a whole replica group -- per-trial variability
becomes one freshly sampled chip per device-axis slice (ARCHITECTURE.md) --
so grouped and single trials are interchangeable per seed.  Exact /
heuristic reference solvers are wrapped here so they return the same
:class:`~repro.annealing.result.SolveResult` shape as the annealers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.annealing.result import SolveResult
from repro.batched.trials import (
    _dqubo_trial,
    _hycim_trial,
    _sa_trial,
    _stamp,
    build_dynamics,
    dqubo_batched_trials,
    hycim_batched_trials,
    sa_batched_trials,
)
from repro.exact.brute_force import solve_brute_force
from repro.exact.dp_knapsack import solve_knapsack_dp
from repro.exact.greedy import solve_qkp_greedy
from repro.exact.local_search import improve_qkp_local_search
from repro.problems.base import CombinatorialProblem
from repro.telemetry.recorder import current_recorder, worker_attrs

TrialFunction = Callable[
    [CombinatorialProblem, Mapping[str, Any], int, Optional[np.ndarray]], SolveResult
]

#: A batched trial function runs one lock-step replica group: one trial per
#: spawned seed, returning one SolveResult per seed in order.  Replica ``k``
#: must consume ``np.random.default_rng(seeds[k])`` exactly as the single
#: trial function would, so both paths yield identical per-seed results.
BatchedTrialFunction = Callable[
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
def _reference_energy(problem: CombinatorialProblem, x: np.ndarray) -> float:
    """QUBO energy of ``x`` under the HyCiM inequality-QUBO form, so exact
    solvers report energies on the same scale as the annealers."""
    return float(problem.to_inequality_qubo().energy(x))


def _exact_result(problem: CombinatorialProblem, x: np.ndarray, value: float,
                  name: str, num_evaluated: int = 0) -> SolveResult:
    x = np.asarray(x, dtype=float)
    return SolveResult(
        best_configuration=x,
        best_energy=_reference_energy(problem, x),
        best_objective=float(value),
        feasible=problem.is_feasible(x),
        num_iterations=num_evaluated,
        num_feasible_evaluations=num_evaluated,
        solver_name=name,
        metadata={"deterministic": True},
    )


def _exact_trial(solver: str, seed: int,
                 solve: Callable[[], SolveResult]) -> SolveResult:
    """Run ``solve`` inside the trial's span, then stamp the seed (as
    ``trial_seed`` and ``metadata["seed"]``) and the span's wall time, as the
    annealers' trials are stamped."""
    with current_recorder().span("trial", solver=solver, seed=int(seed),
                                 **worker_attrs()) as span:
        result = solve()
    return _stamp([result], [seed], span.elapsed)[0]


def _greedy_trial(problem: CombinatorialProblem, params: Mapping[str, Any],
                  seed: int, initial: Optional[np.ndarray]) -> SolveResult:
    def solve() -> SolveResult:
        outcome = solve_qkp_greedy(problem)
        return _exact_result(problem, outcome.configuration, outcome.value,
                             "Greedy")
    return _exact_trial("greedy", seed, solve)


def _dp_trial(problem: CombinatorialProblem, params: Mapping[str, Any],
              seed: int, initial: Optional[np.ndarray]) -> SolveResult:
    def solve() -> SolveResult:
        profits = getattr(problem, "profits", None)
        if profits is None or np.ndim(profits) != 1:
            raise TypeError(
                "solver 'dp' needs a linear knapsack problem (1-D profits); "
                f"got {type(problem).__name__} -- use 'brute_force' or "
                "'hycim' for quadratic objectives"
            )
        outcome = solve_knapsack_dp(problem)
        return _exact_result(problem, outcome.best_configuration,
                             outcome.best_value, "DP")
    return _exact_trial("dp", seed, solve)


def _brute_force_trial(problem: CombinatorialProblem, params: Mapping[str, Any],
                       seed: int, initial: Optional[np.ndarray]) -> SolveResult:
    def solve() -> SolveResult:
        outcome = solve_brute_force(
            problem, max_variables=int(params.get("max_variables", 22)))
        return _exact_result(problem, outcome.best_configuration,
                             outcome.best_value, "BruteForce",
                             num_evaluated=outcome.num_evaluated)
    return _exact_trial("brute_force", seed, solve)


def _local_search_trial(problem: CombinatorialProblem, params: Mapping[str, Any],
                        seed: int, initial: Optional[np.ndarray]) -> SolveResult:
    def solve() -> SolveResult:
        rng = np.random.default_rng(seed)
        if initial is None:
            if params.get("greedy_start", False):
                start = solve_qkp_greedy(problem).configuration
            else:
                start = problem.random_feasible_configuration(rng)
        else:
            start = np.asarray(initial, dtype=float)
        outcome = improve_qkp_local_search(
            problem, start, max_passes=int(params.get("max_passes", 50)))
        return _exact_result(problem, outcome.configuration, outcome.value,
                             "LocalSearch", num_evaluated=outcome.iterations)
    return _exact_trial("local_search", seed, solve)


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
_REGISTRY: Dict[str, TrialFunction] = {
    "hycim": _hycim_trial,
    "sa": _sa_trial,
    "dqubo": _dqubo_trial,
    "greedy": _greedy_trial,
    "dp": _dp_trial,
    "brute_force": _brute_force_trial,
    "local_search": _local_search_trial,
}

#: Solvers that produce the same result on every trial; campaigns and
#: portfolios run these once instead of ``num_trials`` times.
DETERMINISTIC_SOLVERS = frozenset({"greedy", "dp", "brute_force"})

#: Vectorised (lock-step replica) trial functions, keyed like ``_REGISTRY``.
_BATCHED_REGISTRY: Dict[str, BatchedTrialFunction] = {
    "hycim": hycim_batched_trials,
    "sa": sa_batched_trials,
    "dqubo": dqubo_batched_trials,
}


def available_solvers() -> Tuple[str, ...]:
    """The registered solver names, sorted."""
    return tuple(sorted(_REGISTRY))


def register_solver(name: str, trial_fn: TrialFunction, *,
                    overwrite: bool = False) -> None:
    """Register a custom trial function under ``name``.

    ``trial_fn`` must be picklable (a module-level function) when the process
    backend is used, and must honour the ``(problem, params, seed, initial)``
    signature.
    """
    if not name or not isinstance(name, str):
        raise ValueError("solver name must be a non-empty string")
    if name in _REGISTRY and not overwrite:
        raise KeyError(f"solver {name!r} is already registered (pass overwrite=True)")
    if not callable(trial_fn):
        raise TypeError("trial_fn must be callable")
    if _REGISTRY.get(name) is not trial_fn:
        # A previously paired batched engine mirrors the *old* trial
        # function; dropping it makes every backend fall back to the new
        # single-trial path instead of silently running stale batched code.
        _BATCHED_REGISTRY.pop(name, None)
    _REGISTRY[name] = trial_fn


def register_batched_solver(name: str, batched_fn: BatchedTrialFunction, *,
                            overwrite: bool = False) -> None:
    """Register a vectorised (lock-step replica group) trial function.

    ``batched_fn`` must honour the ``(problem, params, seeds, initials) ->
    [SolveResult, ...]`` signature, return one result per seed in order, and
    consume ``default_rng(seeds[k])`` for replica ``k`` exactly as the
    single-trial function registered under the same name would -- the
    executor relies on this to keep ``backend="vectorized"`` results
    identical per seed to the serial backend.  Like single-trial functions it
    must be a picklable module-level function to work with the process
    backend's ``replicas_per_task`` grouping.
    """
    if not name or not isinstance(name, str):
        raise ValueError("solver name must be a non-empty string")
    if name in _BATCHED_REGISTRY and not overwrite:
        raise KeyError(
            f"batched solver {name!r} is already registered (pass overwrite=True)"
        )
    if not callable(batched_fn):
        raise TypeError("batched_fn must be callable")
    _BATCHED_REGISTRY[name] = batched_fn


def get_batched_trial_function(name: str) -> Optional[BatchedTrialFunction]:
    """The batched trial function for ``name``, or ``None`` if the solver has
    no vectorised implementation (the executor then falls back to running the
    group's trials through the single-trial function, one by one, which
    yields identical results)."""
    return _BATCHED_REGISTRY.get(name)


def unregister_solver(name: str) -> None:
    """Remove a previously registered custom solver (built-ins included)."""
    _REGISTRY.pop(name, None)
    _BATCHED_REGISTRY.pop(name, None)


def get_trial_function(name: str) -> TrialFunction:
    """Look up the trial function for ``name``; raises ``KeyError`` if unknown."""
    try:
        return _REGISTRY[name]
    except KeyError as error:
        raise KeyError(
            f"unknown solver {name!r}; available: {available_solvers()}"
        ) from error


def run_single_trial(problem: CombinatorialProblem, spec: SpecLike, seed: int,
                     initial: Optional[np.ndarray] = None) -> SolveResult:
    """Execute one trial in-process (the unit of work the executor dispatches)."""
    resolved = as_solver_spec(spec)
    trial_fn = get_trial_function(resolved.solver)
    return trial_fn(problem, resolved.params, int(seed), initial)
