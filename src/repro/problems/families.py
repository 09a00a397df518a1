"""The uniform problem-family contract: every COP end-to-end through HyCiM.

The paper's pipeline (inequality-QUBO transformation + FeFET filter +
crossbar + campaigns) was exercised almost exclusively on the knapsack
family.  This module makes "a problem family" a first-class, registered
object so *every* family runs through the same paper-grade path and is
gated by the same conformance suite (``tests/conformance/``):

* :class:`ProblemFamily` bundles what the runtime, the analysis studies and
  the conformance harness need: a generator, a small conformance instance,
  family-appropriate solver parameters (move generator + schedule), the
  energy↔objective identity of its QUBO transformation, and an exact
  reference solution for small instances.
* :func:`register_family` / :func:`get_family` / :func:`family_names` /
  :func:`family_of` form the registry; the six paper families (knapsack,
  QKP, MD-QKP, Max-Cut, graph coloring, TSP, bin packing, SK spin glass)
  are registered on import.
* :func:`stream_instances` turns any registered family into a lazy,
  seed-deterministic instance stream for campaign-scale workloads.

Feasibility semantics per family (the penalty-vs-filter split):

========== ============================== ================================
family     hardware filter (inequalities) move generator / penalty
========== ============================== ================================
knapsack   ``w.x <= C``                   --
qkp        ``w.x <= C``                   --
mdqkp      ``W x <= C`` (one per row)     --
maxcut     -- (unconstrained)             --
coloring   --                             one-hot per vertex (moves)
tsp        --                             permutation one-hot (moves)
binpacking ``s.x_b <= C`` (one per bin)   item one-hot + usage (moves)
spin_glass -- (unconstrained)             --
========== ============================== ================================

Conformance instances are deliberately *integer-valued* (integer profits,
weights, distances, couplings and sizes): integer QUBO data is the
precondition for bitwise serial↔vectorized parity and for exact hardware
evaluation (ARCHITECTURE.md "Parity guarantees").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.problems.base import CombinatorialProblem
from repro.problems.bin_packing import BinPackingProblem
from repro.problems.generators import (
    generate_bin_packing_instance,
    generate_coloring_instance,
    generate_knapsack_instance,
    generate_maxcut_instance,
    generate_qkp_instance,
    generate_sk_instance,
    generate_tsp_instance,
)
from repro.problems.graph_coloring import GraphColoringProblem
from repro.problems.knapsack import KnapsackProblem
from repro.problems.maxcut import MaxCutProblem
from repro.problems.multidim_knapsack import (
    MultiDimensionalKnapsackProblem,
    generate_mdqkp_instance,
)
from repro.problems.qkp import QuadraticKnapsackProblem
from repro.problems.spin_glass import SherringtonKirkpatrickProblem
from repro.problems.tsp import TravelingSalesmanProblem


def _geometric_schedule(scale: float) -> Dict[str, Any]:
    """The instance-scaled schedule protocol used throughout ``analysis``:
    start at 20x the dominant objective coefficient (dict form so solver
    params stay picklable and store-key canonical).  The trial functions'
    automatic schedule is this one too."""
    scale = float(scale) or 1.0
    return {"kind": "geometric", "start_temperature": 20.0 * scale,
            "end_temperature": max(0.02 * scale, 1e-3)}


@dataclass(frozen=True)
class ProblemFamily:
    """One registered COP family: everything needed to run it end-to-end.

    Attributes
    ----------
    name:
        Registry key (``"knapsack"``, ``"tsp"``, ...).
    problem_type:
        The concrete :class:`CombinatorialProblem` subclass;
        :func:`family_of` matches instances by exact type.
    description:
        One-line description for reports.
    transformation:
        Human-readable summary of the QUBO/filter transformation
        (the ARCHITECTURE.md "Problems layer" table).
    filtered_constraints:
        Which constraints are screened by the FeFET inequality filter
        (``"--"`` for none).
    move_constraints:
        Which constraints the move generator keeps satisfied by
        construction (``"--"`` for none).
    generate:
        Keyword-argument instance generator (must accept ``seed=`` and
        ``name=``); :func:`stream_instances` drives it.
    conformance_instance:
        ``seed -> problem``: a small integer-valued instance the
        conformance suite can solve exactly and run on hardware.
    solver_params:
        ``problem -> params``: family-appropriate HyCiM/SA parameters
        (move generator + schedule) as a picklable dict, mergeable with
        caller overrides.
    expected_energy:
        ``(problem, x) -> float``: the QUBO energy that
        ``to_inequality_qubo().qubo`` must assign to a *feasible* ``x``,
        expressed through the native objective — the per-family
        energy↔objective identity the conformance suite asserts.
    reference_solution:
        ``problem -> (x, value)``: exact optimum of a conformance-sized
        instance (brute force / exhaustive decoding).
    """

    name: str
    problem_type: type
    description: str
    transformation: str
    filtered_constraints: str
    move_constraints: str
    generate: Callable[..., CombinatorialProblem]
    conformance_instance: Callable[[int], CombinatorialProblem]
    solver_params: Callable[[CombinatorialProblem], Dict[str, Any]]
    expected_energy: Callable[[CombinatorialProblem, np.ndarray], float]
    reference_solution: Callable[[CombinatorialProblem], Tuple[np.ndarray, float]]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("family name must be non-empty")
        if not issubclass(self.problem_type, CombinatorialProblem):
            raise TypeError("problem_type must subclass CombinatorialProblem")


_FAMILIES: Dict[str, ProblemFamily] = {}


def register_family(family: ProblemFamily, *, overwrite: bool = False) -> None:
    """Register a family under ``family.name``.

    Registration is what plugs a family into ``run_trials`` idiom helpers,
    the per-family analysis study and the conformance gate — a new family
    only has to pass the same suite.
    """
    if family.name in _FAMILIES and not overwrite:
        raise KeyError(
            f"family {family.name!r} is already registered (pass overwrite=True)")
    _FAMILIES[family.name] = family


def get_family(name: str) -> ProblemFamily:
    """Look up a registered family; raises ``KeyError`` with the catalogue."""
    try:
        return _FAMILIES[name]
    except KeyError as error:
        raise KeyError(
            f"unknown problem family {name!r}; available: {family_names()}"
        ) from error


def family_names() -> Tuple[str, ...]:
    """All registered family names, sorted."""
    return tuple(sorted(_FAMILIES))


def family_of(problem: CombinatorialProblem) -> Optional[ProblemFamily]:
    """The registered family whose ``problem_type`` is exactly
    ``type(problem)``, or ``None`` for unregistered problem classes."""
    for family in _FAMILIES.values():
        if type(problem) is family.problem_type:
            return family
    return None


def stream_instances(name: str, count: Optional[int] = None, *, seed: int = 0,
                     **kwargs: Any) -> Iterator[CombinatorialProblem]:
    """Lazily generate instances of a registered family.

    Instance ``i`` is seeded from child ``i`` of ``SeedSequence(seed)``, so
    the stream is deterministic, instances are independent, and consuming
    the first ``k`` instances is independent of ``count`` — a campaign can
    extend a previous stream by asking for more.  ``count=None`` streams
    forever (feed it to ``itertools.islice``).
    """
    family = get_family(name)
    if count is not None and count < 0:
        raise ValueError("count must be non-negative (or None for unbounded)")
    indices = itertools.count() if count is None else range(count)
    for i in indices:
        child = np.random.SeedSequence(seed, spawn_key=(i,))
        instance_seed = int(child.generate_state(1)[0])
        yield family.generate(seed=instance_seed,
                              name=f"{name}_stream_s{seed}_{i:05d}", **kwargs)


# --------------------------------------------------------------------- #
# Reference solutions (exact; conformance-sized instances only)
# --------------------------------------------------------------------- #
def _brute_force_reference(problem: CombinatorialProblem) -> Tuple[np.ndarray, float]:
    return problem.brute_force_best()


def _tsp_reference(problem: TravelingSalesmanProblem) -> Tuple[np.ndarray, float]:
    """Exhaustive tour enumeration with city 0 pinned to position 0."""
    n = problem.num_cities
    best_tour, best_length = None, np.inf
    for rest in itertools.permutations(range(1, n)):
        tour = (0,) + rest
        length = problem.tour_length(tour)
        if length < best_length:
            best_tour, best_length = tour, length
    return problem.encode_tour(best_tour), float(best_length)


def _coloring_reference(problem: GraphColoringProblem) -> Tuple[np.ndarray, float]:
    """Exhaustive enumeration of one-hot assignments (``k^V`` of them)."""
    best_x, best_conflicts = None, np.inf
    for assignment in itertools.product(range(problem.num_colors),
                                        repeat=problem.num_nodes):
        x = problem.encode(assignment)
        conflicts = problem.objective(x)
        if conflicts < best_conflicts:
            best_x, best_conflicts = x, conflicts
            if best_conflicts == 0:
                break
    return best_x, float(best_conflicts)


def _bin_packing_reference(problem: BinPackingProblem) -> Tuple[np.ndarray, float]:
    """Exhaustive enumeration of item→bin assignments (``m^n`` of them)."""
    best_x, best_bins = None, np.inf
    for assignment in itertools.product(range(problem.num_bins),
                                        repeat=problem.num_items):
        x = problem.encode(assignment)
        if not problem.is_feasible(x):
            continue
        bins_used = problem.objective(x)
        if bins_used < best_bins:
            best_x, best_bins = x, bins_used
    if best_x is None:
        raise RuntimeError("conformance bin-packing instance has no feasible packing")
    return best_x, float(best_bins)


# --------------------------------------------------------------------- #
# Per-family solver parameters
# --------------------------------------------------------------------- #
def _knapsack_params(problem: KnapsackProblem) -> Dict[str, Any]:
    return {"move_generator": "knapsack",
            "schedule": _geometric_schedule(np.max(np.abs(problem.profits)))}


def _maxcut_params(problem: MaxCutProblem) -> Dict[str, Any]:
    return {"move_generator": "single_flip",
            "schedule": _geometric_schedule(np.max(np.abs(problem.adjacency)))}


def _sk_params(problem: SherringtonKirkpatrickProblem) -> Dict[str, Any]:
    return {"move_generator": "single_flip",
            "schedule": _geometric_schedule(np.max(np.abs(problem.couplings)))}


def _tsp_params(problem: TravelingSalesmanProblem) -> Dict[str, Any]:
    n = problem.num_cities
    return {"move_generator": {"kind": "permutation_swap",
                               "num_groups": n, "group_size": n},
            "schedule": _geometric_schedule(np.max(problem.distances))}


def _coloring_params(problem: GraphColoringProblem) -> Dict[str, Any]:
    return {"move_generator": {"kind": "one_hot",
                               "group_sizes": [problem.num_colors] * problem.num_nodes},
            "schedule": _geometric_schedule(problem.penalty_conflict)}


def _bin_packing_params(problem: BinPackingProblem) -> Dict[str, Any]:
    return {"move_generator": {"kind": "bin_packing",
                               "num_items": problem.num_items,
                               "num_bins": problem.num_bins},
            "schedule": _geometric_schedule(problem.penalty_assign)}


# --------------------------------------------------------------------- #
# Energy ↔ objective identities (asserted on feasible states)
# --------------------------------------------------------------------- #
def _negated_objective(problem: CombinatorialProblem, x: np.ndarray) -> float:
    return -problem.objective(x)


def _native_objective(problem: CombinatorialProblem, x: np.ndarray) -> float:
    return float(problem.objective(x))


def _coloring_energy(problem: GraphColoringProblem, x: np.ndarray) -> float:
    return problem.penalty_conflict * problem.objective(x)


# --------------------------------------------------------------------- #
# The built-in catalogue
# --------------------------------------------------------------------- #
register_family(ProblemFamily(
    name="knapsack",
    problem_type=KnapsackProblem,
    description="Linear 0/1 knapsack (one capacity constraint).",
    transformation="diagonal QUBO Q = -diag(p); capacity detached",
    filtered_constraints="w.x <= C (hardware filter)",
    move_constraints="--",
    generate=generate_knapsack_instance,
    conformance_instance=lambda seed: generate_knapsack_instance(
        num_items=10, seed=seed, name=f"conf_knapsack_s{seed}"),
    solver_params=_knapsack_params,
    expected_energy=_negated_objective,
    reference_solution=_brute_force_reference,
))

register_family(ProblemFamily(
    name="qkp",
    problem_type=QuadraticKnapsackProblem,
    description="Quadratic knapsack, the paper's representative workload.",
    transformation="QUBO Q = -P_upper (Eq. (4)); capacity detached (Eq. (6))",
    filtered_constraints="w.x <= C (hardware filter)",
    move_constraints="--",
    generate=generate_qkp_instance,
    conformance_instance=lambda seed: generate_qkp_instance(
        num_items=10, density=0.5, seed=seed, name=f"conf_qkp_s{seed}"),
    solver_params=_knapsack_params,
    expected_energy=_negated_objective,
    reference_solution=_brute_force_reference,
))

register_family(ProblemFamily(
    name="mdqkp",
    problem_type=MultiDimensionalKnapsackProblem,
    description="Multi-dimensional quadratic knapsack (m capacity constraints).",
    transformation="QUBO Q = -P_upper; one detached inequality per resource",
    filtered_constraints="W x <= C, one hardware filter per row",
    move_constraints="--",
    generate=generate_mdqkp_instance,
    conformance_instance=lambda seed: generate_mdqkp_instance(
        num_items=8, num_constraints=2, seed=seed, name=f"conf_mdqkp_s{seed}"),
    solver_params=_knapsack_params,
    expected_energy=_negated_objective,
    reference_solution=_brute_force_reference,
))

register_family(ProblemFamily(
    name="maxcut",
    problem_type=MaxCutProblem,
    description="Max-Cut, the canonical unconstrained COP.",
    transformation="QUBO sum w_ij (2 x_i x_j - x_i - x_j); min = -max cut",
    filtered_constraints="--",
    move_constraints="--",
    generate=generate_maxcut_instance,
    conformance_instance=lambda seed: generate_maxcut_instance(
        num_nodes=8, seed=seed, name=f"conf_maxcut_s{seed}"),
    solver_params=_maxcut_params,
    expected_energy=_negated_objective,
    reference_solution=_brute_force_reference,
))

register_family(ProblemFamily(
    name="coloring",
    problem_type=GraphColoringProblem,
    description="Graph k-coloring (minimise monochromatic edges).",
    transformation="conflict QUBO; one-hot equalities detached",
    filtered_constraints="--",
    move_constraints="one colour per vertex (one-hot group moves)",
    generate=generate_coloring_instance,
    conformance_instance=lambda seed: generate_coloring_instance(
        num_nodes=6, edge_probability=0.5, num_colors=3, seed=seed,
        name=f"conf_coloring_s{seed}"),
    solver_params=_coloring_params,
    expected_energy=_coloring_energy,
    reference_solution=_coloring_reference,
))

register_family(ProblemFamily(
    name="tsp",
    problem_type=TravelingSalesmanProblem,
    description="Symmetric TSP in the permutation-matrix encoding.",
    transformation="distance QUBO; row/column one-hot equalities detached",
    filtered_constraints="--",
    move_constraints="permutation validity (swap moves)",
    generate=generate_tsp_instance,
    conformance_instance=lambda seed: generate_tsp_instance(
        num_cities=4, integer_distances=True, seed=seed,
        name=f"conf_tsp_s{seed}"),
    solver_params=_tsp_params,
    expected_energy=_native_objective,
    reference_solution=_tsp_reference,
))

register_family(ProblemFamily(
    name="binpacking",
    problem_type=BinPackingProblem,
    description="Bin packing (minimise bins used, per-bin capacities).",
    transformation="usage QUBO; per-bin capacity inequalities detached",
    filtered_constraints="s.x_b <= C, one hardware filter per bin",
    move_constraints="item one-hot + usage-bit consistency (relocate moves)",
    generate=generate_bin_packing_instance,
    conformance_instance=lambda seed: generate_bin_packing_instance(
        num_items=4, num_bins=3, capacity=10.0, max_size_fraction=0.5,
        seed=seed, name=f"conf_binpacking_s{seed}"),
    solver_params=_bin_packing_params,
    expected_energy=_native_objective,
    reference_solution=_bin_packing_reference,
))

register_family(ProblemFamily(
    name="spin_glass",
    problem_type=SherringtonKirkpatrickProblem,
    description="Sherrington-Kirkpatrick spin glass (unconstrained).",
    transformation="exact Ising-to-QUBO variable change sigma = 1 - 2x",
    filtered_constraints="--",
    move_constraints="--",
    generate=generate_sk_instance,
    conformance_instance=lambda seed: generate_sk_instance(
        num_spins=8, discrete=True, seed=seed, name=f"conf_sk_s{seed}"),
    solver_params=_sk_params,
    expected_energy=_native_objective,
    reference_solution=_brute_force_reference,
))
