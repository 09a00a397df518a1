"""Per-figure / per-table experiment runners (paper Sec. 4).

Each runner reproduces one evaluation artefact of the paper and returns a
structured result object; the benchmark harnesses under ``benchmarks/`` call
these with scaled-down parameters and assert the qualitative shape of the
result, while ``examples/`` and EXPERIMENTS.md use the same code to print the
full rows/series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import (
    classification_metrics,
    mean_success_rate,
    success_rate,
)
from repro.cim.cost_model import (
    CostModelParameters,
    dqubo_hardware_cost,
    hardware_size_saving,
    hycim_hardware_cost,
)
from repro.cim.crossbar import CrossbarConfig, FeFETCrossbar
from repro.cim.inequality_filter import InequalityFilter
from repro.core.dqubo import SlackEncoding, predict_dqubo_dimension, predict_dqubo_qmax
from repro.core.quantization import QuantizationReport, quantization_report
from repro.dynamics.moves import (
    KnapsackNeighborhoodMove,
    MoveGenerator,
    OneHotGroupMove,
    PermutationSwapMove,
    SingleFlipMove,
)
from repro.dynamics.schedule import GeometricSchedule
from repro.exact.brute_force import solve_brute_force
from repro.exact.dp_knapsack import solve_knapsack_dp
from repro.exact.local_search import reference_qkp_value
from repro.fefet.variability import VariabilityModel
from repro.problems.generators import (
    generate_coloring_instance,
    generate_knapsack_instance,
    generate_maxcut_instance,
    generate_qkp_instance,
    generate_sk_instance,
    generate_tsp_instance,
)
from repro.problems.families import family_names, get_family
from repro.problems.qkp import QuadraticKnapsackProblem
from repro.runtime import aggregate_trials, meets_success_bar, run_trials


# --------------------------------------------------------------------- #
# Fig. 8 -- inequality filter validation
# --------------------------------------------------------------------- #
@dataclass
class FilterValidationResult:
    """Outcome of the Monte-Carlo filter validation (Fig. 8).

    Attributes
    ----------
    normalized_voltages:
        Working-matchline voltage divided by replica voltage, one entry per
        evaluated configuration (the Fig. 8 y-axis).
    ground_truth_feasible:
        Exact feasibility of each configuration.
    filter_decisions:
        The comparator decision for each configuration.
    metrics:
        Accuracy / false-positive / false-negative summary.
    """

    normalized_voltages: np.ndarray
    ground_truth_feasible: np.ndarray
    filter_decisions: np.ndarray
    metrics: Dict[str, float]

    @property
    def num_cases(self) -> int:
        return int(self.normalized_voltages.shape[0])


def run_filter_validation(
    problems: Sequence[QuadraticKnapsackProblem],
    samples_per_instance: int = 20,
    filter_rows: int = 16,
    variability: Optional[VariabilityModel] = None,
    matchline_noise_sigma: float = 0.0,
    seed: int = 0,
) -> FilterValidationResult:
    """Classify Monte-Carlo sampled configurations with the CiM filter.

    The paper draws 20 configurations per instance (10 feasible, 10
    infeasible) for 40 instances, 800 cases in total.
    """
    if samples_per_instance < 2 or samples_per_instance % 2:
        raise ValueError("samples_per_instance must be a positive even number")
    rng = np.random.default_rng(seed)
    voltages: List[float] = []
    truths: List[bool] = []
    decisions: List[bool] = []
    half = samples_per_instance // 2
    for problem in problems:
        cim_filter = InequalityFilter(
            problem.constraint(),
            num_rows=filter_rows,
            variability=variability,
            matchline_noise_sigma=matchline_noise_sigma,
        )
        samples = [problem.random_feasible_configuration(rng) for _ in range(half)]
        samples += [problem.random_infeasible_configuration(rng) for _ in range(half)]
        for configuration in samples:
            decision = cim_filter.evaluate(configuration, rng=rng)
            voltages.append(decision.normalized_voltage)
            truths.append(problem.is_feasible(configuration))
            decisions.append(decision.feasible)
    return FilterValidationResult(
        normalized_voltages=np.array(voltages),
        ground_truth_feasible=np.array(truths, dtype=bool),
        filter_decisions=np.array(decisions, dtype=bool),
        metrics=classification_metrics(decisions, truths),
    )


# --------------------------------------------------------------------- #
# Fig. 9 -- hardware overhead study
# --------------------------------------------------------------------- #
@dataclass
class HardwareOverheadRecord:
    """Per-instance hardware comparison (one row of Fig. 9(a,b,c)).

    Attributes
    ----------
    instance_name:
        QKP instance label.
    hycim_report / dqubo_report:
        Quantization summaries (dimension, Q_max, bits).
    search_space_reduction_bits:
        ``(n + C) - n`` -- the exponent of the search-space shrink factor.
    bit_reduction:
        Fractional reduction of per-element bits (Fig. 9(a) annotation).
    hardware_saving:
        Fractional area saving of HyCiM over D-QUBO (Fig. 9(c)).
    """

    instance_name: str
    hycim_report: QuantizationReport
    dqubo_report: QuantizationReport
    search_space_reduction_bits: int
    bit_reduction: float
    hardware_saving: float


def run_hardware_overhead_study(
    problems: Sequence[QuadraticKnapsackProblem],
    alpha: float = 2.0,
    beta: float = 2.0,
    filter_rows: int = 16,
    cost_parameters: CostModelParameters = CostModelParameters(),
) -> List[HardwareOverheadRecord]:
    """Compute the Fig. 9 quantities for every QKP instance.

    The D-QUBO side is characterised analytically (dimension and ``Q_max``
    follow closed forms of ``n``, ``C`` and the penalty weights), so the study
    runs at the paper's full scale in milliseconds.
    """
    records: List[HardwareOverheadRecord] = []
    for problem in problems:
        hycim_model = problem.to_inequality_qubo()
        hycim_report = quantization_report(hycim_model)

        capacity = problem.capacity
        dqubo_dimension = predict_dqubo_dimension(problem.num_items, capacity,
                                                  SlackEncoding.ONE_HOT)
        dqubo_qmax = predict_dqubo_qmax(
            objective_qmax=hycim_report.max_abs_coefficient,
            max_weight=float(problem.weights.max()),
            capacity=capacity,
            alpha=alpha,
            beta=beta,
            encoding=SlackEncoding.ONE_HOT,
        )
        dqubo_bits = max(1, int(math.ceil(math.log2(dqubo_qmax))))
        dqubo_report = QuantizationReport(
            num_variables=dqubo_dimension,
            max_abs_coefficient=dqubo_qmax,
            bits_per_element=dqubo_bits,
            crossbar_cells=dqubo_dimension * dqubo_dimension * dqubo_bits,
            search_space_bits=dqubo_dimension,
        )

        hycim_cost = hycim_hardware_cost(hycim_report, filter_rows=filter_rows,
                                         params=cost_parameters)
        dqubo_cost = dqubo_hardware_cost(dqubo_report, params=cost_parameters)
        records.append(
            HardwareOverheadRecord(
                instance_name=problem.name,
                hycim_report=hycim_report,
                dqubo_report=dqubo_report,
                search_space_reduction_bits=dqubo_dimension - hycim_report.num_variables,
                bit_reduction=hycim_report.bit_reduction_vs(dqubo_report),
                hardware_saving=hardware_size_saving(hycim_cost, dqubo_cost),
            )
        )
    return records


# --------------------------------------------------------------------- #
# Fig. 10 -- problem solving efficiency
# --------------------------------------------------------------------- #
@dataclass
class SolvingEfficiencyResult:
    """Outcome of the HyCiM vs D-QUBO solving-efficiency comparison (Fig. 10).

    Attributes
    ----------
    hycim_normalized / dqubo_normalized:
        Per-run QKP value normalised by the instance reference value,
        concatenated over all instances and initial states.
    hycim_success_rates / dqubo_success_rates:
        Per-instance success rates.
    hycim_mean_success / dqubo_mean_success:
        Average success rate over instances (the headline numbers).
    instance_names:
        Instance labels, aligned with the per-instance rates.
    """

    hycim_normalized: np.ndarray
    dqubo_normalized: np.ndarray
    hycim_success_rates: List[float]
    dqubo_success_rates: List[float]
    instance_names: List[str]

    @property
    def hycim_mean_success(self) -> float:
        return mean_success_rate(self.hycim_success_rates)

    @property
    def dqubo_mean_success(self) -> float:
        return mean_success_rate(self.dqubo_success_rates)


def run_solving_efficiency_study(
    problems: Sequence[QuadraticKnapsackProblem],
    num_initial_states: int = 20,
    sa_iterations: int = 1000,
    moves_per_iteration: Optional[int] = None,
    success_threshold: float = 0.95,
    use_hardware: bool = False,
    seed: int = 0,
    backend: str = "vectorized",
    store: Optional[Any] = None,
) -> SolvingEfficiencyResult:
    """Run the Fig. 10 protocol: many SA descents per instance for both solvers.

    Initial configurations are Monte-Carlo sampled feasible selections, the
    same starting points being handed to both solvers (the D-QUBO solver
    additionally seeds its slack bits consistently); each descent runs
    ``sa_iterations`` iterations of ``moves_per_iteration`` proposals
    (one sweep of the problem variables by default).  A run is successful
    when it reaches ``success_threshold`` of the instance's reference
    (best-known) value.

    The repeated descents are executed by :func:`repro.runtime.run_trials`
    on the vectorised replica backend by default -- all of an instance's
    descents advance in lock-step, with per-seed results identical to the
    serial backend for *both* solvers (``dqubo`` included: its batched
    engine anneals the combined penalty QUBO with batched energy
    evaluation).  Pass ``backend="process"`` to fan the
    descents out over cores instead; per-trial seeds are spawned
    deterministically from ``seed`` and both solvers receive the same trial
    seeds and the same initial states on every backend.

    With a ``store`` (:class:`repro.store.CampaignStore`) every descent is
    checkpointed as it completes -- each (instance x solver) pair is one
    persisted run keyed by its params, instance content hash, seed and
    initial states -- so the paper-scale Fig. 10 protocol resumes from where
    an interrupted run stopped instead of re-burning finished descents.
    """
    rng = np.random.default_rng(seed)
    hycim_norm: List[float] = []
    dqubo_norm: List[float] = []
    hycim_rates: List[float] = []
    dqubo_rates: List[float] = []
    names: List[str] = []

    for problem in problems:
        reference = reference_qkp_value(problem, seed=seed)
        initials = [problem.random_feasible_configuration(rng)
                    for _ in range(num_initial_states)]
        sweep = moves_per_iteration or problem.num_items
        # No explicit schedule: the runtime's instance-scaled default (20x
        # the largest objective coefficient) keeps uphill swaps possible
        # early in the anneal, identically for both solvers.
        shared = {"num_iterations": sa_iterations, "moves_per_iteration": sweep}

        hycim_batch = run_trials(
            problem, solver="hycim", num_trials=num_initial_states,
            params={**shared, "move_generator": "knapsack",
                    "use_hardware": use_hardware},
            backend=backend, master_seed=seed, initial_states=initials,
            store=store)
        dqubo_batch = run_trials(
            problem, solver="dqubo", num_trials=num_initial_states,
            params=shared, backend=backend, master_seed=seed,
            initial_states=initials, store=store)

        hycim_values = [result.best_objective or 0.0
                        for result in hycim_batch.results]
        dqubo_values = [result.best_objective or 0.0
                        for result in dqubo_batch.results]

        hycim_norm.extend(np.asarray(hycim_values) / reference)
        dqubo_norm.extend(np.asarray(dqubo_values) / reference)
        hycim_rates.append(success_rate(hycim_values, reference, success_threshold))
        dqubo_rates.append(success_rate(dqubo_values, reference, success_threshold))
        names.append(problem.name)

    return SolvingEfficiencyResult(
        hycim_normalized=np.array(hycim_norm),
        dqubo_normalized=np.array(dqubo_norm),
        hycim_success_rates=hycim_rates,
        dqubo_success_rates=dqubo_rates,
        instance_names=names,
    )


# --------------------------------------------------------------------- #
# Fig. 7(f) -- energy evolution on the chip-demo problem
# --------------------------------------------------------------------- #
@dataclass
class EnergyEvolutionResult:
    """Energy-vs-iteration curves of repeated HyCiM runs (Fig. 7(f)).

    Attributes
    ----------
    histories:
        One incumbent-energy trace per run.
    optimal_energy:
        The true minimum of the inequality-QUBO objective (brute force).
    runs_reaching_optimum:
        How many runs ended at the optimal energy.
    """

    histories: List[List[float]]
    optimal_energy: float
    runs_reaching_optimum: int

    @property
    def num_runs(self) -> int:
        return len(self.histories)


def run_energy_evolution(
    problem: QuadraticKnapsackProblem,
    num_runs: int = 9,
    sa_iterations: int = 100,
    use_hardware: bool = True,
    variability: Optional[VariabilityModel] = None,
    seed: int = 0,
    tolerance: float = 1e-6,
) -> EnergyEvolutionResult:
    """Repeat the chip measurement of Fig. 7(f): program, anneal, record energy.

    Each run reprograms the (simulated) crossbar -- device variability is
    re-sampled per trial, each trial occupying one chip slice of the
    device axis -- and records the incumbent energy after every iteration
    (one sweep of the problem variables per iteration).  Every run starts
    from the empty selection, mirroring the erased state of the chip before
    each measurement.  The runs advance in lock-step on the vectorised
    backend, ``variability`` included (batch-of-chips, no scalar fallback).
    """
    model = problem.to_inequality_qubo()
    _, optimal_energy = model.brute_force_minimum()
    batch = run_trials(
        problem,
        solver="hycim",
        backend="vectorized",
        num_trials=num_runs,
        params={
            "use_hardware": use_hardware,
            "num_iterations": sa_iterations,
            "moves_per_iteration": problem.num_items,
            "move_generator": "knapsack",
            "variability": variability,
            "record_history": True,
            "initial": "zeros",
        },
        master_seed=seed,
    )
    histories: List[List[float]] = []
    reached = 0
    for result in batch.results:
        histories.append(result.energy_history)
        exact_best = model.energy(result.best_configuration)
        if abs(exact_best - optimal_energy) <= tolerance + 1e-9 * abs(optimal_energy):
            reached += 1
    return EnergyEvolutionResult(
        histories=histories,
        optimal_energy=float(optimal_energy),
        runs_reaching_optimum=reached,
    )


# --------------------------------------------------------------------- #
# Fig. 7(d) -- crossbar linearity
# --------------------------------------------------------------------- #
def run_crossbar_linearity(
    array_size: int = 32,
    counts: Optional[Sequence[int]] = None,
    on_current_variation_sigma: float = 0.05,
    current_noise_sigma: float = 0.01,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Column current vs number of activated cells on an ``array_size`` crossbar.

    Returns the sweep counts, the measured currents and the Pearson r^2 of a
    linear fit (the paper's chip shows visually linear behaviour up to 24
    activated cells).
    """
    if counts is None:
        counts = list(range(0, min(array_size, 24) + 1, 2))
    from repro.core.qubo import QUBOModel

    qubo = QUBOModel(np.ones((array_size, array_size)))
    crossbar = FeFETCrossbar.from_qubo(
        qubo,
        config=CrossbarConfig(
            weight_bits=1,
            on_current_variation_sigma=on_current_variation_sigma,
            current_noise_sigma=current_noise_sigma,
            seed=seed,
        ),
    )
    counts_arr, currents = crossbar.linearity_sweep(counts)
    if len(counts_arr) > 1 and np.std(currents) > 0:
        correlation = np.corrcoef(counts_arr, currents)[0, 1]
        r_squared = float(correlation ** 2)
    else:
        r_squared = 1.0
    return counts_arr, currents, r_squared


# --------------------------------------------------------------------- #
# Table 1 -- solver summary over COP classes
# --------------------------------------------------------------------- #
@dataclass
class SolverSummaryRow:
    """One row of the Table 1 reproduction.

    Attributes
    ----------
    problem_class:
        COP family name.
    constraint_type:
        "-" (unconstrained), "Equality" or "Inequality".
    search_space_reduction:
        Whether the HyCiM transformation shrinks the search space for this
        problem class (only constrained problems benefit).
    problem_size:
        Number of decision variables of the evaluated instance.
    success_rate:
        Fraction of runs reaching the success criterion.
    """

    problem_class: str
    constraint_type: str
    search_space_reduction: bool
    problem_size: int
    success_rate: float


def _run_success_rate(problem, reference_value: float, maximize: bool,
                      num_runs: int, sa_iterations: int,
                      move_generator: Optional[MoveGenerator],
                      threshold: float, seed: int,
                      schedule: Optional[GeometricSchedule] = None) -> float:
    """Run HyCiM repeatedly via the runtime (vectorised replicas) and score
    against a reference value."""
    batch = run_trials(
        problem,
        solver="hycim",
        num_trials=num_runs,
        params={
            "num_iterations": sa_iterations,
            "use_hardware": False,
            "move_generator": move_generator or SingleFlipMove(),
            "schedule": schedule or GeometricSchedule(),
        },
        backend="vectorized",
        master_seed=seed,
    )
    successes = sum(
        1 for result in batch.results
        if result.feasible and result.best_objective is not None
        and meets_success_bar(result.best_objective, reference_value,
                              threshold, maximize)
    )
    return successes / num_runs


def run_solver_summary(
    num_runs: int = 10,
    sa_iterations: int = 2000,
    threshold: float = 0.95,
    seed: int = 11,
) -> List[SolverSummaryRow]:
    """Reproduce the structure of Table 1: one COP class per row, solved by HyCiM.

    Each row uses a small instance whose reference optimum is computable
    exactly (brute force or DP), so the reported success rates are grounded.
    """
    rows: List[SolverSummaryRow] = []

    maxcut = generate_maxcut_instance(num_nodes=12, edge_probability=0.5, seed=seed)
    maxcut_opt = solve_brute_force(maxcut, max_variables=16).best_value
    rows.append(SolverSummaryRow(
        problem_class=maxcut.problem_class,
        constraint_type="-",
        search_space_reduction=False,
        problem_size=maxcut.num_variables,
        success_rate=_run_success_rate(maxcut, maxcut_opt, True, num_runs,
                                       sa_iterations, None, threshold, seed),
    ))

    sk = generate_sk_instance(num_spins=12, seed=seed)
    sk_opt = solve_brute_force(sk, max_variables=16).best_value
    rows.append(SolverSummaryRow(
        problem_class=sk.problem_class,
        constraint_type="-",
        search_space_reduction=False,
        problem_size=sk.num_variables,
        success_rate=_run_success_rate(sk, sk_opt, False, num_runs,
                                       sa_iterations, None, threshold, seed),
    ))

    tsp = generate_tsp_instance(num_cities=4, seed=seed)
    tsp_opt = solve_brute_force(tsp, max_variables=16).best_value
    tsp_moves = PermutationSwapMove(num_groups=tsp.num_cities, group_size=tsp.num_cities)
    rows.append(SolverSummaryRow(
        problem_class=tsp.problem_class,
        constraint_type="Equality",
        search_space_reduction=True,
        problem_size=tsp.num_variables,
        success_rate=_run_success_rate(tsp, tsp_opt, False, num_runs,
                                       sa_iterations, tsp_moves, threshold, seed),
    ))

    coloring = generate_coloring_instance(num_nodes=6, edge_probability=0.4,
                                          num_colors=3, seed=seed)
    coloring_opt = solve_brute_force(coloring, max_variables=20).best_value
    coloring_moves = OneHotGroupMove(group_sizes=[coloring.num_colors] * coloring.num_nodes)
    rows.append(SolverSummaryRow(
        problem_class=coloring.problem_class,
        constraint_type="Equality",
        search_space_reduction=True,
        problem_size=coloring.num_variables,
        success_rate=_run_success_rate(coloring, coloring_opt, False, num_runs,
                                       sa_iterations, coloring_moves, threshold, seed),
    ))

    knapsack = generate_knapsack_instance(num_items=15, seed=seed)
    knapsack_opt = solve_knapsack_dp(knapsack).best_value
    knapsack_schedule = GeometricSchedule(20.0 * float(knapsack.profits.max()), 1.0)
    rows.append(SolverSummaryRow(
        problem_class=knapsack.problem_class,
        constraint_type="Inequality",
        search_space_reduction=True,
        problem_size=knapsack.num_variables,
        success_rate=_run_success_rate(knapsack, knapsack_opt, True, num_runs,
                                       sa_iterations, KnapsackNeighborhoodMove(),
                                       threshold, seed, schedule=knapsack_schedule),
    ))

    qkp = generate_qkp_instance(num_items=15, density=0.5, seed=seed)
    qkp_opt = solve_brute_force(qkp, max_variables=16).best_value
    qkp_schedule = GeometricSchedule(20.0 * float(np.max(np.abs(qkp.profits))), 1.0)
    rows.append(SolverSummaryRow(
        problem_class=qkp.problem_class,
        constraint_type="Inequality",
        search_space_reduction=True,
        problem_size=qkp.num_variables,
        success_rate=_run_success_rate(qkp, qkp_opt, True, num_runs,
                                       sa_iterations, KnapsackNeighborhoodMove(),
                                       threshold, seed, schedule=qkp_schedule),
    ))

    return rows


# --------------------------------------------------------------------- #
# Cross-family study -- every registered family through HyCiM
# --------------------------------------------------------------------- #
@dataclass
class FamilyStudyRow:
    """One registered problem family solved end-to-end through HyCiM.

    Attributes
    ----------
    family:
        Registry name (:func:`repro.problems.family_names`).
    instance_name / problem_size:
        The conformance-sized instance the study solves.
    transformation:
        The family's QUBO/filter transformation summary.
    reference_value:
        Exact optimum of the instance (the family's reference solver).
    best_objective:
        Best native objective over the feasible trials (``None`` if no
        trial ended feasible).
    success_rate / feasible_fraction:
        Fraction of trials reaching the paper's success bar / ending on a
        feasible state.
    num_loaded_from_store:
        Trials served from the campaign store instead of re-executed
        (0 on a cold run; equal to ``num_trials`` on a warm re-run).
    """

    family: str
    instance_name: str
    problem_size: int
    transformation: str
    reference_value: float
    best_objective: Optional[float]
    success_rate: Optional[float]
    feasible_fraction: float
    num_trials: int
    num_loaded_from_store: int


@dataclass
class FamilyStudyResult:
    """Rows of :func:`run_family_study`, one per registered family."""

    rows: List[FamilyStudyRow] = field(default_factory=list)

    def row(self, family: str) -> FamilyStudyRow:
        for candidate in self.rows:
            if candidate.family == family:
                return candidate
        raise KeyError(f"no study row for family {family!r}")

    @property
    def families(self) -> List[str]:
        return [row.family for row in self.rows]


def run_family_study(
    families: Optional[Sequence[str]] = None,
    num_trials: int = 8,
    sa_iterations: int = 300,
    threshold: float = 0.95,
    seed: int = 11,
    backend: str = "vectorized",
    store=None,
) -> FamilyStudyResult:
    """Solve every registered problem family end-to-end through HyCiM.

    The cross-family generalisation of the Table 1 runner: each family's
    registered parameters (move generator, schedule, filter split) drive
    ``run_trials`` on its conformance instance, scored against the family's
    exact reference solution.  Passing a :class:`repro.store.CampaignStore`
    makes the study resumable -- re-running with the same arguments loads
    every persisted trial instead of re-executing it.
    """
    result = FamilyStudyResult()
    for name in families if families is not None else family_names():
        family = get_family(name)
        problem = family.conformance_instance(seed)
        _, reference_value = family.reference_solution(problem)
        params = dict(family.solver_params(problem))
        params.update({"use_hardware": False, "num_iterations": sa_iterations})
        batch = run_trials(problem, ("hycim", params), num_trials=num_trials,
                           backend=backend, master_seed=seed, store=store)
        stats = aggregate_trials(batch, reference=reference_value,
                                 threshold=threshold,
                                 maximize=problem.is_maximization)
        result.rows.append(FamilyStudyRow(
            family=name,
            instance_name=problem.name,
            problem_size=problem.num_variables,
            transformation=family.transformation,
            reference_value=float(reference_value),
            best_objective=stats.best_objective,
            success_rate=stats.success_rate_value,
            feasible_fraction=stats.num_feasible / max(stats.num_trials, 1),
            num_trials=stats.num_trials,
            num_loaded_from_store=batch.num_loaded_from_store,
        ))
    return result
