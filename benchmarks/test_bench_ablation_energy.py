"""Ablation: per-run energy of HyCiM vs the D-QUBO baseline.

The paper's Sec. 4.2 argues the smaller crossbar plus the inequality filter
"indicate improved energy efficiency".  This ablation makes that claim
quantitative with the behavioural energy model: both solvers run the same SA
proposal budget on the same instance, HyCiM pays a cheap filter evaluation for
every proposal and a small-crossbar VMV only for feasible ones, while D-QUBO
pays a large-crossbar VMV every time.
"""

import math

import numpy as np

import reporting
from repro.analysis.reporting import format_table
from repro.annealing.dqubo_solver import DQUBOAnnealer
from repro.annealing.hycim import HyCiMSolver
from repro.cim.energy_model import dqubo_run_cost, energy_saving, hycim_run_cost
from repro.core.quantization import quantization_report
from repro.dynamics.moves import KnapsackNeighborhoodMove
from repro.dynamics.schedule import GeometricSchedule
from repro.problems.generators import generate_qkp_instance


def test_ablation_energy_per_run_hycim_vs_dqubo(benchmark):
    problem = generate_qkp_instance(num_items=30, density=0.5, max_weight=8, seed=321)
    schedule = GeometricSchedule(2000.0, 2.0)

    def run():
        hycim = HyCiMSolver(problem, use_hardware=False, num_iterations=50,
                            moves_per_iteration=problem.num_items,
                            move_generator=KnapsackNeighborhoodMove(),
                            schedule=schedule, seed=5)
        dqubo = DQUBOAnnealer(problem, num_iterations=50,
                              moves_per_iteration=problem.num_items,
                              schedule=schedule, seed=5)
        rng = np.random.default_rng(5)
        initial = problem.random_feasible_configuration(rng)
        hycim_result = hycim.solve(initial=initial, rng=np.random.default_rng(1))
        dqubo_result = dqubo.solve(initial=initial, rng=np.random.default_rng(1))

        hycim_report = quantization_report(problem.to_inequality_qubo())
        dqubo_report = quantization_report(dqubo.transformation)
        hycim_cost = hycim_run_cost(hycim_result, hycim_report)
        dqubo_cost = dqubo_run_cost(dqubo_result, dqubo_report)
        return hycim_result, dqubo_result, hycim_cost, dqubo_cost

    hycim_result, dqubo_result, hycim_cost, dqubo_cost = benchmark.pedantic(
        run, rounds=1, iterations=1)

    saving = energy_saving(hycim_cost, dqubo_cost)
    print("\nEnergy ablation (same proposal budget):\n" + format_table(
        ["solver", "crossbar evals", "filter evals", "energy (pJ)", "latency (ns)"],
        [["HyCiM", hycim_cost.num_crossbar_evaluations,
          hycim_cost.num_filter_evaluations,
          f"{hycim_cost.energy:.3e}", f"{hycim_cost.latency:.3e}"],
         ["D-QUBO", dqubo_cost.num_crossbar_evaluations,
          dqubo_cost.num_filter_evaluations,
          f"{dqubo_cost.energy:.3e}", f"{dqubo_cost.latency:.3e}"]]))
    print(f"energy saving of HyCiM over D-QUBO: {saving * 100:.2f}%")

    reporting.emit(
        "ablation_energy",
        "per-run energy saving of HyCiM over the D-QUBO baseline",
        saving, "fraction", floor=0.7,
        details={"hycim_energy_pj": hycim_cost.energy,
                 "dqubo_energy_pj": dqubo_cost.energy,
                 "hycim_crossbar_evaluations":
                     hycim_cost.num_crossbar_evaluations,
                 "dqubo_crossbar_evaluations":
                     dqubo_cost.num_crossbar_evaluations})

    # Same proposal budget for both solvers.
    assert hycim_result.num_iterations == dqubo_result.num_iterations

    # HyCiM skips part of the crossbar work thanks to the filter ...
    assert hycim_cost.num_crossbar_evaluations < hycim_cost.num_filter_evaluations
    # ... and its crossbar is far smaller, so the run energy is much lower.
    # (The margin grows with the capacity; at the paper's scale, where the
    # D-QUBO crossbar is 700+ columns wide, the saving exceeds 90%.)
    assert saving > 0.7
    assert math.isfinite(hycim_cost.latency) and hycim_cost.latency > 0
