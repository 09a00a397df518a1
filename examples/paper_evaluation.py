"""Reproduce the paper's evaluation section (Figs. 8, 9, 10 and Table 1).

Runs the four experiment harnesses at a configurable scale and prints the
rows/series each figure reports.  The default scale finishes in about five
seconds on a 2-core VM; pass ``--paper-scale`` for the full 40-instance /
100-item protocol (much slower, intended for an overnight run).

Run with:  python examples/paper_evaluation.py [--paper-scale]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.analysis.experiments import (
    run_filter_validation,
    run_hardware_overhead_study,
    run_solver_summary,
    run_solving_efficiency_study,
)
from repro.analysis.reporting import format_table
from repro.fefet.variability import VariabilityModel
from repro.problems.generators import generate_qkp_instance


def build_suite(paper_scale: bool):
    """QKP suite: 40x100 items at paper scale, 6x30 items otherwise."""
    if paper_scale:
        num_instances, num_items, max_weight = 40, 100, 50
    else:
        num_instances, num_items, max_weight = 6, 30, 10
    densities = (0.25, 0.5, 0.75, 1.0)
    return [
        generate_qkp_instance(num_items=num_items, density=densities[i % 4],
                              max_weight=max_weight, seed=2024 + i,
                              name=f"qkp_{i:02d}")
        for i in range(num_instances)
    ]


def fig8(suite) -> None:
    result = run_filter_validation(
        suite, samples_per_instance=20,
        variability=VariabilityModel(threshold_sigma=0.02, on_current_sigma=0.1, seed=8),
        seed=8)
    feasible = result.normalized_voltages[result.ground_truth_feasible]
    infeasible = result.normalized_voltages[~result.ground_truth_feasible]
    print("\n--- Fig. 8: inequality filter validation ---")
    print(f"cases: {result.num_cases}, accuracy: {result.metrics['accuracy'] * 100:.2f}%")
    print(f"feasible   normalized ML: min {feasible.min():.3f}, max {feasible.max():.3f}")
    print(f"infeasible normalized ML: min {infeasible.min():.3f}, max {infeasible.max():.3f}")


def fig9(suite) -> None:
    records = run_hardware_overhead_study(suite)
    print("\n--- Fig. 9: hardware overhead (HyCiM vs D-QUBO) ---")
    print(format_table(
        ["instance", "D-QUBO Qmax", "D-QUBO n", "bits", "HyCiM Qmax", "bits",
         "search-space reduction", "HW saving"],
        [[r.instance_name,
          f"{r.dqubo_report.max_abs_coefficient:.2e}",
          r.dqubo_report.num_variables,
          r.dqubo_report.bits_per_element,
          f"{r.hycim_report.max_abs_coefficient:.0f}",
          r.hycim_report.bits_per_element,
          f"2^{r.search_space_reduction_bits}",
          f"{r.hardware_saving * 100:.2f}%"] for r in records]))
    savings = [r.hardware_saving for r in records]
    print(f"hardware saving range: {min(savings) * 100:.2f}% .. {max(savings) * 100:.2f}%")


def fig10(suite, paper_scale: bool) -> None:
    result = run_solving_efficiency_study(
        suite,
        num_initial_states=20 if paper_scale else 5,
        sa_iterations=1000 if paper_scale else 100,
        seed=10)
    print("\n--- Fig. 10: solving efficiency ---")
    print(format_table(
        ["instance", "HyCiM success", "D-QUBO success"],
        [[name, f"{h * 100:.1f}%", f"{d * 100:.1f}%"]
         for name, h, d in zip(result.instance_names,
                               result.hycim_success_rates,
                               result.dqubo_success_rates)]))
    print(f"average success rate: HyCiM {result.hycim_mean_success * 100:.2f}% "
          f"vs D-QUBO {result.dqubo_mean_success * 100:.2f}%")
    print(f"mean normalized QKP value: HyCiM {result.hycim_normalized.mean():.3f} "
          f"vs D-QUBO {result.dqubo_normalized.mean():.3f}")


def table1() -> None:
    rows = run_solver_summary(num_runs=8, sa_iterations=1500, seed=11)
    print("\n--- Table 1: solver summary ---")
    print(format_table(
        ["COP", "constraint", "search-space reduction", "size", "success rate"],
        [[r.problem_class, r.constraint_type,
          "Yes" if r.search_space_reduction else "No",
          r.problem_size, f"{r.success_rate * 100:.0f}%"] for r in rows]))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--paper-scale", action="store_true",
                        help="run the full 40-instance / 100-item protocol")
    args = parser.parse_args()

    suite = build_suite(args.paper_scale)
    fig8(suite)
    fig9(suite)
    fig10(suite, args.paper_scale)
    table1()


if __name__ == "__main__":
    main()
