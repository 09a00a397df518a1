"""Extension: multi-dimensional QKP -- one CiM inequality filter per constraint.

The paper evaluates single-constraint QKP; its framework, however, maps one
inequality filter per constraint (Fig. 3 shows the filter as a per-constraint
block).  This benchmark solves multi-dimensional quadratic knapsack instances
(2-4 resource dimensions) with the hardware-simulated HyCiM solver and checks
that solutions respect every dimension while staying near the single-run
reference quality.
"""

import numpy as np

import reporting
from repro.analysis.reporting import format_table
from repro.annealing.hycim import HyCiMSolver
from repro.dynamics.moves import KnapsackNeighborhoodMove
from repro.dynamics.schedule import GeometricSchedule
from repro.exact.brute_force import solve_brute_force
from repro.problems.multidim_knapsack import generate_mdqkp_instance


def test_multidimensional_qkp_with_one_filter_per_constraint(benchmark):
    instances = [
        generate_mdqkp_instance(num_items=16, num_constraints=m, max_weight=10,
                                tightness=0.5, seed=700 + m, name=f"mdqkp_m{m}")
        for m in (2, 3, 4)
    ]

    def run():
        rows = []
        for problem in instances:
            optimum = solve_brute_force(problem, max_variables=16).best_value
            solver = HyCiMSolver(problem, use_hardware=True, num_iterations=60,
                                 moves_per_iteration=problem.num_items,
                                 move_generator=KnapsackNeighborhoodMove(),
                                 schedule=GeometricSchedule(2000.0, 2.0), seed=1)
            rng = np.random.default_rng(1)
            result = solver.solve(initial=np.zeros(problem.num_items), rng=rng)
            rows.append((problem, solver, result, optimum))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    print("\nMulti-dimensional QKP through HyCiM:\n" + format_table(
        ["instance", "constraints", "filters", "profit", "optimum", "normalized"],
        [[p.name, p.num_constraints, len(s.inequality_filters),
          f"{r.best_objective:.0f}", f"{opt:.0f}",
          f"{r.best_objective / opt:.3f}"] for p, s, r, opt in rows]))

    reporting.emit(
        "multidim_constraints",
        "minimum normalized objective across multi-dimensional QKP instances",
        min(r.best_objective / opt for _, _, r, opt in rows),
        "fraction", floor=0.9,
        details={p.name: {"constraints": p.num_constraints,
                          "normalized": r.best_objective / opt}
                 for p, _, r, opt in rows})

    for problem, solver, result, optimum in rows:
        # One hardware filter per resource dimension.
        assert len(solver.inequality_filters) == problem.num_constraints
        # The returned solution respects every constraint.
        assert result.feasible
        assert problem.is_feasible(result.best_configuration)
        # Solution quality stays close to the exact optimum.
        assert result.best_objective >= 0.9 * optimum
