"""Integration tests exercising the full HyCiM pipeline across modules."""

import numpy as np
import pytest

from repro.annealing.dqubo_solver import DQUBOAnnealer
from repro.annealing.hycim import HyCiMSolver
from repro.cim.inequality_filter import InequalityFilter
from repro.dynamics.moves import KnapsackNeighborhoodMove
from repro.dynamics.schedule import GeometricSchedule
from repro.exact.brute_force import solve_brute_force
from repro.exact.local_search import reference_qkp_value
from repro.fefet.variability import VariabilityModel
from repro.problems.generators import generate_qkp_instance
from repro.problems.io import read_qkp_file, write_qkp_file


class TestProblemToSolutionPipeline:
    """File I/O -> transformation -> hardware mapping -> annealing -> metrics."""

    def test_full_pipeline_on_small_instance(self, tmp_path):
        problem = generate_qkp_instance(num_items=14, density=0.5, max_weight=10,
                                        seed=42, name="pipeline")
        # 1. Round-trip the instance through the benchmark file format.
        path = tmp_path / "pipeline.txt"
        write_qkp_file(problem, path)
        problem = read_qkp_file(path)

        # 2. Exact reference.
        optimum = solve_brute_force(problem).best_value

        # 3. HyCiM with full hardware simulation and mild non-idealities.
        solver = HyCiMSolver(
            problem,
            use_hardware=True,
            num_iterations=120,
            moves_per_iteration=problem.num_items,
            move_generator=KnapsackNeighborhoodMove(),
            schedule=GeometricSchedule(1000.0, 1.0),
            variability=VariabilityModel(threshold_sigma=0.02, on_current_sigma=0.05,
                                         seed=1),
            seed=7,
        )
        rng = np.random.default_rng(3)
        result = solver.solve(initial=problem.random_feasible_configuration(rng), rng=rng)

        # 4. The solution is feasible and close to the optimum.
        assert result.feasible
        assert problem.is_feasible(result.best_configuration)
        assert result.best_objective >= 0.9 * optimum
        # 5. The crossbar energy agrees with exact arithmetic on the solution.
        exact_energy = problem.to_inequality_qubo().energy(result.best_configuration)
        assert result.best_objective == pytest.approx(-exact_energy)

    def test_hycim_and_dqubo_disagreement_matches_paper_story(self):
        """On the same instance and budget HyCiM finds (near-)optimal feasible
        solutions while the D-QUBO baseline frequently ends infeasible."""
        problem = generate_qkp_instance(num_items=20, density=0.5, max_weight=8,
                                        seed=11)
        reference = reference_qkp_value(problem)
        schedule = GeometricSchedule(2000.0, 2.0)
        rng = np.random.default_rng(0)
        initials = [problem.random_feasible_configuration(rng) for _ in range(4)]

        hycim = HyCiMSolver(problem, use_hardware=False, num_iterations=80,
                            moves_per_iteration=20,
                            move_generator=KnapsackNeighborhoodMove(),
                            schedule=schedule, seed=1)
        dqubo = DQUBOAnnealer(problem, num_iterations=80, moves_per_iteration=20,
                              schedule=schedule, seed=1)

        hycim_values = [hycim.solve(initial=x, rng=np.random.default_rng(i)).best_objective
                        for i, x in enumerate(initials)]
        dqubo_results = [dqubo.solve(initial=x, rng=np.random.default_rng(i))
                         for i, x in enumerate(initials)]

        assert np.mean(hycim_values) >= 0.85 * reference
        dqubo_values = [r.best_objective or 0.0 for r in dqubo_results]
        assert np.mean(hycim_values) > np.mean(dqubo_values)

    def test_filter_decisions_consistent_with_solver(self):
        """The hardware filter used inside the solver agrees with the exact
        constraint on every configuration the solver visits."""
        problem = generate_qkp_instance(num_items=16, density=0.5, max_weight=10,
                                        seed=5)
        constraint = problem.constraint()
        cim_filter = InequalityFilter(constraint)
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.integers(0, 2, size=16).astype(float)
            assert cim_filter.is_feasible(x) == constraint.is_satisfied(x)

    def test_library_level_imports(self):
        """The public API advertised in the README is importable from repro."""
        import repro

        assert hasattr(repro, "HyCiMSolver")
        assert hasattr(repro, "DQUBOAnnealer")
        assert hasattr(repro, "QuadraticKnapsackProblem")
        assert hasattr(repro, "to_inequality_qubo")
        assert repro.__version__
