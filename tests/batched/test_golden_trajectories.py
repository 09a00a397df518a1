"""Golden-trajectory snapshot test for registry-dispatched solvers.

``run_trials`` promises that per-trial outcomes are a pure function of
``(problem, solver spec, master_seed)`` -- the ``SeedSequence.spawn`` scheme
pins every trial's seed, and each trial's trajectory is pinned by that seed.
This test freezes a small per-seed (trial_seed, energy, objective,
feasibility) fixture so a future refactor of the seeding scheme, the solver
defaults or the engines shows up as a reviewable diff instead of silent
drift in every downstream experiment.

The snapshot covers the serial path and, through the backend-parity
guarantee, the vectorized path (asserted here for the software rows).

To intentionally regenerate after a *deliberate* seeding change::

    PYTHONPATH=src python -c "from tests.batched.test_golden_trajectories \
        import regenerate; regenerate()"
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cim.crossbar import CrossbarConfig
from repro.problems.generators import generate_qkp_instance
from repro.runtime import run_trials

FIXTURE = Path(__file__).with_name("golden_trajectories.json")
MASTER_SEED = 2024
NUM_TRIALS = 4

#: Per-trial chips with sampled filter cells, crossbar read noise and an
#: 8-bit column ADC.
_NOISY_CHIPS = {"num_iterations": 30,
                "variability": {"threshold_sigma": 0.02,
                                "on_current_sigma": 0.05},
                "crossbar_config": CrossbarConfig(current_noise_sigma=0.02,
                                                  adc_bits=8, seed=7)}

#: Solver cells frozen by the snapshot: registry name -> params.
CELLS = {
    "hycim-software": ("hycim", {"num_iterations": 30, "use_hardware": False}),
    "hycim-hardware": ("hycim", {"num_iterations": 30, "use_hardware": True}),
    "hycim-knapsack": ("hycim", {"num_iterations": 20,
                                 "moves_per_iteration": 3,
                                 "move_generator": "knapsack",
                                 "use_hardware": False}),
    "sa": ("sa", {"num_iterations": 30}),
    # Shared crossbar planes with per-chip read noise and ADC.
    "hycim-noisy-chips": ("hycim", _NOISY_CHIPS),
    # Per-chip ON-current variation on top: each chip's own conductances.
    "hycim-varied-chips": ("hycim", dict(
        _NOISY_CHIPS, crossbar_config=CrossbarConfig(
            current_noise_sigma=0.02, adc_bits=8,
            on_current_variation_sigma=0.05, seed=7))),
    # Ideal crossbar at the D-QUBO's wider bit width.
    "dqubo-hardware": ("dqubo", {"num_iterations": 30, "use_hardware": True}),
}


def _problem():
    return generate_qkp_instance(num_items=15, density=0.5, max_weight=10,
                                 max_profit=60, seed=404, name="golden")


def _compute_records(backend="serial"):
    problem = _problem()
    records = {}
    for label, (solver, params) in CELLS.items():
        batch = run_trials(problem, solver, num_trials=NUM_TRIALS,
                           params=params, backend=backend,
                           master_seed=MASTER_SEED)
        records[label] = [
            {
                "trial_seed": result.trial_seed,
                "best_energy": result.best_energy,
                "best_objective": result.best_objective,
                "feasible": result.feasible,
            }
            for result in batch.results
        ]
    return records


def regenerate():  # pragma: no cover - manual tool
    FIXTURE.write_text(json.dumps(_compute_records(), indent=2) + "\n")
    print(f"wrote {FIXTURE}")


class TestGoldenTrajectories:
    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(FIXTURE.read_text())

    @pytest.fixture(scope="class")
    def current(self):
        return _compute_records()

    def test_fixture_covers_all_cells(self, golden):
        assert set(golden) == set(CELLS)
        for label, rows in golden.items():
            assert len(rows) == NUM_TRIALS, label

    def test_per_seed_outcomes_unchanged(self, golden, current):
        for label, rows in golden.items():
            for index, (expected, actual) in enumerate(zip(rows, current[label])):
                where = f"{label}[{index}]"
                assert actual["trial_seed"] == expected["trial_seed"], \
                    f"{where}: trial seed drifted -- the SeedSequence.spawn " \
                    "derivation changed"
                assert actual["feasible"] == expected["feasible"], where
                assert actual["best_energy"] == pytest.approx(
                    expected["best_energy"], rel=1e-12), \
                    f"{where}: trajectory drifted for an unchanged seed"
                if expected["best_objective"] is None:
                    assert actual["best_objective"] is None, where
                else:
                    assert actual["best_objective"] == pytest.approx(
                        expected["best_objective"], rel=1e-12), where

    def test_vectorized_backend_reproduces_snapshot(self, golden):
        """The vectorized backend must hit the same frozen per-seed outcomes
        (exactly for software mode, within tolerance for ideal hardware)."""
        vectorized = _compute_records(backend="vectorized")
        for label in CELLS:
            for expected, actual in zip(golden[label], vectorized[label]):
                assert actual["trial_seed"] == expected["trial_seed"]
                assert actual["feasible"] == expected["feasible"]
                assert actual["best_energy"] == pytest.approx(
                    expected["best_energy"], rel=1e-9)
