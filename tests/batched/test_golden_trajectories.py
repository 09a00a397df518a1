"""Golden-trajectory snapshot test for registry-dispatched solvers.

``run_trials`` promises that per-trial outcomes are a pure function of
``(problem, solver spec, master_seed)`` -- the ``SeedSequence.spawn`` scheme
pins every trial's seed, and each trial's trajectory is pinned by that seed.
This test freezes a small per-seed fixture -- trial seed, energy,
objective, feasibility, best configuration, the three proposal counters and,
where a cell records one, the energy history -- so a future refactor of the
seeding scheme, the solver defaults or the engines shows up as a reviewable
diff instead of silent drift in every downstream experiment.

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
from repro.dynamics import Dynamics, ParallelTempering
from repro.problems.generators import generate_qkp_instance
from repro.problems.multidim_knapsack import generate_mdqkp_instance
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

#: Solver cells frozen by the snapshot: label -> (problem, registry name,
#: params), the problem naming an entry of :func:`_problems`.
CELLS = {
    "hycim-software": ("qkp", "hycim", {"num_iterations": 30,
                                        "use_hardware": False}),
    "hycim-hardware": ("qkp", "hycim", {"num_iterations": 30,
                                        "use_hardware": True}),
    "hycim-knapsack": ("qkp", "hycim", {"num_iterations": 20,
                                        "moves_per_iteration": 3,
                                        "move_generator": "knapsack",
                                        "use_hardware": False}),
    "sa": ("qkp", "sa", {"num_iterations": 30}),
    # Shared crossbar planes with per-chip read noise and ADC.
    "hycim-noisy-chips": ("qkp", "hycim", _NOISY_CHIPS),
    # Per-chip ON-current variation on top: each chip's own conductances.
    "hycim-varied-chips": ("qkp", "hycim", dict(
        _NOISY_CHIPS, crossbar_config=CrossbarConfig(
            current_noise_sigma=0.02, adc_bits=8,
            on_current_variation_sigma=0.05, seed=7))),
    # Ideal crossbar at the D-QUBO's wider bit width.
    "dqubo-hardware": ("qkp", "dqubo", {"num_iterations": 30,
                                        "use_hardware": True}),
    # The non-ideal-chips benchmark in miniature: three device-axis filters
    # per chip, varied conductances, read noise and ADC.
    "hycim-mdqkp-chips": ("mdqkp", "hycim", dict(
        _NOISY_CHIPS, crossbar_config=CrossbarConfig(
            current_noise_sigma=0.02, on_current_variation_sigma=0.05,
            adc_bits=8, seed=7))),
    # The penalty QUBO annealed in exact arithmetic.
    "dqubo-software": ("qkp", "dqubo", {"num_iterations": 30}),
    # Generic proposals with full re-evaluation instead of flip deltas.
    "sa-multi-flip": ("qkp", "sa", {"num_iterations": 30,
                                    "move_generator": "multi_flip"}),
    # Noisy matchlines draw per candidate and short-circuit across the
    # three constraints, so the filter runs replica by replica.
    "hycim-mdqkp-noisy-filter": ("mdqkp", "hycim", {
        "num_iterations": 30, "use_hardware": True,
        "matchline_noise_sigma": 0.01}),
    # A noisy, ADC-read D-QUBO crossbar, with its per-iteration history.
    "dqubo-hardware-history": ("qkp", "dqubo", {
        "num_iterations": 30, "use_hardware": True, "record_history": True,
        "crossbar_config": CrossbarConfig(weight_bits=16,
                                          current_noise_sigma=0.02,
                                          adc_bits=8, seed=7)}),
    "hycim-hardware-history": ("qkp", "hycim", {"num_iterations": 30,
                                                "use_hardware": True,
                                                "record_history": True}),
    # Read noise and ADC on one configured chip, no per-trial variability:
    # each trial still reads its own noise stream, as a lone trial does.
    "hycim-noisy-crossbar": ("qkp", "hycim", {
        "num_iterations": 30, "use_hardware": True,
        "crossbar_config": CrossbarConfig(current_noise_sigma=0.02,
                                          adc_bits=8, seed=7)}),
    # Single-flip SA on the fused kernel: the C block, or its NumPy loop.
    "sa-fused": ("qkp", "sa", {"num_iterations": 30, "kernel": "fused"}),
    # One tempered ladder: exchange swaps every travelling array once.
    "sa-tempering": ("qkp", "sa", {
        "num_iterations": 30,
        "dynamics": ParallelTempering(exchange_interval=3)}),
    # Every replica draws its flips and verdicts from one shared stream.
    "sa-shared-rng": ("qkp", "sa", {
        "num_iterations": 30, "dynamics": Dynamics(rng_mode="shared")}),
    # Generic proposals drawn from the shared stream, replica by replica.
    "sa-multi-flip-shared": ("qkp", "sa", {
        "num_iterations": 30, "move_generator": "multi_flip",
        "dynamics": Dynamics(rng_mode="shared")}),
    # Noisy matchlines draw from the shared stream for each candidate.
    "hycim-mdqkp-noisy-filter-shared": ("mdqkp", "hycim", {
        "num_iterations": 30, "use_hardware": True,
        "matchline_noise_sigma": 0.01,
        "dynamics": Dynamics(rng_mode="shared")}),
    # The penalty QUBO on the fused kernel.
    "dqubo-software-fused": ("qkp", "dqubo", {"num_iterations": 30,
                                              "kernel": "fused"}),
    # The penalty QUBO on a tempered ladder.
    "dqubo-software-tempering": ("qkp", "dqubo", {
        "num_iterations": 30,
        "dynamics": ParallelTempering(exchange_interval=3)}),
}

#: Fields compared exactly; ``energy_history`` only where a cell records it.
_EXACT_FIELDS = ("best_configuration", "num_feasible_evaluations",
                 "num_infeasible_skipped", "num_accepted_moves")


def _problems():
    return {
        "qkp": generate_qkp_instance(num_items=15, density=0.5, max_weight=10,
                                     max_profit=60, seed=404, name="golden"),
        "mdqkp": generate_mdqkp_instance(num_items=12, num_constraints=3,
                                         density=0.5, seed=404,
                                         name="golden-md"),
    }


def _compute_records(backend="serial"):
    problems = _problems()
    records = {}
    for label, (problem, solver, params) in CELLS.items():
        batch = run_trials(problems[problem], solver, num_trials=NUM_TRIALS,
                           params=params, backend=backend,
                           master_seed=MASTER_SEED)
        records[label] = [_record(result) for result in batch.results]
    return records


def _record(result):
    record = {
        "trial_seed": result.trial_seed,
        "best_energy": result.best_energy,
        "best_objective": result.best_objective,
        "feasible": result.feasible,
        "best_configuration": [int(v) for v in result.best_configuration],
        "num_feasible_evaluations": result.num_feasible_evaluations,
        "num_infeasible_skipped": result.num_infeasible_skipped,
        "num_accepted_moves": result.num_accepted_moves,
    }
    if result.energy_history:
        record["energy_history"] = list(result.energy_history)
    return record


def _assert_exact_fields(expected, actual, where):
    for name in _EXACT_FIELDS:
        assert actual[name] == expected[name], f"{where}: {name} drifted"
    assert actual.get("energy_history") == expected.get("energy_history"), \
        f"{where}: energy history drifted"


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
                _assert_exact_fields(expected, actual, where)

    @pytest.mark.parametrize("backend", ["serial", "vectorized"])
    def test_fixture_regenerates_byte_for_byte(self, golden, backend,
                                               draw_path):
        """With the C library loaded the loop driver draws in C, without it
        through the generators: both regenerate the fixture unchanged."""
        assert _compute_records(backend) == golden

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
                _assert_exact_fields(expected, actual, label)
