"""The four benchmark workloads: instances from a seed, solver settings.

Every workload is one single-process ``repro.run_trials`` call that the
harness repeats as a closed loop with one caller.  All inputs come from the
``--seed`` argument; the solver only ever sees the generated instance and
the derived master seed.

Why these four (each stresses different layers; see BENCHMARK.json):

* ``qkp_hw`` -- the paper's workload in the paper's mode: ideal FeFET
  filter + 7-bit crossbar, vectorized M=32.  Crossbar-dominated.
* ``mdqkp_chips`` -- non-ideal chips: one freshly sampled chip per trial,
  read noise, ADC and four device-axis filters; chip sampling and hardware
  programming happen in every call.
* ``qkp_sw_large`` -- software mode at n=1000, M=256 on the ``auto``
  kernel: ``repro.kernels`` does the work and ``repro.cim`` none, so it is
  the no-change control for every hardware change.
* ``qkp_serial_store`` -- the default serial path (scalar ``HyCiMSolver``
  re-programming the hardware per trial) with a campaign store and
  telemetry: the only workload that runs ``repro.annealing``,
  ``repro.store`` and ``repro.telemetry``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Tuple

import numpy as np

import repro.problems.generators as qkp_generators
import repro.problems.multidim_knapsack as mdqkp_generators
from repro.cim.crossbar import CrossbarConfig
from repro.problems.base import CombinatorialProblem

#: Crossbar seed of the non-ideal chips.  Required: with ``seed=None`` every
#: chip draws OS entropy and two processes disagree on the objective.
CHIP_CROSSBAR_SEED = 2024


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: a ``run_trials`` call and its checks.

    ``exact`` marks workloads whose filter and crossbar are exact (ideal
    devices or software mode): there the reported feasibility must equal
    exact feasibility and ``best_energy`` the exact QUBO energy.
    ``store`` runs every call against a fresh ``CampaignStore`` with
    ``telemetry=True``.
    """

    name: str
    family: str
    num_items: int
    density: float
    trials: int
    iterations: int
    backend: str
    params: Tuple[Tuple[str, Any], ...]
    exact: bool
    store: bool = False

    @property
    def proposals_per_call(self) -> int:
        """SA proposals of one call: trials x iterations x 1 move."""
        return self.trials * self.iterations

    def solver_params(self, iterations: int) -> Dict[str, Any]:
        params = dict(self.params)
        params["num_iterations"] = int(iterations)
        return params

    def seeds(self, seed: int) -> Tuple[int, int]:
        """(instance seed, master seed) derived from the benchmark seed."""
        instance_seed, master_seed = np.random.SeedSequence(
            [int(seed), 0x4B4350]).generate_state(2)
        return int(instance_seed), int(master_seed)

    def make_instance(self, seed: int) -> CombinatorialProblem:
        """The workload's instance for benchmark seed ``seed``.

        QKP instances keep the Billionnet-Soutif profits and weights but fix
        the capacity at half the total weight (the mean of the B-S capacity
        draw).  A uniformly drawn capacity swings the share of feasible
        proposals -- and with it the crossbar's work -- by 3x between seeds.
        """
        instance_seed, _ = self.seeds(seed)
        if self.family == "mdqkp":
            return mdqkp_generators.generate_mdqkp_instance(
                self.num_items, num_constraints=4, density=self.density,
                seed=instance_seed)
        problem = qkp_generators.generate_qkp_instance(
            self.num_items, density=self.density, seed=instance_seed)
        return dataclasses.replace(
            problem, capacity=float(np.floor(problem.weights.sum() / 2)))


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("qkp_hw", "qkp", 100, 0.5, trials=32, iterations=1000,
             backend="vectorized",
             params=(("use_hardware", True), ("kernel", "reference")),
             exact=True),
    Workload("mdqkp_chips", "mdqkp", 100, 0.5, trials=16, iterations=300,
             backend="vectorized",
             params=(("use_hardware", True),
                     ("variability", {"threshold_sigma": 0.02,
                                      "on_current_sigma": 0.05}),
                     ("crossbar_config", CrossbarConfig(
                         current_noise_sigma=0.02,
                         on_current_variation_sigma=0.05, adc_bits=8,
                         seed=CHIP_CROSSBAR_SEED))),
             exact=False),
    Workload("qkp_sw_large", "qkp", 1000, 0.05, trials=256, iterations=3000,
             backend="vectorized",
             params=(("use_hardware", False), ("kernel", "auto")),
             exact=True),
    Workload("qkp_serial_store", "qkp", 400, 0.5, trials=5, iterations=1000,
             backend="serial", params=(("use_hardware", True),),
             exact=True, store=True),
)}
