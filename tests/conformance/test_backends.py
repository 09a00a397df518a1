"""Every family solves end-to-end on all three ``run_trials`` backends.

Clause 4 of the contract: with the family's registered solver parameters,
per-seed results are *bitwise identical* across serial, process and
vectorized backends (integer conformance instances, software mode), and
hardware mode runs the same pipeline through the FeFET filter stack --
serial and vectorized per seed alike, ideal or non-ideal chips.
"""

import numpy as np
import pytest

import repro.kernels.jit as jit_module
import repro.kernels.native as native_module
from repro.cim.crossbar import CrossbarConfig
from repro.runtime import run_trials

from harness import MASTER_SEED, solver_params


def _solve(family, instance, backend, *, num_trials=4, **kwargs):
    params = solver_params(family, instance, **kwargs.pop("params", {}))
    return run_trials(instance, ("hycim", params), num_trials=num_trials,
                      backend=backend, master_seed=MASTER_SEED, **kwargs)


def _assert_exact(reference, other):
    """Same best energies, configurations and proposal counters per seed."""
    np.testing.assert_array_equal(reference.best_energies,
                                  other.best_energies)
    for a, b in zip(reference.results, other.results):
        assert a.trial_seed == b.trial_seed
        np.testing.assert_array_equal(a.best_configuration,
                                      b.best_configuration)
        assert a.num_accepted_moves == b.num_accepted_moves
        assert a.num_feasible_evaluations == b.num_feasible_evaluations
        assert a.num_infeasible_skipped == b.num_infeasible_skipped


class TestSerialVectorizedParity:
    def test_per_seed_results_are_bitwise_identical(self, family, instance):
        serial = _solve(family, instance, "serial")
        vectorized = _solve(family, instance, "vectorized")
        np.testing.assert_array_equal(serial.best_energies,
                                      vectorized.best_energies)
        for a, b in zip(serial.results, vectorized.results):
            assert a.trial_seed == b.trial_seed
            assert a.best_energy == b.best_energy
            np.testing.assert_array_equal(a.best_configuration,
                                          b.best_configuration)


class TestProcessBackend:
    def test_process_matches_serial_per_seed(self, family, instance):
        serial = _solve(family, instance, "serial", num_trials=2,
                        params={"num_iterations": 40})
        process = _solve(family, instance, "process", num_trials=2,
                         params={"num_iterations": 40},
                         num_workers=2, chunk_size=1)
        np.testing.assert_array_equal(serial.best_energies,
                                      process.best_energies)
        for a, b in zip(serial.results, process.results):
            assert a.trial_seed == b.trial_seed
            np.testing.assert_array_equal(a.best_configuration,
                                          b.best_configuration)


class TestSolutionsAreFeasible:
    def test_every_trial_returns_a_feasible_state(self, family, instance):
        batch = _solve(family, instance, "vectorized")
        configs = np.stack([r.best_configuration for r in batch.results])
        assert instance.is_feasible_batch(configs).all()


class TestHardwareMode:
    def test_fefet_filter_path_runs_and_stays_feasible(self, family, instance):
        batch = _solve(family, instance, "serial", num_trials=2,
                       params={"use_hardware": True, "num_iterations": 40})
        for result in batch.results:
            assert instance.is_feasible(result.best_configuration)


class TestHardwareBackendParity:
    """Clause 5 in hardware mode: the vectorized engine's device-axis
    filters and crossbar reproduce the serial solver's per-trial hardware --
    same best configurations, energies and proposal counters per seed --
    on ideal chips, on chips with sampled filter cells, and with crossbar
    read noise, ON-current variation and an ADC on top."""

    CHIPS = {"threshold_sigma": 0.02, "on_current_sigma": 0.05}
    CONFIGS = {
        "ideal": {},
        "variability": {"variability": CHIPS},
        "noisy-crossbar": {"variability": CHIPS,
                           "crossbar_config": CrossbarConfig(
                               current_noise_sigma=0.02,
                               on_current_variation_sigma=0.05, adc_bits=8,
                               seed=5)},
    }

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_serial_and_vectorized_agree_per_seed(self, family, instance,
                                                  config):
        params = {"use_hardware": True, "num_iterations": 40,
                  **self.CONFIGS[config]}
        _assert_exact(_solve(family, instance, "serial", params=params),
                      _solve(family, instance, "vectorized", params=params))


class TestKernelBackends:
    """Clause 5: sweep-kernel backends are exact on the integer conformance
    instances -- same best energies, configurations and proposal counters
    per seed as the reference backend, for every family."""

    def test_fused_kernel_is_exact(self, family, instance):
        # The fused backend covers single-flip dynamics, so both arms run
        # the family's parameters minus any custom move generator -- every
        # family then exercises the fused path on its conformance instance
        # (with its registered moves the family falls under the "auto" test,
        # where unsupported configurations drop to the reference backend).
        # Wherever the system cc builds it, the fused blocks run in C.
        params = solver_params(family, instance)
        params.pop("move_generator", None)
        reference = run_trials(instance, ("hycim", params), num_trials=4,
                               backend="vectorized", master_seed=MASTER_SEED)
        fused = run_trials(instance, ("hycim", dict(params, kernel="fused")),
                           num_trials=4, backend="vectorized",
                           master_seed=MASTER_SEED)
        _assert_exact(reference, fused)

    def test_fused_numpy_loop_is_exact(self, family, instance, monkeypatch):
        # The NumPy loop, which runs where no C block builds, holds to the
        # same per-seed results -- inequality and equality loads alike (bin
        # packing, coloring and TSP hold one-hot equalities).
        monkeypatch.setattr(native_module, "_loaded", "C block disabled")
        self.test_fused_kernel_is_exact(family, instance)

    def test_auto_kernel_with_jit_is_exact(self, family, instance,
                                           monkeypatch):
        # numba heads auto's fall-through order.  With the JIT kernels
        # allowed (interpreted where numba is missing), auto puts every
        # family whose constraints the compiled loop expresses on numba and
        # the rest on fused; per-seed results stay exact either way.
        monkeypatch.setattr(jit_module, "_ALLOW_INTERPRETED", True)
        params = solver_params(family, instance)
        params.pop("move_generator", None)
        reference = run_trials(instance, ("hycim", params), num_trials=4,
                               backend="vectorized", master_seed=MASTER_SEED)
        auto = run_trials(instance, ("hycim", dict(params, kernel="auto")),
                          num_trials=4, backend="vectorized",
                          master_seed=MASTER_SEED)
        _assert_exact(reference, auto)
        assert {r.metadata["kernel"] for r in auto.results} <= {"numba",
                                                                "fused"}

    def test_auto_kernel_is_exact(self, family, instance):
        # "auto" resolves to the fastest supported backend; whatever it
        # picks must preserve the per-seed contract.
        reference = _solve(family, instance, "vectorized")
        auto = _solve(family, instance, "vectorized",
                      params={"kernel": "auto"})
        _assert_exact(reference, auto)
