"""Kernel-backend plumbing: params, run keys, fallbacks and failure modes.

``params["kernel"]`` travels from :func:`repro.runtime.run_trials` through
the annealers' trial functions into the engines; these tests pin the runtime
contract around it: per-seed results are backend-invariant, the default
backend canonicalises *out* of store run keys (old keys stay valid), every
solver validates the name (and those without a sweep ignore it), and the
``"auto"`` / explicit backends fall back / fail the way
:mod:`repro.kernels.base` documents.
"""

import gc

import numpy as np
import pytest

import repro.kernels.jit as jit_module
from repro.annealing.sa import SimulatedAnnealer
from repro.batched import BatchedSimulatedAnnealer
from repro.core.constraints import EqualityConstraint
from repro.core.qubo import QUBOModel, batched_energies
from repro.dynamics.driver import LoopDriver
from repro.dynamics.moves import SingleFlipMove
from repro.dynamics.schedule import GeometricSchedule
from repro.kernels import (
    KernelUnavailableError,
    KernelUnsupportedError,
    canonical_kernel_param,
    make_hycim_kernel,
    resolve_kernel_backend,
)
from repro.kernels.reference import ReferenceHyCiMKernel
from repro.problems.generators import generate_qkp_instance
from repro.runtime import run_trials
from repro.store import CampaignStore


def _has_numba():
    try:
        import numba  # noqa: F401
        return True
    except ImportError:
        return False


@pytest.fixture(scope="module")
def problem():
    return generate_qkp_instance(num_items=20, density=0.5, seed=412,
                                 name="kernel_plumbing_qkp")


PARAMS = {"num_iterations": 60, "use_hardware": False}


class TestBackendNames:
    def test_default_resolution(self):
        assert resolve_kernel_backend(None) == "reference"
        assert resolve_kernel_backend("auto") == "auto"
        assert resolve_kernel_backend("fused") == "fused"

    def test_unknown_backend_fails_loudly(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_kernel_backend("fsued")

    def test_default_canonicalises_to_none(self):
        assert canonical_kernel_param(None) is None
        assert canonical_kernel_param("reference") is None
        assert canonical_kernel_param("fused") == "fused"
        assert canonical_kernel_param("auto") == "auto"


class TestRunTrialsParity:
    def test_fused_param_matches_default_per_seed(self, problem):
        default = run_trials(problem, "hycim", num_trials=4, params=PARAMS,
                             backend="vectorized", master_seed=6)
        fused = run_trials(problem, "hycim", num_trials=4,
                           params=dict(PARAMS, kernel="fused"),
                           backend="vectorized", master_seed=6)
        np.testing.assert_array_equal(default.best_energies,
                                      fused.best_energies)
        for a, b in zip(default.results, fused.results):
            assert a.trial_seed == b.trial_seed
            np.testing.assert_array_equal(a.best_configuration,
                                          b.best_configuration)
            assert a.num_accepted_moves == b.num_accepted_moves

    def test_kernel_param_routes_serial_backend_to_engine(self, problem):
        # A serial trial is a one-replica engine run, so it honours the
        # kernel param -- per-seed results still match the reference kernel.
        serial = run_trials(problem, "hycim", num_trials=3, params=PARAMS,
                            backend="serial", master_seed=6)
        routed = run_trials(problem, "hycim", num_trials=3,
                            params=dict(PARAMS, kernel="fused"),
                            backend="serial", master_seed=6)
        np.testing.assert_array_equal(serial.best_energies,
                                      routed.best_energies)

    def test_reference_solver_still_validates_the_kernel_name(self, problem):
        # A solver reads only the params it understands, so a valid kernel
        # is ignored by greedy; a misspelt one still fails up front.
        run_trials(problem, "greedy", num_trials=1, params={"kernel": "fused"})
        with pytest.raises(ValueError, match="fsued"):
            run_trials(problem, "greedy", num_trials=1,
                       params={"kernel": "fsued"})


class TestRunKeyStability:
    def test_explicit_reference_addresses_the_default_run(self, problem,
                                                          tmp_path):
        store = CampaignStore(tmp_path / "store")
        cold = run_trials(problem, "hycim", num_trials=3, params=PARAMS,
                          master_seed=6, store=store)
        assert cold.num_loaded_from_store == 0
        # Spelling out the default backend must hit the same persisted run.
        warm = run_trials(problem, "hycim", num_trials=3,
                          params=dict(PARAMS, kernel="reference"),
                          master_seed=6, store=store)
        assert warm.num_loaded_from_store == 3
        np.testing.assert_array_equal(cold.best_energies, warm.best_energies)

    def test_non_default_backend_addresses_its_own_run(self, problem,
                                                       tmp_path):
        store = CampaignStore(tmp_path / "store")
        run_trials(problem, "hycim", num_trials=2, params=PARAMS,
                   master_seed=6, store=store)
        fused = run_trials(problem, "hycim", num_trials=2,
                           params=dict(PARAMS, kernel="fused"),
                           master_seed=6, store=store)
        # A fused run is only tolerance-equal on float data, so it must not
        # silently resolve to the reference run's shards.
        assert fused.num_loaded_from_store == 0


def _kernel_args(problem, *, single_flip=True, generic_filter=False,
                 shift=0.0):
    """``make_hycim_kernel`` keywords of a filtered SA run, as the SA engine
    passes them; ``generic_filter`` swaps the capacity filter for an opaque
    per-row one, which has no linear form."""
    matrix = problem.to_qubo().matrix + shift
    current = np.zeros((3, problem.num_variables))
    generators = [np.random.default_rng([9, k]) for k in range(3)]
    driver = LoopDriver(GeometricSchedule(10.0, 0.1), 10, generators,
                        exclusive=single_flip)
    energy = batched_energies(matrix, current)
    if generic_filter:
        feasible_batch, constraints = (
            lambda batch: np.ones(batch.shape[0], dtype=bool)), None
    else:
        feasible_batch = problem.is_feasible_batch
        constraints = problem.linear_feasibility_constraints()
    return dict(
        num_variables=problem.num_variables, driver=driver,
        move_generator=SingleFlipMove(), single_flip=single_flip,
        moves_per_iteration=1, feasible_batch=feasible_batch,
        energies=lambda batch, replicas: batched_energies(matrix, batch),
        current=current, current_energy=energy,
        current_feasible=np.ones(current.shape[0], dtype=bool),
        use_delta=single_flip, matrix=matrix, raw_energy=energy.copy(),
        constraints=constraints, use_hardware_filters=False,
        use_crossbar=False)


def _sa_backend(problem, kernel, *, shift=0.0, **filters):
    """The backend a short SA run resolves ``kernel`` to; raises where the
    backend refuses the run."""
    engine = BatchedSimulatedAnnealer(SimulatedAnnealer(num_iterations=5))
    results = engine.anneal(
        QUBOModel(problem.to_qubo().matrix + shift),
        np.zeros((2, problem.num_variables)),
        [np.random.default_rng([9, k]) for k in range(2)], kernel=kernel,
        **filters)
    return results[0].metadata.get("kernel", "reference")


class TestConstructionFallbacks:
    def test_auto_falls_back_to_reference_on_unsupported(self, problem):
        # An opaque per-row filter is not expressible incrementally: "auto"
        # lands on the reference kernel instead of raising.
        kernel = make_hycim_kernel(
            "auto", **_kernel_args(problem, generic_filter=True))
        assert isinstance(kernel, ReferenceHyCiMKernel)
        assert kernel.backend == "reference"
        assert _sa_backend(problem, "auto",
                           accept_filter=problem.is_feasible) == "reference"

    def test_explicit_fused_raises_on_unsupported(self, problem):
        with pytest.raises(KernelUnsupportedError, match="accept_filter"):
            _sa_backend(problem, "fused", accept_filter=problem.is_feasible)
        with pytest.raises(KernelUnsupportedError, match="no linear form"):
            make_hycim_kernel("fused",
                              **_kernel_args(problem, generic_filter=True))

    def test_explicit_fused_raises_on_generic_moves(self, problem):
        with pytest.raises(KernelUnsupportedError, match="single-flip"):
            make_hycim_kernel("fused",
                              **_kernel_args(problem, single_flip=False))

    @pytest.mark.skipif(_has_numba(), reason="numba is installed")
    def test_numba_unavailable_raises(self, problem):
        with pytest.raises(KernelUnavailableError, match="numba"):
            make_hycim_kernel("numba", **_kernel_args(problem))

    def test_auto_never_fails_for_support_reasons(self, problem):
        # Whatever the configuration, auto lands on some backend: the
        # integer QKP on the fastest one available, configurations fused
        # cannot express on the reference kernel.
        kernel = make_hycim_kernel("auto", **_kernel_args(problem))
        assert kernel.backend in ("fused", "numba")
        for unsupported in (dict(generic_filter=True),
                            dict(single_flip=False)):
            kernel = make_hycim_kernel(
                "auto", **_kernel_args(problem, **unsupported))
            assert kernel.backend == "reference"

    def test_auto_falls_back_to_fused_on_float_matrices(self, problem):
        # Non-integer coefficients only cost the fused path its exactness
        # guarantee (tolerance-equal instead), not its support: auto still
        # lands on fused -- or numba, when installed.
        kernel = make_hycim_kernel("auto",
                                   **_kernel_args(problem, shift=0.25))
        assert kernel.backend in ("fused", "numba")

    def test_auto_steps_from_numba_to_fused_on_equality_constraints(
            self, problem, monkeypatch):
        # The compiled loop has no equality compare.  With the JIT kernel
        # allowed (interpreted where numba is missing), explicit numba
        # refuses an equality constraint and auto takes the next backend in
        # line -- fused, not the reference.
        monkeypatch.setattr(jit_module, "_ALLOW_INTERPRETED", True)
        args = _kernel_args(problem)
        args["constraints"] = [
            EqualityConstraint(np.ones(problem.num_variables), 0.0)]
        with pytest.raises(KernelUnsupportedError, match="equality"):
            make_hycim_kernel("numba", **args)
        assert make_hycim_kernel("auto", **args).backend == "fused"
        args["constraints"] = problem.linear_feasibility_constraints()
        assert make_hycim_kernel("auto", **args).backend == "numba"

    @pytest.mark.parametrize("use_hardware", [False, True],
                             ids=["software", "hardware"])
    def test_auto_call_leaves_no_cyclic_garbage(self, problem, use_hardware):
        # A backend refusal caught into a local would hold its traceback,
        # whose frames hold the local: a cycle that keeps the whole call
        # (solver, model, kernel arrays, generators, results) alive until
        # the cyclic collector runs.
        params = dict(PARAMS, use_hardware=use_hardware, kernel="auto")

        def call():
            run_trials(problem, "hycim", num_trials=4, params=params,
                       backend="vectorized", master_seed=6)

        call()  # one-time imports and the C block's build
        gc.collect()
        gc.disable()
        try:
            call()
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_packed_is_not_a_backend(self, problem):
        with pytest.raises(ValueError, match="unknown kernel backend") as info:
            make_hycim_kernel("packed", **_kernel_args(problem))
        assert str(info.value).endswith(
            "('reference', 'fused', 'numba', 'auto')")


@pytest.mark.skipif(_has_numba(), reason="numba is installed")
class TestAutoResolvesToFused:
    """Without numba, "auto" lands on the fused backend wherever fused runs."""

    def test_both_engine_families_on_integer_and_float_matrices(self,
                                                                problem):
        for shift in (0.0, 0.25):
            filters = dict(
                accept_filter_batch=problem.is_feasible_batch,
                feasibility_constraints=(
                    problem.linear_feasibility_constraints()))
            assert _sa_backend(problem, "auto", shift=shift,
                               **filters) == "fused"
            hycim = make_hycim_kernel("auto",
                                      **_kernel_args(problem, shift=shift))
            assert hycim.backend == "fused"

    def test_run_stamps_the_resolved_backend(self, problem, tmp_path):
        store = CampaignStore(tmp_path / "store")
        params = dict(PARAMS, kernel="auto")
        batch = run_trials(problem, "hycim", num_trials=2, params=params,
                           backend="vectorized", master_seed=6, store=store)
        assert [r.metadata["kernel"] for r in batch.results] == ["fused"] * 2
        provenance = store.get_manifest(batch.run_key).provenance
        assert provenance["kernel_resolved"] == "fused"
        # A warm rerun loads every trial and keeps the stamp.
        warm = run_trials(problem, "hycim", num_trials=2, params=params,
                          backend="vectorized", master_seed=6, store=store)
        assert warm.num_loaded_from_store == 2
        np.testing.assert_array_equal(batch.best_energies, warm.best_energies)
        provenance = store.get_manifest(warm.run_key).provenance
        assert provenance["kernel_resolved"] == "fused"
