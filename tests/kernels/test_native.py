"""The fused kernel's C block: its compiled draws against numpy, its build
cache, and where the NumPy loop runs instead.

The sweep parity itself lives in ``test_backend_parity.py`` (the ``fused``
arm runs the C block, ``fused-numpy`` the NumPy loop, and ``TestFloatData``
compares the two) and the conformance suite; here the C file's own PCG64 /
``integers`` / ``random`` functions are driven through the ``draw_stream``
test entry point and compared with ``numpy.random.Generator`` draw for
draw, and the build is run cold, without a compiler, from a broken source
and against cache directories other users could change.
"""

import ctypes
import stat
from pathlib import Path

import numpy as np
import pytest

import repro.kernels.jit as jit_module
import repro.kernels.native as native
from repro.core.qubo import batched_energies
from repro.dynamics import Dynamics
from repro.dynamics.acceptance import MetropolisRule
from repro.dynamics.driver import LoopDriver
from repro.dynamics.moves import SingleFlipMove
from repro.dynamics.schedule import GeometricSchedule
from repro.kernels import KernelUnavailableError, make_hycim_kernel
from repro.problems.generators import generate_qkp_instance

MASK64 = (1 << 64) - 1
#: 2**31 - 1 puts the Lemire threshold (2**32 - b) % b far below 2**32 - b,
#: so a sampler that skipped the modulo would reject half its draws;
#: 2**31 + 1 rejects about half the draws of the correct sampler.
BOUNDS = [1, 2, 1000, 2**31 - 1, 2**31 + 1, 2**32]


def native_draws(generator, bounds):
    """Draw ``bounds`` (0 = ``random()``) through the C stream functions."""
    state = generator.bit_generator.state
    raw, inc = state["state"]["state"], state["state"]["inc"]
    lane = np.array([raw >> 64, raw & MASK64, inc >> 64, inc & MASK64,
                     state["has_uint32"], state["uinteger"]], dtype=np.uint64)
    wanted = np.asarray(bounds, dtype=np.uint64)
    draws = np.empty(len(bounds))
    native.library().draw_stream(
        lane.ctypes.data_as(ctypes.c_void_p), ctypes.c_int64(len(bounds)),
        wanted.ctypes.data_as(ctypes.c_void_p),
        draws.ctypes.data_as(ctypes.c_void_p))
    return draws, lane


@pytest.mark.usefixtures("c_block")
class TestDraws:
    @pytest.mark.parametrize("parked", [False, True],
                             ids=["fresh", "parked-half"])
    def test_interleaved_draws_match_generator(self, parked):
        for seed in range(60):
            control = np.random.default_rng([seed, 17])
            if parked:
                control.integers(0, 5)  # leaves the high half parked
            assert control.bit_generator.state["has_uint32"] == int(parked)
            pattern = np.random.default_rng(seed)
            bounds = [0 if pattern.random() < 0.3
                      else BOUNDS[pattern.integers(len(BOUNDS))]
                      for _ in range(300)]
            draws, lane = native_draws(control, bounds)
            expected = [control.random() if bound == 0
                        else control.integers(0, bound) for bound in bounds]
            np.testing.assert_array_equal(draws, expected)
            state = control.bit_generator.state
            assert (int(lane[0]) << 64 | int(lane[1])
                    == state["state"]["state"])
            assert int(lane[4]) == state["has_uint32"]
            assert int(lane[5]) == state["uinteger"]

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_each_bound_alone(self, bound):
        control = np.random.default_rng(bound)
        draws, _ = native_draws(control, [bound] * 500)
        np.testing.assert_array_equal(
            draws, [control.integers(0, bound) for _ in range(500)])


@pytest.fixture(scope="module")
def problem():
    return generate_qkp_instance(num_items=20, density=0.5, seed=412,
                                 name="native_qkp")


def kernel_args(problem, dynamics=None, generators=None):
    """``make_hycim_kernel`` keywords of a filtered single-flip SA run, as
    the SA engine passes them: every incumbent feasible, the raw energy a
    copy of the energies."""
    matrix = problem.to_qubo().matrix
    current = np.zeros((3, problem.num_variables))
    generators = generators or [np.random.default_rng([9, k])
                                for k in range(3)]
    driver = LoopDriver(GeometricSchedule(10.0, 0.1), 10, generators,
                        dynamics=dynamics, exclusive=True)
    energy = batched_energies(matrix, current)
    return dict(driver=driver, move_generator=SingleFlipMove(),
                moves_per_iteration=1,
                feasible_batch=problem.is_feasible_batch,
                energies=lambda batch, replicas: batched_energies(matrix,
                                                                  batch),
                current=current, current_energy=energy,
                current_feasible=np.ones(3, dtype=bool), matrix=matrix,
                raw_energy=energy.copy(),
                constraints=problem.linear_feasibility_constraints())


def run_kernel(kernel):
    with kernel.driver:
        kernel.run_block(0, 10)
    return kernel.best_energy.copy(), kernel.num_accepted.copy()


def run_numpy_loop(problem, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(native, "_loaded", "C block disabled")
        kernel = make_hycim_kernel("fused", **kernel_args(problem))
    assert kernel._compiled is None
    return run_kernel(kernel)


@pytest.mark.usefixtures("c_block")
class TestWhichLoopRuns:
    class Greedy(MetropolisRule):
        """A subclass still counts as a custom rule: it may override."""

    def test_per_replica_pcg64_streams_run_in_c(self, problem, monkeypatch):
        kernel = make_hycim_kernel("fused", **kernel_args(problem))
        assert kernel.backend == "fused" and kernel._compiled is not None
        np.testing.assert_array_equal(run_kernel(kernel),
                                      run_numpy_loop(problem, monkeypatch))

    @pytest.mark.parametrize("case", ["shared-rng", "custom-rule", "mt19937"])
    def test_draws_through_the_driver_keep_the_numpy_loop(self, problem,
                                                          case):
        shared = np.random.default_rng([9, 0])
        dynamics, generators = {
            "shared-rng": (Dynamics(rng_mode="shared"), [shared] * 3),
            "custom-rule": (Dynamics(acceptance=self.Greedy()), None),
            "mt19937": (None, [np.random.Generator(np.random.MT19937(k))
                               for k in range(3)]),
        }[case]
        kernel = make_hycim_kernel(
            "fused", **kernel_args(problem, dynamics, generators))
        assert kernel.driver.replay() is None and kernel._compiled is None
        run_kernel(kernel)


@pytest.fixture
def fresh_build(monkeypatch, tmp_path):
    """A process that has not built the library yet, with an empty cache."""
    monkeypatch.setattr(native, "_loaded", None)
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path


@pytest.mark.usefixtures("c_block")
class TestBuild:
    def test_cold_build_fills_an_empty_cache(self, fresh_build, problem,
                                             monkeypatch):
        library = native.library()
        cache = fresh_build / "cache" / "repro"
        built = sorted(cache.iterdir())
        assert len(built) == 1 and built[0].name.startswith("native-")
        assert Path(library._name) == built[0]
        assert stat.S_IMODE(cache.stat().st_mode) == 0o700
        kernel = make_hycim_kernel("fused", **kernel_args(problem))
        assert kernel._compiled is not None
        np.testing.assert_array_equal(run_kernel(kernel),
                                      run_numpy_loop(problem, monkeypatch))

    def test_cache_defaults_to_home(self, fresh_build, monkeypatch):
        monkeypatch.delenv("XDG_CACHE_HOME")
        library = native.library()
        cache = fresh_build / "home" / ".cache" / "repro"
        assert Path(library._name).parent == cache

    def test_warm_cache_is_reused(self, fresh_build, monkeypatch):
        first = Path(native.library()._name)
        monkeypatch.setattr(native, "_loaded", None)
        monkeypatch.setattr(native, "_compile", None)  # must not be called
        assert Path(native.library()._name) == first

    def test_failed_compile_names_the_cause(self, fresh_build, monkeypatch,
                                            problem):
        broken = fresh_build / "broken.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(native, "SOURCE", broken)
        with pytest.raises(KernelUnavailableError, match="broken.c"):
            native.library()
        # The failure is remembered, and no partial file is left behind.
        with pytest.raises(KernelUnavailableError, match="failed"):
            native.library()
        assert list((fresh_build / "cache" / "repro").iterdir()) == []
        kernel = make_hycim_kernel("fused", **kernel_args(problem))
        assert kernel._compiled is None

    def test_unusable_cache_builds_in_a_private_temporary_directory(
            self, fresh_build, problem, monkeypatch):
        cache = fresh_build / "cache" / "repro"
        cache.mkdir(parents=True)
        cache.chmod(0o777)  # others could swap the library
        library = native.library()
        assert cache not in Path(library._name).parents
        assert list(cache.iterdir()) == []
        kernel = make_hycim_kernel("fused", **kernel_args(problem))
        assert kernel._compiled is not None
        np.testing.assert_array_equal(run_kernel(kernel),
                                      run_numpy_loop(problem, monkeypatch))

    def test_symlinked_cache_is_not_used(self, fresh_build):
        # Another user who can write the parent could point ``repro`` at any
        # directory this user owns, or repoint it before the load.
        elsewhere = fresh_build / "elsewhere"
        elsewhere.mkdir(mode=0o700)
        (fresh_build / "cache").mkdir()
        (fresh_build / "cache" / "repro").symlink_to(elsewhere)
        library = native.library()
        assert elsewhere not in Path(library._name).parents
        assert list(elsewhere.iterdir()) == []

    @pytest.mark.parametrize("mode, used", [(0o777, False), (0o770, False),
                                            (0o1777, True), (0o755, True)])
    def test_parent_others_can_write(self, fresh_build, mode, used):
        # Without the sticky bit, whoever can write the parent can rename
        # ``repro`` and put their own directory in its place.
        parent = fresh_build / "cache"
        parent.mkdir()
        parent.chmod(mode)
        library = native.library()
        assert (Path(library._name).parent == parent / "repro") is used


class TestUnavailable:
    def test_no_compiler(self, fresh_build, monkeypatch, problem):
        monkeypatch.setenv("PATH", str(fresh_build / "no-compilers-here"))
        monkeypatch.setattr(jit_module, "HAVE_NUMBA", False)
        with pytest.raises(KernelUnavailableError, match="no `cc` on PATH"):
            native.library()
        kernel = make_hycim_kernel("fused", **kernel_args(problem))
        assert kernel._compiled is None
        run_kernel(kernel)
        assert make_hycim_kernel("auto", **kernel_args(problem)).backend == \
            "fused"
