"""Outside-in layer tracing: spans around calls into ``repro``'s layers.

The tracer wraps public functions of each layer at class (or module) level
for the duration of a traced run.  Inside a traced repetition every wrapped
call records one span ``(name, layer, start, end, parent, repetition)`` in
memory; outside one the wrappers only forward the call.  Self time is a
span's duration minus its direct children's, so the self times of all spans
plus the time outside every span add up to the repetition's wall time.

Counts are taken at the same boundaries, from the calls' arguments and
results.  A call nested inside another span of the same layer (e.g. the
vectorised sampler calling its scalar form) adds no counts of its own, so
nothing is counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: Layers in report order; each becomes ``<layer>.self_s``.
LAYERS = ("cim.crossbar", "cim.adc", "cim.filter", "cim.program", "fefet",
          "dynamics", "kernels", "batched", "annealing", "problems", "core",
          "runtime", "store", "telemetry")

Counter = Callable[[tuple, dict, Any], Dict[str, int]]


def _rows(args, kwargs, result) -> Dict[str, int]:
    return {"evals": int(np.shape(args[1])[0] * np.shape(args[1])[1])}


def _conversions(args, kwargs, result) -> Dict[str, int]:
    return {"conversions": int(np.size(result))}


def _verdicts(args, kwargs, result) -> Dict[str, int]:
    judged = int(np.size(result))
    return {"judged": judged, "rejected": judged - int(np.count_nonzero(result))}


def _samples(args, kwargs, result) -> Dict[str, int]:
    parts = result if isinstance(result, (tuple, list)) else (result,)
    return {"samples": int(sum(np.size(part) for part in parts))}


def _accepts(args, kwargs, result) -> Dict[str, int]:
    return {"metropolis": int(np.size(result)),
            "accepted": int(np.count_nonzero(result))}


def _one(key: str) -> Counter:
    return lambda args, kwargs, result: {key: 1}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: Optional[int]
    rep: int
    end: float = 0.0
    error: Optional[str] = None
    counts: Dict[str, int] = field(default_factory=dict)


class Tracer:
    """Installs the layer wrappers; records spans while :attr:`rep` is set."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.rep: Optional[int] = None
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def _wrap(self, layer: str, name: str, function: Callable,
              counter: Optional[Counter]) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if tracer.rep is None:
                return function(*args, **kwargs)
            stack = tracer._stack
            span = Span(name, layer, 0.0, stack[-1] if stack else None,
                        tracer.rep)
            tracer.spans.append(span)
            stack.append(len(tracer.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            except BaseException as error:
                span.error = type(error).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def _patch_attr(self, owner: Any, attr: str, layer: str, name: str,
                    counter: Optional[Counter] = None) -> None:
        own = attr in vars(owner)
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original, own))
        setattr(owner, attr, self._wrap(layer, name, original, counter))

    def _patch_method(self, cls: type, attr: str, layer: str,
                      counter: Optional[Counter] = None) -> None:
        self._patch_attr(cls, attr, layer, f"{cls.__name__}.{attr}", counter)

    def _patch_function(self, function: Callable, layer: str,
                        counter: Optional[Counter] = None) -> None:
        """Wrap a module-level function in every module that binds it."""
        wrapped = self._wrap(layer, function.__name__, function, counter)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, function.__name__, None) is function):
                self._patches.append((module, function.__name__, function,
                                      True))
                setattr(module, function.__name__, wrapped)

    def install(self) -> None:
        """Wrap every traced public call; undo with :meth:`uninstall`."""
        import repro.kernels
        import repro.kernels.jit  # noqa: F401 - so "auto"'s numba try is traced
        import repro.problems.generators
        import repro.problems.multidim_knapsack
        import repro.runtime.executor
        from repro.annealing.hycim import HyCiMSolver
        from repro.batched.engine import BatchedHyCiMSolver
        from repro.cim.adc import ADCModel
        from repro.cim.crossbar import FeFETCrossbar
        from repro.cim.inequality_filter import InequalityFilter
        from repro.core.transformation import to_inequality_qubo
        from repro.dynamics.acceptance import MetropolisRule
        from repro.dynamics.driver import LoopDriver
        from repro.dynamics.moves import MoveGenerator
        from repro.fefet.variability import VariabilityModel
        from repro.kernels.base import SweepKernel
        from repro.problems.multidim_knapsack import (
            MultiDimensionalKnapsackProblem)
        from repro.problems.qkp import QuadraticKnapsackProblem
        from repro.store import CampaignStore
        from repro.telemetry.recorder import JsonlRecorder

        method = self._patch_method
        method(FeFETCrossbar, "compute_energies_devices", "cim.crossbar", _rows)
        method(ADCModel, "quantize_devices", "cim.adc", _conversions)
        for attr in ("is_feasible", "is_feasible_batch", "is_feasible_devices"):
            method(InequalityFilter, attr, "cim.filter", _verdicts)
        method(FeFETCrossbar, "__init__", "cim.program")
        method(InequalityFilter, "__init__", "cim.program")
        for attr in ("sample_threshold_shift", "sample_on_current_factor",
                     "sample_threshold_shifts", "sample_on_current_factors",
                     "sample_device_table"):
            method(VariabilityModel, attr, "fefet", _samples)
        method(LoopDriver, "flip_indices", "dynamics")
        method(LoopDriver, "propose", "dynamics")
        method(LoopDriver, "metropolis", "dynamics", _accepts)
        method(MetropolisRule, "accept_scalar", "dynamics", _accepts)
        for cls in _subclasses(MoveGenerator):
            if "propose" in vars(cls):
                method(cls, "propose", "dynamics")
        self._patch_function(repro.kernels.make_hycim_kernel, "kernels")
        for cls in _subclasses(SweepKernel):
            for attr in ("__init__", "run_block"):
                if attr in vars(cls):
                    method(cls, attr, "kernels")
        method(BatchedHyCiMSolver, "solve_batch", "batched")
        method(HyCiMSolver, "__init__", "annealing")
        method(HyCiMSolver, "solve", "annealing")
        for generator in (repro.problems.generators.generate_qkp_instance,
                          repro.problems.multidim_knapsack
                          .generate_mdqkp_instance):
            self._patch_function(generator, "problems", _one("calls"))
        for cls in (QuadraticKnapsackProblem, MultiDimensionalKnapsackProblem):
            for attr in ("random_feasible_configuration", "objective",
                         "is_feasible", "is_feasible_batch",
                         "to_inequality_qubo"):
                method(cls, attr, "problems", _one("calls"))
        self._patch_function(to_inequality_qubo, "core")
        self._patch_function(repro.runtime.executor.run_trials, "runtime")
        for attr in ("register_run", "record_wall_time", "annotate_provenance"):
            method(CampaignStore, attr, "store")
        method(CampaignStore, "append_result", "store", _one("appends"))
        method(JsonlRecorder, "emit", "telemetry", _one("events"))

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()


def _subclasses(cls: type) -> List[type]:
    found: Dict[type, None] = {}
    for sub in cls.__subclasses__():
        found[sub] = None
        found.update(dict.fromkeys(_subclasses(sub)))
    return list(found)


# ---------------------------------------------------------------------- #
# Derivation
# ---------------------------------------------------------------------- #
@dataclass
class RepetitionProfile:
    """Per-layer self seconds and counts of one traced repetition."""

    wall_s: float
    self_s: Dict[str, float]
    unattributed_s: float
    counts: Dict[str, int]
    fallbacks: int


def profile(spans: List[Span], rep: int, wall_s: float) -> RepetitionProfile:
    """Self times, counts and the unattributed rest of repetition ``rep``."""
    child_s: Dict[int, float] = {}
    for span in spans:
        if span.rep == rep and span.parent is not None:
            child_s[span.parent] = (child_s.get(span.parent, 0.0)
                                    + span.end - span.start)
    self_s = dict.fromkeys(LAYERS, 0.0)
    counts: Dict[str, int] = {}
    covered = 0.0
    fallbacks = 0
    for index, span in enumerate(spans):
        if span.rep != rep:
            continue
        duration = span.end - span.start
        self_s[span.layer] += duration - child_s.get(index, 0.0)
        parent = spans[span.parent] if span.parent is not None else None
        if parent is None:
            covered += duration
        if parent is None or parent.layer != span.layer:
            for key, value in span.counts.items():
                name = f"{span.layer}.{key}"
                counts[name] = counts.get(name, 0) + value
        if (span.error is not None and parent is not None
                and parent.name == "make_hycim_kernel"):
            fallbacks += 1
    return RepetitionProfile(wall_s=wall_s, self_s=self_s,
                             unattributed_s=wall_s - covered, counts=counts,
                             fallbacks=fallbacks)
