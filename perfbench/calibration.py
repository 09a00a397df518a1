"""Machine-speed sampling that turns host seconds into calibrated seconds.

Shared virtual machines drift: on the reference machine (a 2-vCPU KVM
guest) the same pure-Python loop ran up to 1.8x slower in one five-second
window than in the next, with CPU time equal to wall time (no steal) and
no hardware counters to read instead.
Bracketing a call with a probe before and after was not enough: a 50 ms
probe samples the machine too briefly to stand for a two-second call.

So the speed is sampled *during* the timed region.  A real-time interval
timer (``SIGALRM``, every 10 ms) runs a fixed micro-probe of about 125 us
in the main thread between bytecodes, and its duration is recorded.  The
call's seconds, minus the time spent in the probes, are rescaled by
``REFERENCE_SAMPLE_S / median(samples)``: a slow window stretches the
probes as much as the call, so the ratio cancels the drift while the unit
stays seconds ("seconds on the reference machine").

The micro-probe mixes interpreted Python with small NumPy kernels, the
kind of work the solver's hot loops do.  It imports nothing from
``repro``, so no change under test can move it.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

import numpy as np

#: Median micro-probe time on the reference machine (a 2-vCPU KVM guest,
#: Xeon at 2.1 GHz, NumPy 2.4).  Only the ratio to it matters.
REFERENCE_SAMPLE_S = 125e-6

#: Seconds between speed samples.
INTERVAL_S = 0.01

#: Samples taken, right after the region, when it was too short for more.
MIN_SAMPLES = 5

_RNG = np.random.default_rng(2024)
_MATRIX = _RNG.random((100, 100))
_ROWS = _RNG.random((16, 100))


def micro_probe() -> float:
    """The fixed unit of work whose duration measures machine speed.

    The host slows interpreted code and NumPy kernels independently, and
    each workload mixes the two differently, so the probe spends about as
    long on each: a Python loop, then a small matrix product and a batch of
    normal draws.
    """
    total = 0
    for step in range(800):
        total += step * step % 7
    return (total + float((_ROWS @ _MATRIX)[0, 0])
            + float(_RNG.normal(0.0, 1.0, 1000)[0]))


class CalibratedTimer:
    """Times its block and samples machine speed while the block runs.

    Enter it from the main thread (signal handlers run there).  Afterwards
    :attr:`raw_s` is the block's host seconds, :attr:`probe_s` the part of
    them the probes took, and :attr:`seconds` the calibrated seconds.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.raw_s = self.probe_s = 0.0
        self._start = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        micro_probe()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "CalibratedTimer":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.raw_s = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe_s = sum(self.samples)
        while len(self.samples) < MIN_SAMPLES:
            self._sample()
        return False

    @property
    def sample_s(self) -> float:
        """Median micro-probe seconds during the block."""
        return statistics.median(self.samples)

    @property
    def scale(self) -> float:
        """Factor from host seconds to calibrated seconds for this block."""
        return REFERENCE_SAMPLE_S / self.sample_s

    @property
    def seconds(self) -> float:
        """The block's seconds without the probes, calibrated."""
        return (self.raw_s - self.probe_s) * self.scale
