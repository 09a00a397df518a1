"""The loop driver: one dynamics state machine per lock-step replica batch.

:class:`LoopDriver` owns everything the batched engines used to hard-code
about the SA control loop -- the precomputed temperature table (schedule x
optional per-replica ladder), move-draw and acceptance-draw bookkeeping for
both RNG topologies, and inter-replica exchange at iteration boundaries --
so :class:`~repro.batched.engine.BatchedSimulatedAnnealer` and
:class:`~repro.batched.engine.BatchedHyCiMSolver` contain no Metropolis or
cooling code of their own.

**Stream contract.**  With default dynamics (no ladder, no exchange,
per-replica streams) the driver consumes each replica's ``Generator`` in
one fixed order -- one integer draw per single-flip proposal, one uniform
draw per feasible candidate -- and decides through the scalar
:func:`~repro.dynamics.acceptance.acceptance_probability`, so a replica's
trajectory depends on its own stream alone, whatever the batch size.
Temperatures come from :meth:`TemperatureSchedule.temperatures`, whose
entries are bit-identical to per-iteration ``temperature()`` calls.

**Replayed streams.**  The driver is the one owner of the replicas'
streams during a run.  Where its rule allows (:meth:`replay`: per-replica
streams on pairwise-distinct PCG64 bit generators, plain
:class:`~repro.dynamics.acceptance.MetropolisRule`, and an engine stating
that nothing else draws from the generators during the sweep), it copies
every generator's state into uint64 lanes (:mod:`repro.kernels.streams`)
and draws from those instead: one C call per :meth:`flip_indices` and per
:meth:`metropolis` wherever the library of :mod:`repro.kernels.native`
loads, for every kernel; without it, NumPy lookahead replay for the fused
kernels that ask for it, and ``Generator`` calls for the reference kernel.
The draws, verdicts and final states are bit-identical to the ``Generator``
calls in every case: the driver writes the lanes back into the
``Generator`` objects when it exits, also on an exception.

With coupled dynamics the driver adds behaviour on top without touching the
replica streams: exchange decisions draw from a dedicated per-run stream, so
a ``NoExchange`` run cannot observe whether exchange code exists; shared-RNG
mode replaces the per-replica draws wholesale (documented parity break).
In shared mode every replica generator is the group's one stream, and the
driver takes it from them: flips and verdicts are one vectorised draw per
proposal, generic moves draw replica by replica from the same stream.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.dynamics.acceptance import MetropolisRule
from repro.dynamics.dynamics import Dynamics
from repro.dynamics.moves import MoveGenerator
from repro.dynamics.schedule import TemperatureSchedule
from repro.telemetry.recorder import current_recorder


class LoopDriver:
    """Drives temperature, acceptance and exchange for one replica batch.

    Parameters
    ----------
    schedule:
        The base temperature schedule (its per-iteration table is precomputed
        once here -- the hot loop never calls ``temperature()``).
    num_iterations:
        SA iterations of the run (the table length).
    generators:
        One ``Generator`` per replica.  In shared mode
        (``dynamics.rng_mode == "shared"``) every entry must be the group's
        one chip-faithful stream (see
        :func:`repro.dynamics.dynamics.shared_stream`), which the driver
        draws its flips and verdicts from.
    dynamics:
        The :class:`~repro.dynamics.dynamics.Dynamics` bundle; ``None`` means
        default dynamics (flat batch, Metropolis, no exchange).
    exchange_rng:
        Dedicated exchange-decision stream; required when the exchange
        policy is active (see :func:`repro.dynamics.dynamics.exchange_stream`).
    exclusive:
        The engine's statement that nothing but this driver's
        :meth:`flip_indices` and :meth:`metropolis` draws from the replica
        generators while the driver is open (single-flip moves, so
        :meth:`propose` is never called, and no filter drawing per
        candidate).  Only then may the driver replay the streams.

    With a live recorder the driver opens a ``sweep_block`` span at
    construction and re-opens one after every probe; use it as a context
    manager so a run that raises before its final probe still closes its
    open block (and later spans keep their parents).
    """

    def __init__(self, schedule: TemperatureSchedule, num_iterations: int,
                 generators: Sequence[np.random.Generator],
                 dynamics: Optional[Dynamics] = None,
                 exchange_rng: Optional[np.random.Generator] = None,
                 exclusive: bool = False) -> None:
        self.dynamics = dynamics if dynamics is not None else Dynamics()
        self.num_replicas = len(generators)
        self.num_iterations = int(num_iterations)
        self._generators = list(generators)
        self._base = schedule.temperatures(self.num_iterations)
        self._factors = self.dynamics.ladder_factors(self.num_replicas)
        self._exchange = self.dynamics.exchange
        if self._exchange.is_active and exchange_rng is None:
            raise ValueError(
                "an active exchange policy needs a dedicated exchange_rng "
                "(see repro.dynamics.exchange_stream)")
        self._exchange_rng = exchange_rng
        self._shared_rng = None
        if self.dynamics.rng_mode == "shared":
            stream = self._generators[0] if self._generators else None
            if not (isinstance(stream, np.random.Generator)
                    and all(g is stream for g in self._generators)):
                raise ValueError(
                    'rng_mode="shared" needs every replica generator to be '
                    "the group's one shared stream "
                    "(see repro.dynamics.shared_stream)")
            self._shared_rng = stream
        # Pre-bound per-replica draw methods: the engines call these once per
        # replica per proposal, so shaving the attribute lookup matters.
        self._int_draws = [g.integers for g in self._generators]
        self._uniform_draws = [g.random for g in self._generators]
        self._replayable = exclusive and self._may_replay()
        self._lanes = None
        if self._replayable:
            # Imported here: importing repro.kernels imports this module.
            from repro.kernels.base import KernelUnavailableError
            from repro.kernels.native import NativeLanes

            try:
                self._lanes = NativeLanes(self._generators, self._factors)
            except KernelUnavailableError:
                pass
        self._exchange_round = 0
        self.exchange_attempts = 0
        self.exchange_accepted = 0
        # Per-rung exchange tallies stay driver-internal (never in result
        # metadata); telemetry probes and future self-tuning dynamics read
        # them.  Cheap enough to maintain unconditionally.
        self.exchange_attempts_per_rung = np.zeros(self.num_replicas,
                                                   dtype=np.int64)
        self.exchange_accepted_per_rung = np.zeros(self.num_replicas,
                                                   dtype=np.int64)
        self._recorder = current_recorder()
        self._probe_every = (int(self._recorder.probe_interval)
                             if self._recorder.enabled else 0)
        #: Engines guard their per-iteration probe call on this one flag, so
        #: a disabled recorder costs a single attribute test per iteration.
        self.probing = self._probe_every > 0
        if self.probing:
            self._last_probe_iteration = -1
            self._window = {
                "feasible": np.zeros(self.num_replicas, dtype=np.int64),
                "skipped": np.zeros(self.num_replicas, dtype=np.int64),
                "accepted": np.zeros(self.num_replicas, dtype=np.int64),
                "x_att": np.zeros(self.num_replicas, dtype=np.int64),
                "x_acc": np.zeros(self.num_replicas, dtype=np.int64),
            }
            self._block = self._recorder.span(
                "sweep_block", replicas=self.num_replicas)
            self._block.__enter__()

    def __enter__(self) -> "LoopDriver":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            self._hand_back()
        finally:
            if self.probing and self._block is not None:
                self._block.__exit__(exc_type, exc, tb)
                self._block = None
        return False

    # ------------------------------------------------------------------ #
    # Replayed streams
    # ------------------------------------------------------------------ #
    def _may_replay(self) -> bool:
        """The draw rule, short of the engine's exclusivity statement."""
        if self._shared_rng is not None:
            return False
        if type(self.dynamics.acceptance) is not MetropolisRule:
            # A subclass may override the decision: honour it.
            return False
        bit_generators = [g.bit_generator for g in self._generators]
        if not all(type(b) is np.random.PCG64 for b in bit_generators):
            return False
        # Aliased generators draw one after another from one stream; a lane
        # per replica would hand each a copy of it instead.
        owned = {id(b) for b in bit_generators}
        if len(owned) < len(bit_generators):
            return False
        return (self._exchange_rng is None
                or id(self._exchange_rng.bit_generator) not in owned)

    def replay(self):
        """The lanes the replica streams are replayed in, or ``None`` where
        the draws go through the ``Generator`` objects.

        Wherever the C library loads, a driver whose rule holds replays
        from construction (:class:`~repro.kernels.native.NativeLanes`).
        Without it, the first call on such a driver switches its draws to
        NumPy lookahead replay (:class:`~repro.kernels.streams.
        ReplayStreams`); the fused kernels call this, the reference kernel
        does not, so it keeps its ``Generator`` calls.
        """
        if self._lanes is None and self._replayable:
            from repro.kernels.streams import ReplayStreams

            self._lanes = ReplayStreams(self._generators, self._factors)
        return self._lanes

    def _hand_back(self) -> None:
        """Write replayed lanes back into the generators and stop replaying."""
        lanes, self._lanes = self._lanes, None
        self._replayable = False
        if lanes is not None:
            lanes.write_back()

    # ------------------------------------------------------------------ #
    # Temperatures
    # ------------------------------------------------------------------ #
    def temperature(self, iteration: int):
        """Scalar temperature (flat batch) or ``(M,)`` row (ladder)."""
        base = self._base[iteration]
        if self._factors is None:
            return float(base)
        return base * self._factors

    def temperature_row(self, iteration: int) -> np.ndarray:
        """Always the ``(M,)`` per-replica temperatures (exchange view)."""
        base = self._base[iteration]
        if self._factors is None:
            return np.full(self.num_replicas, float(base))
        return base * self._factors

    # ------------------------------------------------------------------ #
    # Fused-block boundaries
    # ------------------------------------------------------------------ #
    def block_length(self, iteration: int,
                     limit: Optional[int] = None) -> int:
        """Iterations a sweep kernel may fuse starting at ``iteration``.

        A fused kernel invocation must end exactly where the driver would
        next act -- an exchange round or a telemetry probe window -- so the
        returned count is the distance to the nearest such boundary (or the
        end of the run).  Exchange fires when ``(it + 1) % interval == 0``
        and probes when ``(it + 1) % probe_every == 0``, so running
        ``block_length`` iterations and then calling
        :meth:`maybe_exchange` / :meth:`maybe_probe` once at the final
        iteration reproduces the per-iteration calling convention exactly.
        ``limit`` caps the block (engines pass 1 when per-iteration state,
        e.g. an energy history, must be observed).
        """
        remaining = self.num_iterations - iteration
        block = remaining if limit is None else min(int(limit), remaining)
        if self._exchange.is_active:
            interval = self._exchange.interval
            block = min(block, interval - iteration % interval)
        if self.probing:
            block = min(block, self._probe_every - iteration % self._probe_every)
        return max(block, 1)

    # ------------------------------------------------------------------ #
    # Move draws
    # ------------------------------------------------------------------ #
    def flip_indices(self, num_variables: int) -> np.ndarray:
        """One single-flip index per replica.

        Per-replica mode consumes one integer draw per replica from that
        replica's own stream (the scalar ``SingleFlipMove.propose`` order);
        shared mode takes one vectorised draw from the shared stream.
        """
        lanes = self._lanes
        if lanes is not None:
            if 1 <= num_variables <= 2 ** 32:
                return lanes.integers(num_variables)
            # Past the 32-bit Lemire sampler (or an empty range): let the
            # generators draw, and raise, exactly as they would.
            self._hand_back()
        if self._shared_rng is not None:
            return self._shared_rng.integers(
                0, num_variables, size=self.num_replicas).astype(np.intp)
        return np.array([draw(0, num_variables) for draw in self._int_draws],
                        dtype=np.intp)

    def propose(self, move_generator: MoveGenerator,
                current: np.ndarray) -> np.ndarray:
        """One generic move proposal per replica (arbitrary generators), in
        replica order -- from the one shared stream in shared mode."""
        return np.stack([
            move_generator.propose(current[k], self._generators[k])
            for k in range(self.num_replicas)
        ])

    # ------------------------------------------------------------------ #
    # Acceptance
    # ------------------------------------------------------------------ #
    def metropolis(self, delta: np.ndarray, replica_indices: np.ndarray,
                   iteration: int) -> np.ndarray:
        """Accept/reject verdicts for the listed replicas at ``iteration``."""
        if self._lanes is not None:
            return self._lanes.metropolis(delta, replica_indices,
                                          self._base[iteration])
        temperatures = self.temperature(iteration)
        if self._shared_rng is not None:
            draws = self._shared_rng.random(replica_indices.shape[0])
            if isinstance(temperatures, np.ndarray):
                temperatures = temperatures[replica_indices]
            return self.dynamics.acceptance.accept_batch(
                delta, temperatures, draws)
        return self.dynamics.acceptance.accept(
            delta, temperatures, self._uniform_draws, replica_indices)

    # ------------------------------------------------------------------ #
    # Exchange
    # ------------------------------------------------------------------ #
    def maybe_exchange(self, iteration: int, energies: np.ndarray,
                       state_arrays: Tuple[np.ndarray, ...]) -> None:
        """Run one exchange round at this iteration boundary, when due.

        ``state_arrays`` are the per-replica state arrays whose rows travel
        with a swapped configuration (configurations, energies, feasibility
        flags, cached raw energies); per-rung bookkeeping -- generators,
        counters, best-so-far -- stays put, as in standard parallel
        tempering.
        """
        if not self._exchange.is_active:
            return
        if (iteration + 1) % self._exchange.interval != 0:
            return
        pairs = self._exchange.swap_pairs(self._exchange_round,
                                          self.num_replicas)
        self._exchange_round += 1
        if pairs.shape[0] == 0:
            return
        draws = self._exchange_rng.random(pairs.shape[0])
        verdicts = self._exchange.decide(pairs, energies,
                                         self.temperature_row(iteration),
                                         draws)
        swaps = pairs[verdicts]
        self.exchange_attempts += int(pairs.shape[0])
        self.exchange_accepted += int(swaps.shape[0])
        np.add.at(self.exchange_attempts_per_rung, pairs.reshape(-1), 1)
        if swaps.shape[0]:
            np.add.at(self.exchange_accepted_per_rung, swaps.reshape(-1), 1)
            left, right = swaps[:, 0], swaps[:, 1]
            for array in state_arrays:
                held = array[left].copy()
                array[left] = array[right]
                array[right] = held

    # ------------------------------------------------------------------ #
    # Telemetry probes
    # ------------------------------------------------------------------ #
    def maybe_probe(self, iteration: int, *, solver: str,
                    best_energy: np.ndarray, current_energy: np.ndarray,
                    num_accepted: np.ndarray, num_feasible: np.ndarray,
                    num_skipped: np.ndarray,
                    feasible_mask: Optional[np.ndarray] = None,
                    final: bool = False) -> None:
        """Emit one ``"sweep"`` probe if ``iteration`` ends a probe window.

        Call sites MUST guard with ``if driver.probing:`` -- that guard is
        the whole zero-overhead-when-off contract; this method assumes a
        live recorder.  The counter arguments are the engine's cumulative
        ``(M,)`` tallies; rates are reported over the window since the last
        probe (deltas).  Pass ``final=True`` on the last iteration so short
        runs still probe.
        """
        due = final or (iteration + 1) % self._probe_every == 0
        if not due or iteration == self._last_probe_iteration:
            return
        self._last_probe_iteration = iteration
        self._block.__exit__(None, None, None)
        window = self._window
        delta_feasible = num_feasible - window["feasible"]
        delta_skipped = num_skipped - window["skipped"]
        delta_accepted = num_accepted - window["accepted"]
        proposals = delta_feasible + delta_skipped
        values = {
            "temperature": self.temperature_row(iteration),
            "energy": current_energy,
            "best_energy": best_energy,
            "mean_energy": float(np.mean(current_energy)),
            "accept_rate": delta_accepted / np.maximum(delta_feasible, 1),
            "filter_reject_rate": delta_skipped / np.maximum(proposals, 1),
            "proposals_total": num_feasible + num_skipped,
            "accepted_total": num_accepted,
            "rejected_total": num_feasible - num_accepted,
        }
        if feasible_mask is not None:
            values["feasible_replicas"] = int(np.count_nonzero(feasible_mask))
        if self._exchange.is_active:
            delta_x_att = self.exchange_attempts_per_rung - window["x_att"]
            delta_x_acc = self.exchange_accepted_per_rung - window["x_acc"]
            values["exchange_attempts"] = delta_x_att
            values["exchange_accepted"] = delta_x_acc
            values["exchange_rate"] = delta_x_acc / np.maximum(delta_x_att, 1)
            window["x_att"] = self.exchange_attempts_per_rung.copy()
            window["x_acc"] = self.exchange_accepted_per_rung.copy()
        self._recorder.probe("sweep", iteration=iteration + 1, solver=solver,
                             engine="batched", replicas=self.num_replicas,
                             values=values)
        window["feasible"] = num_feasible.copy()
        window["skipped"] = num_skipped.copy()
        window["accepted"] = num_accepted.copy()
        if final:
            self._block = None
        else:
            self._block = self._recorder.span(
                "sweep_block", replicas=self.num_replicas)
            self._block.__enter__()

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def metadata(self) -> dict:
        """Result-metadata fields describing the non-default dynamics."""
        fields: dict = {}
        if self._factors is not None:
            fields["ladder_rungs"] = int(self.num_replicas)
        if self._exchange.is_active:
            fields["exchange_interval"] = int(self._exchange.interval)
            fields["exchange_attempts"] = int(self.exchange_attempts)
            fields["exchange_accepted"] = int(self.exchange_accepted)
        if self._shared_rng is not None:
            fields["rng_mode"] = "shared"
        return fields
