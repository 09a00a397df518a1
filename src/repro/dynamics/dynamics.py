"""The :class:`Dynamics` bundle: one pluggable description of an SA run.

A :class:`Dynamics` object collects the four control-loop components the
solvers used to hard-code -- temperature schedule (plus optional per-replica
:class:`~repro.dynamics.schedule.TemperatureLadder`), acceptance rule,
inter-replica :class:`~repro.dynamics.exchange.ExchangePolicy`, and the RNG
topology -- into one picklable, store-canonicalisable value that travels
through ``run_trials(..., dynamics=...)`` as a solver parameter.

A bundle is *coupled* when a single trial cannot honour it, so the replica
group must run as one batched unit on every backend:

* an active exchange policy (replica exchange / parallel tempering) -- the
  replicas genuinely interact;
* a temperature ladder -- a replica's rung (and so its result) depends on
  its position in the group;
* a non-default acceptance rule -- a single trial decides through the
  stock Metropolis rule;
* ``rng_mode="shared"``, the chip-faithful mode where all replicas draw
  moves and acceptance uniforms from **one** stream, the way the physical SA
  logic of the paper's chip would.  Shared mode deliberately gives up
  per-replica streams for batched draws -- the per-replica
  Python-level RNG calls are the vectorised engines' throughput floor.

Because coupled trial outcomes depend on the replica-group composition, the
store keys coupled runs by their grouping too (``num_trials`` /
``chunk_size`` / ``replicas_per_task``); see
:func:`repro.store.schema.trial_run_key`.

:class:`ParallelTempering` is the ready-made coupled dynamics: a geometric
temperature ladder sized to the replica group at run time plus even-odd
deterministic exchange.

Auxiliary streams (exchange decisions, the shared stream) are derived from
the replica group's spawned trial seeds via tagged ``SeedSequence`` material
(:func:`exchange_stream` / :func:`shared_stream`), so they are deterministic
per ``(master_seed, group)`` -- a store-resumed tempered run replays them
exactly -- and independent of the replicas' own streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.dynamics.acceptance import AcceptanceRule, MetropolisRule
from repro.dynamics.exchange import EvenOddExchange, ExchangePolicy, NoExchange
from repro.dynamics.schedule import TemperatureLadder, TemperatureSchedule

#: RNG topologies: independent per-replica streams (scalar parity) or one
#: shared stream for the whole lock-step group (chip-faithful, batched draws).
RNG_MODES = ("per_replica", "shared")

# Tags mixed into the SeedSequence entropy of the auxiliary streams so they
# can never collide with each other or with a trial's own stream.
_EXCHANGE_STREAM_TAG = 0x78C4A9
_SHARED_STREAM_TAG = 0x51A23D


def exchange_stream(seeds: Sequence[int]) -> np.random.Generator:
    """The dedicated exchange-decision stream of one replica group.

    Derived from the group's spawned trial seeds (plus a fixed tag), so it is
    deterministic per group, independent of every replica's own stream, and
    replayed exactly by a store-resumed run.
    """
    return np.random.default_rng(
        np.random.SeedSequence([_EXCHANGE_STREAM_TAG,
                                *(int(seed) for seed in seeds)]))


def shared_stream(seeds: Sequence[int]) -> np.random.Generator:
    """The single chip-faithful stream all replicas of a group share."""
    return np.random.default_rng(
        np.random.SeedSequence([_SHARED_STREAM_TAG,
                                *(int(seed) for seed in seeds)]))


@dataclass
class Dynamics:
    """Pluggable annealing dynamics for scalar and lock-step solvers.

    Parameters
    ----------
    schedule:
        Temperature schedule override; ``None`` keeps the solver's own
        (explicit ``schedule`` param or the instance-scaled auto schedule).
    ladder:
        Optional per-replica temperature ladder; ``None`` runs every replica
        at the schedule temperature.  Subclasses may size a ladder to the
        replica group at run time (see :meth:`ladder_factors`).
    exchange:
        Inter-replica exchange policy (default: none).
    acceptance:
        Acceptance rule (default: Metropolis).
    rng_mode:
        ``"per_replica"`` (default; scalar parity) or ``"shared"``
        (chip-faithful single stream; breaks scalar parity by design).
    """

    schedule: Optional[TemperatureSchedule] = None
    ladder: Optional[TemperatureLadder] = None
    exchange: ExchangePolicy = field(default_factory=NoExchange)
    acceptance: AcceptanceRule = field(default_factory=MetropolisRule)
    rng_mode: str = "per_replica"

    def __post_init__(self) -> None:
        if self.rng_mode not in RNG_MODES:
            raise ValueError(
                f"unknown rng_mode {self.rng_mode!r}; choose from {RNG_MODES}")
        if self.schedule is not None and \
                not isinstance(self.schedule, TemperatureSchedule):
            raise TypeError("schedule must be a TemperatureSchedule or None")
        if self.ladder is not None and \
                not isinstance(self.ladder, TemperatureLadder):
            raise TypeError("ladder must be a TemperatureLadder or None")
        if not isinstance(self.exchange, ExchangePolicy):
            raise TypeError("exchange must be an ExchangePolicy")
        if not isinstance(self.acceptance, AcceptanceRule):
            raise TypeError("acceptance must be an AcceptanceRule")

    @property
    def coupled(self) -> bool:
        """Whether this bundle must run through the batched engine.

        True for every component the scalar per-trial path cannot honour:
        an active exchange policy and the shared RNG topology (the replicas
        genuinely interact), a temperature ladder (a replica's rung -- and
        so its result -- depends on its position in the group), and any
        non-default acceptance rule (the scalar solvers decide through the
        stock Metropolis rule).  The executor routes coupled replica groups
        to the batched engine on every backend rather than silently dropping
        a component on the scalar path.
        """
        return (self.exchange.is_active
                or self.rng_mode == "shared"
                or self.ladder is not None
                or type(self.acceptance) is not MetropolisRule)

    def ladder_factors(self, num_replicas: int) -> Optional[np.ndarray]:
        """Per-replica temperature factors, or ``None`` for a flat batch."""
        if self.ladder is None:
            return None
        return self.ladder.factors_for(num_replicas)


@dataclass
class ParallelTempering(Dynamics):
    """Replica exchange over a geometric temperature ladder.

    The lock-step replica group becomes one temperature ladder: rung 0
    anneals at the base schedule, the hottest rung at ``hottest`` times it,
    intermediate rungs geometrically spaced, with even-odd deterministic
    exchange every ``exchange_interval`` iterations.  An explicit ``ladder``
    overrides the auto-sized geometric one (its rung count must then match
    the replica group size); an explicit ``exchange`` policy overrides the
    even-odd default.

    ``run_trials(problem, "hycim", num_trials=M,
    dynamics=ParallelTempering())`` turns the ``M`` independent trials into
    one tempered ladder at the same total sweep budget.
    """

    hottest: float = 8.0
    exchange_interval: int = 10

    def __post_init__(self) -> None:
        if self.hottest < 1.0:
            raise ValueError("hottest factor must be >= 1 (rung 0 is coldest)")
        if isinstance(self.exchange, NoExchange):
            self.exchange = EvenOddExchange(
                exchange_interval=int(self.exchange_interval))
        super().__post_init__()

    def ladder_factors(self, num_replicas: int) -> Optional[np.ndarray]:
        if self.ladder is not None:
            return self.ladder.factors_for(num_replicas)
        return TemperatureLadder.geometric(
            num_replicas, hottest=self.hottest).factors_for(num_replicas)
