"""The complete FeFET-based CiM inequality filter (paper Sec. 3.3, Fig. 5(b)).

One :class:`~repro.cim.filter_array.WorkingArray` storing the constraint
weights ``w``, one :class:`~repro.cim.replica.ReplicaArray` encoding the bound
``C`` and a :class:`~repro.cim.comparator.TwoStageComparator`.  For an input
configuration ``x`` the filter produces a single-bit feasible/infeasible
decision

    feasible  <=>  V_ML(working) >= V_ML(replica)  <=>  w . x <= C

in one analog evaluation, which is what lets the HyCiM annealer skip the QUBO
computation for infeasible configurations.

Without matchline or comparator noise that decision depends on ``x`` only
through its integer load ``x . w_eff`` (the effective weights the working
cells realise), and the voltage comparison is monotone in the load.  Such a
filter therefore programs one *load limit* per chip -- the largest load the
comparator accepts, ``-1`` when it accepts none -- and its verdict methods
(:meth:`InequalityFilter.is_feasible`, ``is_feasible_batch``,
``is_feasible_devices``) compare loads against it, exactly.  Noisy filters
decide from freshly read voltages, and :meth:`InequalityFilter.evaluate` /
``evaluate_batch`` always read the voltages (the Fig. 8 readouts), so for any
given inputs a filter uses exactly one of the two paths.

The filter carries the hardware stack's device axis (ARCHITECTURE.md):
constructed with a *sequence* of variability models it simulates one filter
instance per chip, and :meth:`InequalityFilter.is_feasible_devices` decides a
``(D, M, n)`` batch -- chip ``d`` judging its own replicas with its own
sampled cells -- in one analog shot.  Scalar :meth:`InequalityFilter.evaluate`
and single-chip :meth:`InequalityFilter.is_feasible_batch` are degenerate
views over the same arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.cim.comparator import TwoStageComparator
from repro.cim.filter_array import (
    FilterArrayConfig,
    MatchlineReadout,
    VariabilityLike,
    WorkingArray,
)
from repro.cim.replica import ReplicaArray
from repro.core.constraints import InequalityConstraint
from repro.fefet.cell import CellParameters

#: Largest power-of-ten multiplier tried when scaling fractional constraint
#: data onto integer cells (supports e.g. 1e-6-granular weights).
_MAX_WEIGHT_SCALE = 10 ** 6


def integer_constraint_scale(weights: np.ndarray) -> int:
    """Smallest power-of-ten multiplier making every weight integral.

    FeFET cells store discrete levels, so a constraint with fractional
    weights must be rescaled before programming: ``w . x <= C`` and
    ``(s w) . x <= s C`` have identical feasible sets for any ``s > 0``.
    Raises a loud :class:`ValueError` when no power of ten up to
    ``_MAX_WEIGHT_SCALE`` works (e.g. irrational weights) -- silently
    rounding would make the filter enforce a different constraint.
    """
    weights = np.asarray(weights, dtype=float)
    scale = 1
    while scale <= _MAX_WEIGHT_SCALE:
        scaled = weights * scale
        if not weights.size or np.all(
                np.abs(scaled - np.round(scaled)) <= 1e-9 * scale):
            return scale
        scale *= 10
    raise ValueError(
        "constraint weights cannot be represented on integer FeFET cells: "
        f"no power-of-ten scale up to {_MAX_WEIGHT_SCALE:g} makes them "
        "integral; quantise the constraint data first"
    )


@dataclass(frozen=True)
class FilterDecision:
    """Outcome of one inequality-filter evaluation.

    Attributes
    ----------
    feasible:
        The comparator's decision (``True`` means ``w . x <= C``).
    working_readout, replica_readout:
        The two matchline readouts that were compared.
    normalized_voltage:
        Working matchline voltage divided by the replica voltage -- the
        quantity plotted in Fig. 8 (feasible points land at >= 1.0).
    """

    feasible: bool
    working_readout: MatchlineReadout
    replica_readout: MatchlineReadout

    @property
    def normalized_voltage(self) -> float:
        if self.replica_readout.voltage == 0.0:
            return np.inf
        return self.working_readout.voltage / self.replica_readout.voltage


class InequalityFilter:
    """CiM filter evaluating one inequality constraint ``w . x <= C``.

    Parameters
    ----------
    constraint:
        The inequality to accelerate.  Weights must be non-negative;
        fractional (decimal) weights are scaled onto integer cells by the
        smallest power of ten that makes them integral, with the bound
        floored after scaling (sound: no infeasible state is accepted).
        Weights with no such scale (e.g. irrational values) raise.
    num_rows:
        Cells per column of both arrays (paper evaluation: 16).  When the
        largest constraint weight does not fit in ``num_rows`` cells the
        array is automatically deepened to the smallest row count that can
        store it (more rows per column is the paper's own scaling knob).
    cell_parameters:
        1FeFET1R cell parameters (4-level cells by default).
    variability:
        Optional FeFET variability applied to working and replica cells.  A
        single model (or ``None``) builds the usual one-chip filter; a
        sequence of models builds one filter instance per chip along the
        device axis, each chip sampling its cells from its own stream in the
        scalar order (working array first, then replica array).
    comparator:
        Optional pre-built comparator (a noise-free one is created otherwise).
    matchline_noise_sigma:
        Readout noise per matchline evaluation (volts).
    discharge_fraction:
        Fraction of ``V_DD`` the replica matchline discharges; the discharge
        per unit weight is derived from it so the comparison point sits
        mid-rail regardless of the capacity magnitude.
    """

    def __init__(
        self,
        constraint: InequalityConstraint,
        num_rows: int = 16,
        cell_parameters: Optional[CellParameters] = None,
        variability: VariabilityLike = None,
        comparator: Optional[TwoStageComparator] = None,
        matchline_noise_sigma: float = 0.0,
        discharge_fraction: float = 0.6,
    ) -> None:
        weights = constraint.weight_vector
        if np.any(weights < 0):
            raise ValueError("the inequality filter requires non-negative weights")
        if constraint.bound < 0:
            raise ValueError("the inequality bound must be non-negative")
        if not 0.0 < discharge_fraction < 1.0:
            raise ValueError("discharge_fraction must be in (0, 1)")

        self.constraint = constraint
        # Fractional constraint data is programmed by scaling the whole
        # inequality onto integer cells: (s w) . x <= s C for the smallest
        # power-of-ten s that makes the weights integral (a loud error when
        # none does).  The scaled bound is *floored*: s w . x is integral,
        # so flooring keeps every truly feasible state accepted while never
        # admitting w . x > C -- rounding could round the bound *up* and
        # accept infeasible configurations.
        self.weight_scale = integer_constraint_scale(weights)
        scaled_weights = np.round(weights * self.weight_scale)
        scaled_bound = float(np.floor(
            constraint.bound * self.weight_scale + 1e-9))
        cell = cell_parameters or CellParameters()
        capacity = max(1.0, scaled_bound)
        discharge_per_unit = discharge_fraction * cell.supply_voltage / capacity
        # Deepen the arrays when an item weight (or the per-column share of
        # the capacity) exceeds what `num_rows` cells can represent.
        max_weight = float(scaled_weights.max()) if scaled_weights.size else 0.0
        required_rows = int(np.ceil(max(max_weight, 1.0) / cell.max_weight))
        if scaled_weights.size:
            capacity_rows = int(np.ceil(capacity / (scaled_weights.size * cell.max_weight)))
            required_rows = max(required_rows, capacity_rows)
        num_rows = max(num_rows, required_rows)
        self.config = FilterArrayConfig(
            num_rows=num_rows,
            cell=cell,
            discharge_per_unit=discharge_per_unit,
            noise_sigma=matchline_noise_sigma,
        )
        int_weights = [int(w) for w in scaled_weights]
        self.working_array = WorkingArray(int_weights, config=self.config,
                                          variability=variability)
        self.replica_array = ReplicaArray(
            capacity=scaled_bound,
            num_columns=len(int_weights),
            config=self.config,
            variability=variability,
        )
        self.comparator = comparator or TwoStageComparator()
        self._num_evaluations = 0
        self._num_feasible = 0
        #: Per-chip largest accepted load; ``None`` for a noisy filter,
        #: whose verdicts need fresh voltages.
        self._load_limits: Optional[np.ndarray] = None
        if self.config.noise_sigma == 0 and self.comparator.noise_sigma == 0:
            self._load_limits = self._program_load_limits()

    def _program_load_limits(self) -> np.ndarray:
        """Each chip's largest integer load ``L`` its comparator accepts.

        Without matchline or comparator noise a verdict depends on the input
        only through its integer load ``L = x . w_eff[d]``: chip ``d``
        accepts when ``max(0, V_DD - dV * L) + offset >= V_replica[d]``,
        evaluated with the voltage path's own float operations.  The rule
        is monotone in ``L``, so bisection over every load the array can
        reach (``0`` to ``n * max_column_weight``) finds the largest load
        that passes, or ``-1`` when none does.
        """
        replica = self.replica_array.evaluate_devices(1)[:, 0]
        offset = self.comparator.offset
        passing = np.full(self.num_devices, -1)
        failing = np.full(self.num_devices,
                          self.num_items * self.config.max_column_weight + 1)
        unsettled = failing - passing > 1
        while np.any(unsettled):
            loads = (passing + failing) // 2
            working = self.working_array._readout(loads.astype(float), None)[0]
            accepted = working + offset >= replica
            passing = np.where(unsettled & accepted, loads, passing)
            failing = np.where(unsettled & ~accepted, loads, failing)
            unsettled = failing - passing > 1
        return passing

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_items(self) -> int:
        """Number of constraint variables (working-array columns)."""
        return self.working_array.num_columns

    @property
    def num_devices(self) -> int:
        """Number of simulated chips ``D`` along the device axis."""
        return self.working_array.num_devices

    @property
    def num_evaluations(self) -> int:
        """How many configurations the filter has evaluated.

        Every verdict counts, whether a load limit or the comparator
        decided it.
        """
        return self._num_evaluations

    @property
    def num_feasible_decisions(self) -> int:
        """How many evaluations were declared feasible."""
        return self._num_feasible

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def _count(self, verdicts: np.ndarray) -> np.ndarray:
        self._num_evaluations += int(verdicts.size)
        self._num_feasible += int(np.count_nonzero(verdicts))
        return verdicts

    def _limit_verdicts(self, batch: np.ndarray,
                        devices: Optional[np.ndarray]) -> np.ndarray:
        """``(K, M)`` verdicts of a ``(K, M, n)`` batch: loads vs. limits.

        The working array's own input checks apply, as on the voltage path.
        """
        batch, chips = self.working_array._device_batch(batch, devices)
        loads = self.working_array._loads(batch, chips)
        return self._count(loads <= self._load_limits[chips][:, None])

    def evaluate(self, x: Sequence[int],
                 rng: Optional[np.random.Generator] = None,
                 device: int = 0) -> FilterDecision:
        """Evaluate one input configuration on chip ``device``.

        Always reads both matchline voltages (the Fig. 8 readout) and lets
        the comparator decide, noise-free or not.
        """
        working = self.working_array.evaluate(x, rng=rng, device=device)
        replica = self.replica_array.evaluate(rng=rng, device=device)
        feasible = self.comparator.decide(working.voltage, replica.voltage)
        self._num_evaluations += 1
        if feasible:
            self._num_feasible += 1
        return FilterDecision(feasible=feasible, working_readout=working,
                              replica_readout=replica)

    def is_feasible(self, x: Sequence[int],
                    rng: Optional[np.random.Generator] = None,
                    device: int = 0) -> bool:
        """Single-bit decision (the signal routed to the SA logic in Fig. 3)."""
        if self._load_limits is None:
            return self.evaluate(x, rng=rng, device=device).feasible
        inputs = np.asarray(list(x) if not isinstance(x, np.ndarray) else x,
                            dtype=float)
        return bool(self._limit_verdicts(inputs[None, None], [device])[0, 0])

    def evaluate_batch(self, configurations: np.ndarray,
                       rng: Optional[np.random.Generator] = None,
                       device: int = 0) -> list[FilterDecision]:
        """Evaluate a batch of configurations, one decision per row."""
        batch = np.asarray(configurations, dtype=float)
        if batch.ndim == 1:
            batch = batch[None, :]
        return [self.evaluate(row, rng=rng, device=device) for row in batch]

    def is_feasible_batch(self, configurations: np.ndarray,
                          rng: Optional[np.random.Generator] = None,
                          device: int = 0) -> np.ndarray:
        """Single-bit decisions for an ``(M, n)`` replica batch, vectorised.

        A noise-free filter compares every row's load with the chip's load
        limit; a noisy one reads one working-array product and one replica
        readout vector for every row (the filter array evaluating a batch of
        candidates in one analog shot) and the comparator decides all rows
        in one call.  Either way the verdicts equal row-wise
        :meth:`is_feasible` exactly when noise-free.  Note that the
        multi-replica annealing engine evaluates *every* constraint's filter
        for every row (no per-row short-circuit across constraints), so the
        evaluation counters can exceed the scalar path's.
        """
        batch = np.asarray(configurations, dtype=float)
        if batch.ndim == 1:
            batch = batch[None, :]
        if self._load_limits is not None:
            return self._limit_verdicts(batch[None], [device])[0]
        working_voltages = self.working_array.evaluate_batch(batch, rng=rng,
                                                             device=device)
        replica_voltages = self.replica_array.evaluate_batch(batch.shape[0],
                                                             rng=rng,
                                                             device=device)
        return self._count(self.comparator.decide_batch(working_voltages,
                                                        replica_voltages))

    def is_feasible_devices(self, configurations: np.ndarray,
                            rng: Optional[np.random.Generator] = None,
                            devices: Optional[np.ndarray] = None) -> np.ndarray:
        """Decisions for a ``(K, M, n)`` device-axis batch, one shot per array.

        Slice ``k`` is judged by chip ``devices[k]`` (all chips in order when
        omitted).  A 2-D ``(K, n)`` input is the one-replica-per-chip
        convenience form and returns a ``(K,)`` verdict vector; 3-D input
        returns ``(K, M)``.  Noise-free verdicts are load-limit comparisons
        and equal per-chip :meth:`is_feasible` calls exactly.
        """
        batch = np.asarray(configurations, dtype=float)
        squeeze = batch.ndim == 2
        if squeeze:
            batch = batch[:, None, :]
        if self._load_limits is not None:
            verdicts = self._limit_verdicts(batch, devices)
        else:
            working_voltages = self.working_array.evaluate_devices(
                batch, rng=rng, devices=devices)
            replica_voltages = self.replica_array.evaluate_devices(
                batch.shape[1], rng=rng, devices=devices)
            verdicts = self._count(self.comparator.decide_batch(
                working_voltages, replica_voltages))
        return verdicts[:, 0] if squeeze else verdicts

    def classification_accuracy(self, configurations: np.ndarray,
                                rng: Optional[np.random.Generator] = None) -> float:
        """Fraction of configurations classified identically to exact arithmetic.

        This is the functional-validation metric behind Fig. 8: for ideal
        devices the accuracy is 1.0 on all 800 Monte-Carlo cases.
        """
        batch = np.asarray(configurations, dtype=float)
        if batch.ndim == 1:
            batch = batch[None, :]
        correct = 0
        for row in batch:
            decision = self.evaluate(row, rng=rng)
            truth = self.constraint.is_satisfied(row)
            if decision.feasible == truth:
                correct += 1
        return correct / batch.shape[0]
