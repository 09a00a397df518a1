"""Matchline-based working array of the inequality filter (paper Fig. 4-5(a)).

An ``m x n`` array of 1FeFET1R cells.  Column ``i`` stores the item weight
``w_i`` decomposed into ``m`` cell weights ``w_ij in {0..k}`` with
``w_i = sum_j w_ij``; all matchlines are tied together and share a precharge
capacitance ``C_ML``.  During an evaluation the staircase read pulses turn ON
every cell whose stored weight admits the current phase; each conducting cell
removes an (approximately constant) packet of charge, so the final matchline
voltage obeys paper Eq. (9):

    V_ML  =  V_DD - dV * sum_i w_i x_i        (clipped at ground)

``dV`` is the discharge per unit of stored weight and is a configuration
parameter chosen by the enclosing :class:`~repro.cim.inequality_filter.
InequalityFilter` so the replica voltage sits mid-rail.

Device axis
-----------
The array follows the hardware stack's ``(D, M, n)`` shape contract
(ARCHITECTURE.md): ``D`` simulated chips, ``M`` lock-step replicas per chip,
``n`` columns.  Passing a *sequence* of variability models programs one chip
per model -- each chip's cells are sampled from its own model's stream, in
the exact per-cell order scalar programming would use -- and
:meth:`WorkingArray.evaluate_devices` evaluates a ``(D, M, n)`` batch in one
shot.  A single model (or ``None``) is the ``D = 1`` degenerate case, and
the scalar :meth:`WorkingArray.evaluate` / batched
:meth:`WorkingArray.evaluate_batch` methods are thin ``D = 1`` views over
the same evaluation kernel, consuming identical noise streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cim.device_axis import resolve_device_selection
from repro.fefet.cell import CellParameters, OneFeFETOneRCell, conduction_counts
from repro.fefet.variability import VariabilityModel

#: One chip (a single model / ``None``) or one chip per sequence entry.
VariabilityLike = Union[VariabilityModel, Sequence[Optional[VariabilityModel]], None]


def as_chip_models(variability: VariabilityLike) -> List[Optional[VariabilityModel]]:
    """Normalise a variability argument into one model slot per chip.

    ``None`` and a bare :class:`VariabilityModel` are the single-chip
    degenerate case; a sequence programs one chip per entry (``None`` entries
    denote ideal chips).
    """
    if variability is None or isinstance(variability, VariabilityModel):
        return [variability]
    models = list(variability)
    if not models:
        raise ValueError("a variability sequence must describe at least one chip")
    for model in models:
        if model is not None and not isinstance(model, VariabilityModel):
            raise TypeError(
                "variability entries must be VariabilityModel instances or None, "
                f"got {type(model).__name__}"
            )
    return models


def _as_integer_weights(weights: Sequence[int], what: str) -> np.ndarray:
    """Coerce programmed weights to integers, loudly rejecting fractions.

    FeFET cells store discrete levels, so a fractional weight cannot be
    programmed; silently rounding it would make the array evaluate a
    *different* constraint than the caller asked for (the filter's
    integer-scaling front end is the supported route for fractional
    constraint data).
    """
    values = np.asarray(list(weights), dtype=float)
    if values.size and np.any(np.abs(values - np.round(values)) > 1e-9):
        offender = values[np.abs(values - np.round(values)) > 1e-9][0]
        raise ValueError(
            f"{what} must be integers (FeFET cells store discrete levels); "
            f"got {offender!r} -- scale the constraint to integers first"
        )
    return np.round(values).astype(int)


def decompose_weight(weight: int, num_rows: int, max_cell_weight: int) -> List[int]:
    """Decompose an integer item weight into per-cell weights.

    ``weight = sum_j w_j`` with each ``w_j in {0..max_cell_weight}`` and at
    most ``num_rows`` cells (paper Sec. 3.3: "each item weight w_i is
    decomposed into multiple w_ij values").  Raises when the weight does not
    fit in the column.
    """
    if weight < 0:
        raise ValueError("weights must be non-negative")
    if weight > num_rows * max_cell_weight:
        raise ValueError(
            f"weight {weight} exceeds column capacity {num_rows * max_cell_weight}"
        )
    cells = []
    remaining = int(weight)
    for _ in range(num_rows):
        portion = min(remaining, max_cell_weight)
        cells.append(portion)
        remaining -= portion
    return cells


@dataclass(frozen=True)
class FilterArrayConfig:
    """Configuration of a filter working/replica array.

    Attributes
    ----------
    num_rows:
        Cells per column ``m`` (paper evaluation: 16, giving a per-item weight
        range of 0..64 with 4-level cells).
    cell:
        1FeFET1R cell parameters (defines ``max_cell_weight`` and V_DD).
    discharge_per_unit:
        Matchline voltage drop per unit of stored-weight-times-input (volts).
    noise_sigma:
        Gaussian noise (volts) added to each matchline readout, modelling
        charge-injection/kT-C noise.
    """

    num_rows: int = 16
    cell: CellParameters = field(default_factory=CellParameters)
    discharge_per_unit: float = 1e-3
    noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.num_rows < 1:
            raise ValueError("num_rows must be positive")
        if self.discharge_per_unit <= 0:
            raise ValueError("discharge_per_unit must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")

    @property
    def max_cell_weight(self) -> int:
        """Largest weight a single cell can store."""
        return self.cell.max_weight

    @property
    def max_column_weight(self) -> int:
        """Largest item weight a column can store (``m * k``)."""
        return self.num_rows * self.cell.max_weight

    @property
    def supply_voltage(self) -> float:
        """Matchline precharge voltage ``V_DD``."""
        return self.cell.supply_voltage


@dataclass(frozen=True)
class MatchlineReadout:
    """Result of one filter evaluation (four staircase phases).

    Attributes
    ----------
    voltage:
        Final matchline voltage including noise and ground clipping.
    ideal_voltage:
        Noise-free, unclipped value ``V_DD - dV * w.x``.
    discharge:
        Total voltage removed from the precharged matchline.
    weighted_sum:
        The effective ``w . x`` seen by the array (includes any cell-level
        conduction errors caused by device variability).
    """

    voltage: float
    ideal_voltage: float
    discharge: float
    weighted_sum: float


class WorkingArray:
    """An ``m x n`` filter array storing an item-weight vector.

    Parameters
    ----------
    weights:
        Integer item weights ``w_i`` (one per column).
    config:
        Array configuration.
    variability:
        ``None`` / a single model (one chip), or a sequence of models
        programming one chip per entry along the device axis.  Each chip's
        cells sample from that chip's stream at program time, in the scalar
        per-cell order (column-major: column 0's rows first).
    """

    def __init__(
        self,
        weights: Sequence[int],
        config: Optional[FilterArrayConfig] = None,
        variability: VariabilityLike = None,
    ) -> None:
        self.config = config or FilterArrayConfig()
        self._stored_weights = _as_integer_weights(weights, "item weights")
        if np.any(self._stored_weights < 0):
            raise ValueError("item weights must be non-negative")
        if np.any(self._stored_weights > self.config.max_column_weight):
            raise ValueError(
                "an item weight exceeds the column capacity "
                f"{self.config.max_column_weight}; increase num_rows"
            )
        self._chips = as_chip_models(variability)
        self._program()

    def _program(self) -> None:
        """Decompose weights into cells and sample per-chip device variation.

        One vectorised :meth:`VariabilityModel.sample_device_table` draw per
        chip replays the exact stream consumption of cell-by-cell scalar
        programming, and one :func:`conduction_counts` broadcast turns the
        sampled threshold shifts into per-chip effective weights -- the
        single programming kernel behind both the scalar and device-axis
        paths.  Cell objects (for per-cell inspection) are materialised
        lazily from the same sampled values.
        """
        num_rows = self.config.num_rows
        self._cell_weight_table = np.array(
            [decompose_weight(int(weight), num_rows, self.config.max_cell_weight)
             for weight in self._stored_weights],
            dtype=int,
        ).reshape(self.num_columns, num_rows)
        flat_weights = self._cell_weight_table.reshape(-1)
        num_chips = len(self._chips)
        shifts = np.zeros((num_chips, flat_weights.size))
        factors = np.ones((num_chips, flat_weights.size))
        for chip, model in enumerate(self._chips):
            if model is not None:
                shifts[chip], factors[chip] = model.sample_device_table(
                    flat_weights.size)
        counts = conduction_counts(flat_weights, self.config.cell, shifts)
        self._device_effective = counts.reshape(
            num_chips, self.num_columns, num_rows).sum(axis=2).astype(float)
        self._cell_shifts = shifts
        self._cell_factors = factors
        self._cells: Optional[List[List[OneFeFETOneRCell]]] = None

    def _ensure_cells(self) -> List[List[OneFeFETOneRCell]]:
        """Materialise cell objects for per-cell inspection (single chip only)."""
        if self.num_devices != 1:
            raise ValueError(
                "per-cell access is only available on single-chip arrays; "
                "use device_effective_weights for the device axis"
            )
        if self._cells is None:
            cells: List[List[OneFeFETOneRCell]] = []
            num_rows = self.config.num_rows
            for column in range(self.num_columns):
                column_cells = []
                for row in range(num_rows):
                    flat = column * num_rows + row
                    column_cells.append(OneFeFETOneRCell(
                        parameters=self.config.cell,
                        weight=int(self._cell_weight_table[column, row]),
                        threshold_shift=float(self._cell_shifts[0, flat]),
                        on_current_factor=float(self._cell_factors[0, flat]),
                    ))
                cells.append(column_cells)
            self._cells = cells
        return self._cells

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_columns(self) -> int:
        """Number of items ``n`` (columns)."""
        return self._stored_weights.shape[0]

    @property
    def num_rows(self) -> int:
        """Cells per column ``m``."""
        return self.config.num_rows

    @property
    def num_devices(self) -> int:
        """Number of simulated chips ``D`` along the device axis."""
        return len(self._chips)

    @property
    def stored_weights(self) -> np.ndarray:
        """The programmed item weights."""
        return self._stored_weights.copy()

    @property
    def effective_weights(self) -> np.ndarray:
        """Per-column conduction counts actually realised by the cells.

        Equal to :attr:`stored_weights` for ideal devices; may deviate by a
        few units under strong threshold variability.  Shape ``(n,)`` for a
        single-chip array; multi-chip arrays must read the explicit
        :attr:`device_effective_weights`.
        """
        if self.num_devices != 1:
            raise ValueError(
                "a multi-chip array has one weight vector per chip; "
                "use device_effective_weights"
            )
        return self._device_effective[0].copy()

    @property
    def device_effective_weights(self) -> np.ndarray:
        """Effective weights per chip, shape ``(D, n)``."""
        return self._device_effective.copy()

    def cell(self, row: int, column: int) -> OneFeFETOneRCell:
        """Access an individual cell (row-major within a column)."""
        return self._ensure_cells()[column][row]

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def reprogram(self, weights: Sequence[int]) -> None:
        """Erase and reprogram the array with a new weight vector."""
        new_weights = _as_integer_weights(weights, "item weights")
        if new_weights.shape[0] != self.num_columns:
            raise ValueError("reprogramming must keep the number of columns")
        if np.any(new_weights < 0) or np.any(new_weights > self.config.max_column_weight):
            raise ValueError("a weight is out of the representable range")
        self._stored_weights = new_weights
        self._program()

    def _resolve_devices(self, count: int,
                         devices: Optional[np.ndarray]) -> np.ndarray:
        return resolve_device_selection(count, devices, self.num_devices,
                                        kind="filter-array batch")

    def _loads(self, batch: np.ndarray, devices: np.ndarray) -> np.ndarray:
        """``(K, M)`` loads ``x . w_eff`` of a binary ``(K, M, n)`` batch.

        Row ``k`` is loaded onto chip ``devices[k]``'s effective weights.
        The loads are integers (far below ``2**53``), so they are exact in
        any summation order.
        """
        if np.count_nonzero(batch * (batch - 1)):
            raise ValueError("input configurations must be binary")
        return np.matmul(batch,
                         self._device_effective[devices][:, :, None])[..., 0]

    def _readout(self, weighted_sums: np.ndarray,
                 rng: Optional[np.random.Generator],
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Eq. (9) for given loads: ``(voltage, ideal_voltage, discharge)``.

        Readout noise (when configured) is drawn once for the whole array of
        loads from ``rng``.
        """
        discharge = self.config.discharge_per_unit * weighted_sums
        ideal_voltages = self.config.supply_voltage - discharge
        if self.config.noise_sigma > 0:
            generator = rng or np.random.default_rng()
            noise = generator.normal(0.0, self.config.noise_sigma,
                                     size=np.shape(weighted_sums))
        else:
            noise = 0.0
        voltages = np.maximum(0.0, ideal_voltages + noise)
        return voltages, ideal_voltages, discharge

    def _evaluate_kernel(
        self, batch: np.ndarray, rng: Optional[np.random.Generator],
        devices: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The one evaluation kernel: ``(K, M, n)`` batch -> ``(K, M)`` readouts.

        Row ``k`` of the batch is evaluated on chip ``devices[k]``.  Returns
        ``(voltage, ideal_voltage, discharge, weighted_sum)``; readout noise
        (when configured) is drawn once for the whole batch from ``rng``, so
        the ``D = M = 1`` view consumes exactly the single draw the scalar
        path historically made.
        """
        weighted_sums = self._loads(batch, devices)
        return self._readout(weighted_sums, rng) + (weighted_sums,)

    def _device_batch(self, configurations: np.ndarray,
                      devices: Optional[np.ndarray],
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """A validated ``(K, M, n)`` batch and the chip of each slice."""
        batch = np.asarray(configurations, dtype=float)
        if batch.ndim != 3 or batch.shape[2] != self.num_columns:
            raise ValueError(
                f"device batch shape {batch.shape} is not (chips, replicas, "
                f"{self.num_columns})"
            )
        return batch, self._resolve_devices(batch.shape[0], devices)

    def evaluate(self, x: Sequence[int],
                 rng: Optional[np.random.Generator] = None,
                 device: int = 0) -> MatchlineReadout:
        """Run the four-phase evaluation for input configuration ``x``.

        Returns the end-of-evaluation matchline voltage (Eq. (9)) of chip
        ``device`` -- the ``(1, 1, n)`` view over the evaluation kernel.
        """
        inputs = np.asarray(list(x) if not isinstance(x, np.ndarray) else x, dtype=float)
        if inputs.ndim != 1 or inputs.shape[0] != self.num_columns:
            raise ValueError(
                f"input configuration length {inputs.shape} != {self.num_columns} columns"
            )
        voltage, ideal, discharge, weighted = self._evaluate_kernel(
            inputs[None, None, :], rng, self._resolve_devices(1, np.array([device])))
        return MatchlineReadout(
            voltage=float(voltage[0, 0]),
            ideal_voltage=float(ideal[0, 0]),
            discharge=float(discharge[0, 0]),
            weighted_sum=float(weighted[0, 0]),
        )

    def evaluate_batch(self, configurations: np.ndarray,
                       rng: Optional[np.random.Generator] = None,
                       device: int = 0) -> np.ndarray:
        """Matchline voltages for an ``(M, n)`` batch on one chip.

        The ``(1, M, n)`` view over the evaluation kernel: one weighted-sum
        product covers every row, readout noise (when configured) is drawn
        independently per row, and the returned array holds the final
        (clipped) matchline voltage per replica.  Noise-free voltages equal
        the scalar path's value for each row.
        """
        batch = np.asarray(configurations, dtype=float)
        if batch.ndim == 1:
            batch = batch[None, :]
        if batch.ndim != 2 or batch.shape[1] != self.num_columns:
            raise ValueError(
                f"batch shape {batch.shape} incompatible with {self.num_columns} columns"
            )
        return self._evaluate_kernel(
            batch[None, :, :], rng, self._resolve_devices(1, np.array([device])))[0][0]

    def evaluate_devices(self, configurations: np.ndarray,
                         rng: Optional[np.random.Generator] = None,
                         devices: Optional[np.ndarray] = None) -> np.ndarray:
        """Matchline voltages for a ``(K, M, n)`` device-axis batch.

        Slice ``k`` evaluates on chip ``devices[k]`` (all chips in order when
        omitted, requiring ``K = D``).  Returns a ``(K, M)`` voltage matrix.
        """
        batch, selected = self._device_batch(configurations, devices)
        return self._evaluate_kernel(batch, rng, selected)[0]

    def phase_waveform(self, x: Sequence[int]) -> np.ndarray:
        """Matchline voltage after each of the four staircase phases.

        Reproduces the transient view of Fig. 4(c)/5(f): phase ``j`` discharges
        the matchline by one unit for every column whose cell-weight admits
        that phase and whose input bit is 1.
        """
        inputs = np.asarray(list(x) if not isinstance(x, np.ndarray) else x, dtype=float)
        if inputs.shape[0] != self.num_columns:
            raise ValueError("input configuration length mismatch")
        cells = self._ensure_cells()
        voltage = self.config.supply_voltage
        waveform = []
        for phase in range(1, self.config.max_cell_weight + 1):
            conducting = 0
            for column in range(self.num_columns):
                if inputs[column] != 1:
                    continue
                for cell in cells[column]:
                    if cell.conducts(phase, input_bit=1):
                        conducting += 1
            voltage = max(0.0, voltage - self.config.discharge_per_unit * conducting)
            waveform.append(voltage)
        return np.array(waveform)
