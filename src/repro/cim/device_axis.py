"""Shared helpers for the hardware stack's device axis.

Every device-axis component (:class:`~repro.cim.adc.ADCModel`,
:class:`~repro.cim.crossbar.FeFETCrossbar`, the filter arrays) maps the
leading axis of a batch onto its simulated chips through the same selection
rule; this module holds that rule so the validation semantics cannot drift
between components.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def resolve_device_selection(count: int, devices: Optional[np.ndarray],
                             num_devices: int,
                             kind: str = "batch") -> np.ndarray:
    """Map a ``count``-slice batch onto device indices.

    ``devices=None`` selects all devices in order (requiring
    ``count == num_devices``); otherwise ``devices`` must hold one in-range
    chip index per batch slice.  ``kind`` names the batch in error messages.
    """
    if devices is None:
        selected = np.arange(num_devices)
    else:
        selected = np.asarray(devices, dtype=int)
    if selected.shape != (count,):
        raise ValueError(
            f"device selection of shape {selected.shape} does not match the "
            f"{count}-slice {kind}"
        )
    # One chip (every one-replica read) skips the min/max reductions.
    if count == 1:
        in_range = 0 <= selected[0] < num_devices
    else:
        in_range = not selected.size or (0 <= selected.min()
                                         and selected.max() < num_devices)
    if not in_range:
        raise IndexError("a device index is out of range")
    return selected
