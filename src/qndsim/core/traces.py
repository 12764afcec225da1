"""Uniformly gridded time- and frequency-domain sample container."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Uniformity is judged relative to the axis scale: grids built with linspace
# on large carriers (e.g. 6 GHz in MHz units) carry ~ulp jitter in the diffs.
AXIS_UNIFORMITY_RTOL = 1e-12


def _validate_axis(axis: np.ndarray) -> None:
    if axis.ndim != 1 or axis.size < 2:
        raise ValueError("axis must be a 1-d grid with at least two points")
    steps = np.diff(axis)
    if np.any(steps <= 0):
        raise ValueError("axis must be strictly increasing")
    step = steps.mean()
    scale = max(np.abs(axis[0]), np.abs(axis[-1]), step)
    if np.max(np.abs(steps - step)) > AXIS_UNIFORMITY_RTOL * scale:
        raise ValueError("axis must be uniform")


@dataclass
class Trace:
    """Samples on a uniform grid: a time axis in microseconds or a
    frequency axis in MHz."""

    axis: np.ndarray
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.axis = np.asarray(self.axis, dtype=float)
        self.values = np.asarray(self.values)
        _validate_axis(self.axis)
        if self.values.shape != self.axis.shape:
            raise ValueError("values must match the axis shape")

    @property
    def step(self) -> float:
        return float(self.axis[1] - self.axis[0])

    def __len__(self) -> int:
        return self.axis.size
