"""Sampled (x, y) series with axis metadata.

Traces carry measured or synthesized spectra and time series. x must be
strictly increasing; y is the same length. Units are lowercase tags,
e.g. x_unit "hz" or "s", y_unit "lin" (linear power / flux density),
"db", or "v".
"""

from dataclasses import dataclass

import numpy as np

from .errors import TraceError


@dataclass(frozen=True)
class Trace:
    x: np.ndarray
    y: np.ndarray
    x_unit: str = "hz"
    y_unit: str = "lin"
    label: str = ""
    rbw: float | None = None   # resolution bandwidth, Hz (spectra only)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or y.ndim != 1:
            raise TraceError("trace axes must be one-dimensional")
        if x.size != y.size:
            raise TraceError(f"length mismatch: {x.size} x values, {y.size} y values")
        if x.size == 0:
            raise TraceError("empty trace")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
            raise TraceError("trace contains NaN or infinite values")
        if not (x[1:] > x[:-1]).all():
            raise TraceError("x values must be strictly increasing")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self):
        return self.x.size

    def restrict(self, lo: float, hi: float) -> "Trace":
        """Sub-trace with lo <= x <= hi."""
        mask = (self.x >= lo) & (self.x <= hi)
        if not mask.any():
            raise TraceError(f"no samples in [{lo}, {hi}]")
        return Trace(self.x[mask], self.y[mask], self.x_unit, self.y_unit,
                     self.label, self.rbw)

    def cell_widths(self) -> np.ndarray:
        """Integration weight per sample (midpoint cells, edge cells halved)."""
        x = self.x
        if x.size == 1:
            return np.ones(1)
        edges = np.concatenate(([x[0]], 0.5 * (x[:-1] + x[1:]), [x[-1]]))
        return np.diff(edges)
