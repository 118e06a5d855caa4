"""Sampled (x, y) series with axis metadata, and the one grid rule.

Traces carry measured or synthesized spectra and time series. x must be
strictly increasing; y is the same length. Units are lowercase tags,
e.g. x_unit "hz" or "s", y_unit "lin" (linear power / flux density),
"db", or "v". axis() checks a given axis; grid() builds one from a span.
"""

from dataclasses import dataclass

import numpy as np

from .core import require, require_integer
from .errors import ParameterError, TraceError


def axis(values, name: str) -> np.ndarray:
    """values as a 1-d float array that is nonempty, finite and strictly
    increasing; otherwise a TraceError naming name."""
    a = np.asarray(values, dtype=float)
    if not (a.ndim == 1 and a.size and np.isfinite(a).all()
            and (a[1:] > a[:-1]).all()):
        raise TraceError(f"{name} must be a nonempty 1-d array of finite, "
                         "strictly increasing values")
    return a


def grid(start: float, stop: float, count: int, names,
         scale: str = "linear") -> np.ndarray:
    """count values from start to stop by np.linspace, or np.geomspace at
    scale "log": finite and strictly increasing, or [start] for one count.
    Every error quotes names, the caller's names for (start, stop, count);
    a start named None is set and checked by the caller."""
    start_name, stop_name, count_name = names
    ends = {n: v for n, v in ((start_name, start), (stop_name, stop)) if n}
    require_integer(**{count_name: count})
    require(finite=ends)
    if count < 1:
        raise ParameterError(f"{count_name} must be >= 1 (got {count!r})")
    if count > 1 and not start < stop:
        raise ParameterError(f"need {start_name} < {stop_name} "
                             f"(got {start!r}, {stop!r})")
    build = {"linear": np.linspace, "log": np.geomspace}.get(scale)
    if build is None:
        raise ParameterError(f"scale must be 'linear' or 'log' (got {scale!r})")
    if scale == "log" and start <= 0:
        raise ParameterError(f"log scale needs {start_name} > 0")
    with np.errstate(over="ignore", invalid="ignore"):
        values = build(start, stop, count)
    if not np.isfinite(values).all():
        raise ParameterError(f"{' and '.join(ends)} span a grid that overflows "
                             f"(got {', '.join(map(repr, ends.values()))})")
    if not (values[1:] > values[:-1]).all():   # the span holds too few floats
        span = " to ".join(f"{n} {v!r}" for n, v in ends.items())
        raise ParameterError(f"{count_name} {count} over {span} repeats "
                             f"values; lower {count_name} or widen the span")
    return values


@dataclass(frozen=True)
class Trace:
    x: np.ndarray
    y: np.ndarray
    x_unit: str = "hz"
    y_unit: str = "lin"
    label: str = ""
    rbw: float | None = None   # resolution bandwidth, Hz (spectra only)

    def __post_init__(self):
        x = axis(self.x, "x")
        y = np.asarray(self.y, dtype=float)
        if y.shape != x.shape:
            raise TraceError(f"length mismatch: {x.size} x values, "
                             f"y of shape {y.shape}")
        if not np.isfinite(y).all():
            raise TraceError("trace contains NaN or infinite values")
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
