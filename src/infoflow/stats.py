"""Time-series panels.

A panel holds d series of length N as one read-only, C-contiguous (d, N)
array, one series per row, so every pass over a series reads contiguous
memory.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


def check_number(name: str, x) -> float:
    """Return x as a float; raise ValueError naming x unless it is a real number: a bool,
    a string or None is not.  An integer beyond float64 is returned as +-inf, so the
    caller's finiteness check rejects it with that field's own message."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):  # np.bool_ is not Real
        shown = bool(x) if isinstance(x, np.bool_) else x
        raise ValueError(f"{name} must be a number, got {shown!r}")
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def check_dt(dt) -> None:
    """Raise ValueError unless dt is a positive finite number (see check_number)."""
    if not 0 < check_number("dt", dt) < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")


@dataclass(frozen=True)
class TimeSeriesPanel:
    """d equi-spaced stationary series of length N with time step dt.

    ``data`` has shape (d, N): one row per variable.  The panel keeps its
    own read-only, C-contiguous (series-major) float64 copy, whatever the
    layout of the array passed in, and ``dt``, checked by ``check_dt``, as
    a Python float.  ``labels`` may be any sequence of d strings, a
    numpy array included but not one string, and is kept as a tuple of
    ``str``; an empty one gives X1..Xd.  Series must be complete (no NaN/inf)
    and long enough that the normal-equation system is overdetermined
    (N >= d + 3, d >= 1).  No caller restates these rules.
    """

    data: np.ndarray
    dt: float = 1.0
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        try:
            data = np.array(self.data, dtype=float, order="C")
        except OverflowError:  # an integer beyond float64
            raise ValueError("panel contains non-finite values") from None
        if data.ndim != 2:
            raise ValueError(f"panel data must be 2-D (d, N), got shape {data.shape}")
        d, n = data.shape
        if d < 1:
            raise ValueError("panel needs at least one variable row")
        if n < d + 3:
            raise ValueError(f"need N >= d + 3 samples, got N={n} for d={d}")
        check_dt(self.dt)
        if not np.all(np.isfinite(data)):
            raise ValueError("panel contains non-finite values")
        if isinstance(self.labels, str):
            raise ValueError(f"labels must be a sequence of strings, got {self.labels!r}")
        labels = tuple(self.labels) or tuple(f"X{i + 1}" for i in range(d))
        if len(labels) != d:
            raise ValueError(f"{len(labels)} labels for {d} variables")
        for label in labels:
            if not isinstance(label, str):
                raise ValueError(f"label {label!r} is not a string")
        labels = tuple(map(str, labels))  # np.str_ -> str
        if len(set(labels)) != d:
            seen = set()
            duplicate = next(s for s in labels if s in seen or seen.add(s))
            raise ValueError(f"duplicate label {duplicate!r}")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "labels", labels)

    @property
    def d(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]
