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


def check_count(name: str, n, low: int, high: float = math.inf) -> int:
    """Return n as an int; raise ValueError ``<name> must be an integer in [<low>, <high>)``
    (or ``>= <low>``) ``, got <n>`` unless n is one, not a bool and finite as a float64:
    |n| >= 2**1024 is shown as +-inf."""
    integer = isinstance(n, numbers.Integral) and not isinstance(n, bool)
    huge = integer and math.isinf(value := check_number(name, n))
    if huge or not (integer and low <= n < high):
        rule = f">= {low}" if high == math.inf else f"in [{low}, {high})"
        raise ValueError(f"{name} must be an integer {rule}, got {value if huge else n!r}")
    return int(n)


def check_dt(dt) -> float:
    """Return dt as a float; raise ValueError unless it is a positive finite number."""
    value = check_number("dt", dt)
    if not 0 < value < math.inf:
        raise ValueError(f"dt must be positive and finite, got {value}")
    return value


def check_array(name: str, value) -> np.ndarray:
    """Return value as a read-only, C-contiguous float64 copy; raise ValueError
    ``<name> has non-numeric entries`` unless every entry is a real number (see
    check_number; a ragged nesting is not) and ``<name> has non-finite entries`` for
    NaN, +-inf or an integer beyond float64.  An int, uint or float ndarray is copied
    with no walk over its entries; other values, lists too, have each entry type checked."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        arr = np.array(value, dtype=float, order="C")
    else:
        try:
            entries = np.array(value, dtype=object)  # ValueError: a nesting numpy cannot shape
            if not all(issubclass(t, numbers.Real) and t is not bool
                       for t in set(map(type, entries.flat))):
                raise TypeError
            arr = entries.astype(float)
        except (TypeError, ValueError):
            raise ValueError(f"{name} has non-numeric entries") from None
        except OverflowError:  # an integer beyond float64
            raise ValueError(f"{name} has non-finite entries") from None
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class TimeSeriesPanel:
    """d equi-spaced stationary series of length N with time step dt.

    ``data`` has shape (d, N): one row per variable, of real finite numbers.
    The panel keeps the read-only, C-contiguous (series-major) float64 copy
    that ``check_array`` makes, whatever the layout of the data passed in,
    and ``dt``, checked by ``check_dt``, as a Python float.  ``labels`` may
    be any sequence of d strings, a numpy array included but not one string,
    and is kept as a tuple of ``str``; an empty one gives X1..Xd.  Series
    must be long enough that the normal-equation system is overdetermined
    (N >= d + 3, d >= 1).  No caller restates these rules.
    """

    data: np.ndarray
    dt: float = 1.0
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        data = check_array("panel data", self.data)
        if data.ndim != 2:
            raise ValueError(f"panel data must be 2-D (d, N), got shape {data.shape}")
        d, n = data.shape
        if d < 1:
            raise ValueError("panel needs at least one variable row")
        if n < d + 3:
            raise ValueError(f"need N >= d + 3 samples, got N={n} for d={d}")
        dt = check_dt(self.dt)
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
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "labels", labels)

    @property
    def d(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]
