"""Time-series panels and the sample moments the estimator consumes.

The forward-difference derivative series, sample means, the covariance
matrix ``C`` and the cross-covariances ``Cd[j, i]`` between each series
X_j and each derived series dX_i/dt are computed here, over the N - k
samples where both are defined.

Containers are frozen dataclasses holding read-only numpy arrays and the
functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError

# Above this condition number the covariance matrix is treated as
# singular.
COND_LIMIT = 1e12


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class TimeSeriesPanel:
    """d equi-spaced stationary series of length N with time step dt.

    ``data`` has shape (d, N): one row per variable.  Series must be
    complete (no NaN/inf) and long enough that the normal-equation
    system is overdetermined (N >= d + 3).
    """

    data: np.ndarray
    dt: float = 1.0
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2:
            raise ValueError(f"panel data must be 2-D (d, N), got shape {data.shape}")
        d, n = data.shape
        if d < 1:
            raise ValueError("panel needs at least one variable row")
        if n < d + 3:
            raise ValueError(f"need N >= d + 3 samples, got N={n} for d={d}")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not np.all(np.isfinite(data)):
            raise ValueError("panel contains non-finite values")
        labels = tuple(self.labels) if self.labels else tuple(f"X{i + 1}" for i in range(d))
        if len(labels) != d:
            raise ValueError(f"{len(labels)} labels for {d} variables")
        if len(set(labels)) != d:
            seen = set()
            duplicate = next(s for s in labels if s in seen or seen.add(s))
            raise ValueError(f"duplicate label {duplicate!r}")
        object.__setattr__(self, "data", _frozen(data))
        object.__setattr__(self, "labels", labels)

    @property
    def d(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class StatisticsBundle:
    """Sample moments over the N - k aligned samples.

    ``C`` is the d x d covariance matrix of the (truncated) series;
    ``Cd[j, i]`` is the covariance of X_j with the derived series of
    X_i.  Divisor is the aligned sample count ``n_used``.
    """

    means: np.ndarray
    dot_means: np.ndarray
    C: np.ndarray
    Cd: np.ndarray
    n_used: int

    def __post_init__(self):
        for name in ("means", "dot_means", "C", "Cd"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


def derive_series(panel: TimeSeriesPanel, k: int = 1) -> np.ndarray:
    """Forward differences with stride k: entry (i, n) is
    (X[i, n+k] - X[i, n]) / (k * dt), shape (d, N - k), read-only.

    Column n is aligned with panel column n.  k=1 is the accurate
    default; k=2 is appropriate for densely sampled deterministic chaos.
    """
    n = panel.n
    if not 1 <= k <= n - 2:
        raise ValueError(f"stride k={k} out of range [1, {n - 2}]")
    x = panel.data
    dot = (x[:, k:] - x[:, :-k]) / (k * panel.dt)
    dot.flags.writeable = False
    return dot


def compute_statistics(panel: TimeSeriesPanel, derived: np.ndarray) -> StatisticsBundle:
    """Means and covariance matrices over the samples aligned with ``derived``."""
    n_used = derived.shape[-1]
    if derived.shape != (panel.d, n_used) or not 1 <= panel.n - n_used <= panel.n - 2:
        raise ValueError("derived series does not match panel shape")
    x = panel.data[:, :n_used]
    means = x.mean(axis=1)
    dot_means = derived.mean(axis=1)
    xc = x - means[:, None]
    dc = derived - dot_means[:, None]
    C = (xc @ xc.T) / n_used
    Cd = (xc @ dc.T) / n_used
    flat = np.flatnonzero(np.diag(C) <= 0.0)
    if flat.size:
        raise DegenerateInputError(
            f"variable {panel.labels[flat[0]]!r} has zero variance"
        )
    return StatisticsBundle(means=means, dot_means=dot_means, C=C, Cd=Cd, n_used=n_used)
