"""Information-flow rates, self-influence, noise contribution, significance.

Model.  Every target row i follows dX_i/dt = f_i + sum_j a_ij X_j + b_i dW_i,
observed through forward differences.  With residuals
R_in = dX_i/dt[n] - f_i - a_i . X[:, n], the per-sample Euler transition
log density is

    l_n = -0.5 log(2 pi b_i^2 dt) - dt R_in^2 / (2 b_i^2).

Its maximizer solves the normal equations C a_i = Cd[:, i], where, over
the n = N - k aligned samples, xc and dc are X and dX/dt centred on their
row means, C = xc xc^T / n and Cd = xc dc^T / n.  All rows share C, so
one solve with the d right-hand sides Cd gives the coefficient matrix A
(A[i, j] = a_ij) of the whole panel.  The intercept is
f_i = mean(dX_i/dt) - a_i . mean(X), so the residuals are the centred ones,
R = dc - A xc, and g_i = b_i^2 = sum_n R_in^2 dt / n.

The flow rate from X_j to X_i is ``T[j -> i] = a_ij C_ij / C_ii`` in nats
per unit time, T[i -> i] = a_ii is a node's influence on itself, and the
entropy contribution of its stochastic forcing is ``g_i / (2 C_ii)``.

Standard errors.  Per row, with theta = (f_i, a_i, b_i), u = (1, X) and
M = mean(u u^T), the observed information per sample is

    I = [[ (dt / g) M,  c     ],    c = 2 dt / (b g) mean(u R),
         [ c^T,         2 / g ]]

(the (b, b) entry uses sum R^2 dt / n = g).  At the MLE the normal
equations give mean(u R) = 0, so c = 0, and the coefficient block of
I^-1 is the inverse of the Schur complement of f in (dt / g) M, which is
(dt / g) C.  Hence var(a_ij) = g_i (C^-1)_jj / (dt n).  The information
matrix is singular, and SingularInformationError is raised, when a
residual variance g_i is zero or any coefficient variance is <= 0.  A
near-singular C raises SingularCovarianceError before either is formed.

Significance is a two-sided z-test at confidence level ``alpha``: a value
v is significant iff its CI v +- z se excludes zero, i.e. |v| > z se, with
z the (1 + alpha) / 2 normal quantile.  The ratio C_ij / C_ii in a flow's
standard error is treated as a plug-in constant, so the flow's test
statistic coincides with the z-statistic of a_ij.  Its two-sided p-value,
erfc(|T / se| / sqrt 2), is reported for edges only: graph.build_graph
computes it from each edge's T and se.

Normalization.  Target i's entropy budget is the absolute sum
Z_i = sum_j |T[j -> i]| + g_i / (2 C_ii), with |a_ii| at j = i, and the
normalized flow tau[j -> i] = T[j -> i] / Z_i in [-1, 1] measures the
relative importance of a cause; the noise and |tau| shares of Z_i sum to one.
tau is reported alongside T: significance always comes from T and its CI.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import (
    DegenerateInputError,
    DegenerateNormalizerError,
    SingularCovarianceError,
    SingularInformationError,
)
from .stats import TimeSeriesPanel, derive_series

DEFAULT_ALPHA = 0.90
# Above this condition number the covariance matrix is treated as
# singular.
COND_LIMIT = 1e12
# Columns per block when the residuals are formed in place.
RESIDUAL_BLOCK = 1024


@dataclass(frozen=True)
class FlowMatrix:
    """Flow estimates, their tests and the per-node terms of one panel.

    Pairwise arrays are d x d and indexed [source, target]: ``T[j, i]`` is
    the flow j -> i, with its ``stderr``, z-test verdict ``significant``
    and normalized flow ``tau`` (T[j, i] / Z_i, see the module docstring).
    Their diagonals hold each node's own term: the self-influence a_ii, its
    stderr, the self-loop verdict and a_ii's share of Z_i.

    Per-node arrays have length d: ``noise_rate`` (g_i / 2 C_ii) and the
    residual variance ``g``.  All arrays are read-only.
    """

    T: np.ndarray
    stderr: np.ndarray
    significant: np.ndarray
    tau: np.ndarray
    noise_rate: np.ndarray
    g: np.ndarray
    alpha: float
    k: int

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @property
    def d(self) -> int:
        return self.T.shape[0]


def estimate_flows(
    panel: TimeSeriesPanel,
    k: int = 1,
    alpha: float = DEFAULT_ALPHA,
) -> FlowMatrix:
    """Estimate and test the full d x d flow matrix of a panel.

    A constant series, values too large or too small for a float64
    covariance, or a residual or coefficient variance too large for
    float64, raise DegenerateInputError, and a covariance matrix with
    condition number above COND_LIMIT raises SingularCovarianceError.  A
    zero residual variance or a non-positive coefficient variance raises
    SingularInformationError.  ``alpha`` must lie in (0, 1) and
    N - k >= d + 2.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    # At most two d x n arrays are alive: the derived series, centred in
    # place and later overwritten by the residuals (dc), and the centred
    # panel columns (xc).
    dc = derive_series(panel, k)
    n, dt, labels = dc.shape[1], panel.dt, panel.labels
    if n < panel.d + 2:  # each row's d + 1 parameters would fit n samples exactly
        raise ValueError(f"stride k={k} leaves N - k = {n} samples, need d + 2 = {panel.d + 2}")
    x = panel.data[:, :n]
    with np.errstate(over="ignore", invalid="ignore"):
        xc = x - x.mean(axis=1)[:, None]
        dc -= dc.mean(axis=1)[:, None]
        C = (xc @ xc.T) / n
        Cd = (xc @ dc.T) / n
    if not (np.isfinite(C).all() and np.isfinite(Cd).all()):
        raise DegenerateInputError("values are too large for a float64 covariance")
    flat = np.flatnonzero(np.diag(C) <= 0.0)
    if flat.size:
        i = flat[0]
        if np.all(x[i] == x[i, 0]):
            raise DegenerateInputError(f"variable {labels[i]!r} has zero variance")
        # The series varies, but its squared deviations underflow to 0.
        raise DegenerateInputError(
            f"variable {labels[i]!r}: values are too small for a float64 covariance"
        )

    cond = np.linalg.cond(C)
    if not cond <= COND_LIMIT:
        raise SingularCovarianceError(
            f"covariance matrix is near-singular (condition number {cond:.3e})"
        )
    A = np.linalg.solve(C, Cd).T
    Cinv = np.linalg.inv(C)

    # R = dc - A xc, formed in dc one column block at a time
    block = np.empty((panel.d, min(n, RESIDUAL_BLOCK)))
    for s in range(0, n, RESIDUAL_BLOCK):
        cols = slice(s, s + RESIDUAL_BLOCK)
        R = dc[:, cols]
        np.subtract(R, np.matmul(A, xc[:, cols], out=block[:, : R.shape[1]]), out=R)
    with np.errstate(over="ignore"):
        g = np.einsum("ij,ij->i", dc, dc) * dt / n
        var = np.outer(g, np.diag(Cinv)) / dt / n
    # diag(Cinv) > 0, so a non-finite g_i leaves row i of var non-finite too
    big = np.flatnonzero(~np.isfinite(var).all(axis=1))
    if big.size:
        raise DegenerateInputError(
            f"target {labels[big[0]]!r}: residual or coefficient variance "
            "is too large for float64"
        )
    zero = np.flatnonzero(~(g > 0.0))
    if zero.size:
        raise SingularInformationError(
            f"target {labels[zero[0]]!r}: residual variance is zero, "
            "information matrix undefined"
        )

    bad = np.flatnonzero(~np.all(var > 0.0, axis=1))
    if bad.size:
        raise SingularInformationError(
            f"target {labels[bad[0]]!r}: non-positive coefficient variance"
        )

    cii = np.diag(C)
    # C_ii / C_ii is exactly 1, so T[i, i] is a_ii bit for bit
    ratio = C / cii
    T = A.T * ratio
    stderr = np.abs(ratio) * np.sqrt(var.T)
    noise = g / (2.0 * cii)
    Z = np.abs(T).sum(axis=0) + noise
    zero = np.flatnonzero(~(Z > 0.0))
    if zero.size:
        raise DegenerateNormalizerError(
            f"target {labels[zero[0]]!r}: all entropy contributions are zero"
        )
    z = NormalDist().inv_cdf((1.0 + alpha) / 2.0)
    return FlowMatrix(
        T=T,
        stderr=stderr,
        significant=np.abs(T) > z * stderr,
        tau=T / Z,
        noise_rate=noise,
        g=g,
        alpha=alpha,
        k=k,
    )
