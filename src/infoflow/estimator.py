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
residual variance g_i is zero; C is positive definite, so no var(a_ij) is.

Working units.  T, its z-test and tau are invariant under X_i -> a X_i + b
and under a change of dt.  So the centred panel columns and the centred
raw differences X[:, k:] - X[:, :-k] have each row scaled by the power of
two 2^p that brings its largest |value| into [0.5, 1), and the cond check,
the solve, g, the verdicts and tau are computed from these: there the
source scales and dt cancel.  T, stderr and the noise rate of target i
reach the input's units only at the end, times 2^(p_x,i - p_d,i) / (k dt).

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
Z_i > 0, as its noise term is.  tau is reported alongside T: significance
always comes from T and its CI.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import DegenerateInputError, SingularCovarianceError, SingularInformationError
from .stats import TimeSeriesPanel, check_count, check_number

DEFAULT_ALPHA = 0.90
# Above this condition number the equilibrated covariance matrix is treated
# as singular.
COND_LIMIT = 1e12
# A series whose standard deviation is at most RESOLUTION |mean|, about 8
# ulp of its mean, holds only rounding noise.
RESOLUTION = 8 * np.finfo(float).eps
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

    The per-node array ``noise_rate`` (g_i / 2 C_ii) has length d.  Every
    array is unchanged by a per-series affine map x_i -> a x_i + b; the
    rates T, stderr and noise_rate are in 1 / time, so the time unit k dt
    alone sets their scale.  All arrays are read-only.
    """

    T: np.ndarray
    stderr: np.ndarray
    significant: np.ndarray
    tau: np.ndarray
    noise_rate: np.ndarray
    alpha: float
    k: int

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @property
    def d(self) -> int:
        return self.T.shape[0]


def _equilibrate(rows: np.ndarray, labels) -> np.ndarray:
    """Scale each row in place by the power of two 2^p that brings its
    largest |value| into [0.5, 1), or below it if that is subnormal (p is
    at most 1023, the largest), and return p."""
    spread = np.maximum(rows.max(axis=1), -rows.min(axis=1))
    bad = np.flatnonzero(~np.isfinite(spread))  # centring or differencing overflowed
    if bad.size:
        raise DegenerateInputError(f"variable {labels[bad[0]]!r}: values are too large for float64")
    p = np.minimum(-np.frexp(spread)[1], 1023)
    rows *= np.ldexp(1.0, p)[:, None]
    return p


def estimate_flows(panel: TimeSeriesPanel, k: int = 1, alpha: float = DEFAULT_ALPHA) -> FlowMatrix:
    """Estimate and test the full d x d flow matrix of a panel.

    DegenerateInputError is raised for a series whose std is at most
    RESOLUTION |mean| (8 ulp; zero for a constant), values whose centring
    overflows, and a T, stderr or noise rate that has no float64 at the
    time unit k dt: it overflows (a tiny k dt does that) or a nonzero one
    underflows to zero (k dt near the largest double).  An equilibrated
    covariance matrix with condition number above COND_LIMIT raises
    SingularCovarianceError, and a zero residual variance
    SingularInformationError.  ``alpha`` must be a number in (0, 1 - 2^-52],
    above which (1 + alpha) / 2 rounds to 1, and k an integer in [1, N - d - 1)
    (``check_count``, the rule of the spec counts and --steps too), so that the N - k
    differences outnumber each row's d + 1 parameters; both are kept as Python numbers.

    ``stderr`` is the paper's test scale: the standard error of a_ij,
    conditional on the sample covariance C, times |C_ij / C_ii|.  It is not
    an uncertainty for T, whose ratio C_ij / C_ii also varies between
    samples: as an interval, T +- z stderr covered T's mean in only 7-45%
    of var6-b1 seeds at alpha = 0.90.
    """
    alpha = check_number("alpha", alpha)
    if not 0.0 < alpha <= 1.0 - 2.0**-52:
        raise ValueError(f"alpha must be in (0, 1 - 2**-52], got {alpha}")
    k = check_count("stride k", k, 1, panel.n - panel.d - 1)
    n = panel.n - k
    x, labels = panel.data, panel.labels
    # Two d x n arrays: the differences (dc), centred and scaled in place and
    # later overwritten by the residuals, and the centred panel columns (xc).
    with np.errstate(over="ignore", invalid="ignore"):
        dc = np.subtract(x[:, k:], x[:, :-k])
        dc -= dc.mean(axis=1)[:, None]
        mean = x[:, :n].mean(axis=1)
        xc = x[:, :n] - mean[:, None]
    px = _equilibrate(xc, labels)
    pd = _equilibrate(dc, labels)
    C = (xc @ xc.T) / n
    Cd = (xc @ dc.T) / n
    # 0 < max_n xc_in^2 / n <= C_ii <= 1 for a varying series: C can neither
    # overflow nor underflow
    cii = np.diag(C)
    with np.errstate(over="ignore"):
        coarse = np.flatnonzero(~(np.sqrt(cii) > RESOLUTION * np.abs(mean) * np.ldexp(1.0, px)))
    if coarse.size:
        raise DegenerateInputError(f"variable {labels[coarse[0]]!r} has zero variance at "
                                   "float64 resolution (std <= 8 ulp of its mean)")

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
    g = np.einsum("ij,ij->i", dc, dc) / n
    zero = np.flatnonzero(~(g > 0.0))
    if zero.size:
        raise SingularInformationError(f"target {labels[zero[0]]!r}: residual variance is zero, "
                                       "information matrix undefined")

    # C_ii / C_ii is exactly 1, so T[i, i] is a_ii bit for bit
    ratio = C / cii
    T = A.T * ratio
    # (C^-1)_jj >= 1 / C_jj >= 1 and g_i > 0: every coefficient variance is > 0
    stderr = np.abs(ratio) * np.sqrt(np.outer(np.diag(Cinv), g) / n)
    with np.errstate(over="ignore"):  # inf if the differences outgrow the values by 2^1023
        w = np.ldexp(1.0, px - pd)  # target i's unit of X_i per unit of its differences
        noise = g / (2.0 * cii) * w / k
    # Z_i >= noise_i > 0, since g_i > 0: no budget is zero
    Z = np.abs(T).sum(axis=0) + noise
    z = NormalDist().inv_cdf((1.0 + alpha) / 2.0)
    significant = np.abs(T) > z * stderr
    tau = T / Z
    rates = np.vstack([T, stderr, noise])  # target i's rates in column i
    with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf, inf / inf at w or k dt = inf
        scaled = rates * w / (k * panel.dt)
    # a rate that overflowed, or a nonzero one lost to underflow (an edge
    # with T = 0 or stderr = 0), has no float64 at the time unit k dt
    lost = np.flatnonzero((~np.isfinite(scaled) | ((scaled == 0.0) & (rates != 0.0))).any(axis=0))
    if lost.size:
        raise DegenerateInputError(f"target {labels[lost[0]]!r}: flow or noise rate is outside "
                                   f"float64 at k*dt = {k * panel.dt!r}")
    T, stderr, noise = scaled[: panel.d], scaled[panel.d : -1], scaled[-1]
    return FlowMatrix(T=T, stderr=stderr, significant=significant, tau=tau,
                      noise_rate=noise, alpha=alpha, k=k)
