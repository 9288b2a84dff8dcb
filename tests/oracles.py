"""Per-row reference implementations the closed-form estimator is checked against.

``fit_row`` solves the normal equations of one target row, ``fisher_block``
assembles and inverts that row's general (d+2)-square observed
information matrix from analytic second derivatives (no vanishing cross
terms assumed), and ``cofactor_solution`` solves the normal equations by
explicit cofactor expansion.  ``reference_flows`` runs the per-row path
over a whole panel, one target at a time.
"""

from dataclasses import dataclass

import numpy as np

from infoflow import SingularCovarianceError, SingularInformationError
from infoflow.estimator import gaussian_quantile
from infoflow.stats import COND_LIMIT


@dataclass(frozen=True)
class RowMLE:
    """Fit of dX_i/dt = f_i + sum_j a_ij X_j + noise for one target row."""

    target: int
    f_hat: float
    a_hat: np.ndarray
    g_hat: float
    residual_ss: float


@dataclass(frozen=True)
class FisherBlock:
    """Observed information for one target row.

    Parameterization is theta = (f_i, a_i1, ..., a_id, b_i) with
    g_ii = b_i**2, giving a (d+2) x (d+2) matrix.  ``param_cov`` is
    (N * I)^{-1}, the asymptotic covariance of theta_hat.
    """

    target: int
    matrix: np.ndarray
    param_cov: np.ndarray

    def coef_var(self, j: int) -> float:
        """Variance of a_hat[target, j]."""
        return float(self.param_cov[1 + j, 1 + j])


def aligned_samples(panel, derived):
    """The first N - k panel columns, index-aligned with the derived series."""
    return panel.data[:, : derived.shape[1]], derived


def fit_row(stats, panel, derived, i, ridge=0.0) -> RowMLE:
    """Solve the normal equations (C + ridge I) a = Cd[:, i] for target row i."""
    C = stats.C + ridge * np.eye(panel.d)
    cond = np.linalg.cond(C)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularCovarianceError(f"condition number {cond:.3e}")
    a_hat = np.linalg.solve(C, stats.Cd[:, i])
    f_hat = float(stats.dot_means[i] - a_hat @ stats.means)
    x, dot = aligned_samples(panel, derived)
    residuals = dot[i] - f_hat - a_hat @ x
    residual_ss = float(residuals @ residuals)
    g_hat = residual_ss * panel.dt / stats.n_used
    return RowMLE(target=i, f_hat=f_hat, a_hat=a_hat, g_hat=g_hat,
                  residual_ss=residual_ss)


def fisher_block(panel, derived, row, i) -> FisherBlock:
    """Observed information matrix for target row i, at ``row``'s estimate.

    Per-sample transition log density (Euler-Bernstein approximation):

        l_n = -0.5 log(2 pi b^2 dt) - dt R_n^2 / (2 b^2)

    with residual R_n = dotX_{i,n} - f - a . X_n.  Entries are the
    analytic second derivatives averaged over samples, negated.
    """
    x, dot = aligned_samples(panel, derived)
    d, n = x.shape
    dt = panel.dt
    b2 = row.g_hat
    if b2 <= 0.0:
        raise SingularInformationError(f"target {i}: residual variance is zero")
    b = np.sqrt(b2)
    resid = dot[i] - row.f_hat - row.a_hat @ x

    u = np.vstack([np.ones(n), x])  # (d+1, n) regressor rows (1, X_1..X_d)
    I = np.zeros((d + 2, d + 2))
    I[: d + 1, : d + 1] = (dt / b2) * (u @ u.T) / n
    cross = (2.0 * dt / (b * b2)) * (u @ resid) / n
    I[: d + 1, d + 1] = cross
    I[d + 1, : d + 1] = cross
    I[d + 1, d + 1] = -1.0 / b2 + 3.0 * dt * (resid @ resid) / (b2 * b2 * n)
    return FisherBlock(target=i, matrix=I, param_cov=np.linalg.inv(I) / n)


def cofactor_solution(stats, i):
    """Explicit cofactor expansion of the normal equations.

    a_hat[j] = (1 / det C) * sum_l Delta[j, l] * C[l, di] with Delta the
    cofactor matrix of C.  O(d!) via minors; only usable for small d.
    """
    C = stats.C
    d = C.shape[0]
    delta = np.empty((d, d))
    for r in range(d):
        for c in range(d):
            minor = np.delete(np.delete(C, r, axis=0), c, axis=1)
            delta[r, c] = (-1) ** (r + c) * np.linalg.det(minor)
    return delta.T @ stats.Cd[:, i] / np.linalg.det(C)


@np.errstate(invalid="ignore")  # an indefinite I gives negative variances
def reference_flows(stats, panel, derived, alpha=0.90, ridge=0.0) -> dict:
    """Flow matrix, stderrs, node terms and verdicts from the per-row path.

    Pairwise arrays are indexed [source, target] with zero diagonals.
    ``min_info_eig`` holds each row's smallest information eigenvalue.
    """
    d = panel.d
    C = stats.C
    z = gaussian_quantile((1.0 + alpha) / 2.0)
    out = {name: np.zeros((d, d)) for name in ("T", "stderr")}
    out["significant"] = np.zeros((d, d), dtype=bool)
    for name in ("self", "self_stderr", "noise_rate", "min_info_eig"):
        out[name] = np.zeros(d)
    out["self_loop"] = np.zeros(d, dtype=bool)
    for i in range(d):
        row = fit_row(stats, panel, derived, i, ridge=ridge)
        fb = fisher_block(panel, derived, row, i)
        out["min_info_eig"][i] = np.linalg.eigvalsh(fb.matrix)[0]
        var = np.diag(fb.param_cov)[1 : d + 1]
        for j in range(d):
            if j != i:
                t = row.a_hat[j] * C[i, j] / C[i, i]
                se = abs(C[i, j] / C[i, i]) * np.sqrt(var[j])
                out["T"][j, i] = t
                out["stderr"][j, i] = se
                out["significant"][j, i] = (t - z * se) > 0.0 or (t + z * se) < 0.0
        a_ii, se_ii = row.a_hat[i], np.sqrt(var[i])
        out["self"][i] = a_ii
        out["self_stderr"][i] = se_ii
        out["self_loop"][i] = (a_ii - z * se_ii) > 0.0 or (a_ii + z * se_ii) < 0.0
        out["noise_rate"][i] = row.g_hat / (2.0 * C[i, i])
    return out
