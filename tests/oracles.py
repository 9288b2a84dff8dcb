"""Per-row reference implementations the closed-form estimator is checked against.

``fit_row`` solves the normal equations of one target row, ``fisher_block``
assembles and inverts that row's general (d+2)-square observed
information matrix from analytic second derivatives (no vanishing cross
terms assumed), and ``cofactor_solution`` solves the normal equations by
explicit cofactor expansion.  ``reference_flows`` runs the per-row path
over a whole panel, one target at a time.  ``reference_rossler`` is the
coupled-Rossler Heun integrator on float64 arrays.  ``reference_to_json``
is the graph artifact as ``json.dumps(doc, indent=2)`` writes it.
``reference_read_rows`` is the row-at-a-time CSV panel reader whose
acceptance rule and messages ``cli.read_csv_panel`` must reproduce.
"""

import csv
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from infoflow import (
    DivergenceError,
    ParseError,
    SingularCovarianceError,
    SingularInformationError,
)
from infoflow.estimator import gaussian_quantile
from infoflow.graph import SCHEMA_VERSION
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


def _rossler_rhs(s, omega, eps):
    x1, x2, x3, y1, y2, y3, z1, z2, z3 = s
    w1, w2, w3 = omega
    return np.array(
        [
            -w1 * x2 - x3,
            w1 * x1 + 0.15 * x2,
            0.2 + x3 * (x1 - 10.0),
            -w2 * y2 - y3 + eps * (x1 - y1),
            w2 * y1 + 0.15 * y2,
            0.2 + y3 * (y1 - 10.0),
            -w3 * z2 - z3 + eps * (x1 - z1),
            w3 * z1 + 0.15 * z2,
            0.2 + z3 * (z1 - 10.0),
        ]
    )


def reference_rossler(spec, limit=1e6) -> np.ndarray:
    """(9, N_total - burn_in) Heun trajectory of ``spec``, one array RHS per stage."""
    rng = np.random.default_rng(spec.seed)
    s = rng.uniform(0.0, 1.0, 9)
    dt = spec.dt
    out = np.empty((spec.N_total, 9))
    for n in range(spec.N_total):
        k1 = _rossler_rhs(s, spec.omega, spec.epsilon)
        k2 = _rossler_rhs(s + dt * k1, spec.omega, spec.epsilon)
        s = s + 0.5 * dt * (k1 + k2)
        if not np.all(np.abs(s) < limit):
            raise DivergenceError(f"Rossler trajectory diverged at step {n}")
        out[n] = s
    return out[spec.burn_in :].T


def reference_to_json(graph) -> str:
    """The JSON artifact of ``graph``, formatted by ``json.dumps(doc, indent=2)``."""
    doc = {
        "meta": {
            "d": len(graph.nodes),
            "N": graph.n,
            "dt": graph.dt,
            "k": graph.k,
            "alpha": graph.alpha,
            "schema_version": SCHEMA_VERSION,
        },
        "nodes": [
            {
                "label": node.label,
                "self_influence": node.self_influence,
                "self_stderr": node.self_stderr,
                "is_self_loop": node.is_self_loop,
                "noise_rate": node.noise_rate,
            }
            for node in graph.nodes
        ],
        "flow_matrix": [list(row) for row in graph.flow_matrix],
        "edges": [
            {
                "source": edge.source,
                "target": edge.target,
                "T": edge.T,
                "stderr": edge.stderr,
                "p": edge.p,
                "tau": edge.tau,
            }
            for edge in graph.edges
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def reference_read_rows(path: str):
    """(labels, data) parsed one row at a time, raising ParseError on bad input."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = _csv_rows(fh, path)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if len(header) < 3:
            raise ParseError(
                f"{path}: need a time column plus at least 2 variable columns, "
                f"got {len(header)} columns"
            )
        labels = tuple(name.strip() for name in header[1:])
        rows = []
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(header):
                raise ParseError(
                    f"{path}: row {lineno} has {len(cells)} cells, "
                    f"expected {len(header)}"
                )
            values = []
            for col, cell in enumerate(cells[1:], start=2):
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: row {lineno}, column {col}: "
                        f"non-numeric cell {cell.strip()!r}"
                    ) from None
                if not math.isfinite(value):
                    raise ParseError(
                        f"{path}: row {lineno}, column {col}: non-finite value"
                    )
                values.append(value)
            rows.append(values)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return labels, np.array(rows).T


def _csv_rows(fh, path: str):
    """The rows of ``csv.reader(fh)``; a csv.Error becomes a ParseError naming the row."""
    reader = csv.reader(fh)
    for lineno in itertools.count(1):
        try:
            cells = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ParseError(f"{path}: row {lineno}: {exc}") from None
        yield cells
