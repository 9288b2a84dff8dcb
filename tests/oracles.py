"""Reference implementations the program is checked against.

``derive_series`` is the paper's derived series, the stride-k difference
quotient (X[:, n + k] - X[:, n]) / (k dt), and ``compute_statistics``
the sample moments over the N - k aligned samples.  ``fit_row`` solves
the normal equations of one target row, ``fisher_block`` assembles and
inverts that row's general (d+2)-square observed information matrix from
analytic second derivatives (no vanishing cross terms assumed), and
``cofactor_solution`` solves the normal equations by explicit cofactor
expansion.  ``reference_flows`` runs the per-row path over a whole
panel, one target at a time.  ``reference_z``, ``reference_ci`` and
``reference_p`` are the z-test as CI arithmetic on
``statistics.NormalDist`` and ``math.erfc``; the estimator and
``graph.build_graph`` use the same two formulas, which agreement cannot
check, so ``test_tabulated_values`` and
``test_p_value_matches_quantile`` pin them by hand values.
``reference_normalize`` is the per-target normalization of a flow
matrix.  ``reference_var`` is the VAR(1) recurrence one ``A @ x`` step
at a time, ``reference_rossler`` the coupled-Rossler Heun integrator on
float64 arrays, ``reference_doc`` the graph artifact's schema v2
document built field by field, and ``reference_read_rows`` the
row-at-a-time CSV panel reader whose acceptance rule and messages
``cli.read_csv_panel`` must reproduce.
"""

import csv
import itertools
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from infoflow import DivergenceError
from infoflow.graph import SCHEMA_VERSION


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


def derive_series(panel, k=1) -> np.ndarray:
    """Forward differences with stride k, (X[i, n+k] - X[i, n]) / (k * dt),
    shape (d, N - k); column n is aligned with panel column n."""
    x = panel.data
    return (x[:, k:] - x[:, :-k]) / (k * panel.dt)


def compute_statistics(panel, derived) -> StatisticsBundle:
    """Means and covariance matrices over the samples aligned with ``derived``."""
    n_used = derived.shape[-1]
    x = panel.data[:, :n_used]
    means = x.mean(axis=1)
    dot_means = derived.mean(axis=1)
    xc = x - means[:, None]
    dc = derived - dot_means[:, None]
    C = (xc @ xc.T) / n_used
    Cd = (xc @ dc.T) / n_used
    return StatisticsBundle(means=means, dot_means=dot_means, C=C, Cd=Cd, n_used=n_used)


@dataclass(frozen=True)
class RowMLE:
    """Fit of dX_i/dt = f_i + sum_j a_ij X_j + noise for one target row."""

    f_hat: float
    a_hat: np.ndarray
    g_hat: float


@dataclass(frozen=True)
class FisherBlock:
    """Observed information for one target row.

    Parameterization is theta = (f_i, a_i1, ..., a_id, b_i) with
    g_ii = b_i**2, giving a (d+2) x (d+2) matrix.  ``param_cov`` is
    (N * I)^{-1}, the asymptotic covariance of theta_hat.
    """

    matrix: np.ndarray
    param_cov: np.ndarray

    def coef_var(self, j: int) -> float:
        """Variance of a_hat[j]."""
        return float(self.param_cov[1 + j, 1 + j])


def fit_row(stats, panel, derived, i) -> RowMLE:
    """Solve the normal equations C a = Cd[:, i] for target row i."""
    a_hat = np.linalg.solve(stats.C, stats.Cd[:, i])
    f_hat = float(stats.dot_means[i] - a_hat @ stats.means)
    x = panel.data[:, : stats.n_used]  # aligned with the derived series
    residuals = derived[i] - f_hat - a_hat @ x
    g_hat = float(residuals @ residuals) * panel.dt / stats.n_used
    return RowMLE(f_hat=f_hat, a_hat=a_hat, g_hat=g_hat)


def fisher_block(panel, derived, row, i) -> FisherBlock:
    """Observed information matrix for target row i, at ``row``'s estimate.

    Per-sample transition log density (Euler-Bernstein approximation):

        l_n = -0.5 log(2 pi b^2 dt) - dt R_n^2 / (2 b^2)

    with residual R_n = dotX_{i,n} - f - a . X_n.  Entries are the
    analytic second derivatives averaged over samples, negated.
    """
    x = panel.data[:, : derived.shape[1]]  # aligned with the derived series
    d, n = x.shape
    dt = panel.dt
    b2 = row.g_hat
    b = np.sqrt(b2)
    resid = derived[i] - row.f_hat - row.a_hat @ x

    u = np.vstack([np.ones(n), x])  # (d+1, n) regressor rows (1, X_1..X_d)
    I = np.zeros((d + 2, d + 2))
    I[: d + 1, : d + 1] = (dt / b2) * (u @ u.T) / n
    cross = (2.0 * dt / (b * b2)) * (u @ resid) / n
    I[: d + 1, d + 1] = cross
    I[d + 1, : d + 1] = cross
    I[d + 1, d + 1] = -1.0 / b2 + 3.0 * dt * (resid @ resid) / (b2 * b2 * n)
    return FisherBlock(matrix=I, param_cov=np.linalg.inv(I) / n)


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


def reference_flows(stats, panel, derived, alpha=0.90) -> dict:
    """Flow matrix, stderrs, noise rates and verdicts from the per-row path.

    Pairwise arrays are indexed [source, target]; entry [i, i] is target i's
    self-influence a_ii, its stderr and its self-loop verdict.
    """
    d = panel.d
    C = stats.C
    z = reference_z(alpha)
    out = {name: np.zeros((d, d)) for name in ("T", "stderr")}
    out["significant"] = np.zeros((d, d), dtype=bool)
    out["noise_rate"] = np.zeros(d)
    for i in range(d):
        row = fit_row(stats, panel, derived, i)
        fb = fisher_block(panel, derived, row, i)
        var = np.diag(fb.param_cov)[1 : d + 1]
        for j in range(d):
            ratio = C[i, j] / C[i, i]
            t = row.a_hat[j] * ratio
            se = abs(ratio) * np.sqrt(var[j])
            out["T"][j, i] = t
            out["stderr"][j, i] = se
            out["significant"][j, i] = (t - z * se) > 0.0 or (t + z * se) < 0.0
        out["noise_rate"][i] = row.g_hat / (2.0 * C[i, i])
    return out


def reference_z(alpha: float) -> float:
    """Half-width of the two-sided CI at level alpha, in standard errors."""
    return NormalDist().inv_cdf((1.0 + alpha) / 2.0)


def reference_ci(value, stderr, alpha):
    """(ci_low, ci_high, significant) of the z-test, elementwise.

    A value is significant iff its CI excludes zero.
    """
    value, stderr = np.asarray(value, dtype=float), np.asarray(stderr, dtype=float)
    z = reference_z(alpha)
    low, high = value - z * stderr, value + z * stderr
    return low, high, (low > 0.0) | (high < 0.0)


def reference_p(value, stderr) -> np.ndarray:
    """Two-sided p of value / stderr, one ``math.erfc`` per element.

    A zero value has p = 1; a nonzero value with zero stderr has p = 0.
    """
    value, stderr = np.asarray(value, dtype=float), np.asarray(stderr, dtype=float)
    p = np.empty(value.shape)
    for idx, v in np.ndenumerate(value):
        se = float(stderr[idx])
        zabs = 0.0 if v == 0.0 else math.inf if se == 0.0 else abs(float(v) / se)
        p[idx] = math.erfc(zabs / math.sqrt(2.0))
    return p


def reference_normalize(T, noise_rate):
    """(Z, tau, noise_share) of a flow matrix ``T[source, target]``.

    Per target i, Z_i = sum_j |T[j, i]| + noise_rate_i, whose j = i term is
    the self-influence on the diagonal, tau = T / Z, and the noise share is
    noise_rate / Z.
    """
    T = np.asarray(T, dtype=float)
    noise = np.asarray(noise_rate, dtype=float)
    Z = np.abs(T).sum(axis=0) + noise
    return Z, T / Z, noise / Z


def reference_var(spec) -> np.ndarray:
    """(d, N) VAR(1) trajectory of ``spec``, stepped on a time-major buffer."""
    rng = np.random.default_rng(spec.seed)
    noise = spec.b_diag[None, :] * rng.standard_normal((spec.N + spec.burn_in, spec.d))
    x = rng.standard_normal(spec.d)
    rows = np.empty_like(noise)
    for n in range(len(rows)):
        x = spec.alpha_vec + spec.A @ x + noise[n]
        rows[n] = x
    return rows[spec.burn_in :].T


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


def reference_doc(graph) -> dict:
    """The schema v2 document of ``graph``: nodes and edges as columns, one list per field."""
    nodes, edges = graph.nodes, graph.edges
    return {
        "meta": {
            "d": len(nodes),
            "N": graph.n,
            "dt": graph.dt,
            "k": graph.k,
            "alpha": graph.alpha,
            "schema_version": SCHEMA_VERSION,
        },
        "nodes": {
            "label": [node.label for node in nodes],
            "self_influence": [node.self_influence for node in nodes],
            "self_stderr": [node.self_stderr for node in nodes],
            "is_self_loop": [node.is_self_loop for node in nodes],
            "noise_rate": [node.noise_rate for node in nodes],
        },
        "flow_matrix": [list(row) for row in graph.flow_matrix],
        "edges": {
            "source": [edge.source for edge in edges],
            "target": [edge.target for edge in edges],
            "T": [edge.T for edge in edges],
            "stderr": [edge.stderr for edge in edges],
            "p": [edge.p for edge in edges],
            "tau": [edge.tau for edge in edges],
        },
    }


def reference_read_rows(path: str):
    """(labels, data) parsed one row at a time, raising ValueError on bad input."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = _csv_rows(fh, path)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if len(header) < 2:
            raise ValueError(f"{path}: need a time column plus at least 1 variable column")
        labels = tuple(name.strip() for name in header[1:])
        rows = []
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(header):
                raise ValueError(
                    f"{path}: row {lineno} has {len(cells)} cells, "
                    f"expected {len(header)}"
                )
            values = []
            for col, cell in enumerate(cells[1:], start=2):
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}: row {lineno}, column {col}: "
                        f"non-numeric cell {cell.strip()!r}"
                    ) from None
                if not math.isfinite(value):
                    raise ValueError(
                        f"{path}: row {lineno}, column {col}: non-finite value"
                    )
                values.append(value)
            rows.append(values)
    return labels, np.array(rows, dtype=float).reshape(-1, len(labels)).T


def _csv_rows(fh, path: str):
    """The rows of ``csv.reader(fh)``; a csv.Error becomes a ValueError naming the row."""
    reader = csv.reader(fh)
    for lineno in itertools.count(1):
        try:
            cells = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ValueError(f"{path}: row {lineno}: {exc}") from None
        yield cells
