"""Independent closed-form oracle for the flow estimator, and output checks.

At the exact MLE the normal equations force sum(u * resid) = 0, so the
Fisher block's (coef, b) cross terms vanish and the coefficient block
inverts to C^-1 by a Schur complement.  The whole estimator is then a few
matrix operations (ROADMAP item 1)::

    A    = solve(C, Cd).T
    R    = dc - A xc
    g    = rowsum(R^2) dt / n
    T    = A^T o C / diag(C)
    se   = |C / diag(C)| o sqrt(diag(C^-1) (x) g / (dt n))

The program fits each row and inverts a (d+2)-square Fisher block whose
cross terms are zero only up to rounding, so the two agree to rounding
error, and the tolerances follow the error analysis of each quantity:

* T and the self-influences are solves with C.  They agree to <=6e-15
  relative (norm-wise) on VAR6, the wide panels and Rossler, whose
  cond(C) reaches 4e8.  ``RTOL`` = 1e-9 admits that, and the <=4e-11
  ROADMAP saw on Rossler, while any error in a formula (a wrong divisor,
  a transposed index, n vs n-1) moves values by 1e-4 relative or more.
* g, and with it the noise rates and every stderr, is a sum of squared
  residuals.  Where the linear model fits almost exactly (the linear
  equations of the Rossler system, residuals ~1e-7 of the derivative)
  the residual cancels terms ``amp`` times larger than itself, and g
  carries a relative error of about eps * amp: measured <=2.5 eps * amp
  on Rossler and VAR6.  These values get ``RTOL + AMP_SLACK * eps * amp``
  per target, which is RTOL on VAR6 and the wide panels (amp < 10) and
  up to ~1e-4 on the Rossler nodes whose g is only that well determined
  in double precision.

A verdict may differ from the oracle's only where the oracle's margin
|T| - z*se lies within those tolerances of zero; such cases are counted
as ``borderline`` and reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

RTOL = 1e-9
AMP_SLACK = 16
EPS = np.finfo(float).eps


@dataclass
class ClosedForm:
    T: np.ndarray          # T[j, i] = flow j -> i
    se: np.ndarray         # stderr of T[j, i]
    self_influence: np.ndarray
    self_se: np.ndarray
    noise_rate: np.ndarray
    amp: np.ndarray        # residual cancellation factor per target


def closed_form(data: np.ndarray, dt: float, k: int) -> ClosedForm:
    data = np.asarray(data, dtype=float)
    x = data[:, :-k]
    dot = (data[:, k:] - data[:, :-k]) / (k * dt)
    n = x.shape[1]
    xc = x - x.mean(axis=1, keepdims=True)
    dc = dot - dot.mean(axis=1, keepdims=True)
    C = xc @ xc.T / n
    Cd = xc @ dc.T / n
    A = np.linalg.solve(C, Cd).T
    R = dc - A @ xc
    g = np.einsum("ij,ij->i", R, R) * dt / n
    cii = np.diag(C)
    cinv = np.diag(np.linalg.inv(C))
    f = dot.mean(axis=1) - A @ x.mean(axis=1)
    terms = (np.linalg.norm(dot, axis=1) + np.sqrt(n) * np.abs(f)
             + np.abs(A) @ np.linalg.norm(x, axis=1))
    return ClosedForm(
        T=A.T * C / cii,
        se=np.abs(C / cii) * np.sqrt(np.outer(cinv, g) / (dt * n)),
        self_influence=np.diag(A).copy(),
        self_se=np.sqrt(cinv * g / (dt * n)),
        noise_rate=g / (2.0 * cii),
        amp=terms / np.sqrt(np.einsum("ij,ij->i", R, R)),
    )


def _close(name, got, want, rtol=RTOL, normwise=False) -> list:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = np.max(np.abs(want)) if normwise else np.abs(want)
    err = np.abs(got - want)
    bad = err > rtol * scale
    if np.any(bad):
        worst = float(np.max(err / np.maximum(scale, np.finfo(float).tiny)))
        return [f"{name}: {int(bad.sum())} values off by up to {worst:.3e} relative"]
    return []


def check_graph(graph, data, dt: float, k: int, alpha: float, truth=None) -> tuple:
    """Compare a CausalGraph with the oracle; return (failures, quality).

    Checks every flow T, the stderr of every reported edge and node, the
    noise rates, and every significance verdict (edges and self-loops).
    A verdict may differ only where the oracle's margin |T| - z*se is
    within the value tolerance of zero (counted as ``borderline``).
    ``truth`` is a set of 0-based (source, target) pairs, or None.
    """
    ref = closed_form(data, dt, k)
    d = ref.T.shape[0]
    z = NormalDist().inv_cdf((1.0 + alpha) / 2.0)
    off = ~np.eye(d, dtype=bool)
    fails = []
    if (graph.n, graph.k, graph.dt, graph.alpha) != (data.shape[1], k, dt, alpha):
        fails.append(f"meta mismatch: n={graph.n} k={graph.k} dt={graph.dt} alpha={graph.alpha}")
    fm = graph.flow_matrix
    if any(fm[i][i] is not None for i in range(d)):
        fails.append("flow_matrix diagonal is not None")
    T = np.array([[0.0 if j == i else fm[j][i] for i in range(d)] for j in range(d)])
    fails += _close("T", T[off], ref.T[off], normwise=True)

    # Relative tolerance of g-derived values, per target.
    gtol = RTOL + AMP_SLACK * EPS * ref.amp
    index = {label: i for i, label in enumerate(graph.labels)}
    edges = {(index[e.source], index[e.target]): e for e in graph.edges}
    margin = np.abs(ref.T) - z * ref.se
    tol = RTOL * np.max(np.abs(ref.T[off])) + z * ref.se * gtol
    want = {(int(j), int(i)) for j, i in zip(*np.nonzero(off & (margin > 0)))}
    flips = set(edges) ^ want
    hard = [p for p in flips if abs(margin[p]) > tol[p]]
    if hard:
        fails.append(f"{len(hard)} edge verdicts differ, e.g. {sorted(hard)[:3]}")
    if edges:
        keys = sorted(edges)
        pairs = tuple(np.array(keys).T)
        fails += _close("edge T", [edges[p].T for p in keys], T[pairs])
        fails += _close("edge stderr", [edges[p].stderr for p in keys], ref.se[pairs],
                        rtol=gtol[pairs[1]])

    nodes = graph.nodes
    fails += _close("self_influence", [n.self_influence for n in nodes], ref.self_influence,
                    normwise=True)
    fails += _close("self_stderr", [n.self_stderr for n in nodes], ref.self_se, rtol=gtol)
    fails += _close("noise_rate", [n.noise_rate for n in nodes], ref.noise_rate, rtol=gtol)
    self_margin = np.abs(ref.self_influence) - z * ref.self_se
    self_tol = RTOL * np.max(np.abs(ref.self_influence)) + z * ref.self_se * gtol
    loops = np.array([n.is_self_loop for n in nodes])
    loop_flips = np.nonzero(loops != (self_margin > 0))[0]
    hard_loops = [i for i in loop_flips if abs(self_margin[i]) > self_tol[i]]
    if hard_loops:
        fails.append(f"self-loop verdicts differ at nodes {hard_loops}")

    quality = {"flows": d * (d - 1), "edges": len(edges),
               "borderline": len(flips) - len(hard) + len(loop_flips) - len(hard_loops)}
    if truth is not None:
        got = set(edges)
        quality.update(true=len(truth), hits=len(got & truth),
                       nulls=d * (d - 1) - len(truth), false=len(got - truth))
    return fails, quality


def check_roundtrip(api, graph, text: str) -> list:
    """``from_json(to_json(g)) == g`` by value."""
    back = api.from_json(text)
    return [] if back == graph else ["from_json(to_json(g)) != g"]
