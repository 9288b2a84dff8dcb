"""Benchmark data generators.

Two reference systems are built in:

* a 6-variable VAR(1) network with two driven cycles and a confounder,
  available at noise amplitudes 1 and 100 and in a short-series variant;
* three one-way coupled Rossler oscillators (9 state variables), where
  the master X drives the first component of each slave (Y, Z) with
  strength epsilon, integrated with Heun's second-order Runge-Kutta.

Randomness flows from numpy's seeded PCG64 generator (normal variates
via the ziggurat transform), so identical specs produce byte-identical
panels on a given numpy/BLAS build (the VAR step's ``A @ x`` sums in the
order the BLAS kernel chooses).
"""

from __future__ import annotations

import warnings
from array import array
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DivergenceError
from .estimator import DEFAULT_ALPHA, estimate_flows
from .stats import TimeSeriesPanel

# 6-node benchmark network: cycles (1,2,3) and (4,5), confounder X6.
VAR6_A = np.array(
    [
        [0.0, 0.0, -0.6, 0.0, 0.0, 0.0],
        [-0.5, 0.0, 0.0, 0.0, 0.0, 0.8],
        [0.0, 0.7, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.7, 0.4, 0.0],
        [0.0, 0.0, 0.0, 0.2, 0.0, 0.7],
        [0.0, 0.0, 0.0, 0.0, 0.0, -0.5],
    ]
)
VAR6_ALPHA = np.array([0.1, 0.7, 0.5, 0.2, 0.8, 0.3])

# True edge set of the VAR6 network, as 1-based (source, target) pairs.
VAR6_EDGES = frozenset(
    {(1, 2), (2, 3), (3, 1), (4, 5), (5, 4), (6, 2), (6, 5)}
)

DIVERGENCE_LIMIT = 1e6


@dataclass(frozen=True)
class VarSpec:
    """VAR(1) process X(n+1) = alpha_vec + A X(n) + diag(b_diag) e(n+1)."""

    A: np.ndarray
    alpha_vec: np.ndarray
    b_diag: np.ndarray
    N: int
    burn_in: int = 1000
    seed: int = 0

    def __post_init__(self):
        for name in ("A", "alpha_vec", "b_diag"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def d(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class RosslerSpec:
    """Three coupled Rossler oscillators, one-way driven by the first."""

    omega: tuple = (1.015, 0.985, 0.95)
    epsilon: float = 0.0
    dt: float = 0.001
    N_total: int = 50000
    burn_in: int = 10000
    seed: int = 0

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not 0 <= self.burn_in < self.N_total:
            raise ValueError("need 0 <= burn_in < N_total")


def simulate_var(spec: VarSpec) -> TimeSeriesPanel:
    """Generate a VAR(1) panel (dt = 1), discarding the burn-in segment."""
    radius = float(np.max(np.abs(np.linalg.eigvals(spec.A))))
    if radius >= 1.0:
        warnings.warn(
            f"VAR transition matrix has spectral radius {radius:.3f} >= 1; "
            "the process is not stationary",
            stacklevel=2,
        )
    rng = np.random.default_rng(spec.seed)
    d = spec.d
    total = spec.N + spec.burn_in
    noise = spec.b_diag[None, :] * rng.standard_normal((total, d))
    x = rng.standard_normal(d)
    out = np.empty((total, d))
    for n in range(total):
        x = spec.alpha_vec + spec.A @ x + noise[n]
        out[n] = x
    if not np.all(np.isfinite(out)):
        raise DivergenceError("VAR trajectory diverged to non-finite values")
    return TimeSeriesPanel(data=out[spec.burn_in :].T, dt=1.0)


ROSSLER_LABELS = ("x1", "x2", "x3", "y1", "y2", "y3", "z1", "z2", "z3")

# Rows of the 9-variable panel holding the first component of each
# oscillator (x1, y1, z1), conventionally used to represent X, Y, Z.
ROSSLER_OSCILLATOR_ROWS = (0, 3, 6)


def simulate_rossler(spec: RosslerSpec) -> TimeSeriesPanel:
    """Integrate the coupled Rossler system and return the 9-row panel.

    Heun's predictor-corrector scheme (explicit trapezoidal RK2) with
    step dt; initial state uniform in [0, 1]^9 from the seed; the first
    burn_in steps are discarded.

    The step runs on Python floats in a fixed operation order: k2 is
    evaluated at s + dt*k1 and the update is s + (0.5*dt)*(k1 + k2), so
    the trajectory is IEEE-identical to the same scheme on float64
    arrays.
    """
    rng = np.random.default_rng(spec.seed)
    x1, x2, x3, y1, y2, y3, z1, z2, z3 = rng.uniform(0.0, 1.0, 9).tolist()
    w1, w2, w3 = (float(w) for w in spec.omega)
    eps = float(spec.epsilon)
    dt = float(spec.dt)
    half_dt = 0.5 * dt
    lim = DIVERGENCE_LIMIT
    out = array("d")
    for n in range(spec.N_total):
        a1 = -w1 * x2 - x3
        a2 = w1 * x1 + 0.15 * x2
        a3 = 0.2 + x3 * (x1 - 10.0)
        a4 = -w2 * y2 - y3 + eps * (x1 - y1)
        a5 = w2 * y1 + 0.15 * y2
        a6 = 0.2 + y3 * (y1 - 10.0)
        a7 = -w3 * z2 - z3 + eps * (x1 - z1)
        a8 = w3 * z1 + 0.15 * z2
        a9 = 0.2 + z3 * (z1 - 10.0)
        p1 = x1 + dt * a1
        p2 = x2 + dt * a2
        p3 = x3 + dt * a3
        p4 = y1 + dt * a4
        p5 = y2 + dt * a5
        p6 = y3 + dt * a6
        p7 = z1 + dt * a7
        p8 = z2 + dt * a8
        p9 = z3 + dt * a9
        x1 = x1 + half_dt * (a1 + (-w1 * p2 - p3))
        x2 = x2 + half_dt * (a2 + (w1 * p1 + 0.15 * p2))
        x3 = x3 + half_dt * (a3 + (0.2 + p3 * (p1 - 10.0)))
        y1 = y1 + half_dt * (a4 + (-w2 * p5 - p6 + eps * (p1 - p4)))
        y2 = y2 + half_dt * (a5 + (w2 * p4 + 0.15 * p5))
        y3 = y3 + half_dt * (a6 + (0.2 + p6 * (p4 - 10.0)))
        z1 = z1 + half_dt * (a7 + (-w3 * p8 - p9 + eps * (p1 - p7)))
        z2 = z2 + half_dt * (a8 + (w3 * p7 + 0.15 * p8))
        z3 = z3 + half_dt * (a9 + (0.2 + p9 * (p7 - 10.0)))
        # Component by component, so that a NaN anywhere fails the test.
        if not (abs(x1) < lim and abs(x2) < lim and abs(x3) < lim
                and abs(y1) < lim and abs(y2) < lim and abs(y3) < lim
                and abs(z1) < lim and abs(z2) < lim and abs(z3) < lim):
            raise DivergenceError(
                f"Rossler trajectory diverged at step {n} (|state| > {DIVERGENCE_LIMIT:g})"
            )
        out.extend((x1, x2, x3, y1, y2, y3, z1, z2, z3))
    data = np.frombuffer(out, dtype=np.float64).reshape(spec.N_total, 9)
    return TimeSeriesPanel(
        data=data[spec.burn_in :].T, dt=spec.dt, labels=ROSSLER_LABELS
    )


# Ordered pairs reported by the epsilon sweep, as (source, target)
# indices into ROSSLER_OSCILLATOR_ROWS.
SWEEP_PAIRS = (
    ("X", "Y", 0, 1),
    ("Y", "X", 1, 0),
    ("X", "Z", 0, 2),
    ("Z", "X", 2, 0),
    ("Y", "Z", 1, 2),
    ("Z", "Y", 2, 1),
)


@dataclass(frozen=True)
class SweepPoint:
    """Pairwise oscillator flows at one coupling strength.

    ``abs_T["X->Y"]`` is |T| from oscillator X to oscillator Y;
    ``significant`` holds the matching z-test verdicts.
    """

    epsilon: float
    abs_T: dict = field(default_factory=dict)
    significant: dict = field(default_factory=dict)


def sweep_epsilon(base: RosslerSpec, eps_grid, alpha: float = DEFAULT_ALPHA):
    """Flow-vs-coupling table over a grid of epsilon values.

    For each epsilon the full 9-variable system is simulated and
    analyzed with stride k=2 (deterministic chaos at full sampling
    resolution), and the six pairwise flows among the oscillator
    representatives (x1, y1, z1) are recorded.  Fitting all 9 state
    series keeps the slave equations linear in the regressors, which is
    what lets the one-way coupling survive synchronization.
    """
    points = []
    for eps in eps_grid:
        spec = replace(base, epsilon=float(eps))
        panel = simulate_rossler(spec)
        matrix = estimate_flows(panel, k=2, alpha=alpha)
        abs_T = {}
        sig = {}
        for src, dst, a, b in SWEEP_PAIRS:
            pair = (ROSSLER_OSCILLATOR_ROWS[a], ROSSLER_OSCILLATOR_ROWS[b])
            abs_T[f"{src}->{dst}"] = abs(float(matrix.T[pair]))
            sig[f"{src}->{dst}"] = bool(matrix.significant[pair])
        points.append(SweepPoint(epsilon=float(eps), abs_T=abs_T, significant=sig))
    return points


def _var6_spec(b: float, N: int, seed: int) -> VarSpec:
    return VarSpec(
        A=VAR6_A,
        alpha_vec=VAR6_ALPHA,
        b_diag=np.full(6, b),
        N=N,
        burn_in=1000,
        seed=seed,
    )


# Benchmark presets: name -> (builder(seed, epsilon), default stride k).
PRESETS = {
    "var6-b1": (lambda seed, eps: simulate_var(_var6_spec(1.0, 10000, seed)), 1),
    "var6-b100": (lambda seed, eps: simulate_var(_var6_spec(100.0, 10000, seed)), 1),
    "var6-b100-short": (lambda seed, eps: simulate_var(_var6_spec(100.0, 500, seed)), 1),
    "rossler": (
        lambda seed, eps: simulate_rossler(
            RosslerSpec(seed=seed, epsilon=0.0 if eps is None else eps)
        ),
        2,
    ),
}


def preset_panel(name: str, seed: int = 0, epsilon: float | None = None):
    """Generate a named benchmark panel; returns (panel, default_k)."""
    if name not in PRESETS:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    if epsilon is not None and not name.startswith("rossler"):
        raise ValueError("--epsilon applies only to the rossler preset")
    builder, k = PRESETS[name]
    return builder(seed, epsilon), k
