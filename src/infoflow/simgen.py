"""Benchmark data generators.

Two reference systems are built in:

* a 6-variable VAR(1) network with two driven cycles and a confounder,
  available at noise amplitudes 1 and 100 and in a short-series variant;
* three one-way coupled Rossler oscillators (9 state variables), where
  the master X drives the first component of each slave (Y, Z) with
  strength epsilon, integrated with Heun's second-order Runge-Kutta.

Randomness flows from numpy's seeded PCG64 generator (normal variates
via the ziggurat transform), so identical specs produce byte-identical
panels on a given numpy/BLAS build.  The VAR recurrence is solved in
blocks of matrix-matrix products (see ``simulate_var``), whose sums run
in the order the BLAS kernel chooses; its panels agree with a
step-by-step loop to rounding.
"""

from __future__ import annotations

import math
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .stats import TimeSeriesPanel, check_array, check_count, check_dt, check_number

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
VAR6_A.flags.writeable = VAR6_ALPHA.flags.writeable = False

# True edge set of the VAR6 network, as 1-based (source, target) pairs:
# A[i, j] != 0 off the diagonal is an edge j -> i.
VAR6_EDGES = frozenset(
    (int(j) + 1, int(i) + 1) for i, j in zip(*np.nonzero(VAR6_A)) if i != j
)

DIVERGENCE_LIMIT = 1e6


@dataclass(frozen=True)
class VarSpec:
    """VAR(1) process X(n+1) = alpha_vec + A X(n) + diag(b_diag) e(n+1), with arrays under
    ``check_array`` and integers N >= 1, burn_in >= 0 and seed >= 0 under ``check_count``."""

    A: np.ndarray
    alpha_vec: np.ndarray
    b_diag: np.ndarray
    N: int
    burn_in: int = 1000
    seed: int = 0

    def __post_init__(self):
        for name in ("A", "alpha_vec", "b_diag"):
            object.__setattr__(self, name, check_array(name, getattr(self, name)))
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise ValueError(f"A must be a square 2-D matrix, got shape {self.A.shape}")
        for name in ("alpha_vec", "b_diag"):
            shape = getattr(self, name).shape
            if shape != (self.d,):
                raise ValueError(f"{name} must have shape ({self.d},), got {shape}")
        check_count("N", self.N, 1)
        check_count("burn_in", self.burn_in, 0)
        check_count("seed", self.seed, 0)

    @property
    def d(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class RosslerSpec:
    """Three coupled Rossler oscillators, one-way driven by the first; dt (``check_dt``) and
    epsilon finite numbers (``check_number``), omega 3 entries (``check_array``, kept as a
    tuple of floats), and N_total >= 1, burn_in in [0, N_total), seed >= 0 (``check_count``)."""

    omega: tuple = (1.015, 0.985, 0.95)
    epsilon: float = 0.0
    dt: float = 0.001
    N_total: int = 50000
    burn_in: int = 10000
    seed: int = 0

    def __post_init__(self):
        check_dt(self.dt)
        epsilon = check_number("epsilon", self.epsilon)
        if not math.isfinite(epsilon):
            raise ValueError(f"epsilon must be finite, got {epsilon}")
        omega = check_array("omega", self.omega)
        if omega.shape != (3,):
            raise ValueError(f"omega must have shape (3,), got {omega.shape}")
        object.__setattr__(self, "omega", tuple(omega.tolist()))
        check_count("N_total", self.N_total, 1)
        check_count("burn_in", self.burn_in, 0, self.N_total)
        check_count("seed", self.seed, 0)


def simulate_var(spec: VarSpec) -> TimeSeriesPanel:
    """Generate a VAR(1) panel (dt = 1), discarding the burn-in segment.

    The noise e_1..e_T (T = N + burn_in, time-major) is drawn first and the
    initial state x_0 after it.  x_n = A x_{n-1} + u_n, u_n = alpha + b e_n,
    is then solved in B blocks of L = isqrt(T // 2) steps, a blocked prefix
    scan: every block runs the recurrence from a zero state at once (L - 1
    products of a (B, d) slice with A^T), the end state of each block is
    carried into the next with A^L, and A^(j+1) times the carried state is
    added to row j of each later block (L - 1 more products).  The sums
    therefore run in a different order from a step-by-step loop, and the
    two agree to a few units in the last place of max |x|.
    """
    radius = float(np.max(np.abs(np.linalg.eigvals(spec.A))))
    if radius >= 1.0:
        warnings.warn(
            f"VAR transition matrix has spectral radius {radius:.3f} >= 1; "
            "the process is not stationary",
            stacklevel=2,
        )
    rng = np.random.default_rng(spec.seed)
    A, d = spec.A, spec.d
    total = spec.N + spec.burn_in
    L = max(1, math.isqrt(total // 2))
    B = -(-total // L)
    buf = np.empty((B * L, d))
    u = buf[:total]
    buf[total:] = 0.0  # padding rows feed only padding rows, but must be finite
    rng.standard_normal(out=u)
    u *= spec.b_diag
    u += spec.alpha_vec
    u[0] += A @ rng.standard_normal(d)
    y = buf.reshape(B, L, d)  # y[b, j] is row b * L + j
    for j in range(1, L):
        y[:, j] += y[:, j - 1] @ A.T
    ends = y[:, L - 1]
    carry = np.linalg.matrix_power(A, L).T
    for b in range(1, B):
        ends[b] += ends[b - 1] @ carry
    fix = ends[:-1]
    for j in range(L - 1):
        fix = fix @ A.T
        y[1:, j] += fix
    if not np.all(np.isfinite(u)):
        raise DivergenceError("VAR trajectory diverged to non-finite values")
    return TimeSeriesPanel(data=u[spec.burn_in :].T, dt=1.0)


ROSSLER_LABELS = ("x1", "x2", "x3", "y1", "y2", "y3", "z1", "z2", "z3")

# Rows of the 9-variable panel holding the first component of each
# oscillator (x1, y1, z1), conventionally used to represent X, Y, Z.
ROSSLER_OSCILLATOR_ROWS = (0, 3, 6)


def simulate_rossler(spec: RosslerSpec) -> TimeSeriesPanel:
    """Integrate the coupled Rossler system and return the 9-row panel.

    Heun's predictor-corrector scheme (explicit trapezoidal RK2) with
    step dt; initial state uniform in [0, 1]^9 from the seed; the first
    burn_in steps are discarded.

    The vector field is written once, as ``field``, with omega, -omega and
    epsilon bound as its default arguments for speed.  Each step runs on
    Python floats in a fixed operation order, k1 = field(s),
    k2 = field(s + dt*k1), s + (0.5*dt)*(k1 + k2), so the trajectory is
    IEEE-identical to the same scheme on float64 arrays.
    """
    rng = np.random.default_rng(spec.seed)
    x1, x2, x3, y1, y2, y3, z1, z2, z3 = rng.uniform(0.0, 1.0, 9).tolist()
    w1, w2, w3 = spec.omega
    dt = float(spec.dt)
    half_dt = 0.5 * dt

    # Defaults are fast locals; read from the enclosing scope, the loop ran 2-10% slower.
    def field(x1, x2, x3, y1, y2, y3, z1, z2, z3, w1=w1, w2=w2, w3=w3,
              m1=-w1, m2=-w2, m3=-w3, eps=float(spec.epsilon)):
        return (m1 * x2 - x3, w1 * x1 + 0.15 * x2, 0.2 + x3 * (x1 - 10.0),
                m2 * y2 - y3 + eps * (x1 - y1), w2 * y1 + 0.15 * y2, 0.2 + y3 * (y1 - 10.0),
                m3 * z2 - z3 + eps * (x1 - z1), w3 * z1 + 0.15 * z2, 0.2 + z3 * (z1 - 10.0))

    out = array("d")
    for _ in range(spec.N_total):
        a1, a2, a3, a4, a5, a6, a7, a8, a9 = field(x1, x2, x3, y1, y2, y3, z1, z2, z3)
        b1, b2, b3, b4, b5, b6, b7, b8, b9 = field(
            x1 + dt * a1, x2 + dt * a2, x3 + dt * a3, y1 + dt * a4, y2 + dt * a5,
            y3 + dt * a6, z1 + dt * a7, z2 + dt * a8, z3 + dt * a9)
        x1 = x1 + half_dt * (a1 + b1)
        x2 = x2 + half_dt * (a2 + b2)
        x3 = x3 + half_dt * (a3 + b3)
        y1 = y1 + half_dt * (a4 + b4)
        y2 = y2 + half_dt * (a5 + b5)
        y3 = y3 + half_dt * (a6 + b6)
        z1 = z1 + half_dt * (a7 + b7)
        z2 = z2 + half_dt * (a8 + b8)
        z3 = z3 + half_dt * (a9 + b9)
        out.fromlist([x1, x2, x3, y1, y2, y3, z1, z2, z3])  # extend() of a tuple is ~2x slower
    data = np.frombuffer(out, dtype=np.float64).reshape(spec.N_total, 9)
    # Float arithmetic overflows to inf and NaN without raising, so a
    # diverged run completes; a NaN row fails the test as well.
    bad = ~(np.abs(data) < DIVERGENCE_LIMIT).all(axis=1)
    if bad.any():
        raise DivergenceError(
            f"Rossler trajectory diverged at step {int(bad.argmax())} "
            f"(|state| > {DIVERGENCE_LIMIT:g})"
        )
    return TimeSeriesPanel(
        data=data[spec.burn_in :].T, dt=spec.dt, labels=ROSSLER_LABELS
    )


# Differencing stride for Rossler panels (deterministic chaos, densely sampled).
ROSSLER_K = 2


# VAR6 presets, stride k = 1: name -> (noise amplitude b, series length N).
VAR6_PRESETS = {
    "var6-b1": (1.0, 10000),
    "var6-b100": (100.0, 10000),
    "var6-b100-short": (100.0, 500),
}


def preset_panel(name: str, seed: int = 0, epsilon: float | None = None):
    """Panel of "rossler" or a VAR6_PRESETS name; returns (panel, default_k)."""
    if name == "rossler":
        spec = RosslerSpec(seed=seed, epsilon=0.0 if epsilon is None else epsilon)
        return simulate_rossler(spec), ROSSLER_K
    if name not in VAR6_PRESETS:
        names = sorted([*VAR6_PRESETS, "rossler"])
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(names)}")
    if epsilon is not None:
        raise ValueError("--epsilon applies only to the rossler preset")
    b, N = VAR6_PRESETS[name]
    return simulate_var(VarSpec(A=VAR6_A, alpha_vec=VAR6_ALPHA, b_diag=np.full(6, b),
                                N=N, seed=seed)), 1
