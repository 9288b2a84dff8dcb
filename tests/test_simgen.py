import re

import numpy as np
import pytest

from infoflow import (
    DivergenceError,
    ROSSLER_LABELS,
    ROSSLER_OSCILLATOR_ROWS,
    RosslerSpec,
    TimeSeriesPanel,
    VAR6_A,
    VAR6_ALPHA,
    VAR6_EDGES,
    VarSpec,
    estimate_flows,
    preset_panel,
    simulate_rossler,
    simulate_var,
)
from infoflow.simgen import ROSSLER_K

from conftest import assert_matches_reference_var, var6_spec
from oracles import reference_rossler, reference_var


def scalar_var_spec(a, b=1.0, N=20000, seed=0):
    return VarSpec(A=np.array([[a]]), alpha_vec=np.zeros(1),
                   b_diag=np.array([b]), N=N, seed=seed)


class TestSimulateVar:
    def test_zero_transition_gives_white_noise(self):
        panel = simulate_var(scalar_var_spec(0.0))
        x = panel.data[0]
        n = x.size
        autocorr = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(np.mean(x)) < 3.0 / np.sqrt(n)
        assert abs(autocorr) < 3.0 / np.sqrt(n)

    def test_ar1_stationary_variance(self):
        # var = b^2 / (1 - a^2) = 1 / (1 - 0.25) = 4/3
        panel = simulate_var(scalar_var_spec(0.5, N=200000))
        assert np.var(panel.data[0]) == pytest.approx(4.0 / 3.0, rel=0.03)

    def test_seed_determinism(self):
        p1 = simulate_var(var6_spec(seed=3, N=2000))
        p2 = simulate_var(var6_spec(seed=3, N=2000))
        assert p1.data.tobytes() == p2.data.tobytes()
        p3 = simulate_var(var6_spec(seed=4, N=2000))
        assert p1.data.tobytes() != p3.data.tobytes()

    def test_shape_and_dt(self):
        panel = simulate_var(var6_spec(N=2500))
        assert panel.data.shape == (6, 2500)
        assert panel.dt == 1.0

    def test_burn_in_gives_stationary_halves(self):
        panel = simulate_var(var6_spec(seed=2, N=20000))
        first = panel.data[:, :10000]
        second = panel.data[:, 10000:]
        np.testing.assert_allclose(
            np.var(first, axis=1), np.var(second, axis=1), rtol=0.15
        )

    def test_unstable_matrix_warns(self):
        spec = VarSpec(A=np.array([[2.0]]), alpha_vec=np.zeros(1),
                       b_diag=np.ones(1), N=2000, burn_in=0)
        with pytest.warns(UserWarning, match="spectral radius"):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(DivergenceError):
                    simulate_var(spec)

    @pytest.mark.parametrize("d, burn_in", [(1, -10), (2, -20)])
    def test_negative_burn_in_rejected(self, d, burn_in):
        with pytest.raises(ValueError, match=f"^burn_in must be an integer >= 0, got {burn_in}$"):
            VarSpec(A=0.5 * np.eye(d), alpha_vec=np.zeros(d), b_diag=np.ones(d),
                    N=100, burn_in=burn_in)

    @pytest.mark.parametrize("kw, name", [
        (dict(d=1, alpha_vec=[0.0, 0.0]), "alpha_vec"),
        (dict(d=1, b_diag=[1.0, 1.0]), "b_diag"),
        (dict(d=2, alpha_vec=[0.0]), "alpha_vec"),
        (dict(d=2, b_diag=[1.0]), "b_diag"),
        (dict(A=np.zeros((2, 3))), "A"),
        (dict(A=np.zeros(2)), "A"),
        (dict(A=[[0.5, np.nan], [0.0, 0.5]]), "A"),
        (dict(d=1, b_diag=[np.inf]), "b_diag"),
        (dict(d=2, alpha_vec=[0.0, np.nan]), "alpha_vec"),
        (dict(N=-5), "N"),
        (dict(N=0), "N"),
        (dict(N=5.0), "N"),
        (dict(d=1, b_diag=["x"]), "b_diag"),
        (dict(d=1, b_diag=[object()]), "b_diag"),
        # float() takes each of these, but text and bools are not numbers
        (dict(d=1, alpha_vec=["0.25"]), "alpha_vec"),
        (dict(d=1, b_diag=[True]), "b_diag"),
        (dict(d=1, A=np.array([[True]])), "A"),
        (dict(d=2, alpha_vec=[0.0, False]), "alpha_vec"),
        # an integer beyond float64 is not finite
        (dict(d=1, A=[[10**400]]), "A"),
    ], ids=["alpha-2-for-d1", "b-2-for-d1", "alpha-1-for-d2", "b-1-for-d2",
            "A-2x3", "A-1d", "A-nan", "b-inf", "alpha-nan", "N-neg", "N-0", "N-float",
            "b-str", "b-object", "alpha-numeric-str", "b-bool", "A-bool-array",
            "alpha-bool-among-floats", "A-int-beyond-float64"])
    def test_bad_fields_rejected(self, kw, name):
        kw = dict(kw)
        d = kw.pop("d", 2)
        fields = dict(A=0.5 * np.eye(d), alpha_vec=np.zeros(d), b_diag=np.ones(d), N=100)
        with pytest.raises(ValueError, match=f"^{name} "):
            VarSpec(**{**fields, **kw})

    def test_benchmark_matrix_is_stable(self):
        assert np.max(np.abs(np.linalg.eigvals(VAR6_A))) < 1.0

    @pytest.mark.parametrize("array", [VAR6_A, VAR6_ALPHA], ids=["A", "alpha"])
    def test_benchmark_arrays_are_read_only(self, array):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


VAR_FIELDS = dict(A=0.5 * np.eye(2), alpha_vec=np.zeros(2), b_diag=np.ones(2), N=100)


@pytest.mark.parametrize("make, message", [
    (lambda: VarSpec(**{**VAR_FIELDS, "N": 500.0}), "N must be an integer >= 1, got 500.0"),
    (lambda: VarSpec(**{**VAR_FIELDS, "N": True}), "N must be an integer >= 1, got True"),
    (lambda: VarSpec(**VAR_FIELDS, burn_in=2.5), "burn_in must be an integer >= 0, got 2.5"),
    (lambda: VarSpec(**VAR_FIELDS, burn_in=True), "burn_in must be an integer >= 0, got True"),
    (lambda: RosslerSpec(N_total=2000.0), "N_total must be an integer >= 1, got 2000.0"),
    (lambda: RosslerSpec(N_total=True, burn_in=0), "N_total must be an integer >= 1, got True"),
    (lambda: RosslerSpec(N_total=2000, burn_in=10.5),
     "burn_in must be an integer in [0, 2000), got 10.5"),
    (lambda: RosslerSpec(N_total=2000, burn_in=2000),
     "burn_in must be an integer in [0, 2000), got 2000"),
    (lambda: RosslerSpec(N_total=2000, burn_in=-1),
     "burn_in must be an integer in [0, 2000), got -1"),
    (lambda: RosslerSpec(burn_in=10**5000), "burn_in must be an integer in [0, 50000), got inf"),
    (lambda: VarSpec(**VAR_FIELDS, seed=-1), "seed must be an integer >= 0, got -1"),
    (lambda: VarSpec(**VAR_FIELDS, seed=1.5), "seed must be an integer >= 0, got 1.5"),
    (lambda: VarSpec(**VAR_FIELDS, seed=True), "seed must be an integer >= 0, got True"),
    (lambda: VarSpec(**VAR_FIELDS, seed=-10**5000), "seed must be an integer >= 0, got -inf"),
    (lambda: RosslerSpec(seed=-1), "seed must be an integer >= 0, got -1"),
    (lambda: RosslerSpec(seed=1.5), "seed must be an integer >= 0, got 1.5"),
    (lambda: RosslerSpec(seed=True), "seed must be an integer >= 0, got True"),
    # an integer beyond float64 is rejected even where the range holds it
    (lambda: VarSpec(**{**VAR_FIELDS, "N": 10**5000}), "N must be an integer >= 1, got inf"),
    (lambda: VarSpec(**VAR_FIELDS, seed=10**5000), "seed must be an integer >= 0, got inf"),
    (lambda: RosslerSpec(N_total=10**5000), "N_total must be an integer >= 1, got inf"),
    (lambda: RosslerSpec(seed=10**5000), "seed must be an integer >= 0, got inf"),
], ids=["var-N-float", "var-N-bool", "var-burn-in-float", "var-burn-in-bool",
        "rossler-N-float", "rossler-N-bool", "rossler-burn-in-float",
        "rossler-burn-in-N-total", "rossler-burn-in-negative", "rossler-burn-in-beyond-float64",
        "var-seed-negative", "var-seed-float", "var-seed-bool", "var-seed-beyond-float64",
        "rossler-seed-negative", "rossler-seed-float", "rossler-seed-bool",
        "var-N-huge", "var-seed-huge", "rossler-N-total-huge", "rossler-seed-huge"])
def test_spec_sizes_are_integers(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def sparse_stable_spec(d=64, N=5000, seed=0):
    """A diagonal plus 3 off-diagonal terms per row, spectral radius 0.8."""
    rng = np.random.default_rng(seed)
    A = np.diag(rng.uniform(0.2, 0.5, d))
    for i in range(d):
        cols = rng.choice(np.delete(np.arange(d), i), 3, replace=False)
        A[i, cols] = rng.choice((-1.0, 1.0), 3) * rng.uniform(0.2, 0.5, 3)
    A *= 0.8 / np.max(np.abs(np.linalg.eigvals(A)))
    return VarSpec(A=A, alpha_vec=np.zeros(d), b_diag=np.ones(d), N=N, seed=seed)


def var6_spec_with(N, burn_in=1000, alpha_vec=np.zeros(6), b_diag=np.ones(6), seed=0):
    return VarSpec(A=VAR6_A, alpha_vec=alpha_vec, b_diag=b_diag, N=N,
                   burn_in=burn_in, seed=seed)


class TestBlockedSolve:
    """simulate_var's blocked solve against the step-by-step recurrence.

    The T = N + burn_in steps run in blocks of L = isqrt(T // 2)."""

    @pytest.mark.parametrize("spec", [
        scalar_var_spec(0.9, N=3000, seed=1),
        # T = 4, the shortest panel with d = 1, so L = 1: a block per step
        VarSpec(A=[[0.5]], alpha_vec=[0.3], b_diag=[2.0], N=4, burn_in=0),
        var6_spec_with(N=9, seed=2),  # T = 1009 is prime: L = 22, last block of 19
        var6_spec_with(N=800, seed=3),  # T = 1800 is 60 blocks of L = 30
        var6_spec_with(N=2000, burn_in=0, seed=4),
        var6_spec_with(N=3000, alpha_vec=VAR6_ALPHA, seed=5,
                       b_diag=np.array([0.5, 1.0, 2.0, 5.0, 10.0, 100.0])),
        sparse_stable_spec(),
    ], ids=["d1", "L1", "T-prime", "T-multiple-of-L", "no-burn-in",
            "alpha-and-unequal-b", "d64-sparse"])
    def test_matches_step_loop(self, spec):
        assert_matches_reference_var(simulate_var(spec).data, spec)

    @pytest.mark.parametrize("seed", range(10))
    def test_var6_verdicts_match_step_loop(self, seed):
        spec = var6_spec(b=1.0, N=10000, seed=seed)
        blocked = estimate_flows(simulate_var(spec)).significant
        stepped = estimate_flows(TimeSeriesPanel(reference_var(spec))).significant
        np.testing.assert_array_equal(blocked, stepped)


class TestSimulateRossler:
    def test_shape_labels_dt(self):
        spec = RosslerSpec(seed=0, N_total=12000, burn_in=2000)
        panel = simulate_rossler(spec)
        assert panel.data.shape == (9, 10000)
        assert panel.labels == ROSSLER_LABELS
        assert panel.dt == 0.001

    def test_seed_determinism(self):
        spec = RosslerSpec(seed=7, N_total=6000, burn_in=1000)
        p1 = simulate_rossler(spec)
        p2 = simulate_rossler(spec)
        assert p1.data.tobytes() == p2.data.tobytes()

    def test_integration_order_two(self):
        # Richardson: halving dt over a fixed horizon shrinks the final-state
        # error by ~4x for a second-order scheme
        horizon = 8.0
        finals = {}
        for dt in (0.004, 0.002, 0.001):
            spec = RosslerSpec(seed=0, dt=dt, N_total=int(round(horizon / dt)),
                               burn_in=0)
            finals[dt] = simulate_rossler(spec).data[:, -1]
        e1 = np.linalg.norm(finals[0.004] - finals[0.001])
        e2 = np.linalg.norm(finals[0.002] - finals[0.001])
        # e1/e2 is about (4^p - 1)/(2^p - 1), which is 5 at order p = 2;
        # require the ratio implied by p >= 1.8
        p = 1.8
        assert e1 / e2 > (4.0 ** p - 1.0) / (2.0 ** p - 1.0)

    def test_divergence_raises(self):
        # at the step the array reference names
        spec = RosslerSpec(seed=0, epsilon=-50.0, N_total=50000, burn_in=0)
        with pytest.raises(DivergenceError) as want:
            reference_rossler(spec)
        with pytest.raises(DivergenceError, match=re.escape(f"{want.value} (")):
            simulate_rossler(spec)

    @pytest.mark.parametrize("kw", [
        dict(seed=0, epsilon=0.0),
        dict(seed=1, epsilon=0.1),
        dict(seed=2, epsilon=0.25),
        dict(seed=0, epsilon=0.25),
        dict(seed=1, epsilon=0.0),
        dict(seed=2, epsilon=0.1),
        dict(seed=1, epsilon=0.1, omega=(1.0, 0.97, 0.93)),
        dict(seed=2, epsilon=0.1, dt=0.002),
    ])
    def test_bit_identical_to_array_reference(self, kw):
        spec = RosslerSpec(N_total=8000, burn_in=1000, **kw)
        np.testing.assert_array_equal(
            simulate_rossler(spec).data.view(np.uint64),
            reference_rossler(spec).view(np.uint64),
        )

    def test_nan_in_any_component_diverges_at_first_step(self):
        # NaN enters the second oscillator only; the state check must see it.
        # RosslerSpec rejects a NaN omega, so it is set after validation.
        spec = RosslerSpec(N_total=100, burn_in=0)
        object.__setattr__(spec, "omega", (1.015, float("nan"), 0.95))
        with pytest.raises(DivergenceError, match="at step 0 "):
            simulate_rossler(spec)

    @pytest.mark.parametrize("kw, message", [
        (dict(epsilon=float("nan")), "epsilon must be finite"),
        (dict(epsilon=float("inf")), "epsilon must be finite"),
        (dict(epsilon=-float("inf")), "epsilon must be finite"),
        (dict(omega=(1.015, float("nan"), 0.95)), "omega has non-finite entries"),
        (dict(omega=(1.015, 0.985, float("inf"))), "omega has non-finite entries"),
        (dict(dt=float("inf")), "dt must be positive and finite"),
        (dict(omega=(1.0, 2.0)), "omega must have shape (3,), got (2,)"),
        (dict(omega=(1.0, 2.0, 3.0, 4.0)), "omega must have shape (3,), got (4,)"),
        # a bool is not a number (see check_number and check_array), as dt, epsilon
        # or an omega entry
        (dict(dt=True), "dt must be a number"),
        (dict(epsilon=np.True_), "epsilon must be a number"),
        (dict(omega=(True, 0.985, 0.95)), "omega has non-numeric entries"),
        (dict(epsilon="0.1"), "epsilon must be a number"),
        # not a sequence of numbers
        (dict(omega=1.0), "omega must have shape (3,), got ()"),
        (dict(omega=None), "omega has non-numeric entries"),
        # an integer beyond float64 is not finite
        (dict(epsilon=10**400), "epsilon must be finite"),
        (dict(omega=(10**400, 1, 1)), "omega has non-finite entries"),
        (dict(dt=10**400), "dt must be positive and finite"),
        # and the message shows it as inf, not as more digits than str() may print
        (dict(epsilon=10**5000), "epsilon must be finite, got inf"),
        (dict(dt=10**5000), "dt must be positive and finite, got inf"),
    ], ids=["eps-nan", "eps-inf", "eps-minus-inf", "omega-nan", "omega-inf", "dt-inf",
            "omega-2", "omega-4", "dt-bool", "eps-numpy-bool", "omega-bool", "eps-str",
            "omega-float", "omega-none", "eps-int-beyond-float64",
            "omega-int-beyond-float64", "dt-int-beyond-float64",
            "eps-int-beyond-str-limit", "dt-int-beyond-str-limit"])
    def test_non_finite_parameters_rejected(self, kw, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            RosslerSpec(**kw)

    def test_omega_is_kept_as_a_tuple(self):
        spec = RosslerSpec(omega=[1.0, 0.9, 0.8])
        assert spec.omega == (1.0, 0.9, 0.8)
        assert hash(spec) == hash(RosslerSpec(omega=(1.0, 0.9, 0.8)))

    def test_strong_coupling_synchronizes_slaves(self):
        panel = simulate_rossler(RosslerSpec(seed=0, epsilon=0.25))
        y1 = panel.data[3]
        z1 = panel.data[6]
        assert np.corrcoef(y1, z1)[0, 1] > 0.9

    def test_oscillator_panel_selects_first_components(self):
        panel = simulate_rossler(RosslerSpec(seed=0, N_total=6000, burn_in=1000))
        rows = ROSSLER_OSCILLATOR_ROWS
        assert tuple(panel.labels[r] for r in rows) == ("x1", "y1", "z1")
        np.testing.assert_array_equal(panel.data[list(rows)][1], panel.data[3])


class TestSweep:
    def test_flow_direction_at_moderate_coupling(self):
        matrix = estimate_flows(simulate_rossler(RosslerSpec(seed=0, epsilon=0.1)), k=ROSSLER_K)
        x, y, z = ROSSLER_OSCILLATOR_ROWS
        abs_T = np.abs(matrix.T)
        assert abs_T[x, y] > 10.0 * abs_T[y, x]
        assert abs_T[x, z] > 10.0 * abs_T[z, x]
        assert matrix.significant[x, y]
        assert matrix.significant[x, z]


class TestPresets:
    def test_var6_edges_are_the_off_diagonal_couplings(self):
        assert VAR6_EDGES == {(1, 2), (2, 3), (3, 1), (4, 5), (5, 4), (6, 2), (6, 5)}
        assert all(type(v) is int for edge in VAR6_EDGES for v in edge)

    def test_var6_b1_matches_direct_call(self):
        panel, k = preset_panel("var6-b1", seed=5)
        direct = simulate_var(var6_spec(b=1.0, N=10000, seed=5))
        assert k == 1
        assert panel.data.tobytes() == direct.data.tobytes()

    def test_short_preset_length(self):
        panel, _ = preset_panel("var6-b100-short", seed=0)
        assert panel.data.shape == (6, 500)

    def test_rossler_preset_defaults(self):
        panel, k = preset_panel("rossler", seed=1)
        assert k == 2
        assert panel.data.shape == (9, 40000)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_panel("nope")

    def test_epsilon_restricted_to_rossler(self):
        with pytest.raises(ValueError, match="epsilon"):
            preset_panel("var6-b1", epsilon=0.1)
