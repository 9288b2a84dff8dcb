import numpy as np
import pytest

from infoflow import (
    DivergenceError,
    ROSSLER_LABELS,
    ROSSLER_OSCILLATOR_ROWS,
    RosslerSpec,
    VAR6_A,
    VarSpec,
    preset_panel,
    simulate_rossler,
    simulate_var,
    sweep_epsilon,
)

from conftest import var6_spec
from oracles import reference_rossler


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

    def test_benchmark_matrix_is_stable(self):
        assert np.max(np.abs(np.linalg.eigvals(VAR6_A))) < 1.0


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
        spec = RosslerSpec(seed=0, epsilon=-50.0, N_total=50000, burn_in=0)
        with pytest.raises(DivergenceError, match="diverged"):
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
        # NaN enters the second oscillator only; the state check must see it
        spec = RosslerSpec(omega=(1.015, float("nan"), 0.95), N_total=100, burn_in=0)
        with pytest.raises(DivergenceError, match="at step 0 "):
            simulate_rossler(spec)

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
        pts = sweep_epsilon(RosslerSpec(seed=0), [0.1])
        (pt,) = pts
        assert pt.epsilon == 0.1
        assert pt.abs_T["X->Y"] > 10.0 * pt.abs_T["Y->X"]
        assert pt.abs_T["X->Z"] > 10.0 * pt.abs_T["Z->X"]
        assert pt.significant["X->Y"]
        assert pt.significant["X->Z"]


class TestPresets:
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
