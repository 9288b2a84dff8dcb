import numpy as np
import pytest

from infoflow import (
    DegenerateInputError,
    SingularCovarianceError,
    TimeSeriesPanel,
    compute_statistics,
    derive_series,
    estimate_flows,
)

from conftest import random_walk_panel
from oracles import cofactor_solution, fit_row


def panel_from_rows(rows, dt=1.0):
    return TimeSeriesPanel(data=np.array(rows, dtype=float), dt=dt)


class TestPanelValidation:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            panel_from_rows([[0, 1, np.nan, 3, 4], [1, 2, 3, 4, 5]])

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError, match="dt"):
            panel_from_rows([[0, 1, 2, 3, 4], [1, 2, 3, 4, 5]], dt=0.0)

    def test_rejects_too_short_series(self):
        with pytest.raises(ValueError, match="N >= d"):
            panel_from_rows([[0, 1, 2, 3], [1, 2, 3, 4]])

    def test_default_labels(self):
        p = panel_from_rows([[0, 1, 2, 3, 4], [1, 2, 3, 4, 5]])
        assert p.labels == ("X1", "X2")

    def test_data_is_read_only(self):
        p = panel_from_rows([[0, 1, 2, 3, 4], [1, 2, 3, 4, 5]])
        with pytest.raises(ValueError):
            p.data[0, 0] = 99.0


class TestDeriveSeries:
    def test_linear_ramp_has_constant_slope(self):
        p = panel_from_rows([[0, 1, 2, 3]])
        der = derive_series(p, k=1)
        np.testing.assert_array_equal(der, [[1.0, 1.0, 1.0]])

    def test_constant_series_derivative_is_zero(self):
        p = panel_from_rows([[5, 5, 5, 5]], dt=0.37)
        der = derive_series(p, k=1)
        np.testing.assert_array_equal(der, [[0.0, 0.0, 0.0]])

    def test_k2_hand_value(self):
        # (6 - 0) / (2 * 0.5) = 6, panel padded to satisfy the length bound
        p = panel_from_rows([[0, 2, 6, 7]], dt=0.5)
        der = derive_series(p, k=2)
        assert der[0, 0] == 6.0

    @pytest.mark.parametrize("k", [0, -1, 5, 100])
    def test_k_out_of_range(self, k):
        p = panel_from_rows([[0, 1, 2, 3, 4, 5]])
        with pytest.raises(ValueError, match="stride"):
            derive_series(p, k=k)

    def test_output_length(self, rng):
        p = random_walk_panel(rng, d=2, n=50)
        for k in (1, 2, 3):
            assert derive_series(p, k=k).shape == (2, 50 - k)


class TestComputeStatistics:
    def test_perfect_anticorrelation(self):
        p = panel_from_rows([[1, 2, 3, 4, 5], [5, 4, 3, 2, 1]])
        st = compute_statistics(p, derive_series(p, k=1))
        assert st.C[0, 1] == pytest.approx(-st.C[0, 0], rel=1e-12)

    def test_duplicate_rows_give_singular_covariance(self, rng):
        x = np.cumsum(rng.standard_normal(100))
        p = TimeSeriesPanel(data=np.vstack([x, x]))
        der = derive_series(p, k=1)
        st = compute_statistics(p, der)
        assert np.linalg.det(st.C) == pytest.approx(0.0, abs=1e-6)
        with pytest.raises(SingularCovarianceError):
            estimate_flows(p)

    def test_ridge_rescues_singular_covariance(self, rng):
        # the ridge solve itself is finite; estimate_flows still refuses
        # the panel (see TestSingularInformation in test_estimator.py)
        x = np.cumsum(rng.standard_normal(100))
        p = TimeSeriesPanel(data=np.vstack([x, x]))
        der = derive_series(p, k=1)
        st = compute_statistics(p, der)
        row = fit_row(st, p, der, 0, ridge=1e-3)
        assert np.all(np.isfinite(row.a_hat))

    def test_zero_variance_names_variable(self):
        p = TimeSeriesPanel(
            data=np.array([[1.0, 2.0, 1.5, 2.5, 1.0], [3.0, 3.0, 3.0, 3.0, 3.0]]),
            labels=("ok", "flat"),
        )
        with pytest.raises(DegenerateInputError, match="flat"):
            compute_statistics(p, derive_series(p, k=1))

    def test_iid_normal_off_diagonals_small(self):
        rng = np.random.default_rng(7)
        p = TimeSeriesPanel(data=rng.standard_normal((3, 100000)))
        st = compute_statistics(p, derive_series(p, k=1))
        off = st.C[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off) < 0.02)

    def test_symmetry_and_psd(self, rng):
        p = random_walk_panel(rng, d=4, n=300)
        st = compute_statistics(p, derive_series(p, k=1))
        np.testing.assert_allclose(st.C, st.C.T, rtol=1e-12)
        assert np.min(np.linalg.eigvalsh(st.C)) > -1e-10


class TestFitRow:
    def test_noise_free_linear_ode(self):
        # dX/dt = 2 + 3 X sampled densely: exact solution, near-zero noise
        dt = 1e-5
        t = np.arange(4000) * dt
        x = (1.0 + 2.0 / 3.0) * np.exp(3.0 * t) - 2.0 / 3.0
        p = TimeSeriesPanel(data=x[None, :], dt=dt)
        m = estimate_flows(p)
        assert m.f[0] == pytest.approx(2.0, rel=1e-3)
        assert m.A[0, 0] == pytest.approx(3.0, rel=1e-3)
        assert m.g[0] == pytest.approx(0.0, abs=1e-8)

    def test_scalar_least_squares_identity(self, rng):
        x = np.cumsum(rng.standard_normal(200))
        p = TimeSeriesPanel(data=x[None, :])
        der = derive_series(p, k=1)
        st = compute_statistics(p, der)
        assert estimate_flows(p).A[0, 0] == pytest.approx(st.Cd[0, 0] / st.C[0, 0], rel=1e-12)

    def test_white_noise_target_has_no_spurious_coefficients(self):
        rng = np.random.default_rng(11)
        n = 100000
        regressors = np.empty((2, n))
        for r in range(2):
            e = rng.standard_normal(n)
            x = np.zeros(n)
            for t in range(1, n):
                x[t] = 0.6 * x[t - 1] + e[t]
            regressors[r] = x
        target = rng.standard_normal(n)
        p = TimeSeriesPanel(data=np.vstack([target, regressors]))
        m = estimate_flows(p)
        C = compute_statistics(p, derive_series(p)).C
        for j in (1, 2):
            # stderr[j, 0] is |C_0j / C_00| times the stderr of a_0j
            assert abs(m.A[0, j]) < 3.0 * m.stderr[j, 0] / abs(C[0, j] / C[0, 0])

    def test_residual_ss_consistent_with_parameters(self, rng):
        p = random_walk_panel(rng, d=3, n=150)
        der = derive_series(p, k=1)
        st = compute_statistics(p, der)
        m = estimate_flows(p)
        x = p.data[:, : st.n_used]
        resid = der[1] - m.f[1] - m.A[1] @ x
        assert resid @ resid == pytest.approx(m.g[1] * st.n_used / p.dt, rel=1e-10)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_cofactor_identity(self, d):
        rng = np.random.default_rng(100 + d)
        p = random_walk_panel(rng, d=d, n=400)
        der = derive_series(p, k=1)
        st = compute_statistics(p, der)
        m = estimate_flows(p)
        for i in range(d):
            np.testing.assert_allclose(m.A[i], cofactor_solution(st, i), rtol=1e-8)

    def test_permutation_equivariance(self, rng):
        p = random_walk_panel(rng, d=4, n=250)
        perm = [2, 0, 3, 1]
        q = TimeSeriesPanel(data=p.data[perm], dt=p.dt)
        sp = compute_statistics(p, derive_series(p, k=1))
        sq = compute_statistics(q, derive_series(q, k=1))
        np.testing.assert_allclose(sq.C, sp.C[np.ix_(perm, perm)], rtol=1e-12)
        np.testing.assert_allclose(sq.Cd, sp.Cd[np.ix_(perm, perm)], rtol=1e-12)
        mp, mq = estimate_flows(p), estimate_flows(q)
        for new_i, old_i in enumerate(perm):
            np.testing.assert_allclose(mq.A[new_i], mp.A[old_i][perm], rtol=1e-9)
            assert mq.g[new_i] == pytest.approx(mp.g[old_i], rel=1e-9)

    def test_scale_covariance(self, rng):
        p = random_walk_panel(rng, d=3, n=250)
        s = 7.5
        scaled = p.data.copy()
        scaled[1] *= s
        q = TimeSeriesPanel(data=scaled, dt=p.dt)
        sp = compute_statistics(p, derive_series(p, k=1))
        sq = compute_statistics(q, derive_series(q, k=1))
        assert sq.C[1, 2] == pytest.approx(s * sp.C[1, 2], rel=1e-12)
        rp, rq = estimate_flows(p), estimate_flows(q)
        assert rq.A[0, 1] == pytest.approx(rp.A[0, 1] / s, rel=1e-9)

    def test_residual_ss_nonnegative(self, rng):
        for trial in range(10):
            p = random_walk_panel(np.random.default_rng(trial), d=2, n=60)
            assert np.all(estimate_flows(p).g >= 0.0)
