import re

import numpy as np
import pytest

from infoflow import (
    DegenerateInputError,
    RosslerSpec,
    SingularCovarianceError,
    TimeSeriesPanel,
    estimate_flows,
    reconstruct,
    simulate_rossler,
    simulate_var,
    to_json,
)
from infoflow.cli import read_csv_panel, write_csv_panel

from conftest import random_walk_panel, var6_spec
from oracles import cofactor_solution, compute_statistics, derive_series, fit_row


def panel_from_rows(rows, dt=1.0):
    return TimeSeriesPanel(data=np.array(rows, dtype=float), dt=dt)


class TestPanelValidation:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            panel_from_rows([[0, 1, np.nan, 3, 4], [1, 2, 3, 4, 5]])

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError, match="dt"):
            panel_from_rows([[0, 1, 2, 3, 4], [1, 2, 3, 4, 5]], dt=0.0)

    @pytest.mark.parametrize("dt", [True, np.True_, "0.1", None])
    def test_rejects_a_bool_dt(self, dt):
        # nor any other non-number: each is named, not left to fail a comparison
        shown = "True" if isinstance(dt, (bool, np.bool_)) else repr(dt)
        with pytest.raises(ValueError, match=f"^dt must be a number, got {re.escape(shown)}$"):
            panel_from_rows([[0, 1, 2, 3, 4], [1, 2, 3, 4, 5]], dt=dt)

    @pytest.mark.parametrize("dt", [True, np.True_, "0.1", None,
                                    0.0, -1.0, float("nan"), float("inf")])
    def test_rossler_spec_gives_the_panel_dt_message(self, dt):
        with pytest.raises(ValueError) as panel_error:
            panel_from_rows([[0, 1, 2, 3, 4], [1, 2, 3, 4, 5]], dt=dt)
        with pytest.raises(ValueError) as spec_error:
            RosslerSpec(dt=dt)
        assert str(spec_error.value) == str(panel_error.value)

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

    def test_rejects_duplicate_labels_naming_the_first(self):
        data = np.arange(28.0).reshape(4, 7) ** 2
        with pytest.raises(ValueError, match="duplicate label 'b'"):
            TimeSeriesPanel(data=data, labels=("a", "b", "b", "a"))

    def test_rejects_non_string_labels_naming_the_first(self):
        data = np.arange(21.0).reshape(3, 7) ** 2
        with pytest.raises(ValueError, match="label 2 is not a string"):
            TimeSeriesPanel(data=data, labels=("a", 2, 3))

    def test_rejects_one_string_as_labels(self):
        data = np.arange(10.0).reshape(2, 5) ** 2
        with pytest.raises(ValueError,
                           match=r"^labels must be a sequence of strings, got 'ab'$"):
            TimeSeriesPanel(data=data, labels="ab")

    @pytest.mark.parametrize("data, message", [
        (np.arange(7.0), "panel data must be 2-D (d, N), got shape (7,)"),
        (np.empty((0, 7)), "panel needs at least one variable row"),
    ], ids=["1-D", "zero-rows"])
    def test_rejects_data_without_rows_of_series(self, data, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TimeSeriesPanel(data=data)

    def test_rejects_a_label_count_other_than_d(self):
        with pytest.raises(ValueError, match="^3 labels for 2 variables$"):
            TimeSeriesPanel(data=np.arange(10.0).reshape(2, 5) ** 2, labels=("a", "b", "c"))

    def test_numpy_labels_give_the_tuple_graph(self):
        panel = simulate_var(var6_spec(b=1.0, N=500, seed=0))
        names = ("a", "b", "c", "d", "e", "f")
        from_array = TimeSeriesPanel(data=panel.data, labels=np.array(names))
        from_tuple = TimeSeriesPanel(data=panel.data, labels=names)
        assert from_array.labels == names
        assert all(type(label) is str for label in from_array.labels)
        assert to_json(reconstruct(from_array)) == to_json(reconstruct(from_tuple))

    def test_numpy_label_messages_print_plain_strings(self):
        data = np.arange(21.0).reshape(3, 7) ** 2
        with pytest.raises(ValueError, match="^duplicate label 'a'$"):
            TimeSeriesPanel(data=data, labels=np.array(["a", "b", "a"]))


def assert_series_major(panel):
    assert panel.data.flags.c_contiguous
    assert not panel.data.flags.writeable


class TestPanelLayout:
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_own_c_contiguous_read_only_copy(self, rng, layout):
        base = rng.standard_normal((3, 40))
        data = {
            "C": base.copy(),
            "F": np.asfortranarray(base),
            "strided": np.repeat(base, 2, axis=1)[:, ::2],
        }[layout]
        p = TimeSeriesPanel(data=data)
        assert_series_major(p)
        np.testing.assert_array_equal(p.data, base)
        assert not np.shares_memory(p.data, data)

    def test_simulate_var_panel(self):
        assert_series_major(simulate_var(var6_spec(N=200)))

    def test_simulate_rossler_panel(self):
        assert_series_major(simulate_rossler(RosslerSpec(N_total=300, burn_in=100)))

    def test_read_csv_panel(self, rng, tmp_path):
        path = tmp_path / "p.csv"
        with open(path, "w") as fh:
            write_csv_panel(random_walk_panel(rng, d=3, n=50), fh)
        assert_series_major(read_csv_panel(str(path)))


class TestDeriveSeries:
    """The stride-k difference quotient: the oracle's hand values, and the
    strides the estimator, which forms the differences itself, refuses."""

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

    @pytest.mark.parametrize("k", [0, -1, 4, 5, 6, 100])
    def test_k_out_of_range(self, k):
        # N = 6 and d = 1 leave k in [1, 3]; k = 4 leaves N - 2 samples, and
        # k = 6 is N
        p = panel_from_rows([[0, 1, 2, 3, 4, 5]])
        with pytest.raises(ValueError, match=rf"^stride k={k} must be an integer "
                                             r"in \[1, N - d - 2\] = \[1, 3\]$"):
            estimate_flows(p, k=k)

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

    def test_zero_variance_names_variable(self):
        p = TimeSeriesPanel(
            data=np.array([[1.0, 2.0, 1.5, 2.5, 1.0], [3.0, 3.0, 3.0, 3.0, 3.0]]),
            labels=("ok", "flat"),
        )
        with pytest.raises(DegenerateInputError, match="flat"):
            compute_statistics(p, derive_series(p, k=1))
        with pytest.raises(DegenerateInputError, match="flat"):
            estimate_flows(p)

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
        der = derive_series(p, k=1)
        st = compute_statistics(p, der)
        f_hat = fit_row(st, p, der, 0).f_hat
        assert f_hat == pytest.approx(2.0, rel=1e-3)
        assert m.T[0, 0] == pytest.approx(3.0, rel=1e-3)
        # the residual variance g = 2 C_00 noise_rate
        assert 2.0 * st.C[0, 0] * m.noise_rate[0] == pytest.approx(0.0, abs=1e-8)

    def test_scalar_least_squares_identity(self, rng):
        x = np.cumsum(rng.standard_normal(200))
        p = TimeSeriesPanel(data=x[None, :])
        der = derive_series(p, k=1)
        st = compute_statistics(p, der)
        assert estimate_flows(p).T[0, 0] == pytest.approx(st.Cd[0, 0] / st.C[0, 0], rel=1e-12)

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
        der = derive_series(p)
        st = compute_statistics(p, der)
        a_hat = fit_row(st, p, der, 0).a_hat
        for j in (1, 2):
            # stderr[j, 0] is |C_0j / C_00| times the stderr of a_0j
            assert abs(a_hat[j]) < 3.0 * m.stderr[j, 0] / abs(st.C[0, j] / st.C[0, 0])
            assert abs(m.T[j, 0]) < 3.0 * m.stderr[j, 0]

    def test_residual_ss_consistent_with_parameters(self, rng):
        p = random_walk_panel(rng, d=3, n=150)
        der = derive_series(p, k=1)
        st = compute_statistics(p, der)
        m = estimate_flows(p)
        x = p.data[:, : st.n_used]
        row = fit_row(st, p, der, 1)
        resid = der[1] - row.f_hat - row.a_hat @ x
        # noise_rate_i = g_i / (2 C_ii), with g_i = sum_n R_in^2 dt / n
        assert resid @ resid == pytest.approx(
            2.0 * st.C[1, 1] * m.noise_rate[1] * st.n_used / p.dt, rel=1e-10)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_cofactor_identity(self, d):
        rng = np.random.default_rng(100 + d)
        p = random_walk_panel(rng, d=d, n=400)
        der = derive_series(p, k=1)
        st = compute_statistics(p, der)
        m = estimate_flows(p)
        for i in range(d):
            a = cofactor_solution(st, i)
            np.testing.assert_allclose(fit_row(st, p, der, i).a_hat, a, rtol=1e-8)
            # the estimator's outputs are these coefficients: T[j, i] = a_ij C_ij / C_ii
            assert m.T[i, i] == pytest.approx(a[i], rel=1e-8)
            flows = np.delete(a * st.C[i] / st.C[i, i], i)
            np.testing.assert_allclose(np.delete(m.T[:, i], i), flows, rtol=1e-8)

    def test_permutation_equivariance(self, rng):
        p = random_walk_panel(rng, d=4, n=250)
        perm = [2, 0, 3, 1]
        q = TimeSeriesPanel(data=p.data[perm], dt=p.dt)
        sp = compute_statistics(p, derive_series(p, k=1))
        sq = compute_statistics(q, derive_series(q, k=1))
        np.testing.assert_allclose(sq.C, sp.C[np.ix_(perm, perm)], rtol=1e-12)
        np.testing.assert_allclose(sq.Cd, sp.Cd[np.ix_(perm, perm)], rtol=1e-12)
        mp, mq = estimate_flows(p), estimate_flows(q)
        np.testing.assert_allclose(mq.T, mp.T[np.ix_(perm, perm)], rtol=1e-9, atol=0.0)
        for new_i, old_i in enumerate(perm):
            assert mq.T[new_i, new_i] == pytest.approx(mp.T[old_i, old_i], rel=1e-9)
            assert mq.noise_rate[new_i] == pytest.approx(mp.noise_rate[old_i], rel=1e-9)

    def test_scale_covariance(self, rng):
        p = random_walk_panel(rng, d=3, n=250)
        s = 7.5
        scaled = p.data.copy()
        scaled[1] *= s
        q = TimeSeriesPanel(data=scaled, dt=p.dt)
        sp = compute_statistics(p, derive_series(p, k=1))
        sq = compute_statistics(q, derive_series(q, k=1))
        assert sq.C[1, 2] == pytest.approx(s * sp.C[1, 2], rel=1e-12)
        rp = fit_row(sp, p, derive_series(p, k=1), 0)
        rq = fit_row(sq, q, derive_series(q, k=1), 0)
        assert rq.a_hat[1] == pytest.approx(rp.a_hat[1] / s, rel=1e-9)
        # the flow itself is invariant to the units of its source
        assert estimate_flows(q).T[1, 0] == pytest.approx(estimate_flows(p).T[1, 0], rel=1e-9)

    def test_residual_ss_nonnegative(self, rng):
        for trial in range(10):
            p = random_walk_panel(np.random.default_rng(trial), d=2, n=60)
            assert np.all(estimate_flows(p).noise_rate > 0.0)
