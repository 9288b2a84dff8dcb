from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from infoflow import (
    DegenerateInputError,
    SingularInformationError,
    TimeSeriesPanel,
    derive_series,
    estimate_flows,
)
from infoflow.graph import build_graph

from conftest import random_walk_panel
from oracles import (
    compute_statistics,
    fisher_block,
    fit_row,
    reference_ci,
    reference_flows,
    reference_p,
    reference_z,
)


def fitted(panel, k=1):
    """Oracle per-row fits: derived series, moments and one RowMLE per row."""
    der = derive_series(panel, k)
    st = compute_statistics(panel, der)
    rows = [fit_row(st, panel, der, i) for i in range(panel.d)]
    return der, st, rows


def bivariate_flow(st):
    """Independent closed-form estimator of T[2 -> 1] for d = 2.

    (C11 C12 C2d1 - C12^2 C1d1) / (C11^2 C22 - C11 C12^2), written purely
    in sample covariances; the oracle for the d=2 reduction identity.
    """
    C11, C12, C22 = st.C[0, 0], st.C[0, 1], st.C[1, 1]
    C1d1, C2d1 = st.Cd[0, 0], st.Cd[1, 0]
    return (C11 * C12 * C2d1 - C12 ** 2 * C1d1) / (C11 ** 2 * C22 - C11 * C12 ** 2)


def assert_edge_p(edges, alpha):
    """Each edge's p is the reference p of its T and stderr, and below 1 - alpha."""
    got = np.array([e.p for e in edges])
    np.testing.assert_array_equal(
        got, reference_p([e.T for e in edges], [e.stderr for e in edges]))
    assert np.all(got < 1.0 - alpha)


class TestGaussianQuantile:
    # tabulated standard normal quantiles at p = (1 + alpha) / 2
    @pytest.mark.parametrize(
        "p, z",
        [
            (0.95, 1.6448536269514722),
            (0.975, 1.959963984540054),
            (0.99, 2.3263478740408408),
            (0.995, 2.5758293035489004),
            (0.5, 0.0),
        ],
    )
    def test_tabulated_values(self, p, z):
        alpha = 2.0 * p - 1.0
        assert reference_z(alpha) == pytest.approx(z, abs=1e-8)
        if alpha > 0.0:
            # the estimator's verdicts use the same quantile
            m = estimate_flows(random_walk_panel(np.random.default_rng(7), d=4, n=200),
                               alpha=alpha)
            np.testing.assert_array_equal(m.significant, np.abs(m.T) > z * m.stderr)
            np.testing.assert_array_equal(m.self_loop, np.abs(m.self) > z * m.self_stderr)

    def test_symmetry(self):
        assert reference_z(-0.90) == pytest.approx(-reference_z(0.90))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 2.0])
    def test_domain(self, alpha):
        p = random_walk_panel(np.random.default_rng(0), d=2, n=100)
        with pytest.raises(ValueError, match="alpha must be in"):
            estimate_flows(p, alpha=alpha)

    def test_p_value_matches_quantile(self):
        assert reference_p(1.6448536269514722, 1.0) == pytest.approx(0.10, abs=1e-10)
        # p < 1 - alpha exactly where the CI excludes zero, and each edge
        # reports that p bit for bit
        panel = random_walk_panel(np.random.default_rng(8), d=5, n=300)
        for alpha in (0.5, 0.9, 0.99):
            m = estimate_flows(panel, alpha=alpha)
            sig = reference_ci(m.T, m.stderr, alpha)[2]
            np.testing.assert_array_equal(sig, reference_p(m.T, m.stderr) < 1.0 - alpha)
            edges = build_graph(m, panel).edges
            assert len(edges) == np.count_nonzero(sig) > 0
            assert_edge_p(edges, alpha)


class TestVerdictThresholds:
    def test_verdicts_flip_at_the_quantile(self):
        # alpha = 2 Phi(t) - 1 puts z at t: a verdict holds just below its
        # own |value| / stderr and fails just above it
        def in_range(value, stderr):  # 0.5 <= |value| / stderr <= 3
            return (np.abs(value) >= 0.5 * stderr) & (np.abs(value) <= 3.0 * stderr)

        panel = random_walk_panel(np.random.default_rng(7), d=4, n=200)
        m = estimate_flows(panel)
        off = ~np.eye(m.d, dtype=bool)
        node = np.flatnonzero(in_range(m.self, m.self_stderr))[0]
        pair = tuple(np.argwhere(off & in_range(m.T, m.stderr))[0])
        cases = [
            ("self_loop", node, abs(m.self[node]) / m.self_stderr[node]),
            ("significant", pair, abs(m.T[pair]) / m.stderr[pair]),
        ]
        for verdict, index, ratio in cases:
            for scale, expected in ((1.0 - 1e-6, True), (1.0 + 1e-6, False)):
                alpha = 2.0 * NormalDist().cdf(ratio * scale) - 1.0
                got = getattr(estimate_flows(panel, alpha=alpha), verdict)[index]
                assert got == expected, (verdict, scale)


class TestInfoFlow:
    def test_self_pair_rejected(self, rng):
        # no flow from a variable to itself: the diagonal of every pairwise
        # array is empty, and self-influence is reported per node instead
        p = random_walk_panel(rng, d=3, n=100)
        m = estimate_flows(p)
        for a in (m.T, m.stderr, m.tau):
            assert np.all(np.diag(a) == 0.0)
        assert not np.any(np.diag(m.significant))

    def test_zero_cross_covariance_kills_flow(self):
        # C_12 = 0 exactly: the flow vanishes whatever the coefficient is.
        # Integer samples with zero sums and orthogonal rows make the
        # sample covariance exact in floating point.
        rng = np.random.default_rng(0)
        u, v = rng.integers(-9, 10, size=(2, 200)).astype(float)
        u[-1] -= u.sum()
        v[-1] -= v.sum()
        w = (u @ u) * v - (u @ v) * u
        data = np.hstack([np.vstack([u, w]), [[3.0], [-5.0]]])
        p = TimeSeriesPanel(data=data)
        assert compute_statistics(p, derive_series(p)).C[0, 1] == 0.0
        assert estimate_flows(p).T[1, 0] == 0.0

    @pytest.mark.parametrize("trial", range(20))
    def test_d2_reduction_identity(self, trial):
        p = random_walk_panel(np.random.default_rng(trial), d=2, n=80)
        st = compute_statistics(p, derive_series(p))
        t_multi = estimate_flows(p).T[1, 0]
        assert t_multi == pytest.approx(bivariate_flow(st), rel=1e-10)

    def test_no_accidental_symmetry(self, rng):
        p = random_walk_panel(rng, d=3, n=300)
        m = estimate_flows(p)
        assert m.T[1, 0] != m.T[0, 1]


class TestSelfInfluence:
    def test_decaying_ode(self):
        # dX/dt = -0.5 X, noise free
        dt = 1e-4
        t = np.arange(5000) * dt
        x = 3.0 * np.exp(-0.5 * t)
        p = TimeSeriesPanel(data=x[None, :], dt=dt)
        assert estimate_flows(p).self[0] == pytest.approx(-0.5, rel=1e-3)

    def test_white_noise_discretization_value(self):
        # for iid samples the forward-difference fit sees a_ii = -1/dt
        rng = np.random.default_rng(3)
        p = TimeSeriesPanel(data=rng.standard_normal((1, 100000)))
        m = estimate_flows(p)
        assert abs(m.self[0] - (-1.0)) < 3.0 * m.self_stderr[0]


class TestNoiseRate:
    def test_deterministic_data_has_no_noise(self):
        dt = 1e-4
        t = np.arange(5000) * dt
        x = 3.0 * np.exp(-0.5 * t)
        p = TimeSeriesPanel(data=x[None, :], dt=dt)
        assert estimate_flows(p).noise_rate[0] == pytest.approx(0.0, abs=1e-6)

    def test_ou_process_stationary_oracle(self):
        # dX = -X dt + dW: sigma = 1/2, g = 1 -> noise rate = 1, sampled
        # exactly from the stationary transition density
        rng = np.random.default_rng(2)
        dt, n = 0.01, 200000
        decay = np.exp(-dt)
        scale = np.sqrt((1.0 - np.exp(-2.0 * dt)) / 2.0)
        x = np.zeros(n)
        e = rng.standard_normal(n)
        for i in range(1, n):
            x[i] = decay * x[i - 1] + scale * e[i]
        p = TimeSeriesPanel(data=x[None, :], dt=dt)
        assert estimate_flows(p).noise_rate[0] == pytest.approx(1.0, rel=0.05)

    def test_var_noise_rate_matches_stationary_moments(self):
        # noise rate ~ g / (2 sigma_ii) with sigma the stationary VAR
        # covariance; holds at both noise amplitudes (ratio ~ 1)
        from scipy.linalg import solve_discrete_lyapunov

        from conftest import var6_spec
        from infoflow import simulate_var

        sigma_unit = solve_discrete_lyapunov(var6_spec().A, np.eye(6))
        expected = 1.0 / (2.0 * np.diag(sigma_unit))
        for b in (1.0, 100.0):
            panel = simulate_var(var6_spec(b=b, N=20000, seed=9))
            got = estimate_flows(panel).noise_rate
            np.testing.assert_allclose(got, expected, rtol=0.10)


def log_likelihood(theta, x, dot, dt, i):
    """Transition log likelihood of row i; reference for the Fisher test."""
    d = x.shape[0]
    f, a, b = theta[0], theta[1 : d + 1], theta[d + 1]
    resid = dot[i] - f - a @ x
    n = x.shape[1]
    return -0.5 * n * np.log(2.0 * np.pi * b * b * dt) - dt * (resid @ resid) / (
        2.0 * b * b
    )


class TestFisherBlock:
    def test_matches_finite_difference_hessian(self, rng):
        p = random_walk_panel(rng, d=3, n=500)
        der, st, rows = fitted(p)
        row = rows[1]
        fb = fisher_block(p, der, row, 1)
        x = p.data[:, : st.n_used]
        theta = np.concatenate([[row.f_hat], row.a_hat, [np.sqrt(row.g_hat)]])
        m = len(theta)
        h = 3e-4 * np.maximum(1.0, np.abs(theta))
        hess = np.empty((m, m))
        for a in range(m):
            for b in range(a, m):
                tpp = theta.copy(); tpp[a] += h[a]; tpp[b] += h[b]
                tpm = theta.copy(); tpm[a] += h[a]; tpm[b] -= h[b]
                tmp = theta.copy(); tmp[a] -= h[a]; tmp[b] += h[b]
                tmm = theta.copy(); tmm[a] -= h[a]; tmm[b] -= h[b]
                val = (
                    log_likelihood(tpp, x, der, p.dt, 1)
                    - log_likelihood(tpm, x, der, p.dt, 1)
                    - log_likelihood(tmp, x, der, p.dt, 1)
                    + log_likelihood(tmm, x, der, p.dt, 1)
                ) / (4.0 * h[a] * h[b])
                hess[a, b] = hess[b, a] = val
        analytic = -st.n_used * fb.matrix
        scale = np.max(np.abs(analytic))
        assert np.max(np.abs(hess - analytic)) / scale < 1e-4

    def test_symmetric_with_nonnegative_variances(self, rng):
        p = random_walk_panel(rng, d=4, n=300)
        der, st, rows = fitted(p)
        fb = fisher_block(p, der, rows[2], 2)
        np.testing.assert_allclose(fb.matrix, fb.matrix.T, rtol=1e-10)
        assert np.all(np.diag(fb.param_cov) >= 0.0)

    def test_param_cov_shrinks_like_one_over_n(self):
        rng = np.random.default_rng(17)
        x = np.zeros(40000)
        e = rng.standard_normal(40000)
        for t in range(1, 40000):
            x[t] = 0.7 * x[t - 1] + e[t]
        y = rng.standard_normal(40000)
        data = np.vstack([x, y])
        halves = []
        for n in (20000, 40000):
            p = TimeSeriesPanel(data=data[:, :n])
            der, st, rows = fitted(p)
            fb = fisher_block(p, der, rows[0], 0)
            halves.append(fb.coef_var(0))
        assert halves[0] / halves[1] == pytest.approx(2.0, rel=0.15)


class TestSignificance:
    def test_ci_arithmetic_at_90(self):
        ci_low, ci_high, significant = reference_ci(0.10, 0.01, alpha=0.90)
        assert ci_low == pytest.approx(0.10 - 1.6448536269514722 * 0.01, abs=1e-9)
        assert ci_high == pytest.approx(0.10 + 1.6448536269514722 * 0.01, abs=1e-9)
        assert significant

    def test_small_flow_not_significant(self):
        ci_low, ci_high, significant = reference_ci(0.005, 0.01, alpha=0.90)
        assert not significant
        assert ci_low < 0.0 < ci_high
        assert reference_p(0.005, 0.01) > 0.10

    def test_significant_iff_ci_excludes_zero(self, rng):
        p = random_walk_panel(rng, d=3, n=200)
        matrix = estimate_flows(p, alpha=0.90)
        ci_low, ci_high, _ = reference_ci(matrix.T, matrix.stderr, alpha=0.90)
        for j in range(3):
            for i in range(3):
                if j == i:
                    continue
                assert ci_low[j, i] <= matrix.T[j, i] <= ci_high[j, i]
                assert matrix.significant[j, i] == (ci_low[j, i] > 0.0 or ci_high[j, i] < 0.0)

    @given(
        seed=st_.integers(0, 2**32 - 1),
        d=st_.integers(1, 8),
        n=st_.integers(40, 300),
        dt=st_.sampled_from([0.01, 1.0, 5.0]),
        alpha=st_.one_of(st_.sampled_from([0.5, 0.9, 0.99]), st_.floats(1e-6, 1.0 - 1e-6)),
    )
    @settings(max_examples=100, deadline=None)
    def test_verdicts_and_p_are_the_reference_z_test(self, seed, d, n, dt, alpha):
        # bit for bit: a verdict is "the CI excludes zero", p is one erfc per edge
        p = random_walk_panel(np.random.default_rng(seed), d=d, n=n, dt=dt)
        m = estimate_flows(p, alpha=alpha)
        np.testing.assert_array_equal(m.significant, reference_ci(m.T, m.stderr, alpha)[2])
        np.testing.assert_array_equal(m.self_loop,
                                      reference_ci(m.self, m.self_stderr, alpha)[2])
        assert_edge_p(build_graph(m, p).edges, alpha)

    @given(
        value=st_.floats(allow_nan=False, allow_infinity=False),
        stderr=st_.floats(min_value=0.0, allow_infinity=False),
        alpha=st_.floats(1e-6, 1.0 - 1e-6),
    )
    @settings(max_examples=500, deadline=None)
    def test_abs_form_equals_ci_form(self, value, stderr, alpha):
        # |v| > z se, the estimator's form, is "the CI excludes zero" in
        # IEEE arithmetic too: a difference of unequal floats is never 0
        w = reference_z(alpha) * stderr
        assert (abs(value) > w) == ((value - w > 0.0) or (value + w < 0.0))

    def test_nil_causality_false_positive_rate(self):
        # independent AR(1) processes: roughly 10% of pairs flagged at 90%
        m, d, n = 150, 3, 600
        hits = total = 0
        for trial in range(m):
            rng = np.random.default_rng(5000 + trial)
            data = np.empty((d, n))
            e = rng.standard_normal((d, n))
            for r in range(d):
                x = np.zeros(n)
                for t in range(1, n):
                    x[t] = 0.5 * x[t - 1] + e[r, t]
                data[r] = x
            matrix = estimate_flows(TimeSeriesPanel(data=data), alpha=0.90)
            for j in range(d):
                for i in range(d):
                    if j != i:
                        total += 1
                        hits += matrix.significant[j, i]
        rate = hits / total
        assert abs(rate - 0.10) < 3.0 * np.sqrt(0.1 * 0.9 / total)


class TestNodeDiagnostics:
    def test_self_loop_uses_same_ci_machinery(self, rng):
        p = random_walk_panel(rng, d=2, n=300)
        m = estimate_flows(p, alpha=0.90)
        z = reference_z(0.90)
        expected = abs(m.self[0]) > z * m.self_stderr[0]
        assert m.self_loop[0] == expected
        assert m.noise_rate[0] >= 0.0


def max_rel(got, want, normwise=False):
    scale = np.max(np.abs(want)) if normwise else np.abs(want)
    return float(np.max(np.abs(got - want) / scale))


class TestClosedFormMatchesOracle:
    @given(
        seed=st_.integers(0, 2**32 - 1),
        d=st_.integers(2, 8),
        n=st_.integers(60, 400),
        dt=st_.sampled_from([0.01, 0.1, 1.0, 5.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_general_fisher_block(self, seed, d, n, dt):
        p = random_walk_panel(np.random.default_rng(seed), d=d, n=n, dt=dt)
        der = derive_series(p)
        ref = reference_flows(compute_statistics(p, der), p, der, alpha=0.90)
        m = estimate_flows(p, alpha=0.90)
        off = ~np.eye(d, dtype=bool)
        assert max_rel(m.T[off], ref["T"][off], normwise=True) <= 1e-12
        assert max_rel(m.self, ref["self"], normwise=True) <= 1e-12
        assert max_rel(m.stderr[off], ref["stderr"][off]) <= 1e-12
        assert max_rel(m.self_stderr, ref["self_stderr"]) <= 1e-12
        assert max_rel(m.noise_rate, ref["noise_rate"]) <= 1e-12
        np.testing.assert_array_equal(m.significant, ref["significant"])
        np.testing.assert_array_equal(m.self_loop, ref["self_loop"])


def fit_outcome(panel, k):
    """Every FlowMatrix array as bytes."""
    m = estimate_flows(panel, k=k, alpha=0.90)
    return {name: (v.dtype, v.shape, v.tobytes()) for name, v in vars(m).items()
            if isinstance(v, np.ndarray)}


class TestInputLayout:
    @given(
        seed=st_.integers(0, 2**32 - 1),
        d=st_.integers(2, 8),
        n=st_.integers(40, 300),
        k=st_.sampled_from([1, 2]),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_for_c_fortran_and_strided_data(self, seed, d, n, k):
        data = random_walk_panel(np.random.default_rng(seed), d=d, n=n).data
        copies = [
            np.ascontiguousarray(data),
            np.asfortranarray(data),
            np.repeat(data, 3, axis=1)[:, 1::3],
        ]
        outcomes = [fit_outcome(TimeSeriesPanel(data=c), k) for c in copies]
        assert outcomes[1] == outcomes[0]
        assert outcomes[2] == outcomes[0]


class TestSingularInformation:
    def test_constant_derivative_has_zero_residual_variance(self, rng):
        # X1 = n has the exact derivative 1, so its row fits with no residual
        x = np.cumsum(rng.standard_normal(200))
        p = TimeSeriesPanel(data=np.vstack([np.arange(200.0), x]))
        with pytest.raises(SingularInformationError) as exc:
            estimate_flows(p)
        assert str(exc.value) == ("target 'X1': residual variance is zero, "
                                  "information matrix undefined")
        assert exc.value.exit_code == 5


class TestInputLimits:
    def test_stride_must_leave_more_samples_than_parameters(self):
        # N - k <= d + 1 samples fit each row's d + 1 parameters exactly
        # (g ~ 1e-35 at N - k = 7 here); N - k = d + 2 is the least accepted
        from conftest import var6_spec
        from infoflow import simulate_var

        p = simulate_var(var6_spec(b=1.0, N=10000, seed=0))
        with pytest.raises(ValueError, match=r"stride k=9993 leaves N - k = 7 samples"):
            estimate_flows(p, k=p.n - p.d - 1)
        assert estimate_flows(p, k=p.n - p.d - 2).k == 9992

    def test_covariance_underflow_is_named(self, capfd):
        # every series varies, but C's entries (~1e-338) underflow to 0
        data = np.cumsum(np.random.default_rng(1).standard_normal((3, 200)), axis=1) * 1e-170
        with pytest.raises(DegenerateInputError,
                           match="'X1': values are too small for a float64 covariance"):
            estimate_flows(TimeSeriesPanel(data=data))
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("level", [3.0, 1e-170])
    def test_constant_series_has_zero_variance(self, level):
        data = np.cumsum(np.random.default_rng(1).standard_normal((3, 200)), axis=1)
        data[1] = level
        with pytest.raises(DegenerateInputError, match="'X2' has zero variance"):
            estimate_flows(TimeSeriesPanel(data=data))

    def test_coefficient_variance_overflow_is_degenerate_input(self):
        # g stays finite (<= 2e154), but g (C^-1)_jj / (dt n) overflows for the
        # shrunken X1: no RuntimeWarning (warnings are errors in this suite)
        from infoflow.simgen import preset_panel

        data = preset_panel("var6-b100-short")[0].data * np.array([[1e-4]] + [[1.0]] * 5)
        with pytest.raises(DegenerateInputError, match="target 'X3': residual or coefficient "
                                                       "variance is too large for float64"):
            estimate_flows(TimeSeriesPanel(data=data, dt=10**-150.25))

    def test_small_dt_keeps_verdicts_and_tau(self):
        # dt = 1e-160 overflows g (exit 3, see test_cli); 1e-150 does not
        from infoflow.simgen import preset_panel

        data = preset_panel("var6-b100-short")[0].data
        a = estimate_flows(TimeSeriesPanel(data=data, dt=1.0))
        b = estimate_flows(TimeSeriesPanel(data=data, dt=1e-150))
        assert np.array_equal(a.significant, b.significant)
        assert np.array_equal(a.self_loop, b.self_loop)
        np.testing.assert_allclose(b.tau, a.tau, rtol=0, atol=1e-15)

    def test_covariance_overflow_is_degenerate_input(self, capfd):
        # C overflows float64: no RuntimeWarning (warnings are errors in
        # this suite), nothing from LAPACK on stderr, and exit code 3
        data = np.cumsum(np.random.default_rng(1).standard_normal((3, 200)), axis=1) * 1e155
        with pytest.raises(DegenerateInputError, match="too large for a float64 covariance"):
            estimate_flows(TimeSeriesPanel(data=data))
        assert capfd.readouterr().err == ""
