import json
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from infoflow import (
    DegenerateInputError,
    SingularCovarianceError,
    SingularInformationError,
    TimeSeriesPanel,
    estimate_flows,
)
from infoflow.estimator import COND_LIMIT
from infoflow.graph import build_graph, to_json
from infoflow.simgen import preset_panel

from conftest import random_walk_panel
from oracles import (
    cofactor_solution,
    compute_statistics,
    derive_series,
    fit_row,
    reference_ci,
    reference_flows,
    reference_p,
    reference_z,
)


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
            np.testing.assert_array_equal(np.diag(m.significant),
                                          np.abs(np.diag(m.T)) > z * np.diag(m.stderr))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 2.0,
                                       pytest.param(10**5000, id="10**5000")])
    def test_domain(self, alpha):
        p = random_walk_panel(np.random.default_rng(0), d=2, n=100)
        with pytest.raises(ValueError, match="alpha must be in"):
            estimate_flows(p, alpha=alpha)

    def test_alpha_that_is_not_a_number_is_named(self):
        p = random_walk_panel(np.random.default_rng(0), d=2, n=100)
        with pytest.raises(ValueError, match=r"^alpha must be a number, got '0\.9'$"):
            estimate_flows(p, alpha="0.9")

    def test_alpha_whose_quantile_level_rounds_to_one(self):
        # (1 + alpha) / 2 rounds to 1 at the largest double below 1, whose
        # z would be infinite; 1 - 2^-52 still has a finite z
        p = random_walk_panel(np.random.default_rng(0), d=2, n=100)
        with pytest.raises(ValueError, match=r"^alpha must be in \(0, 1 - 2\*\*-52\], "
                                             r"got 0\.9999999999999999$"):
            estimate_flows(p, alpha=1.0 - 2.0**-53)
        assert estimate_flows(p, alpha=1.0 - 2.0**-52).alpha == 1.0 - 2.0**-52

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
            # the diagonal verdicts are self-loops, not edges
            assert len(edges) == np.count_nonzero(sig & ~np.eye(m.d, dtype=bool)) > 0
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
        node = np.flatnonzero(in_range(np.diag(m.T), np.diag(m.stderr)))[0]
        pair = tuple(np.argwhere(off & in_range(m.T, m.stderr))[0])
        for index in ((node, node), pair):
            ratio = abs(m.T[index]) / m.stderr[index]
            for scale, expected in ((1.0 - 1e-6, True), (1.0 + 1e-6, False)):
                alpha = 2.0 * NormalDist().cdf(ratio * scale) - 1.0
                got = estimate_flows(panel, alpha=alpha).significant[index]
                assert got == expected, (index, scale)


class TestInfoFlow:
    def test_diagonal_holds_the_self_terms(self, rng):
        # T[i, i] is a_ii, stderr[i, i] its standard error
        # sqrt(g_i (C^-1)_ii / (dt n)), and significant[i, i] is the z-test
        # every flow gets
        p = random_walk_panel(rng, d=3, n=100)
        der = derive_series(p)
        st = compute_statistics(p, der)
        rows = [fit_row(st, p, der, i) for i in range(p.d)]
        a_ii = [row.a_hat[i] for i, row in enumerate(rows)]
        g = np.array([row.g_hat for row in rows])
        se = np.sqrt(g * np.diag(np.linalg.inv(st.C)) / p.dt / st.n_used)
        for alpha in (0.5, 0.9, 0.99):
            m = estimate_flows(p, alpha=alpha)
            np.testing.assert_allclose(np.diag(m.T), a_ii, rtol=1e-12)
            np.testing.assert_allclose(np.diag(m.stderr), se, rtol=1e-12)
            np.testing.assert_array_equal(
                np.diag(m.significant),
                reference_ci(np.diag(m.T), np.diag(m.stderr), alpha)[2])

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

    def test_no_accidental_symmetry(self, rng):
        p = random_walk_panel(rng, d=3, n=300)
        m = estimate_flows(p)
        assert m.T[1, 0] != m.T[0, 1]


class TestSelfInfluence:
    def test_decaying_ode(self):
        # dX/dt = -0.5 X, noise free: a_ii is -0.5 and the noise rate is 0
        dt = 1e-4
        t = np.arange(5000) * dt
        x = 3.0 * np.exp(-0.5 * t)
        m = estimate_flows(TimeSeriesPanel(data=x[None, :], dt=dt))
        assert m.T[0, 0] == pytest.approx(-0.5, rel=1e-3)
        assert m.noise_rate[0] == pytest.approx(0.0, abs=1e-6)

    def test_white_noise_discretization_value(self):
        # for iid samples the forward-difference fit sees a_ii = -1/dt
        rng = np.random.default_rng(3)
        p = TimeSeriesPanel(data=rng.standard_normal((1, 100000)))
        m = estimate_flows(p)
        assert abs(m.T[0, 0] - (-1.0)) < 3.0 * m.stderr[0, 0]


class TestNoiseRate:
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


class TestSignificance:
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
        assert_edge_p(build_graph(m, p).edges, alpha)


def max_rel(got, want, normwise=False):
    scale = np.max(np.abs(want)) if normwise else np.abs(want)
    return float(np.max(np.abs(got - want) / scale))


class TestClosedFormMatchesOracle:
    @given(
        seed=st_.integers(0, 2**32 - 1),
        d=st_.integers(1, 8),
        n=st_.integers(60, 400),
        dt=st_.sampled_from([0.01, 0.1, 1.0, 5.0]),
        k=st_.sampled_from([1, 2, 3]),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_general_fisher_block(self, seed, d, n, dt, k):
        p = random_walk_panel(np.random.default_rng(seed), d=d, n=n, dt=dt)
        der = derive_series(p, k)
        ref = reference_flows(compute_statistics(p, der), p, der, alpha=0.90)
        m = estimate_flows(p, k=k, alpha=0.90)
        if d > 1:
            off = ~np.eye(d, dtype=bool)
            assert max_rel(m.T[off], ref["T"][off], normwise=True) <= 1e-12
            assert max_rel(np.diag(m.T), np.diag(ref["T"]), normwise=True) <= 1e-12
        else:
            # a lone a_11 can be 1e-4 of its stderr, and Cd's cancellation
            # leaves both paths eps * sum|xc dc| / |sum xc dc| of it apart
            # (2.4e-12 relative in 1 of 6000 draws): measure it on the z-test's scale
            t, ref_t, ref_se = m.T[0, 0], ref["T"][0, 0], ref["stderr"][0, 0]
            assert abs(t - ref_t) <= 1e-12 * max(abs(ref_t), ref_se)
        assert max_rel(m.stderr, ref["stderr"]) <= 1e-12
        assert max_rel(m.noise_rate, ref["noise_rate"]) <= 1e-12
        np.testing.assert_array_equal(m.significant, ref["significant"])

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_matches_cofactor_expansion(self, d):
        # T[j, i] = a_ij C_ij / C_ii, with row i of the normal equations
        # solved by explicit cofactor expansion
        p = random_walk_panel(np.random.default_rng(100 + d), d=d, n=400)
        st = compute_statistics(p, derive_series(p, k=1))
        m = estimate_flows(p)
        for i in range(d):
            a = cofactor_solution(st, i)
            np.testing.assert_allclose(m.T[:, i], a * st.C[i] / st.C[i, i], rtol=1e-8)


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
    def test_stride_must_leave_more_samples_than_parameters(self, capfd):
        # N - k <= d + 1 samples fit each row's d + 1 parameters exactly
        # (g ~ 1e-35 at N - k = 7 here); N - k = d + 2 is the least accepted.
        # k = N is rejected before any mean of an empty slice is taken.
        from conftest import var6_spec
        from infoflow import simulate_var

        p = simulate_var(var6_spec(b=1.0, N=10000, seed=0))
        message = r"^stride k must be an integer in \[1, 9993\), got "
        with pytest.raises(ValueError, match=message + "10000$"):
            estimate_flows(p, k=p.n)
        assert capfd.readouterr().err == ""
        with pytest.raises(ValueError, match=message + "9993$"):
            estimate_flows(p, k=p.n - p.d - 1)
        assert estimate_flows(p, k=p.n - p.d - 2).k == 9992

    @pytest.mark.parametrize("k", [0, -3, 493, 498, 500, 10**20, True, 1.5, 2.0,
                                   pytest.param(10**5000, id="10**5000")])
    def test_one_stride_check_with_one_message(self, capfd, k):
        # var6-b100-short has N = 500 and d = 6.  Whatever is wrong with k,
        # the one message names the range, before anything is allocated
        # (k = 500 = N would take the mean of an empty slice).  An integer
        # beyond float64 is shown as inf, not as its digits.
        p, _ = preset_panel("var6-b100-short")
        with pytest.raises(ValueError) as exc:
            estimate_flows(p, k=k)
        shown = "inf" if k == 10**5000 else repr(k)
        assert str(exc.value) == f"stride k must be an integer in [1, 493), got {shown}"
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("k", [492, np.int64(2)])
    def test_stride_is_stored_as_an_int(self, k):
        p, _ = preset_panel("var6-b100-short")
        m = estimate_flows(p, k=k)
        assert type(m.k) is int and m.k == k
        stored = json.loads(to_json(build_graph(m, p)))["meta"]["k"]
        assert type(stored) is int and stored == m.k

    @pytest.mark.parametrize("level", [3.0, 1e-170])
    def test_constant_series_has_zero_variance(self, level):
        data = np.cumsum(np.random.default_rng(1).standard_normal((3, 200)), axis=1)
        data[1] = level
        with pytest.raises(DegenerateInputError, match="'X2' has zero variance"):
            estimate_flows(TimeSeriesPanel(data=data))

    def test_series_within_a_few_ulp_of_its_mean_is_rejected(self):
        # std 1e-15 is 4.5 ulp of 1: rounding noise that equilibration would
        # otherwise blow up to full scale
        data = np.cumsum(np.random.default_rng(1).standard_normal((3, 200)), axis=1)
        data[2] = 1.0 + 1e-15 * np.random.default_rng(2).standard_normal(200)
        with pytest.raises(DegenerateInputError,
                           match="^variable 'X3' has zero variance at float64 resolution "
                                 r"\(std <= 8 ulp of its mean\)$"):
            estimate_flows(TimeSeriesPanel(data=data))
        data[2] = 1.0 + 1e-13 * np.random.default_rng(2).standard_normal(200)
        assert estimate_flows(TimeSeriesPanel(data=data)).d == 3

    def test_values_that_overflow_when_centred(self, capfd):
        # the row sums of 200 values near 1e307 overflow the mean
        data = np.cumsum(np.random.default_rng(1).standard_normal((3, 200)), axis=1) * 1e306
        with pytest.raises(DegenerateInputError,
                           match="^variable 'X1': values are too large for float64$"):
            estimate_flows(TimeSeriesPanel(data=data))
        assert capfd.readouterr().err == ""

    def test_small_dt_keeps_verdicts_and_tau(self):
        # dt enters the outputs only as the final factor 1 / (k dt)
        data = preset_panel("var6-b100-short")[0].data
        a = estimate_flows(TimeSeriesPanel(data=data, dt=1.0))
        for dt in (1e-150, 1e-160, 1e-300):
            b = estimate_flows(TimeSeriesPanel(data=data, dt=dt))
            assert np.array_equal(a.significant, b.significant)
            assert np.array_equal(b.tau, a.tau)
            np.testing.assert_allclose(b.T * dt, a.T, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("preset, seed, scale, dt", [
        # each of these exited 3, 4 or 5, or flipped a verdict, when the
        # checks ran in the input's units
        pytest.param("var6-b1", 2, [[1e5], [1], [1], [1e-5], [1], [1]], 1.0, id="x1*1e5-x4/1e5"),
        pytest.param("var6-b100-short", 0, 1e-160, 1.0, id="x1e-160"),
        pytest.param("var6-b100-short", 0, 1e-170, 1.0, id="x1e-170"),
        pytest.param("var6-b100-short", 0, [[1e-4]] + [[1]] * 5, 10**-150.25,
                     id="x1*1e-4-dt1e-150.25"),
        pytest.param("var6-b100-short", 0, 1.0, 1e160, id="dt1e160"),
        pytest.param("var6-b100-short", 0, 1.0, 1e300, id="dt1e300"),
        pytest.param("var6-b100-short", 0, 1.9e147, 1e300, id="x1.9e147-dt1e300"),
        # the residual variance g_1 ~ 1e4 * (1e155)^2 = 1e314, which has no
        # float64, is not an output: the rates are those of the unit panel
        pytest.param("var6-b100-short", 0, 1e155, 1.0, id="x1e155"),
    ])
    def test_extreme_units_keep_the_unit_verdicts(self, capfd, preset, seed, scale, dt):
        data = preset_panel(preset, seed=seed)[0].data
        unit = estimate_flows(TimeSeriesPanel(data=data))
        m = estimate_flows(TimeSeriesPanel(data=data * np.asarray(scale), dt=dt))
        assert np.array_equal(m.significant, unit.significant)
        assert max_rel(m.tau, unit.tau, normwise=True) <= 1e-12
        assert max_rel(m.T * dt, unit.T, normwise=True) <= 1e-12
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("k", [2, 3])
    def test_rates_lost_to_underflow_are_degenerate_input(self, k):
        # at dt = 1.8e308, k dt is inf and every rate ~ 1 / (k dt) is 0, and
        # a significant edge with T = 0 and stderr = 0 has no p
        data = np.cumsum(np.random.default_rng(1).standard_normal((3, 200)), axis=1)
        with pytest.raises(DegenerateInputError,
                           match=r"^target 'X1': flow or noise rate is outside float64 "
                                 r"at k\*dt = inf$"):
            estimate_flows(TimeSeriesPanel(data=data, dt=1.7976931348623157e308), k=k)

    @pytest.mark.parametrize("dt, shown", [(1.0, r"2\.0"), (1.7976931348623157e308, "inf")])
    def test_differences_far_beyond_the_values_are_one_error(self, capfd, dt, shown):
        # the last k = 2 values outgrow the first N - k by ~1e600, so the
        # unit conversion 2^(p_x - p_d) and the noise rate pass 2^1023: one
        # error, no RuntimeWarning (warnings are errors in this suite)
        rng = np.random.default_rng(0)
        data = rng.standard_normal((2, 40)) * 1e-300
        data[:, -2:] = rng.standard_normal((2, 2)) * 1e300
        with pytest.raises(DegenerateInputError,
                           match=rf"^target 'X1': flow or noise rate is outside float64 "
                                 rf"at k\*dt = {shown}$"):
            estimate_flows(TimeSeriesPanel(data=data, dt=dt), k=2)
        assert capfd.readouterr().err == ""


def equilibrated_cond(data, n):
    """cond(C) of the first n columns, raw and with each centred row scaled
    by the power of two that brings its largest |value| into [0.5, 1)."""
    xc = data[:, :n] - data[:, :n].mean(axis=1)[:, None]
    xs = xc * np.ldexp(1.0, -np.frexp(np.abs(xc).max(axis=1))[1])[:, None]
    return np.linalg.cond(xc @ xc.T / n), np.linalg.cond(xs @ xs.T / n)


class TestEquilibratedConditionCheck:
    def test_cond_check_runs_on_the_equilibrated_covariance(self):
        # Two near-collinear series whose largest deviations, 8.05 and 7.97,
        # straddle a power of two: equilibration unbalances them, so a raw
        # cond(C) just under COND_LIMIT becomes one above it.  van der Sluis
        # (1969) bounds the change by a factor d.
        rng = np.random.default_rng(3)
        u, v = np.cumsum(rng.standard_normal(400)), rng.standard_normal(400)
        u *= 8.05 / np.max(np.abs(u[:-1] - u[:-1].mean()))
        near = np.vstack([u, 0.99 * u + 9e-6 * v])
        raw, equilibrated = equilibrated_cond(near, 399)
        assert raw < 0.9 * COND_LIMIT and equilibrated > 1.1 * COND_LIMIT
        with pytest.raises(SingularCovarianceError, match="near-singular"):
            estimate_flows(TimeSeriesPanel(data=near))
        # and the reverse: the units of one series take the raw cond far
        # above the limit, and equilibration removes them
        far = np.vstack([u, 1e4 * (0.99 * u + 1.2e-5 * v)])
        raw, equilibrated = equilibrated_cond(far, 399)
        assert equilibrated < 0.9 * COND_LIMIT < 1e6 * COND_LIMIT < raw
        assert estimate_flows(TimeSeriesPanel(data=far)).d == 2


class TestInvariance:
    # one map a_i x + b_i per series: log10 |a_i| in [-300, 300], the sign
    # of a_i, and b_i / a_i in [-100, 100]
    @given(seed=st_.integers(0, 2**32 - 1), n=st_.integers(60, 300),
           rows=st_.lists(st_.tuples(st_.floats(-300, 300), st_.booleans(),
                                     st_.floats(-100, 100)), min_size=2, max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_affine_maps_keep_T_tau_and_verdicts(self, seed, n, rows):
        p = random_walk_panel(np.random.default_rng(seed), d=len(rows), n=n)
        a = np.array([(-1.0 if neg else 1.0) * 10.0 ** e for e, neg, _ in rows])[:, None]
        b = a * np.array([c for _, _, c in rows])[:, None]
        unit = estimate_flows(p)
        m = estimate_flows(TimeSeriesPanel(data=a * p.data + b))
        assert np.array_equal(m.significant, unit.significant)
        for name in ("T", "tau", "stderr", "noise_rate"):
            assert max_rel(getattr(m, name), getattr(unit, name), normwise=True) <= 1e-12

    @given(seed=st_.integers(0, 2**32 - 1), d=st_.integers(1, 5), n=st_.integers(40, 300),
           k=st_.sampled_from([1, 2, 3]), dt=st_.floats(1e-150, 1e150))
    @settings(max_examples=80, deadline=None)
    def test_dt_is_a_final_factor(self, seed, d, n, k, dt):
        data = random_walk_panel(np.random.default_rng(seed), d=d, n=n).data
        unit = estimate_flows(TimeSeriesPanel(data=data), k=k)
        m = estimate_flows(TimeSeriesPanel(data=data, dt=dt), k=k)
        assert np.array_equal(m.significant, unit.significant)
        assert np.array_equal(m.tau, unit.tau)
        for name in ("T", "stderr", "noise_rate"):
            np.testing.assert_allclose(getattr(m, name) * dt, getattr(unit, name),
                                       rtol=1e-15, atol=0.0)

    @given(seed=st_.integers(0, 2**32 - 1), n=st_.integers(60, 300),
           perm=st_.integers(2, 5).flatmap(lambda d: st_.permutations(range(d))))
    @settings(max_examples=80, deadline=None)
    def test_permutation_relabels_every_output(self, seed, n, perm):
        p = random_walk_panel(np.random.default_rng(seed), d=len(perm), n=n)
        unit = estimate_flows(p)
        m = estimate_flows(TimeSeriesPanel(data=p.data[perm]))
        pair = np.ix_(perm, perm)
        assert np.array_equal(m.significant, unit.significant[pair])
        for name in ("T", "tau", "stderr"):
            assert max_rel(getattr(m, name), getattr(unit, name)[pair], normwise=True) <= 1e-12
        assert max_rel(m.noise_rate, unit.noise_rate[perm], normwise=True) <= 1e-12
