import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from infoflow import TimeSeriesPanel, estimate_flows

from conftest import random_walk_panel
from oracles import reference_normalize


def normalize_target(inflows, self_influence, noise):
    """Normalize target 0 of a flow matrix whose column 0 is ``inflows``
    (entry 0 is the self-influence); every other target is pure
    self-influence."""
    d = len(inflows)
    T = np.eye(d)
    T[0, 0] = self_influence
    T[1:, 0] = inflows[1:]
    Z, tau, noise_share = reference_normalize(T, [noise] + [0.0] * (d - 1))
    assert np.all(tau[:, 1:] == np.eye(d)[:, 1:])
    return Z[0], tau[:, 0], noise_share[0]


class TestNormalizeFlows:
    def test_single_flow_dominates(self):
        # zero self and noise terms: the lone inflow carries 100%
        Z, tau, _ = normalize_target([None, 0.25], 0.0, 0.0)
        assert tau[1] == pytest.approx(1.0)
        assert Z == pytest.approx(0.25)

    def test_budget_sums_to_one(self):
        Z, tau, noise_share = normalize_target([None, 0.1, -0.3], -0.8, 0.4)
        total = noise_share + np.sum(np.abs(tau))
        assert total == pytest.approx(1.0, rel=1e-12)
        assert Z == pytest.approx(0.8 + 0.1 + 0.3 + 0.4)

    def test_scale_invariance(self):
        _, a, _ = normalize_target([None, 0.1, -0.3], -0.8, 0.4)
        c = 17.0
        _, b, _ = normalize_target([None, 0.1 * c, -0.3 * c], -0.8 * c, 0.4 * c)
        np.testing.assert_allclose(b, a, rtol=1e-12)

    @given(
        ts=st_.lists(
            st_.floats(min_value=-5, max_value=5, allow_nan=False,
                       allow_subnormal=False),
            min_size=2, max_size=6,
        ),
        self_inf=st_.floats(min_value=-5, max_value=5, allow_nan=False,
                            allow_subnormal=False),
        noise=st_.floats(min_value=0, max_value=5, allow_nan=False,
                         allow_subnormal=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_tau_bounded_and_sign_preserving(self, ts, self_inf, noise):
        if abs(self_inf) + sum(abs(t) for t in ts) + noise == 0.0:
            return
        _, tau, _ = normalize_target([None] + ts, self_inf, noise)
        assert np.all(np.abs(tau) <= 1.0 + 1e-12)
        for j, t in enumerate(ts):
            assert np.sign(tau[j + 1]) == np.sign(t)

    def test_pipeline_consistency(self, rng):
        p = random_walk_panel(rng, d=3, n=200)
        matrix = estimate_flows(p)
        Z, tau, _ = reference_normalize(matrix.T, matrix.noise_rate)
        np.testing.assert_array_equal(matrix.tau, tau)
        for i in range(3):
            for j in range(3):
                if j != i:
                    assert matrix.tau[j, i] == pytest.approx(
                        matrix.T[j, i] / Z[i], rel=1e-12
                    )

    @given(
        seed=st_.integers(0, 2**32 - 1),
        d=st_.integers(1, 8),
        n=st_.integers(40, 300),
        dt=st_.sampled_from([0.01, 1.0, 5.0]),
        scale=st_.sampled_from([1e-100, 1.0, 1e100]),
    )
    @settings(max_examples=60, deadline=None)
    def test_estimator_tau_is_the_reference_normalization(self, seed, d, n, dt, scale):
        # tau is formed in the estimator's equilibrated units and T in the
        # input's: where k dt is a power of two the unit change is exact and
        # tau is the reference bit for bit, otherwise T and the noise rates
        # carry one rounding each.  The noise share and the |tau| column of
        # each target's budget sum to one.
        p = random_walk_panel(np.random.default_rng(seed), d=d, n=n, dt=dt)
        m = estimate_flows(TimeSeriesPanel(data=scale * p.data, dt=dt))
        Z, tau, noise_share = reference_normalize(m.T, m.noise_rate)
        if dt == 1.0:
            np.testing.assert_array_equal(m.tau, tau)
        np.testing.assert_allclose(m.tau, tau, rtol=1e-15, atol=0.0)
        total = noise_share + np.abs(m.tau).sum(axis=0)
        np.testing.assert_allclose(total, 1.0, rtol=0.0, atol=1e-12)
        # the same budget as |a_ii| + sum_{j != i} |T[j, i]| + noise_rate_i
        off = np.abs(m.T) * ~np.eye(d, dtype=bool)
        three_term = np.abs(np.diag(m.T)) + off.sum(axis=0) + m.noise_rate
        np.testing.assert_allclose(Z, three_term, rtol=1e-15, atol=0.0)
