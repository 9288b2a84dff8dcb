import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st_

from infoflow import TimeSeriesPanel, estimate_flows

from conftest import random_walk_panel
from oracles import reference_normalize


class TestNormalizeFlows:
    @given(
        seed=st_.integers(0, 2**32 - 1),
        d=st_.integers(1, 6),
        n=st_.integers(40, 200),
    )
    @settings(max_examples=40, deadline=None)
    def test_tau_bounded_and_sign_preserving(self, seed, d, n):
        m = estimate_flows(random_walk_panel(np.random.default_rng(seed), d=d, n=n))
        assert np.all(np.abs(m.tau) <= 1.0 + 1e-12)
        np.testing.assert_array_equal(np.sign(m.tau), np.sign(m.T))

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
