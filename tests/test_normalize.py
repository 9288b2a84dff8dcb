import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from infoflow import DegenerateNormalizerError, estimate_flows, normalize_flows

from conftest import random_walk_panel


def normalize_target(inflows, self_influence, noise):
    """Normalize target 0 of a flow matrix whose column 0 is ``inflows``
    (entry 0 unused); every other target is pure self-influence."""
    d = len(inflows)
    T = np.zeros((d, d))
    T[1:, 0] = inflows[1:]
    nf = normalize_flows(T, [self_influence] + [1.0] * (d - 1), [noise] + [0.0] * (d - 1))
    assert np.all(nf.tau[:, 1:] == 0.0)
    return nf.Z[0], nf.tau[:, 0], nf.self_share[0], nf.noise_share[0]


class TestNormalizeFlows:
    def test_single_flow_dominates(self):
        # zero self and noise terms: the lone inflow carries 100%
        Z, tau, _, _ = normalize_target([None, 0.25], 0.0, 0.0)
        assert tau[1] == pytest.approx(1.0)
        assert Z == pytest.approx(0.25)

    def test_budget_sums_to_one(self):
        Z, tau, self_share, noise_share = normalize_target([None, 0.1, -0.3], -0.8, 0.4)
        total = self_share + noise_share + np.sum(np.abs(tau))
        assert total == pytest.approx(1.0, rel=1e-12)
        assert Z == pytest.approx(0.8 + 0.1 + 0.3 + 0.4)

    def test_scale_invariance(self):
        _, a, _, _ = normalize_target([None, 0.1, -0.3], -0.8, 0.4)
        c = 17.0
        _, b, _, _ = normalize_target([None, 0.1 * c, -0.3 * c], -0.8 * c, 0.4 * c)
        np.testing.assert_allclose(b, a, rtol=1e-12)

    def test_degenerate_normalizer(self):
        with pytest.raises(DegenerateNormalizerError):
            normalize_target([None, 0.0], 0.0, 0.0)

    def test_mismatched_target_rejected(self):
        # per-target vectors that do not match the flow matrix's targets
        with pytest.raises(ValueError):
            normalize_flows(np.zeros((2, 2)), [1.0], [0.1, 0.1])

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
        _, tau, _, _ = normalize_target([None] + ts, self_inf, noise)
        assert np.all(np.abs(tau) <= 1.0 + 1e-12)
        for j, t in enumerate(ts):
            assert np.sign(tau[j + 1]) == np.sign(t)

    def test_pipeline_consistency(self, rng):
        p = random_walk_panel(rng, d=3, n=200)
        matrix = estimate_flows(p)
        nf = normalize_flows(matrix.T, matrix.self, matrix.noise_rate)
        np.testing.assert_array_equal(matrix.tau, nf.tau)
        for i in range(3):
            for j in range(3):
                if j != i:
                    assert nf.tau[j, i] == pytest.approx(
                        matrix.T[j, i] / nf.Z[i], rel=1e-12
                    )
