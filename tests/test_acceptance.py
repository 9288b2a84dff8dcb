"""End-to-end acceptance checks for the causal-graph reconstruction pipeline.

Each test prints a single PASS/FAIL line per criterion clause (bypassing
output capture) so the verdicts are visible in any pytest run.  The
benchmark-value targets are external reference numbers for the built-in
6-node VAR network and the coupled-oscillator confounder scenario.
"""

import json
import time

import numpy as np
import pytest

from infoflow import (
    ROSSLER_OSCILLATOR_ROWS,
    RosslerSpec,
    TimeSeriesPanel,
    estimate_flows,
    simulate_rossler,
    simulate_var,
)
from infoflow.cli import main

from conftest import var6_spec
from oracles import compute_statistics, derive_series, fisher_block, fit_row

N_SEEDS = 50
ALPHA = 0.90

# True edge set of the 6-node benchmark, 1-based (source, target).
TRUE_EDGES = ((1, 2), (2, 3), (3, 1), (4, 5), (5, 4), (6, 2), (6, 5))
# The 23 ordered pairs with no direct link, X6's confounded pairs among them.
NULL_PAIRS = tuple((j, i) for j in range(1, 7) for i in range(1, 7)
                   if j != i and (j, i) not in TRUE_EDGES)

# Reference |T| for the true edges, long clean series (b=1, N=10000).
REF_T_B1 = (0.01, 0.09, 0.05, 0.04, 0.05, 0.19, 0.18)

# Reference |dH*/dt| per node, same setting.
REF_SELF = (1.00, 1.01, 1.01, 0.30, 1.00, 1.49)

# Reference |T| and 90% errors for the short heavy-noise series
# (b=100, N=500), same edge order as TRUE_EDGES.
REF_T_SHORT = (0.02, 0.13, 0.04, 0.07, 0.06, 0.17, 0.19)
REF_ERR_SHORT = (0.00, 0.01, 0.00, 0.01, 0.06, 0.01, 0.02)


def report(capsys, label, ok, detail=""):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        suffix = f"  [{detail}]" if detail else ""
        print(f"\nACCEPTANCE {label}: {verdict}{suffix}")
    return ok


def analyze_var6(b, N, seed):
    """One benchmark run: edge set, per-edge |T|, self terms and their
    stderr, key taus."""
    panel = simulate_var(var6_spec(b=b, N=N, seed=seed))
    matrix = estimate_flows(panel, k=1, alpha=ALPHA)
    edges = {(j + 1, i + 1) for j, i in zip(*np.nonzero(matrix.significant))}
    abs_T = {e: abs(matrix.T[e[0] - 1, e[1] - 1]) for e in TRUE_EDGES}
    self_abs = tuple(np.abs(np.diag(matrix.T)))
    taus = {}
    for src, dst in ((6, 2), (6, 5), (4, 5), (5, 4)):
        taus[(src, dst)] = matrix.tau[src - 1, dst - 1]
    return {"edges": edges, "abs_T": abs_T, "self": self_abs, "tau": taus,
            "self_T": np.diag(matrix.T), "self_stderr": np.diag(matrix.stderr)}


def check_recovery(capsys, label, runs, min_hits):
    """Graph recovery at the level a calibrated z-test can promise.

    Exact recovery of all 30 ordered pairs is not the criterion: with the
    23 null pairs each significant with probability 1 - ALPHA, a calibrated
    test keeps them all silent in only about 0.9**23 ~ 9% of seeds.  Instead:

    1. every true edge is significant in at least ``min_hits`` seeds;
    2. the pairs significant in more than half the seeds are exactly
       TRUE_EDGES, so a confounder-induced link (e.g. 2 <-> 5) would show;
    3. the pooled false-positive rate over the null tests lies within
       3 sigma of 1 - ALPHA (two-sided, as in criterion 8), so neither a
       liberal test nor one that silences everything passes.
    """
    hits = {p: sum(p in r["edges"] for r in runs) for p in TRUE_EDGES + NULL_PAIRS}
    weakest = min(hits[e] for e in TRUE_EDGES)
    majority = {p for p, h in hits.items() if h > len(runs) / 2}
    tests = len(NULL_PAIRS) * len(runs)
    rate = sum(hits[p] for p in NULL_PAIRS) / tests
    band = 3.0 * np.sqrt(ALPHA * (1.0 - ALPHA) / tests)
    extra = sorted(majority - set(TRUE_EDGES))
    missing = sorted(set(TRUE_EDGES) - majority)
    ok = (weakest >= min_hits and not extra and not missing
          and abs(rate - (1.0 - ALPHA)) <= band)
    graph = "= true edges" if not (extra or missing) else f"+{extra} -{missing}"
    report(capsys, label, ok,
           f"weakest true edge {weakest}/{len(runs)} (need {min_hits}), "
           f"majority graph {graph}, null FP rate {rate:.3f} "
           f"(band {1.0 - ALPHA:.2f} +/- {band:.3f})")
    assert ok


@pytest.fixture(scope="module")
def runs_b1():
    start = time.perf_counter()
    runs = [analyze_var6(1.0, 10000, seed) for seed in range(N_SEEDS)]
    per_seed = (time.perf_counter() - start) / N_SEEDS
    return runs, per_seed


@pytest.fixture(scope="module")
def runs_b100():
    return [analyze_var6(100.0, 10000, seed) for seed in range(N_SEEDS)]


@pytest.fixture(scope="module")
def runs_short():
    return [analyze_var6(100.0, 500, seed) for seed in range(N_SEEDS)]


class TestCriterion1:
    def test_edge_set_recovery(self, runs_b1, capsys):
        runs, _ = runs_b1
        check_recovery(capsys, "1a edge set recovered, true-edge recall >=95%",
                       runs, int(np.ceil(0.95 * N_SEEDS)))

    def test_flow_values(self, runs_b1, capsys):
        runs, _ = runs_b1
        devs = []
        for idx, edge in enumerate(TRUE_EDGES):
            mean_T = np.mean([r["abs_T"][edge] for r in runs])
            devs.append(abs(mean_T - REF_T_B1[idx]))
        ok = max(devs) <= 0.02
        report(capsys, "1b seed-averaged |T| within 0.02", ok,
               f"max deviation {max(devs):.4f}")
        assert ok

    def test_runtime(self, runs_b1, capsys):
        _, per_seed = runs_b1
        ok = per_seed < 1.0
        report(capsys, "1c runtime per seed < 1 s", ok, f"{per_seed:.3f} s")
        assert ok


class TestCriterion2:
    def test_self_influence(self, runs_b1, capsys):
        runs, _ = runs_b1
        means = np.mean([r["self"] for r in runs], axis=0)
        devs = np.abs(means - np.array(REF_SELF))
        ok = np.max(devs) <= 0.05
        report(capsys, "2 self-influence within 0.05", ok,
               f"max deviation {np.max(devs):.4f}")
        assert ok


class TestCriterion3:
    def test_heavy_noise_edge_set(self, runs_b100, capsys):
        check_recovery(capsys, "3 b=100 edge set recovered, true-edge recall >=95%",
                       runs_b100, int(np.ceil(0.95 * N_SEEDS)))


class TestCriterion4:
    def test_short_series_significant_set(self, runs_short, capsys):
        check_recovery(capsys, "4a short-series edge set recovered, majority recall",
                       runs_short, N_SEEDS // 2 + 1)

    def test_short_series_flow_values(self, runs_short, capsys):
        worst = 0.0
        ok = True
        for idx, edge in enumerate(TRUE_EDGES):
            values = np.array([r["abs_T"][edge] for r in runs_short])
            band = REF_ERR_SHORT[idx] + 2.0 * np.std(values)
            dev = abs(np.mean(values) - REF_T_SHORT[idx])
            worst = max(worst, dev - band)
            ok = ok and dev <= band
        report(capsys, "4b short-series |T| within widened error bands", ok,
               f"worst band excess {worst:.4f}")
        assert ok


class TestCriterion5:
    def test_normalized_flows(self, runs_b1, capsys):
        runs, _ = runs_b1
        targets = {
            (6, 2): (0.132, 0.020, True),
            (6, 5): (0.125, 0.020, True),
            (4, 5): (0.024, 0.015, False),
            (5, 4): (0.088, 0.020, False),
        }
        ok = True
        worst = ""
        for pair, (ref, tol, use_abs) in targets.items():
            vals = [r["tau"][pair] for r in runs]
            if use_abs:
                vals = [abs(v) for v in vals]
            dev = abs(np.mean(vals) - ref)
            if dev > tol:
                ok = False
            worst += f" tau{pair}={np.mean(vals):.3f}"
        report(capsys, "5 normalized flows within tolerance", ok, worst.strip())
        assert ok


class TestCriterion6:
    def test_confounder_sweep(self, capsys):
        x_row, y_row, z_row = ROSSLER_OSCILLATOR_ROWS
        forward = ((x_row, y_row), (x_row, z_row))
        spurious = ((y_row, x_row), (z_row, x_row), (y_row, z_row), (z_row, y_row))
        ok = True
        details = []
        max_elapsed = 0.0
        for eps in (0.05, 0.10, 0.15, 0.20, 0.25):
            start = time.perf_counter()
            panel = simulate_rossler(RosslerSpec(seed=0, epsilon=eps))
            matrix = estimate_flows(panel, k=2, alpha=0.90)
            max_elapsed = max(max_elapsed, time.perf_counter() - start)
            fwd_T = max(abs(matrix.T[a, b]) for a, b in forward)
            point_ok = all(matrix.significant[a, b] for a, b in forward)
            for a, b in spurious:
                point_ok = point_ok and (
                    not matrix.significant[a, b] or 10.0 * abs(matrix.T[a, b]) <= fwd_T
                )
            if eps > 0.15:
                corr = np.corrcoef(panel.data[y_row], panel.data[z_row])[0, 1]
                point_ok = point_ok and corr > 0.9
                details.append(f"eps={eps}: corr={corr:.3f}")
            ok = ok and point_ok
            details.append(f"eps={eps}: {'ok' if point_ok else 'violated'}")
        timing_ok = max_elapsed < 30.0
        report(capsys, "6a confounder structure across couplings", ok,
               "; ".join(details))
        report(capsys, "6b runtime per coupling point < 30 s", timing_ok,
               f"{max_elapsed:.1f} s")
        assert ok
        assert timing_ok


class TestCriterion7:
    def test_bivariate_reduction_identity(self, capsys):
        failures = 0
        worst = 0.0
        for trial in range(1000):
            rng = np.random.default_rng(40000 + trial)
            data = np.cumsum(rng.standard_normal((2, 60)), axis=1)
            data += 0.05 * rng.standard_normal((2, 60))
            panel = TimeSeriesPanel(data=data)
            st = compute_statistics(panel, derive_series(panel, k=1))
            C, Cd = st.C, st.Cd
            matrix = estimate_flows(panel, k=1)
            for src, dst in ((1, 0), (0, 1)):
                # closed-form two-variable flow rate T[src -> dst]
                num = (C[dst, dst] * C[src, dst] * Cd[src, dst]
                       - C[src, dst] ** 2 * Cd[dst, dst])
                den = (C[dst, dst] ** 2 * C[src, src]
                       - C[dst, dst] * C[src, dst] ** 2)
                expected = num / den
                got = matrix.T[src, dst]
                rel = abs(got - expected) / max(abs(expected), 1e-300)
                worst = max(worst, rel)
                if rel > 1e-10:
                    failures += 1
        ok = failures == 0
        report(capsys, "7 d=2 reduction identity (1000 panels, rtol 1e-10)", ok,
               f"worst rel error {worst:.2e}")
        assert ok


class TestCriterion8:
    def test_nil_causality_calibration(self, capsys):
        trials, d, n, a = 500, 4, 1000, 0.5
        rng = np.random.default_rng(2024)
        noise = rng.standard_normal((trials, d, n))
        series = np.zeros((trials, d, n))
        series[:, :, 0] = noise[:, :, 0]
        for t in range(1, n):
            series[:, :, t] = a * series[:, :, t - 1] + noise[:, :, t]
        positives = 0
        for trial in range(trials):
            matrix = estimate_flows(TimeSeriesPanel(data=series[trial]), alpha=0.90)
            for j in range(d):
                for i in range(d):
                    if j != i and matrix.significant[j, i]:
                        positives += 1
        pairs = trials * d * (d - 1)
        rate = positives / pairs
        sigma = np.sqrt(0.1 * 0.9 / pairs)
        ok = abs(rate - 0.10) <= 3.0 * sigma
        report(capsys, "8 false-positive rate = 0.10 within 3 sigma", ok,
               f"rate {rate:.4f}, band 0.10 +/- {3 * sigma:.4f}")
        assert ok


def _log_likelihood(theta, x_used, xdot, dt):
    """Reference total log-density of the discretized linear model."""
    d = x_used.shape[0]
    f = theta[0]
    a = theta[1 : 1 + d]
    b = theta[1 + d]
    n = x_used.shape[1]
    resid = xdot - f - a @ x_used
    return (-0.5 * n * np.log(2.0 * np.pi * b * b * dt)
            - dt * (resid @ resid) / (2.0 * b * b))


class TestCriterion9:
    def test_fisher_matches_finite_differences(self, capsys):
        rng = np.random.default_rng(77)
        panel = TimeSeriesPanel(
            data=np.cumsum(rng.standard_normal((3, 800)), axis=1), dt=0.1
        )
        der = derive_series(panel, k=1)
        st = compute_statistics(panel, der)
        row = fit_row(st, panel, der, 0)
        block = fisher_block(panel, der, row, 0)
        d = panel.d
        theta = np.concatenate([[row.f_hat], row.a_hat, [np.sqrt(row.g_hat)]])
        x_used = panel.data[:, : st.n_used]
        xdot = der[0]
        m = d + 2
        hessian = np.empty((m, m))
        for p in range(m):
            for q in range(m):
                hp = 3e-4 * max(1.0, abs(theta[p]))
                hq = 3e-4 * max(1.0, abs(theta[q]))
                tpp = theta.copy(); tpp[p] += hp; tpp[q] += hq
                tpm = theta.copy(); tpm[p] += hp; tpm[q] -= hq
                tmp = theta.copy(); tmp[p] -= hp; tmp[q] += hq
                tmm = theta.copy(); tmm[p] -= hp; tmm[q] -= hq
                hessian[p, q] = (
                    _log_likelihood(tpp, x_used, xdot, panel.dt)
                    - _log_likelihood(tpm, x_used, xdot, panel.dt)
                    - _log_likelihood(tmp, x_used, xdot, panel.dt)
                    + _log_likelihood(tmm, x_used, xdot, panel.dt)
                ) / (4.0 * hp * hq)
        analytic = -st.n_used * block.matrix
        scale = np.max(np.abs(analytic))
        rel = np.max(np.abs(hessian - analytic)) / scale
        ok = rel < 1e-4
        report(capsys, "9a information matrix vs finite differences", ok,
               f"max rel error {rel:.2e}")
        assert ok

    def test_stderr_matches_monte_carlo(self, capsys):
        reps, n = 200, 2000
        rng = np.random.default_rng(314)
        noise = rng.standard_normal((reps, 2, n))
        series = np.zeros((reps, 2, n))
        series[:, :, 0] = noise[:, :, 0]
        for t in range(1, n):
            series[:, 0, t] = (0.5 * series[:, 0, t - 1]
                               + 0.3 * series[:, 1, t - 1] + noise[:, 0, t])
            series[:, 1, t] = 0.7 * series[:, 1, t - 1] + noise[:, 1, t]
        a_hats = np.empty(reps)
        stderrs = np.empty(reps)
        for r in range(reps):
            panel = TimeSeriesPanel(data=series[r])
            der = derive_series(panel, k=1)
            st = compute_statistics(panel, der)
            row = fit_row(st, panel, der, 0)
            block = fisher_block(panel, der, row, 0)
            a_hats[r] = row.a_hat[1]
            stderrs[r] = np.sqrt(block.coef_var(1))
        mc_spread = np.std(a_hats, ddof=1)
        reported = np.mean(stderrs)
        rel = abs(reported - mc_spread) / mc_spread
        ok = rel < 0.20
        report(capsys, "9b reported stderr vs Monte Carlo spread", ok,
               f"reported {reported:.4f}, MC {mc_spread:.4f}, rel {rel:.2f}")
        assert ok

    @pytest.mark.parametrize("fixture", ["runs_b1", "runs_short"])
    def test_estimator_stderr_matches_monte_carlo(self, fixture, request, capsys):
        # The estimator's own stderr of a_ii against its spread over seeds:
        # z = (a_ii - its seed mean) / stderr_ii, pooled over 6 nodes and
        # N_SEEDS seeds, has a standard deviation within the 9b bound of 1
        # (each node's seed mean takes one degree of freedom).
        runs = request.getfixturevalue(fixture)
        runs = runs[0] if fixture == "runs_b1" else runs
        a = np.array([r["self_T"] for r in runs])
        z = (a - a.mean(axis=0)) / np.array([r["self_stderr"] for r in runs])
        spread = np.sqrt(np.sum(z * z) / (z.size - z.shape[1]))
        ok = abs(spread - 1.0) < 0.20
        report(capsys, f"9c estimator stderr of a_ii vs Monte Carlo ({fixture})", ok,
               f"std of pooled z {spread:.3f}")
        assert ok


class TestCriterion10:
    def test_byte_identical_outputs(self, tmp_path, capsys):
        paths = {}
        for fmt in ("json", "dot"):
            a = tmp_path / f"a.{fmt}"
            b = tmp_path / f"b.{fmt}"
            for p in (a, b):
                code = main(["analyze", "--preset", "var6-b100-short",
                             "--seed", "11", "--format", fmt, "--out", str(p)])
                assert code == 0
            paths[fmt] = a.read_bytes() == b.read_bytes()
        capsys.readouterr()
        ok = all(paths.values())
        report(capsys, "10 byte-identical JSON/DOT outputs", ok,
               f"json={paths['json']}, dot={paths['dot']}")
        # sanity: the JSON artifact parses and carries the schema version
        doc = json.loads((tmp_path / "a.json").read_text())
        assert doc["meta"]["schema_version"] == 2
        assert ok
