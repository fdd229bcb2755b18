"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Source-data tables are not reproduction targets (the underlying
dataset is not distributed and the simulation results are seed-dependent);
the oracle and property checks below are the exit criteria instead.
"""

import math
import os
import subprocess
import sys
import time
from datetime import date

import numpy as np
import pytest

import oracles
import riskengine
from oracles import normal_es
from riskengine.backtest import (
    breach_frequency,
    breaches,
    lr_independence,
    lr_unconditional,
    transition_counts,
)
from riskengine.backtest import BreachSeries
from riskengine.connectedness import VarModel, gfevd, indices, normalize_rows
from riskengine.data import ReturnSeries
from riskengine.garch import GarchFit, GarchParams, filter, fit
from riskengine.mathstat import empirical_quantile, norm_inv_cdf
from riskengine.montecarlo import McConfig, run_mc, simulate_garch_returns
from riskengine.var_engine import VarConfig, rolling_var

TRUTH = GarchParams(omega=2e-6, alpha=0.10, beta=0.85)


def _ok(num, name):
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def _series(values, start=700000):
    dates = [date.fromordinal(start + i) for i in range(len(values))]
    return ReturnSeries(dates=dates, returns=np.asarray(values, float))


def _iid_fit(omega, n=400, seed=0):
    params = GarchParams(omega=omega, alpha=0.0, beta=0.0)
    r = simulate_garch_returns(params, n, seed=seed)
    sigma, z = filter(r, params)
    return GarchFit(params=params, sigma=sigma, z=z, loglik=0.0, converged=True)


def test_criterion_01_substitute_suite_exists():
    # Published result tables are not desk-reproducible; the substitute is
    # this suite plus the estimator surface it exercises.
    for name in ("rolling_var", "run_mc", "lr_unconditional",
                 "lr_independence", "lr_conditional", "connectedness_table"):
        assert hasattr(riskengine, name)
    for name in ("hs_var", "garch_normal_var", "fhs_var"):
        assert hasattr(oracles, name)
    _ok(1, "substitute oracle suite in force")


def test_criterion_02_garch_recovery_five_seeds():
    for seed in range(5):
        r = simulate_garch_returns(TRUTH, 20_000, seed=1000 + seed)
        start = time.perf_counter()
        fitted = fit(r)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"seed {seed}: fit took {elapsed:.1f}s"
        assert abs(fitted.params.alpha - 0.10) <= 0.03, f"seed {seed}"
        assert abs(fitted.params.alpha + fitted.params.beta - 0.95) <= 0.03, \
            f"seed {seed}"
    _ok(2, "GARCH parameter recovery, 5 seeds")


def test_criterion_03_filter_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(100):
        alpha = float(rng.uniform(0.0, 0.3))
        beta = float(rng.uniform(0.0, 0.97 - alpha))
        params = GarchParams(omega=float(rng.uniform(1e-6, 1e-3)),
                             alpha=alpha, beta=beta)
        r = rng.normal(scale=float(rng.uniform(0.001, 0.05)),
                       size=int(rng.integers(50, 800)))
        sigma, z = filter(r, params)
        assert np.allclose(sigma * z, r, rtol=1e-12, atol=0)
    _ok(3, "filter round trip sigma*z == r")


def test_criterion_04_mc_matches_analytic_tail():
    omega = 1e-4
    fitted = _iid_fit(omega, seed=4)
    start = time.perf_counter()
    ts = run_mc(fitted, McConfig(seed=404, n_paths=200_000, horizon=1,
                                 level=0.01))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"MC took {elapsed:.1f}s"
    expected_var = math.sqrt(omega) * norm_inv_cdf(0.01)
    expected_es = normal_es(0.01, math.sqrt(omega))
    assert ts.var[0] == pytest.approx(expected_var, rel=0.02)
    assert ts.es[0] == pytest.approx(expected_es, rel=0.02)
    _ok(4, "one-day MC VaR/ES vs analytic normal tail")


def test_criterion_05_mc_multi_day_scaling():
    omega = 1e-4
    fitted = _iid_fit(omega, seed=5)
    ts = run_mc(fitted, McConfig(seed=505, n_paths=200_000, horizon=5,
                                 level=0.01))
    for h in range(1, 6):
        expected = math.sqrt(omega * h) * norm_inv_cdf(0.01)
        assert ts.var[h - 1] == pytest.approx(expected, rel=0.03), f"h={h}"
    _ok(5, "multi-day MC VaR sqrt-time scaling")


def _independence_brute_force(flags):
    """L0 and L1 as literal products of the Markov likelihood terms."""
    n00 = n01 = n10 = n11 = 0
    for prev, curr in zip(flags, flags[1:]):
        n00 += prev == 0 and curr == 0
        n01 += prev == 0 and curr == 1
        n10 += prev == 1 and curr == 0
        n11 += prev == 1 and curr == 1
    if n00 + n01 == 0 or n10 + n11 == 0:
        return None
    total = n00 + n01 + n10 + n11
    p_hat = (n01 + n11) / total
    pi0 = n01 / (n00 + n01)
    pi1 = n11 / (n10 + n11)
    l0 = (1 - p_hat) ** (n00 + n10) * p_hat ** (n01 + n11)
    l1 = (1 - pi0) ** n00 * pi0 ** n01 * (1 - pi1) ** n10 * pi1 ** n11
    return -2.0 * math.log(l0 / l1)


def test_criterion_06_independence_test_vs_brute_force():
    rng = np.random.default_rng(6)
    checked = undefined = 0
    for _ in range(500):
        n = int(rng.integers(50, 501))
        rate = float(rng.uniform(0.01, 0.6))
        flags = (rng.random(n) < rate).astype(int).tolist()
        dates = tuple(date.fromordinal(700000 + i) for i in range(n))
        counts = transition_counts(BreachSeries(dates=dates, indicator=flags))
        stat, _ = lr_independence(counts)
        expected = _independence_brute_force(flags)
        if expected is None:
            assert stat is None
            undefined += 1
        else:
            assert stat == pytest.approx(expected, abs=1e-10)
            checked += 1
    assert checked > 0
    _ok(6, f"independence LR vs brute force ({checked} defined, "
           f"{undefined} undefined)")


def test_criterion_07_kupiec_closed_forms():
    stat, _ = lr_unconditional(50, 1000, 0.05)
    assert stat == pytest.approx(0.0, abs=1e-12)
    stat, _ = lr_unconditional(25, 500, 0.05)
    assert stat == pytest.approx(0.0, abs=1e-12)
    stat, _ = lr_unconditional(0, 250, 0.01)
    assert stat == pytest.approx(5.0252, abs=1e-3)
    _ok(7, "Kupiec closed forms")


def test_criterion_08_backtest_calibration_fat_tails():
    fhs_freqs = []
    garch_n_exceeds = 0
    for seed in range(5):
        r = simulate_garch_returns(TRUTH, 5_000, seed=800 + seed,
                                   innovation="student_t")
        series = _series(r)
        fitted = fit(series)
        fhs = rolling_var(series, fitted,
                          VarConfig(level=0.05, window=200, method="fhs"))
        garch_n = rolling_var(series, fitted,
                              VarConfig(level=0.01, window=200,
                                        method="garch_n"))
        fhs_freq = breach_frequency(breaches(fhs))
        fhs_freqs.append(fhs_freq)
        assert 0.035 <= fhs_freq <= 0.065, f"seed {seed}: {fhs_freq}"
        garch_n_exceeds += breach_frequency(breaches(garch_n)) > 0.01
    assert garch_n_exceeds >= 4, f"only {garch_n_exceeds}/5 seeds over-breach"
    _ok(8, f"FHS calibrated (freqs {[round(f, 4) for f in fhs_freqs]}), "
           f"normal tail too thin in {garch_n_exceeds}/5 seeds")


def test_criterion_09_gfevd_oracles():
    # closed form: no dynamics, correlation 0.6, one step
    rho = 0.6
    static = VarModel(order=1, intercept=np.zeros(2), phi=(np.zeros((2, 2)),),
                      sigma=np.array([[1.0, rho], [rho, 1.0]]))
    theta = gfevd(static, 1)
    assert theta[0, 1] == pytest.approx(0.36, abs=1e-12)

    # random bivariate VAR(1) against an explicit-loop reimplementation
    rng = np.random.default_rng(9)
    for _ in range(10):
        phi = rng.uniform(-0.4, 0.4, size=(2, 2))
        a = rng.uniform(-1.0, 1.0, size=(2, 2))
        sigma = a @ a.T + 0.5 * np.eye(2)
        model = VarModel(order=1, intercept=np.zeros(2), phi=(phi,),
                         sigma=sigma)
        horizon = 10
        psis = [np.eye(2)]
        for h in range(1, horizon):
            psis.append(phi @ psis[h - 1])
        loops = np.zeros((2, 2))
        for j in range(2):
            e_j = np.eye(2)[j]
            denom = sum(float(e_j @ p @ sigma @ p.T @ e_j) for p in psis)
            for k in range(2):
                e_k = np.eye(2)[k]
                numer = sum(float(e_j @ p @ sigma @ e_k) ** 2 for p in psis)
                loops[j, k] = numer / (sigma[k, k] * denom)
        theta = gfevd(model, horizon)
        assert np.allclose(theta, loops, atol=1e-10)

        tilde = normalize_rows(theta)
        assert np.max(np.abs(tilde.sum(axis=1) - 1.0)) <= 1e-10
        table = indices(tilde)
        assert abs(float(table.net.sum())) <= 1e-8
    _ok(9, "GFEVD closed form, loop oracle, row sums, net zero-sum")


def test_criterion_10_cli_determinism_across_threads(tmp_path):
    values = simulate_garch_returns(TRUTH, 700, seed=10)
    src = tmp_path / "returns.csv"
    rows = ["date,return"] + [
        f"{date.fromordinal(735000 + i).isoformat()},{float(v)!r}"
        for i, v in enumerate(values)
    ]
    src.write_text("\n".join(rows) + "\n", encoding="utf-8")

    # 40,000 paths span several blocks, so the runs draw on a helper thread
    for innovation in ("normal", "fhs"):
        outputs = []
        for threads in ("1", "8"):
            for attempt in ("a", "b"):
                out = tmp_path / f"mc_{innovation}_{threads}_{attempt}.csv"
                env = dict(os.environ, RISK_THREADS=threads)
                proc = subprocess.run(
                    [sys.executable, "-m", "riskengine", "mc", str(src),
                     "--paths", "40000", "--horizon", "5", "--level", "0.01",
                     "--innovation", innovation, "--seed", "42",
                     "--out", str(out)],
                    env=env, capture_output=True, text=True,
                )
                assert proc.returncode == 0, proc.stderr
                outputs.append(out.read_bytes())
        assert all(blob == outputs[0] for blob in outputs[1:])
    _ok(10, "mc command byte-identical under RISK_THREADS=1 and 8")


def test_criterion_11_quantile_convention():
    assert empirical_quantile(list(range(1, 101)), 0.05) == 5

    rng = np.random.default_rng(11)
    values = rng.normal(scale=0.01, size=1_300)
    series = _series(values)
    out = rolling_var(series, None, VarConfig(level=0.05, window=200,
                                              method="hs"))
    assert len(out) >= 1_000
    for i in range(1_000):
        t = 200 + i
        assert out.var[i] in values[t - 200:t]
    _ok(11, "quantile rank convention and HS membership over 1000 windows")
