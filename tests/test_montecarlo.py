import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import normal_es
from riskengine.errors import ConfigError, DataError, TailTooSmallError
from riskengine.garch import GarchFit, GarchParams, filter, next_variance
from riskengine.mathstat import norm_inv_cdf
from riskengine.montecarlo import (
    _BLOCK,
    McConfig,
    run_mc,
    simulate_cumulative,
    simulate_garch_returns,
    term_structure,
)


def _fit(params, n=500, seed=80, z_pool=None):
    """GarchFit over simulated data, optionally with a replaced residual pool."""
    r = simulate_garch_returns(params, n, seed=seed)
    sigma, z = filter(r, params)
    if z_pool is not None:
        z = np.asarray(z_pool, float)
    return GarchFit(params=params, sigma=sigma, z=z, loglik=0.0, converged=True)


IID = GarchParams(omega=1e-4, alpha=0.0, beta=0.0)


def one_shot_cumulative(fit, cfg):
    """Draw the whole innovation matrix, then run the row-major recursion."""
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    shape = (cfg.n_paths, cfg.horizon)
    if cfg.innovation == "normal":
        innov = rng.standard_normal(shape)
    else:
        pool = np.asarray(fit.z, float)
        innov = pool[rng.integers(0, pool.size, size=shape)]
    p = fit.params
    last_r = float(fit.sigma[-1] * fit.z[-1])
    v = np.full(cfg.n_paths, next_variance(p, last_r, float(fit.sigma[-1] ** 2)))
    cum = np.zeros(cfg.n_paths)
    out = np.empty(shape)
    for h in range(cfg.horizon):
        r = np.sqrt(v) * innov[:, h]
        cum = cum + r
        out[:, h] = cum
        v = p.omega + p.alpha * r * r + p.beta * v
    return out


class TestConfig:
    def test_defaults(self):
        cfg = McConfig(seed=1)
        assert cfg.n_paths == 1000 and cfg.horizon == 5 and cfg.level == 0.01

    @pytest.mark.parametrize("kwargs", [
        {"seed": -1}, {"seed": 2 ** 64}, {"n_paths": 50}, {"horizon": 0},
        {"horizon": 251}, {"level": 0.5}, {"innovation": "cauchy"},
        {"n_paths": 2 ** 28 // 10 + 1, "horizon": 10},
        {"n_paths": 10 ** 9},
    ])
    def test_invalid(self, kwargs):
        base = {"seed": 1}
        base.update(kwargs)
        with pytest.raises(ConfigError):
            McConfig(**base)

    def test_largest_accepted_size(self):
        # exactly 2**28 cells, checked from the shape alone (nothing allocated)
        cfg = McConfig(seed=1, n_paths=2 ** 25, horizon=8)
        assert cfg.n_paths * cfg.horizon == 2 ** 28


class TestSimulateCumulative:
    def test_iid_column_variance(self):
        # alpha=beta=0: each step is i.i.d. N(0, omega), so column h has
        # variance omega*h
        fit = _fit(IID)
        cfg = McConfig(seed=5, n_paths=200_000, horizon=5, level=0.01)
        cum = simulate_cumulative(fit, cfg)
        for h in range(5):
            observed = float(np.var(cum[:, h]))
            assert observed == pytest.approx(1e-4 * (h + 1), rel=0.05)

    def test_degenerate_residual_pool(self):
        params = GarchParams(omega=1e-4, alpha=0.05, beta=0.9)
        fit = _fit(params, z_pool=np.zeros(300))
        cfg = McConfig(seed=6, n_paths=500, horizon=4, innovation="fhs")
        cum = simulate_cumulative(fit, cfg)
        assert np.all(cum == 0.0)

    def test_empty_residual_pool(self):
        params = GarchParams(omega=1e-4, alpha=0.05, beta=0.9)
        fit = _fit(params, z_pool=np.array([]))
        with pytest.raises(DataError):
            simulate_cumulative(fit, McConfig(seed=6, innovation="fhs"))

    def test_same_seed_same_matrix(self):
        fit = _fit(GarchParams(omega=1e-4, alpha=0.08, beta=0.9))
        cfg = McConfig(seed=7, n_paths=300, horizon=5)
        a = simulate_cumulative(fit, cfg)
        b = simulate_cumulative(fit, cfg)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        fit = _fit(GarchParams(omega=1e-4, alpha=0.08, beta=0.9))
        a = simulate_cumulative(fit, McConfig(seed=7, n_paths=300))
        b = simulate_cumulative(fit, McConfig(seed=8, n_paths=300))
        assert not np.array_equal(a, b)

    def test_thread_count_does_not_change_output(self, monkeypatch):
        fit = _fit(GarchParams(omega=1e-4, alpha=0.08, beta=0.9))
        cfg = McConfig(seed=9, n_paths=150_000, horizon=3)
        monkeypatch.setenv("RISK_THREADS", "1")
        a = simulate_cumulative(fit, cfg)
        monkeypatch.setenv("RISK_THREADS", "8")
        b = simulate_cumulative(fit, cfg)
        assert np.array_equal(a, b)
        # the setting is ignored, so a non-integer neither raises nor matters
        monkeypatch.setenv("RISK_THREADS", "abc")
        c = simulate_cumulative(fit, cfg)
        assert np.array_equal(a, c)

    @pytest.mark.parametrize("kind", ["normal", "fhs"])
    def test_streamed_blocks_match_one_shot_oracle(self, kind):
        # 2.5 blocks: two full blocks and a partial one
        fit = _fit(GarchParams(omega=1e-4, alpha=0.08, beta=0.9))
        cfg = McConfig(seed=17, n_paths=5 * _BLOCK // 2, horizon=4,
                       innovation=kind)
        cum = simulate_cumulative(fit, cfg)
        assert np.array_equal(cum, one_shot_cumulative(fit, cfg))
        assert cum[:, 0].flags.c_contiguous

    @pytest.mark.parametrize("kind", ["normal", "fhs"])
    def test_peak_allocation_near_output_size(self, kind):
        # a 16 MB output; drawing every innovation up front would double it
        fit = _fit(GarchParams(omega=1e-4, alpha=0.08, beta=0.9))
        cfg = McConfig(seed=18, n_paths=200_000, horizon=10, innovation=kind)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            cum = simulate_cumulative(fit, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * cum.nbytes

    def test_first_step_uses_forecast_variance(self):
        # a single-value residual pool makes every first step exactly
        # sigma_{T+1} * z
        params = GarchParams(omega=1e-4, alpha=0.05, beta=0.9)
        fit = _fit(params, z_pool=np.array([1.0]))
        cfg = McConfig(seed=10, n_paths=200, horizon=1, innovation="fhs")
        cum = simulate_cumulative(fit, cfg)
        r_last = fit.sigma[-1] * fit.z[-1]
        v_next = (params.omega + params.alpha * r_last ** 2
                  + params.beta * fit.sigma[-1] ** 2)
        assert np.allclose(cum[:, 0], math.sqrt(v_next), rtol=1e-12)


class TestTermStructure:
    def test_forced_conventions(self):
        col = np.arange(1.0, 101.0).reshape(100, 1)
        ts = term_structure(col, 0.05)
        assert ts.var[0] == 5.0
        assert ts.es[0] == pytest.approx(3.0)

    def test_all_equal_column(self):
        col = np.full((200, 2), -0.7)
        ts = term_structure(col, 0.05)
        assert np.all(ts.var == -0.7)
        assert np.all(ts.es == -0.7)

    def test_matches_normal_oracle(self):
        rng = np.random.default_rng(81)
        col = rng.standard_normal((200_000, 1))
        ts = term_structure(col, 0.01)
        assert ts.var[0] == pytest.approx(norm_inv_cdf(0.01), rel=0.02)
        assert ts.es[0] == pytest.approx(normal_es(0.01, 1.0), rel=0.02)

    def test_es_not_above_var(self):
        rng = np.random.default_rng(82)
        cum = rng.standard_normal((5000, 6))
        ts = term_structure(cum, 0.03)
        assert np.all(ts.es <= ts.var)

    def test_tied_tail_mean_not_rounded_above_var(self):
        # ten copies of this value sum and divide to one ulp above it; an FHS
        # run with a small pool and a deep tail ties like this
        x = -0.021170287180835145
        cum = np.array([[x]] * 10 + [[0.0]] * 990)
        ts = term_structure(cum, 0.01)
        assert ts.var[0] == x
        assert ts.es[0] == x

    def test_tail_too_small(self):
        with pytest.raises(TailTooSmallError):
            term_structure(np.zeros((200, 3)), 0.01)


class TestRunMc:
    def test_iid_scaling_oracle(self):
        fit = _fit(IID)
        cfg = McConfig(seed=11, n_paths=200_000, horizon=5, level=0.01)
        ts = run_mc(fit, cfg)
        for h in range(5):
            expected = math.sqrt(1e-4 * (h + 1)) * norm_inv_cdf(0.01)
            assert ts.var[h] == pytest.approx(expected, rel=0.03)

    def test_normal_vs_fhs_with_normal_pool(self):
        # a large N(0,1) residual pool makes FHS distributionally equivalent
        # to the normal engine at horizon 1
        pool = np.random.default_rng(83).standard_normal(10_000)
        params = GarchParams(omega=1e-4, alpha=0.0, beta=0.0)
        fit_n = _fit(params)
        fit_f = _fit(params, z_pool=pool)
        cfg_n = McConfig(seed=12, n_paths=200_000, horizon=1, level=0.01)
        cfg_f = McConfig(seed=12, n_paths=200_000, horizon=1, level=0.01,
                         innovation="fhs")
        var_n = run_mc(fit_n, cfg_n).var[0]
        var_f = run_mc(fit_f, cfg_f).var[0]
        assert var_f == pytest.approx(var_n, rel=0.05)

    def test_extreme_residual_dominates_small_tail(self):
        params = GarchParams(omega=1e-4, alpha=0.05, beta=0.9)
        pool = np.concatenate([np.zeros(99), [-10.0]])
        fit = _fit(params, z_pool=pool)
        # k = ceil(0.005 * 1000) = 5; make every draw candidate visible by
        # using level such that k=1: ceil(0.0009*1000)=1
        cfg = McConfig(seed=13, n_paths=6000, horizon=1, level=0.001,
                       innovation="fhs")
        ts = run_mc(fit, cfg)
        r_last = fit.sigma[-1] * fit.z[-1]
        v_next = (params.omega + params.alpha * r_last ** 2
                  + params.beta * fit.sigma[-1] ** 2)
        assert ts.var[0] == pytest.approx(math.sqrt(v_next) * -10.0, rel=1e-12)

    def test_seed_sensitivity(self):
        fit = _fit(GarchParams(omega=1e-4, alpha=0.08, beta=0.9))
        estimates = [
            run_mc(fit, McConfig(seed=s, n_paths=1000, horizon=1)).var[0]
            for s in range(30)
        ]
        assert float(np.std(estimates)) > 0.0

    def test_omega_scaling(self):
        cfg = McConfig(seed=14, n_paths=100_000, horizon=3, level=0.01)
        ts1 = run_mc(_fit(GarchParams(omega=1e-4, alpha=0.0, beta=0.0)), cfg)
        ts2 = run_mc(_fit(GarchParams(omega=2e-4, alpha=0.0, beta=0.0)), cfg)
        for h in range(3):
            assert ts2.var[h] == pytest.approx(math.sqrt(2) * ts1.var[h], rel=0.03)
            assert ts2.es[h] == pytest.approx(math.sqrt(2) * ts1.es[h], rel=0.03)

    def test_config_echoed(self):
        fit = _fit(IID)
        cfg = McConfig(seed=15, n_paths=2000, horizon=2, level=0.02)
        ts = run_mc(fit, cfg)
        assert ts.config == cfg
        payload = json.loads(json.dumps(ts.to_dict()))
        assert payload["seed"] == 15
        assert payload["innovation"] == "normal"
        assert payload["n_paths"] == 2000
        assert len(payload["var"]) == 2
        assert payload["es"] == ts.es.tolist()


@st.composite
def _fits(draw):
    """A GarchFit filtered on a simulated path of its own parameters."""
    omega = draw(st.floats(1e-7, 1e-3))
    persistence = draw(st.floats(0.0, 0.99))
    alpha = persistence * draw(st.floats(0.0, 1.0))
    params = GarchParams(omega=omega, alpha=alpha, beta=persistence - alpha)
    return _fit(params, n=draw(st.integers(20, 300)),
                seed=draw(st.integers(0, 2**32 - 1)))


@st.composite
def _mc_configs(draw):
    level = draw(st.floats(0.001, 0.25))
    n_paths = draw(st.integers(100, 5000))
    assume(n_paths * level >= 5.0)
    return McConfig(seed=draw(st.integers(0, 2**64 - 1)), n_paths=n_paths,
                    horizon=draw(st.integers(1, 10)), level=level,
                    innovation=draw(st.sampled_from(["normal", "fhs"])))


class TestRunMcProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_fits(), _mc_configs(), st.integers(-20, 20))
    def test_power_of_two_scale_is_exact(self, fit, cfg, k):
        # omega x c**2 and sigma x c scale every return, hence every
        # cumulative-return quantile and tail mean, by exactly c
        c = 2.0 ** k
        scaled = replace(fit, sigma=fit.sigma * c,
                         params=replace(fit.params, omega=fit.params.omega * c * c))
        base = run_mc(fit, cfg)
        moved = run_mc(scaled, cfg)
        assert moved.var.tolist() == (c * base.var).tolist()
        assert moved.es.tolist() == (c * base.es).tolist()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_fits(), _mc_configs())
    def test_es_never_above_var(self, fit, cfg):
        ts = run_mc(fit, cfg)
        assert ts.horizon == cfg.horizon
        assert np.all(np.isfinite(ts.var)) and np.all(np.isfinite(ts.es))
        assert np.all(ts.es <= ts.var)


class TestGarchSimulator:
    def test_reproducible(self):
        params = GarchParams(omega=2e-6, alpha=0.1, beta=0.85)
        a = simulate_garch_returns(params, 500, seed=1)
        b = simulate_garch_returns(params, 500, seed=1)
        assert np.array_equal(a, b)

    def test_iid_case_variance(self):
        r = simulate_garch_returns(IID, 100_000, seed=2)
        assert float(np.var(r)) == pytest.approx(1e-4, rel=0.05)

    def test_student_t_unit_variance_scaling(self):
        r = simulate_garch_returns(IID, 200_000, seed=3,
                                   innovation="student_t")
        assert float(np.var(r)) == pytest.approx(1e-4, rel=0.05)

    def test_unknown_innovation(self):
        with pytest.raises(ConfigError):
            simulate_garch_returns(IID, 100, seed=4, innovation="bootstrap")
