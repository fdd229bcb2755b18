import math
from datetime import date

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import riskengine.var_engine as var_engine
from oracles import fhs_var, garch_normal_var, hs_var
from riskengine.data import ReturnSeries
from riskengine.errors import ConfigError, DataError
from riskengine.garch import GarchFit, GarchParams, filter
from riskengine.mathstat import norm_inv_cdf
from riskengine.montecarlo import simulate_garch_returns
from riskengine.var_engine import VarConfig, rolling_var


def _series(values):
    dates = [date.fromordinal(735000 + i) for i in range(len(values))]
    return ReturnSeries(dates=dates, returns=np.asarray(values, float))


def _fit_for(series) -> GarchFit:
    params = GarchParams(omega=2e-6, alpha=0.10, beta=0.85)
    sigma, z = filter(series, params)
    return GarchFit(params=params, sigma=sigma, z=z, loglik=0.0, converged=True)


class TestConfig:
    def test_defaults(self):
        cfg = VarConfig()
        assert cfg.level == 0.05 and cfg.window == 200 and cfg.method == "hs"

    @pytest.mark.parametrize("kwargs", [
        {"level": 0.0}, {"level": 0.5}, {"window": 19}, {"method": "nope"},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            VarConfig(**kwargs)


class TestHsVar:
    def test_constant_window(self):
        series = _series([-0.02] * 200 + [0.0])
        cfg = VarConfig(level=0.05, window=200, method="hs")
        assert hs_var(series, 200, cfg) == -0.02

    def test_tenth_smallest_of_200(self):
        ladder = -0.200 + 0.001 * np.arange(200)  # 200 distinct ascending values
        rng = np.random.default_rng(51)
        shuffled = rng.permutation(ladder)
        series = _series(list(shuffled) + [0.0])
        cfg = VarConfig(level=0.05, window=200, method="hs")
        assert hs_var(series, 200, cfg) == pytest.approx(sorted(ladder)[9], abs=0)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(52)
        values = rng.normal(scale=0.01, size=260)
        series = _series(values)
        cfg = VarConfig(level=0.05, window=200, method="hs")
        for t in [200, 230, 259]:
            win = values[t - 200:t]
            assert hs_var(series, t, cfg) == sorted(win)[9]


class TestGarchNormalVar:
    def test_unit_sigma(self):
        assert garch_normal_var(1.0, 0.05) == pytest.approx(-1.644854, abs=1e-5)

    def test_scaled_sigma(self):
        assert garch_normal_var(0.02, 0.01) == pytest.approx(-0.046527, abs=1e-5)

    def test_linearity(self):
        one = garch_normal_var(0.013, 0.05)
        assert garch_normal_var(0.026, 0.05) == pytest.approx(2 * one, rel=1e-14)


class TestFhsVar:
    def test_planted_quantiles(self):
        z = np.array([norm_inv_cdf((i - 0.5) / 200) for i in range(1, 201)])
        expected = sorted(z)[9]
        assert fhs_var(1.0, z, 0.05) == expected

    def test_sigma_scaling(self):
        rng = np.random.default_rng(53)
        z = rng.standard_normal(200)
        assert fhs_var(2 * 0.015, z, 0.05) == pytest.approx(
            2 * fhs_var(0.015, z, 0.05), rel=1e-14)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(54)
        z = rng.standard_normal(150)
        for p in [0.01, 0.05, 0.25]:
            k = math.ceil(p * len(z) - 1e-9)
            assert fhs_var(0.4, z, p) == pytest.approx(0.4 * sorted(z)[k - 1],
                                                       rel=1e-15)


class TestRollingVar:
    def test_hs_first_value_planted(self):
        rng = np.random.default_rng(55)
        head = rng.normal(scale=0.01, size=200)
        series = _series(list(head) + [0.0, 0.0])
        out = rolling_var(series, None, VarConfig(method="hs"))
        assert out.var[0] == sorted(head)[9]
        assert out.dates == series.dates[200:]
        assert len(out) == 2

    def test_degenerate_garch_constant_var(self):
        rng = np.random.default_rng(56)
        values = rng.normal(scale=0.5, size=260)
        series = _series(values)
        params = GarchParams(omega=0.25, alpha=0.0, beta=0.0)
        sigma, z = filter(series, params)
        fitted = GarchFit(params=params, sigma=sigma, z=z, loglik=0.0,
                          converged=True)
        out = rolling_var(series, fitted, VarConfig(method="garch_n"))
        expected = 0.5 * norm_inv_cdf(0.05)
        assert np.allclose(out.var, expected, rtol=1e-14, atol=0)

    def test_pointwise_recomputation_all_methods(self):
        params = GarchParams(omega=2e-6, alpha=0.10, beta=0.85)
        series = _series(simulate_garch_returns(params, 1_000, seed=57))
        fitted = _fit_for(series)
        cfgs = {m: VarConfig(level=0.05, window=200, method=m)
                for m in ("hs", "garch_n", "fhs")}
        outs = {m: rolling_var(series, fitted, cfg) for m, cfg in cfgs.items()}
        for t in range(200, 1_000):
            i = t - 200
            assert outs["hs"].var[i] == hs_var(series, t, cfgs["hs"])
            assert outs["garch_n"].var[i] == pytest.approx(
                garch_normal_var(float(fitted.sigma[t]), 0.05), rel=1e-14)
            assert outs["fhs"].var[i] == pytest.approx(
                fhs_var(float(fitted.sigma[t]), fitted.z[t - 200:t], 0.05),
                rel=1e-14)

    def test_monotone_in_level(self):
        params = GarchParams(omega=2e-6, alpha=0.10, beta=0.85)
        series = _series(simulate_garch_returns(params, 600, seed=58))
        fitted = _fit_for(series)
        for method in ("hs", "garch_n", "fhs"):
            tight = rolling_var(series, fitted,
                                VarConfig(level=0.01, window=200, method=method))
            loose = rolling_var(series, fitted,
                                VarConfig(level=0.05, window=200, method=method))
            assert np.all(tight.var <= loose.var)

    def test_no_look_ahead(self):
        # Forecasts at dates <= t must not react to a shock at t. HS is exact.
        # The GARCH methods seed sigma2[0] with the full-sample variance, so a
        # shock anywhere nudges the first ~150 filtered values (decaying like
        # beta^t); past that burn-in the forecasts must agree to 1e-10, and
        # for FHS the comparison starts once the residual window has cleared
        # the burn-in too.
        params = GarchParams(omega=2e-6, alpha=0.10, beta=0.85)
        values = simulate_garch_returns(params, 700, seed=59)
        t_shock = 600
        bumped = values.copy()
        bumped[t_shock] = -0.25  # extreme negative shock
        for method in ("hs", "garch_n", "fhs"):
            cfg = VarConfig(level=0.05, window=200, method=method)
            base_series, bump_series = _series(values), _series(bumped)
            base = rolling_var(base_series, _fit_for(base_series), cfg)
            bump = rolling_var(bump_series, _fit_for(bump_series), cfg)
            i = t_shock - 200
            if method == "hs":
                assert np.array_equal(base.var[:i + 1], bump.var[:i + 1])
            else:
                start = 0 if method == "garch_n" else 350 - 200
                assert np.allclose(base.var[start:i + 1], bump.var[start:i + 1],
                                   rtol=1e-10, atol=0)
            assert not np.array_equal(base.var[i + 1:], bump.var[i + 1:])

    def test_scale_equivariance(self):
        rng = np.random.default_rng(60)
        values = rng.normal(scale=0.01, size=320)
        c = 3.0
        cfg_hs = VarConfig(level=0.05, window=200, method="hs")
        hs_base = rolling_var(_series(values), None, cfg_hs)
        hs_scaled = rolling_var(_series(c * values), None, cfg_hs)
        assert np.allclose(hs_scaled.var, c * hs_base.var, rtol=0, atol=0)

        # FHS: scaling returns by c with omega scaled by c^2 leaves z alone
        params = GarchParams(omega=2e-6, alpha=0.10, beta=0.85)
        scaled_params = GarchParams(omega=2e-6 * c * c, alpha=0.10, beta=0.85)
        base_series, scaled_series = _series(values), _series(c * values)
        sigma_b, z_b = filter(base_series, params)
        sigma_s, z_s = filter(scaled_series, scaled_params)
        assert np.allclose(z_b, z_s, rtol=1e-12)
        fit_b = GarchFit(params=params, sigma=sigma_b, z=z_b, loglik=0.0,
                         converged=True)
        fit_s = GarchFit(params=scaled_params, sigma=sigma_s, z=z_s, loglik=0.0,
                         converged=True)
        cfg_fhs = VarConfig(level=0.05, window=200, method="fhs")
        fhs_base = rolling_var(base_series, fit_b, cfg_fhs)
        fhs_scaled = rolling_var(scaled_series, fit_s, cfg_fhs)
        assert np.allclose(fhs_scaled.var, c * fhs_base.var, rtol=1e-12)

    def test_hs_var_is_window_member(self):
        rng = np.random.default_rng(61)
        values = rng.normal(size=320)
        series = _series(values)
        out = rolling_var(series, None, VarConfig(method="hs", window=200))
        for t in range(200, 320):
            assert out.var[t - 200] in values[t - 200:t]

    def test_misaligned_fit(self):
        series = _series(np.random.default_rng(62).normal(size=300))
        other = _series(np.random.default_rng(63).normal(size=290))
        fitted = _fit_for(other)
        with pytest.raises(DataError, match="fit covers 290 observations"):
            rolling_var(series, fitted, VarConfig(method="fhs"))
        with pytest.raises(DataError, match="needs a GARCH fit"):
            rolling_var(series, None, VarConfig(method="garch_n"))

    def test_series_too_short(self):
        series = _series(np.random.default_rng(64).normal(size=150))
        with pytest.raises(DataError):
            rolling_var(series, None, VarConfig(method="hs", window=200))


@st.composite
def _tied_cases(draw):
    """(values, window, level): lengths m+1..600, windows 20..n-1.

    Values come from a pool of ``distinct`` draws of mixed magnitude plus
    +0.0 and -0.0, so small pools give heavy ties and signed zeros.
    """
    n = draw(st.integers(21, 600))
    m = draw(st.integers(20, n - 1))
    p = draw(st.sampled_from([0.01, 0.025, 0.05, 0.1, 0.25])
             | st.floats(1e-3, 0.499))
    distinct = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    magnitudes = 10.0 ** rng.integers(-6, 3, size=distinct)
    pool = np.concatenate([[0.0, -0.0],
                           rng.standard_normal(distinct) * magnitudes])
    return rng.choice(pool, size=n), m, p


def _hand_fit(z, seed=0) -> GarchFit:
    """A fit whose residuals are ``z`` and whose sigma is any positive path."""
    sigma = np.random.default_rng(seed).uniform(0.5, 2.0, size=len(z))
    return GarchFit(params=GarchParams(omega=1.0, alpha=0.0, beta=0.0),
                    sigma=sigma, z=np.asarray(z, float), loglik=0.0,
                    converged=True)


# p*m integral: 0.05*200 = 10 and 0.25*20 = 5
_INTEGRAL_PM = [(np.repeat(np.linspace(-1.0, 1.0, 26), 10), 200, 0.05),
                (np.repeat([-0.0, 0.0, -1.0, 1.0], 10), 20, 0.25)]


class TestRollingVarProperties:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=_tied_cases())
    @example(case=_INTEGRAL_PM[0])
    @example(case=_INTEGRAL_PM[1])
    def test_bytes_match_per_date_oracle(self, case):
        values, m, p = case
        series, fit = _series(values), _hand_fit(values)
        hs_cfg = VarConfig(level=p, window=m, method="hs")
        fhs_cfg = VarConfig(level=p, window=m, method="fhs")
        dates = range(m, len(values))
        hs_ref = np.array([hs_var(series, t, hs_cfg) for t in dates])
        fhs_ref = np.array([fhs_var(fit.sigma[t], fit.z[t - m:t], p)
                            for t in dates])
        assert rolling_var(series, None, hs_cfg).var.tobytes() == hs_ref.tobytes()
        assert rolling_var(series, fit, fhs_cfg).var.tobytes() == fhs_ref.tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=_tied_cases())
    @example(case=_INTEGRAL_PM[1])
    def test_hs_is_member_of_its_window(self, case):
        values, m, p = case
        out = rolling_var(_series(values), None,
                          VarConfig(level=p, window=m, method="hs")).var
        windows = np.lib.stride_tricks.sliding_window_view(values[:-1], m)
        assert np.all(np.any(windows == out[:, None], axis=1))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=_tied_cases(), power=st.integers(-8, 8))
    @example(case=_INTEGRAL_PM[1], power=-3)
    def test_exact_power_of_two_scale_equivariance(self, case, power):
        values, m, p = case
        c = 2.0 ** power
        hs_cfg = VarConfig(level=p, window=m, method="hs")
        base = rolling_var(_series(values), None, hs_cfg).var
        scaled = rolling_var(_series(c * values), None, hs_cfg).var
        assert scaled.tobytes() == (c * base).tobytes()

        fit = _hand_fit(values)
        fit_scaled = GarchFit(params=fit.params, sigma=c * fit.sigma, z=fit.z,
                              loglik=0.0, converged=True)
        fhs_cfg = VarConfig(level=p, window=m, method="fhs")
        series = _series(values)
        base = rolling_var(series, fit, fhs_cfg).var
        scaled = rolling_var(series, fit_scaled, fhs_cfg).var
        assert scaled.tobytes() == (c * base).tobytes()


def test_rolling_var_makes_no_per_date_quantile_calls(monkeypatch):
    calls = []
    scalar = var_engine.empirical_quantile

    def counting(xs, p):
        calls.append(p)
        return scalar(xs, p)

    monkeypatch.setattr(var_engine, "empirical_quantile", counting)
    monkeypatch.setattr(oracles, "empirical_quantile", counting)
    params = GarchParams(omega=2e-6, alpha=0.10, beta=0.85)
    series = _series(simulate_garch_returns(params, 1_000, seed=65))
    fitted = _fit_for(series)
    for method in ("hs", "fhs"):
        rolling_var(series, fitted, VarConfig(method=method))
    assert len(calls) == 0
    hs_var(series, 200, VarConfig(method="hs"))
    assert len(calls) == 1


def test_fhs_rejects_non_positive_sigma():
    series = _series(np.random.default_rng(66).normal(size=260))
    fitted = _fit_for(series)
    sigma = fitted.sigma.copy()
    sigma[230] = 0.0
    broken = GarchFit(params=fitted.params, sigma=sigma, z=fitted.z,
                      loglik=0.0, converged=True)
    with pytest.raises(ValueError, match="sigma must be positive"):
        rolling_var(series, broken, VarConfig(method="fhs"))
