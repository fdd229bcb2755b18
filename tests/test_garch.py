import json
import math

import numpy as np
import pytest

from riskengine.errors import DataError
from riskengine.garch import (
    GarchParams,
    _pack,
    _unpack,
    filter,
    fit,
    loglik,
    next_variance,
)
from riskengine.montecarlo import simulate_garch_returns


def reference_filter(r, params):
    """Literal step-by-step recursion, independent of the production path."""
    r = np.asarray(r, float)
    sigma2 = [float(np.var(r, ddof=1))]
    for t in range(1, len(r)):
        sigma2.append(params.omega + params.alpha * r[t - 1] ** 2
                      + params.beta * sigma2[-1])
    return np.array(sigma2)


def reference_loglik(r, params):
    sigma2 = reference_filter(r, params)
    total = 0.0
    for rt, vt in zip(r, sigma2):
        total += -0.5 * math.log(2 * math.pi) - 0.5 * math.log(vt) - rt * rt / (2 * vt)
    return total


def _random_params(rng):
    alpha = float(rng.uniform(0.0, 0.3))
    beta = float(rng.uniform(0.0, 0.95 - alpha))
    return GarchParams(omega=float(rng.uniform(1e-6, 1e-4)), alpha=alpha, beta=beta)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            GarchParams(omega=0.0, alpha=0.1, beta=0.1)
        with pytest.raises(ValueError):
            GarchParams(omega=1e-6, alpha=-0.1, beta=0.1)
        with pytest.raises(ValueError):
            GarchParams(omega=1e-6, alpha=0.5, beta=0.5)

    def test_unconditional_variance(self):
        params = GarchParams(omega=2e-6, alpha=0.10, beta=0.85)
        assert params.unconditional_variance == pytest.approx(4e-5)


class TestLoglik:
    def test_all_zero_returns_closed_form(self):
        r = np.zeros(50)
        params = GarchParams(omega=0.5, alpha=0.0, beta=0.0)
        expected = 50 * (-0.5 * math.log(2 * math.pi) - 0.5 * math.log(0.5))
        assert loglik(r, params) == pytest.approx(expected, rel=1e-14)

    def test_iid_normal_reduction(self):
        rng = np.random.default_rng(41)
        r = rng.normal(scale=0.3, size=500)
        omega = 0.09
        params = GarchParams(omega=omega, alpha=0.0, beta=0.0)
        got = loglik(r, params)
        # alpha=beta=0: iid N(0, omega) except t=0 which is seeded at the
        # sample variance
        v0 = float(np.var(r, ddof=1))
        expected = -0.5 * math.log(2 * math.pi) - 0.5 * math.log(v0) - r[0] ** 2 / (2 * v0)
        expected += sum(-0.5 * math.log(2 * math.pi) - 0.5 * math.log(omega)
                        - rt ** 2 / (2 * omega) for rt in r[1:])
        assert got == pytest.approx(expected, rel=1e-12)

    def test_matches_reference_recursion(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            params = _random_params(rng)
            r = rng.normal(scale=0.01, size=300)
            assert loglik(r, params) == pytest.approx(
                reference_loglik(r, params), rel=1e-10)

    def test_too_short(self):
        with pytest.raises(DataError):
            loglik(np.ones(5), GarchParams(omega=1.0, alpha=0.0, beta=0.0))


class TestFilter:
    def test_degenerate_constant_volatility(self):
        rng = np.random.default_rng(43)
        r = rng.normal(size=100)
        params = GarchParams(omega=4.0, alpha=0.0, beta=0.0)
        sigma, z = filter(r, params)
        assert np.allclose(sigma[1:], 2.0, rtol=0, atol=0)
        assert np.allclose(z[1:], r[1:] / 2.0, rtol=1e-15, atol=0)

    def test_round_trip(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            params = _random_params(rng)
            r = rng.normal(scale=0.02, size=400)
            sigma, z = filter(r, params)
            assert np.allclose(sigma * z, r, rtol=1e-12, atol=0)

    def test_matches_reference_recursion(self):
        rng = np.random.default_rng(45)
        cases = []
        for _ in range(10):
            params = _random_params(rng)
            cases.append((params, rng.normal(scale=0.01, size=250)))
        # persistence 1 - 1e-6 over a long sample, where rounding in the
        # doubling scan has the most steps to pile up
        cases.append((GarchParams(omega=1e-7, alpha=0.05, beta=1.0 - 1e-6 - 0.05),
                      rng.normal(scale=0.01, size=20_000)))
        for params, r in cases:
            sigma, _ = filter(r, params)
            assert np.allclose(sigma ** 2, reference_filter(r, params),
                               rtol=1e-12, atol=0)

    def test_variance_floor(self):
        rng = np.random.default_rng(46)
        params = _random_params(rng)
        r = rng.normal(scale=0.01, size=300)
        sigma, _ = filter(r, params)
        assert np.all(sigma[1:] ** 2 >= params.omega)


class TestNextVariance:
    def test_degenerate(self):
        params = GarchParams(omega=7.0, alpha=0.0, beta=0.0)
        assert next_variance(params, 123.0, 5.0) == 7.0

    def test_no_shock(self):
        params = GarchParams(omega=1.0, alpha=0.2, beta=0.5)
        assert next_variance(params, 0.0, 2.0) == 1.0 + 0.5 * 2.0

    def test_matches_formula(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            params = _random_params(rng)
            r = float(rng.normal())
            v = float(rng.uniform(0.1, 2.0))
            assert next_variance(params, r, v) == pytest.approx(
                params.omega + params.alpha * r ** 2 + params.beta * v, rel=1e-15)

    def test_rejects_nonpositive_variance(self):
        params = GarchParams(omega=1.0, alpha=0.1, beta=0.1)
        with pytest.raises(ValueError):
            next_variance(params, 0.0, 0.0)


class TestFit:
    def test_recovers_simulated_parameters(self):
        truth = GarchParams(omega=2e-6, alpha=0.10, beta=0.85)
        r = simulate_garch_returns(truth, 20_000, seed=1)
        fitted = fit(r)
        assert fitted.converged
        assert abs(fitted.params.alpha - truth.alpha) <= 0.03
        assert abs(fitted.params.alpha + fitted.params.beta - 0.95) <= 0.03

    def test_iid_sample_small_alpha(self):
        rng = np.random.default_rng(48)
        r = rng.standard_normal(10_000)
        fitted = fit(r)
        assert fitted.params.alpha <= 0.05
        assert fitted.params.unconditional_variance == pytest.approx(1.0, rel=0.10)

    def test_constant_series_rejected(self):
        with pytest.raises(DataError, match="variance"):
            fit(np.full(300, 0.01))

    @pytest.mark.parametrize("loc, scale", [(0.0, 1e300), (1e154, 1e140),
                                            (0.0, 10 ** -161.5)],
                             ids=["variance-overflows", "mean-square-overflows",
                                  "subnormal-variance"])
    def test_out_of_range_returns_rejected(self, loc, scale):
        # each used to end in a ValueError from GarchParams or math.log
        r = loc + np.random.default_rng(0).standard_normal(300) * scale
        with pytest.raises(DataError, match="finite"):
            fit(r)

    def test_too_short(self):
        with pytest.raises(DataError):
            fit(np.random.default_rng(0).normal(size=100))

    def test_local_maximum(self):
        truth = GarchParams(omega=5e-6, alpha=0.08, beta=0.88)
        r = simulate_garch_returns(truth, 4_000, seed=2)
        fitted = fit(r)
        best = loglik(r, fitted.params)

        # finite-difference gradient is flat relative to the loglik scale
        p = fitted.params
        for name in ("omega", "alpha", "beta"):
            theta = getattr(p, name)
            h = max(abs(theta), 1e-6) * 1e-4
            up = {"omega": p.omega, "alpha": p.alpha, "beta": p.beta}
            dn = dict(up)
            up[name] = theta + h
            dn[name] = max(theta - h, 0.0 if name != "omega" else 1e-12)
            grad = (loglik(r, GarchParams(**up)) - loglik(r, GarchParams(**dn))) / (2 * h)
            assert abs(grad) * max(abs(theta), 1e-6) <= 1e-3 * (1.0 + abs(best))

        # and beats random feasible 5% perturbations
        rng = np.random.default_rng(49)
        for _ in range(20):
            scale = 1.0 + rng.uniform(-0.05, 0.05, size=3)
            cand = GarchParams(omega=p.omega * scale[0],
                               alpha=min(p.alpha * scale[1], 0.999),
                               beta=min(p.beta * scale[2], 0.999 - p.alpha * scale[1]))
            assert loglik(r, cand) <= best + 1e-9 * abs(best)

    def test_fit_filters_at_optimum(self):
        truth = GarchParams(omega=1e-5, alpha=0.05, beta=0.90)
        r = simulate_garch_returns(truth, 2_000, seed=3)
        fitted = fit(r)
        sigma, z = filter(r, fitted.params)
        assert np.array_equal(fitted.sigma, sigma)
        assert np.array_equal(fitted.z, z)
        assert fitted.loglik == pytest.approx(loglik(r, fitted.params), rel=1e-12)

    def test_iid_fit_takes_alpha_beta_zero_corner(self):
        # Nelder-Mead stops at alpha ~ 4e-7, beta ~ 0.27 on this series, a
        # loglik 8e-6 below (sample variance, 0, 0); the closed-form corner
        # omega = mean(r[1:]**2), alpha = beta = 0 beats both
        r = simulate_garch_returns(GarchParams(omega=1e-4, alpha=0.0, beta=0.0),
                                   10_000, seed=7171882947238035265)
        fitted = fit(r)
        corner = GarchParams(omega=float(np.mean(r[1:] ** 2)), alpha=0.0, beta=0.0)
        assert fitted.params == corner
        assert fitted.loglik == loglik(r, corner)
        at_sample_var = GarchParams(omega=float(np.var(r, ddof=1)), alpha=0.0, beta=0.0)
        assert fitted.loglik > loglik(r, at_sample_var)
        sigma, z = filter(r, corner)
        assert np.array_equal(fitted.sigma, sigma)
        assert np.array_equal(fitted.z, z)

    def test_json_round_trip(self):
        truth = GarchParams(omega=1e-5, alpha=0.05, beta=0.90)
        r = simulate_garch_returns(truth, 1_000, seed=4)
        fitted = fit(r)
        payload = json.loads(json.dumps(fitted.to_dict()))
        assert set(payload) == {"omega", "alpha", "beta", "loglik", "converged",
                                "n_obs"}
        assert payload["n_obs"] == 1_000
        assert payload["converged"] is True


_GARCH = GarchParams(omega=2e-6, alpha=0.10, beta=0.85)
_IID = GarchParams(omega=1e-4, alpha=0.0, beta=0.0)


@pytest.mark.parametrize("params, innovation, n, seed", [
    *[(_GARCH, "normal", 2_500, seed) for seed in (11, 12, 13)],
    *[(_GARCH, "student_t", 2_500, seed) for seed in (21, 22, 23)],
    *[(_IID, "normal", 2_500, seed) for seed in (31, 32)],
    *[(_IID, "normal", 10_000, seed) for seed in (33, 34, 35)],
    # Nelder-Mead ends on the alpha ~ 0 ridge and the alpha = beta = 0
    # corner wins
    (_IID, "normal", 10_000, 7171882947238035265),
], ids=lambda v: v if isinstance(v, (str, int)) else
       "garch" if v == _GARCH else "iid")
def test_fit_matches_scipy_nelder_mead(params, innovation, n, seed):
    optimize = pytest.importorskip("scipy.optimize")
    r = simulate_garch_returns(params, n, seed=seed, innovation=innovation)
    sample_var = float(np.var(r, ddof=1))

    def objective(u):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                value = loglik(r, _unpack(u))
        except (OverflowError, ValueError):
            return 1e12
        return -value if math.isfinite(value) else 1e12

    x0 = _pack(omega=sample_var * 0.05, alpha=0.05, beta=0.90)
    result = optimize.minimize(
        objective, x0, method="Nelder-Mead",
        options={"maxiter": 2000, "maxfev": 8000, "xatol": 1e-8,
                 "fatol": 1e-8 * max(1.0, abs(objective(x0)))})
    corner = GarchParams(omega=float(np.mean(r[1:] ** 2)), alpha=0.0, beta=0.0)
    expected = max(-float(result.fun), loglik(r, corner))
    fitted = fit(r)
    assert abs(fitted.loglik - expected) <= 1e-6
    assert fitted.converged == bool(result.success)
