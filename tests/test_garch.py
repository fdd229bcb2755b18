import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import garch_score
from riskengine import garch
from riskengine.errors import DataError
from riskengine.garch import (
    GarchParams,
    _face_step,
    _Likelihood,
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


@pytest.mark.parametrize("theta", [(0.03, 0.08, 0.88), (0.5, 0.0, 0.5),
                                   (0.9, 0.1, 0.0)],
                         ids=["interior", "alpha-zero", "beta-zero"])
def test_score_and_hessian_match_finite_differences(theta):
    r = simulate_garch_returns(GarchParams(omega=2e-6, alpha=0.10, beta=0.85),
                               1_000, seed=5)
    lik = _Likelihood(r / 2.0 ** -7)
    theta = np.array(theta)
    value, grad, _ = lik.score(theta)
    q = lik.score(theta, scores=True)[2]
    _, same_grad, hess = lik.score(theta, hessian=True)
    assert value == loglik(r / 2.0 ** -7, GarchParams(*theta))
    assert np.array_equal(same_grad, grad)
    assert np.allclose(q.sum(axis=1), grad, rtol=1e-12, atol=0)
    for i in range(3):
        h = np.zeros(3)
        h[i] = 1e-5 * max(theta[i], 1e-2)
        up = lik.score(theta + h)
        if theta[i] > h[i]:  # central differences
            down = lik.score(theta - h)
            slope = (up[0] - down[0]) / (2 * h[i])
            curve = (up[1] - down[1]) / (2 * h[i])
            rtol = 1e-6
        else:  # forward differences from the bound
            slope = (up[0] - value) / h[i]
            curve = (up[1] - grad) / h[i]
            rtol = 1e-3
        assert slope == pytest.approx(grad[i], rel=rtol)
        assert np.allclose(curve, hess[:, i], rtol=rtol, atol=0)


@st.composite
def _score_point(draw):
    """(n, seed, innovation, theta) with theta inside or on a face of the box."""
    n = draw(st.integers(min_value=2, max_value=3_000))
    seed = draw(st.integers(0, 2**32))
    innovation = draw(st.sampled_from(["normal", "student_t"]))
    omega = draw(st.floats(1e-3, 2.0))
    alpha = draw(st.floats(0.0, 0.3))
    face = draw(st.sampled_from(["interior", "beta-zero", "beta-underflows",
                                 "alpha-zero", "persistence-bound"]))
    if face == "interior":
        beta = draw(st.floats(0.0, 1.0 - 1e-6 - alpha))
    elif face == "beta-zero":
        beta = 0.0
    elif face == "beta-underflows":  # beta**2 is 0.0, so the scans stop early
        beta = draw(st.floats(1e-300, 1e-160))
    elif face == "alpha-zero":
        alpha, beta = 0.0, draw(st.floats(0.0, 1.0 - 1e-6))
    else:
        alpha = draw(st.floats(0.0, 1.0 - 1e-6))
        beta = 1.0 - 1e-6 - alpha
    return n, seed, innovation, (omega, alpha, beta)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(point=_score_point())
@example(point=(2, 1, "normal", (0.5, 0.1, 0.8)))
@example(point=(3_000, 2, "student_t", (0.01, 0.05, 1.0 - 1e-6 - 0.05)))
@example(point=(3_000, 3, "normal", (0.01, 0.0, 1.0 - 1e-6)))
def test_score_matches_forward_scan_oracle(point):
    # the adjoint gradient and Hessian agree with the forward scans to
    # within 1e-12 of their largest entry; the value is the same bytes
    n, seed, innovation, theta = point
    r = simulate_garch_returns(_GARCH, n, seed=seed, innovation=innovation)
    lik = _Likelihood(r / 2.0 ** -7)
    theta = np.array(theta)
    for hessian in (False, True):
        value, grad, m = lik.score(theta, hessian=hessian)
        want_value, want_grad, want_m = garch_score(lik, theta, hessian=hessian)
        assert value == want_value
        assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))
        if hessian:
            assert np.max(np.abs(m - want_m)) <= 1e-12 * np.max(np.abs(want_m))


class TestScanWork:
    """Scans are the work of an evaluation: a 3 x n scan costs three 1-D ones."""

    @pytest.fixture
    def scans(self, monkeypatch):
        shapes = []
        scan = garch._scan

        def spy(x, c):
            shapes.append(x.shape)
            scan(x, c)

        monkeypatch.setattr(garch, "_scan", spy)
        return shapes

    def test_plain_evaluation_scans_two_rows(self, scans):
        lik = _Likelihood(simulate_garch_returns(_GARCH, 1_000, seed=5) / 2.0 ** -7)
        lik.score(np.array([0.03, 0.08, 0.88]))
        assert scans == [(999,), (999,)]

    def test_fit_scans_a_matrix_only_for_bhhh_or_the_hessian(self, scans, monkeypatch):
        # white noise: four climbs, with BHHH seeds, certificates and one
        # BHHH restart, whose extra evaluation nfev counts
        calls = []
        score = _Likelihood.score

        def spy(lik, theta, scores=False, hessian=False):
            calls.append(scores or hessian)
            return score(lik, theta, scores=scores, hessian=hessian)

        monkeypatch.setattr(_Likelihood, "score", spy)
        fitted = fit(simulate_garch_returns(_IID, 10_000, seed=1072))
        matrices = [shape for shape in scans if len(shape) == 2]
        assert len(matrices) == sum(calls) >= 8
        # two 1-D scans per evaluation, plus the fit's final variance path
        assert len(scans) - len(matrices) == 2 * len(calls) + 1
        assert fitted.nfev == len(calls) + 1


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

    def test_unbounded_likelihood_is_not_certified(self):
        # r[1:] = 0: the likelihood grows without bound as omega -> 0, so no
        # point is an optimum; the fit stops on its omega bound, uncertified
        fitted = fit(np.r_[0.01, np.zeros(299)])
        assert not fitted.converged
        assert fitted.params.alpha == fitted.params.beta == 0.0

    def test_alternating_signs_fit_the_corner_without_warnings(self):
        # r**2 is constant: the score vanishes and BHHH is zero at the start
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fitted = fit(np.where(np.arange(250) % 2 == 0, 0.01, -0.01))
        assert fitted.converged
        assert fitted.params.alpha == fitted.params.beta == 0.0

    def test_numerically_flat_likelihood_keeps_a_certified_tie(self):
        # r[0]**2 / sigma2[0] is 1e24 here and swamps every other term, so
        # all climbs end on the same loglik; the certified one is kept
        r = 1e150 + np.random.default_rng(1).standard_normal(400) * 1e138
        assert fit(r).converged

    def test_spike_after_flat_returns_fits_on_the_persistence_bound(self):
        # the climb ends on alpha + beta = 1 - 1e-6, where a step rounded
        # past the bound must still leave alpha and beta inside the box
        r = np.r_[np.random.default_rng(0).normal(size=299) * 1e-8, 1.0]
        fitted = fit(r)
        assert fitted.converged
        assert fitted.params.alpha + fitted.params.beta == pytest.approx(1.0 - 1e-6)

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
        # on this white-noise series the certified optimum is the corner
        # omega = mean(r[1:]**2), alpha = beta = 0, in closed form; the fit
        # must return it exactly, not a point near it
        r = simulate_garch_returns(GarchParams(omega=1e-4, alpha=0.0, beta=0.0),
                                   10_000, seed=1098)
        fitted = fit(r)
        corner = GarchParams(omega=float(np.mean(r[1:] ** 2)), alpha=0.0, beta=0.0)
        assert fitted.converged
        assert fitted.params == corner
        assert fitted.loglik == loglik(r, corner)
        at_sample_var = GarchParams(omega=float(np.var(r, ddof=1)), alpha=0.0, beta=0.0)
        assert fitted.loglik > loglik(r, at_sample_var)
        sigma, z = filter(r, corner)
        assert np.array_equal(fitted.sigma, sigma)
        assert np.array_equal(fitted.z, z)

    def test_fit_summary(self):
        truth = GarchParams(omega=1e-5, alpha=0.05, beta=0.90)
        r = simulate_garch_returns(truth, 1_000, seed=4)
        fitted = fit(r)
        assert fitted.n_obs == 1_000
        assert fitted.converged is True
        assert fitted.nfev > 0


_GARCH = GarchParams(omega=2e-6, alpha=0.10, beta=0.85)
_IID = GarchParams(omega=1e-4, alpha=0.0, beta=0.0)


def _scipy_nelder_mead_loglik(r):
    """The loglik scipy's Nelder-Mead reaches, or the corner's if higher.

    It starts at (0.05 * sample variance, 0.05, 0.90) in unconstrained
    coordinates (log omega, logit of the persistence over 1 - 1e-6, logit of
    alpha's share of it) and stops after 2,000 iterations or 8,000
    evaluations, or once the simplex and its values are within 1e-8; the
    closed-form alpha = beta = 0 corner counts too.
    """
    optimize = pytest.importorskip("scipy.optimize")
    special = pytest.importorskip("scipy.special")

    def params(u):
        persistence = (1.0 - 1e-6) * special.expit(u[1])
        alpha = persistence * special.expit(u[2])
        return GarchParams(omega=math.exp(u[0]), alpha=alpha, beta=persistence - alpha)

    def objective(u):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                value = loglik(r, params(u))
        except (OverflowError, ValueError):
            return 1e12
        return -value if math.isfinite(value) else 1e12

    sample_var = float(np.var(r, ddof=1))
    x0 = np.array([math.log(0.05 * sample_var),
                   special.logit(0.95 / (1.0 - 1e-6)), special.logit(0.05 / 0.95)])
    result = optimize.minimize(
        objective, x0, method="Nelder-Mead",
        options={"maxiter": 2000, "maxfev": 8000, "xatol": 1e-8,
                 "fatol": 1e-8 * max(1.0, abs(objective(x0)))})
    corner = GarchParams(omega=float(np.mean(r[1:] ** 2)), alpha=0.0, beta=0.0)
    return max(-float(result.fun), loglik(r, corner))


@pytest.mark.parametrize("params, innovation, n, seed", [
    *[(_GARCH, "normal", 2_500, seed) for seed in (11, 12, 13)],
    *[(_GARCH, "student_t", 2_500, seed) for seed in (21, 22, 23)],
    *[(_IID, "normal", 2_500, seed) for seed in (31, 32)],
    *[(_IID, "normal", 10_000, seed) for seed in (33, 34, 35)],
    # Nelder-Mead ends on the alpha ~ 0 ridge, below the alpha = beta = 0
    # corner; the fit finds a point above both
    (_IID, "normal", 10_000, 7171882947238035265),
], ids=lambda v: v if isinstance(v, (str, int)) else
       "garch" if v == _GARCH else "iid")
def test_fit_matches_scipy_nelder_mead(params, innovation, n, seed):
    # certified, and never below scipy's Nelder-Mead by more than 1e-6;
    # Nelder-Mead's own success flag says nothing about a certificate
    r = simulate_garch_returns(params, n, seed=seed, innovation=innovation)
    fitted = fit(r)
    assert fitted.converged
    assert fitted.loglik >= _scipy_nelder_mead_loglik(r) - 1e-6


# white-noise series on which that Nelder-Mead stops at its iteration cap,
# short of its own tolerance: the hardest iid cases among keys 1000-1119
_IID_KEYS_NM_FAILED = (1006, 1007, 1009, 1024, 1030, 1046, 1050, 1059, 1076,
                       1077, 1081, 1089, 1095, 1096, 1098)


@pytest.mark.parametrize("seed", _IID_KEYS_NM_FAILED)
def test_iid_fit_certified_where_nelder_mead_failed(seed):
    r = simulate_garch_returns(_IID, 10_000, seed=seed)
    fitted = fit(r)
    assert fitted.converged
    assert fitted.loglik >= _scipy_nelder_mead_loglik(r) - 1e-6


def _certificate_gain(lik, theta):
    _, grad, hess = lik.score(theta, hessian=True)
    return _face_step(theta, grad, -hess, exact=True)[1]


def test_certificate_finds_the_gain_at_a_corner_that_is_no_optimum():
    # raising alpha from alpha = beta = 0 gains 0.146 on this white noise
    lik = _Likelihood(simulate_garch_returns(_IID, 10_000, seed=1059) / 2.0 ** -7)
    corner = np.array([float(np.mean(lik.x2[1:])), 0.0, 0.0])
    assert _certificate_gain(lik, corner) == pytest.approx(0.1465, abs=1e-4)


def test_certificate_refuses_a_bound_whose_multiplier_is_negative():
    # alpha sits on its bound while raising it gains to first order; the
    # model curves up along alpha, so only the face that holds alpha is
    # negative definite, and its step (zero) must not certify the point
    theta = np.array([1.0, 0.0, 0.5])
    grad = np.array([0.0, 1.0, 0.0])
    hess = -np.diag([1.0, -1.0, 1.0])
    assert _face_step(theta, grad, -hess, exact=True) == (None, math.inf)
    # with alpha's gradient pointing out of the box the face certifies
    step, gain = _face_step(theta, -grad, -hess, exact=True)
    assert gain == 0.0 and np.array_equal(step, np.zeros(3))


@st.composite
def _series_and_scale(draw):
    params = draw(st.sampled_from([_GARCH, _IID, GarchParams(5e-6, 0.05, 0.9)]))
    n = draw(st.sampled_from([250, 1_000]))
    r = simulate_garch_returns(params, n, seed=draw(st.integers(0, 2**32)),
                               innovation=draw(st.sampled_from(["normal", "student_t"])))
    return r, 2.0 ** draw(st.integers(min_value=-60, max_value=60))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=_series_and_scale())
def test_fit_is_power_of_two_equivariant(case):
    r, c = case
    base, scaled = fit(r), fit(c * r)
    assert scaled.params.alpha == base.params.alpha
    assert scaled.params.beta == base.params.beta
    assert scaled.params.omega == base.params.omega * c * c
    assert scaled.converged == base.converged
    assert scaled.nfev == base.nfev
    assert np.array_equal(scaled.sigma, base.sigma * c)
    assert np.array_equal(scaled.z, base.z)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(case=_series_and_scale())
def test_fit_converges_alike_in_percent(case):
    r, _ = case
    base, percent = fit(r), fit(100.0 * r)
    assert percent.converged == base.converged
