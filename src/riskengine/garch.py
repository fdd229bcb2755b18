"""GARCH(1,1) estimation and filtering under a zero conditional mean.

Variance recursion:

    sigma2[t] = omega + alpha * r[t-1]**2 + beta * sigma2[t-1]

with sigma2[0] set to the sample variance of the input returns, and Gaussian
quasi-likelihood summed from t=0. Returns relate to shocks by r[t] =
sigma[t] * z[t], which makes the standardized residuals z available for
filtered historical simulation.

Only numpy is needed: the recursion runs as a log-step doubling scan, and
the fit is a projected quasi-Newton (BFGS) climb on the analytic score,
which one reverse (adjoint) scan gives; the 3 x n parameter sensitivities
are scanned only for the BHHH seed and the exact Hessian. So a command
imports nothing heavier.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .data import ReturnSeries
from .errors import DataError

_LOG_2PI = math.log(2.0 * math.pi)
# strict stationarity margin: alpha + beta <= 1 - _MARGIN
_MARGIN = 1e-6
# The fit works on returns divided by a power of two near their sd. In those
# units omega stays at or above _OMEGA_MIN, which keeps every variance
# positive; a fit that ends there is certified only if going on to omega = 0
# would gain less than _GAIN_TOL.
_OMEGA_MIN = 2.0 ** -48
# a certified fit: no feasible step gains more log-likelihood than this
_GAIN_TOL = 1e-6
# A sample whose fit beats the alpha = beta = 0 corner by less than this
# (half the chi-square(2) critical value at 1e-6) shows no significant
# volatility clustering. Its likelihood is flat with several local maxima,
# so the fit also climbs from the corner and from each face.
_WEAK = 13.8
# likelihood evaluations one quasi-Newton pass may spend
_PASS_EVALS = 60
# Bounds a parameter point can sit on, as normals a with a . d >= 0 for a
# step d that stays feasible: omega >= _OMEGA_MIN, alpha >= 0, beta >= 0 and
# alpha + beta <= 1 - _MARGIN.
_NORMALS = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                     [0.0, -1.0, -1.0]])


@dataclass(frozen=True)
class GarchParams:
    omega: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.omega > 0.0 and math.isfinite(self.omega)):
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ValueError(
                f"alpha and beta must be nonnegative, got {self.alpha}, {self.beta}"
            )
        if self.alpha + self.beta >= 1.0:
            raise ValueError(
                f"alpha + beta must be < 1, got {self.alpha + self.beta}"
            )

    @property
    def unconditional_variance(self) -> float:
        return self.omega / (1.0 - self.alpha - self.beta)


@dataclass(frozen=True)
class GarchFit:
    """Estimated parameters plus the in-sample volatility and residual paths.

    ``converged`` is True when the fit is certified: no feasible step from
    the returned parameters gains more than 1e-6 in log-likelihood under the
    local quadratic model. ``nfev`` counts the likelihood evaluations the fit
    made, with or without the score; a BHHH restart of the climb evaluates
    its point once more, and counts.
    """

    params: GarchParams
    sigma: np.ndarray
    z: np.ndarray
    loglik: float
    converged: bool
    nfev: int = 0

    @property
    def n_obs(self) -> int:
        return len(self.sigma)


def _as_returns(returns) -> np.ndarray:
    if isinstance(returns, ReturnSeries):
        return np.asarray(returns.returns, dtype=float)
    return np.asarray(returns, dtype=float)


def _start_variance(r: np.ndarray, params: GarchParams) -> float:
    """sigma2[0]: the sample variance of the returns.

    A degenerate (zero-variance) sample falls back to the unconditional
    variance so the recursion stays defined; fitting such a series is
    rejected separately.
    """
    v0 = float(np.var(r, ddof=1))
    return v0 if v0 > 0.0 else params.unconditional_variance


def _scan(x: np.ndarray, c: float) -> None:
    """In place along the last axis: x[..., t] += c * x[..., t-1] for all t.

    A doubling scan: after the pass with step k, x[..., t] holds
    sum_{j<2k} c^j x[..., t-j] of the original x, so log2(n) whole-array
    passes replace the loop over t.
    """
    k = 1
    while k < x.shape[-1] and c != 0.0:
        x[..., k:] += c * x[..., :-k]
        k, c = 2 * k, c * c


def _variance_path(r2: np.ndarray, v0: float, params: GarchParams) -> np.ndarray:
    """Conditional variances from the recursion, given r**2 and sigma2[0]."""
    sigma2 = np.empty(len(r2))
    sigma2[0] = v0
    # sigma2[t] = x[t] + beta*sigma2[t-1] with x[t] = omega + alpha*r[t-1]^2
    # (plus beta*sigma2[0] at t = 1)
    x = sigma2[1:]
    np.multiply(params.alpha, r2[:-1], out=x)
    x += params.omega
    x[0] += params.beta * v0
    _scan(x, params.beta)
    return sigma2


def _gauss_loglik(sigma2: np.ndarray, ratio: np.ndarray) -> float:
    """Gaussian log-likelihood from the variances and ratio = r**2 / sigma2."""
    return float(
        -0.5 * (len(sigma2) * _LOG_2PI + np.sum(np.log(sigma2)) + np.sum(ratio))
    )


def filter(returns, params: GarchParams):
    """Run the variance recursion; returns (sigma, z) with z = r / sigma."""
    r = _as_returns(returns)
    if len(r) < 2:
        raise DataError("need at least two observations to filter")
    sigma = np.sqrt(_variance_path(r * r, _start_variance(r, params), params))
    return sigma, r / sigma


def loglik(returns, params: GarchParams) -> float:
    """Gaussian quasi-log-likelihood of the returns under the recursion."""
    r = _as_returns(returns)
    if len(r) < 10:
        raise DataError(f"need at least 10 observations, got {len(r)}")
    r2 = r * r
    sigma2 = _variance_path(r2, _start_variance(r, params), params)
    return _gauss_loglik(sigma2, r2 / sigma2)


def next_variance(params: GarchParams, r_t: float, sigma2_t: float) -> float:
    """One-step variance update omega + alpha*r^2 + beta*sigma2."""
    if sigma2_t <= 0.0:
        raise ValueError(f"variance must be positive, got {sigma2_t}")
    return params.omega + params.alpha * r_t * r_t + params.beta * sigma2_t


class _Likelihood:
    """The quasi-likelihood of fixed returns x with its analytic derivatives.

    theta is (omega, alpha, beta). Each call counts one evaluation in nfev.
    """

    def __init__(self, x: np.ndarray):
        self.x2 = x * x
        self.v0 = float(np.var(x, ddof=1))
        self.nfev = 0

    def score(self, theta, scores: bool = False, hessian: bool = False):
        """(loglik, gradient, m) at theta, m None unless asked for.

        With ``scores`` m is q, the 3 x n per-observation scores whose outer
        product is the BHHH matrix; with ``hessian`` it is the exact Hessian.
        s[t] = d sigma2[t] / d theta follows the recursion with input
        u[t] = (1, x2[t-1], sigma2[t-1]) and coefficient beta, so the
        gradient sum_t w[t] s[t] / 2 equals sum_t u[t] g[t] / 2, with g the
        reverse scan g[t] = w[t] + beta * g[t+1]: one 1-D scan, and the 3-row
        scan of s runs only for m. The sums are numpy reductions, so every
        mode gives the same gradient bytes.
        """
        self.nfev += 1
        omega, alpha, beta = theta
        x2 = self.x2
        sigma2 = _variance_path(x2, self.v0, GarchParams(omega, alpha, beta))
        ratio = x2 / sigma2
        value = _gauss_loglik(sigma2, ratio)
        w = (ratio - 1.0) / sigma2
        # g[t-1] pairs with u[t], t >= 1; s[0] = 0 drops w[0]
        g = w[:0:-1].copy()
        _scan(g, beta)
        g = g[::-1]
        grad = 0.5 * np.array([np.sum(g), np.sum(x2[:-1] * g),
                               np.sum(sigma2[:-1] * g)])
        if not (scores or hessian):
            return value, grad, None
        s = np.empty((3, len(x2)))
        s[:, 0] = 0.0
        s[0, 1:] = 1.0
        s[1, 1:] = x2[:-1]
        s[2, 1:] = sigma2[:-1]
        _scan(s[:, 1:], beta)
        if scores:
            return value, grad, s * (0.5 * w)
        # second derivatives of sigma2: only those with beta are nonzero,
        # and they follow the recursion with input s[t-1] (twice that for
        # beta, beta), so the same g sums them
        u = (2.0 * ratio - 1.0) / (sigma2 * sigma2)
        hess = -0.5 * ((s * u) @ s.T)
        cross = 0.5 * np.sum(s[:, :-1] * g, axis=1)
        cross[2] *= 2.0
        hess[2, :] += cross
        hess[:2, 2] += cross[:2]
        return value, grad, hess


def _face_step(theta, grad, b, exact: bool):
    """Best step of the model grad.d - d'bd/2 that keeps theta feasible.

    Each subset of the bounds theta sits on, held fixed, is a face; the step
    solves the model on the face and counts when it leaves no other of those
    bounds and, with ``exact``, no held bound's multiplier is below -1e-6.
    Returns the step with the largest model gain, and that gain, or
    (None, inf) when no face qualifies. With ``exact`` the face's curvature
    must be positive definite; otherwise (a quasi-Newton b) eigenvalues below
    1e-12 of the largest are raised to that level.
    """
    omega, alpha, beta = theta
    # alpha + beta lands on its bound only to within rounding
    bound = [i for i, on in enumerate((omega == _OMEGA_MIN, alpha == 0.0, beta == 0.0,
                                       alpha + beta >= 1.0 - _MARGIN - 1e-15)) if on]
    best, best_gain = None, -math.inf
    for mask in range(1 << len(bound)):
        held = [bound[j] for j in range(len(bound)) if mask >> j & 1]
        # the free directions of the face; none at a vertex of three bounds
        z = np.linalg.svd(_NORMALS[held])[2][len(held):].T if held else np.eye(3)
        d = np.zeros(3)
        if z.shape[1]:
            m = z.T @ b @ z
            scale = np.sqrt(np.abs(np.diag(m)))
            scale[scale == 0.0] = 1.0
            lam, v = np.linalg.eigh(m / np.outer(scale, scale))
            if not lam[0 if exact else -1] > 0.0:  # no curvature to step by
                continue
            lam = np.maximum(lam, 1e-12 * lam[-1])
            d = z @ (v @ ((v.T @ ((z.T @ grad) / scale)) / lam) / scale)
        for i in held:  # keep the held bounds exactly, not to rounding
            if i == 3:
                d[2] = -d[1]
            else:
                d[i] = 0.0
        if any(_NORMALS[i] @ d < 0.0 for i in bound if i not in held):
            continue
        if exact and held:
            # a bound's multiplier is the first-order gain of leaving it by
            # a unit step, and alpha or beta can move by 1 at most
            residual = grad - b @ d
            multipliers = np.linalg.lstsq(_NORMALS[held].T, -residual, rcond=None)[0]
            if np.any(multipliers < -_GAIN_TOL):
                continue
        gain = 0.5 * float(grad @ d)
        if gain > best_gain:
            best, best_gain = d, gain
    return (best, best_gain) if best is not None else (None, math.inf)


def _line(theta, d):
    """Largest t keeping theta + t*d feasible, and the bound it reaches."""
    omega, alpha, beta = theta
    room = ((_OMEGA_MIN - omega, d[0]), (-alpha, d[1]), (-beta, d[2]),
            (alpha + beta - (1.0 - _MARGIN), -d[1] - d[2]))
    t_max, which = math.inf, None
    for i, (gap, rate) in enumerate(room):
        if rate < 0.0 and gap / rate < t_max:
            t_max, which = gap / rate, i
    return t_max, which


def _moved(theta, d, t, t_max, which):
    omega, alpha, beta = theta + t * d
    if t == t_max:  # land exactly on the bound the step reaches
        if which == 0:
            omega = _OMEGA_MIN
        elif which == 1:
            alpha = 0.0
        elif which == 2:
            beta = 0.0
        else:
            beta = 1.0 - _MARGIN - alpha
    alpha = min(max(alpha, 0.0), 1.0 - _MARGIN)
    beta = min(max(beta, 0.0), 1.0 - _MARGIN - alpha)
    return np.array([max(omega, _OMEGA_MIN), alpha, beta])


def _bfgs(lik: _Likelihood, theta, b=None):
    """Projected BFGS from theta; b seeds the curvature (BHHH by default).

    Each step solves the quasi-Newton model on the face of bounds it keeps
    (``_face_step``) and backtracks until the Armijo condition holds. When a
    step fails, the curvature restarts once from BHHH at the current point,
    for one more evaluation.
    Stops when the model gains at most 1e-9, or after _PASS_EVALS
    evaluations, and returns the last point.
    """
    value, grad, q = lik.score(theta, scores=b is None)
    b = q @ q.T if b is None else b
    first = lik.nfev
    restarted = False
    while lik.nfev - first < _PASS_EVALS:
        d, gain = _face_step(theta, grad, b, exact=False)
        if not 1e-9 < gain < math.inf:
            break
        t_max, which = _line(theta, d)
        t = min(1.0, t_max)
        slope = float(grad @ d)
        while True:
            new = _moved(theta, d, t, t_max, which)
            new_value, new_grad, _ = lik.score(new)
            if new_value >= value + 1e-4 * t * slope or t < 1e-10:
                break
            t *= 0.5
        if not new_value > value:
            if restarted:
                break
            q = lik.score(theta, scores=True)[2]  # one more evaluation
            b, restarted = q @ q.T, True
            continue
        step, change = new - theta, grad - new_grad
        curv = float(step @ change)
        if curv > 1e-12 * float(np.linalg.norm(step) * np.linalg.norm(change)):
            bs = b @ step
            b = b - np.outer(bs, bs) / float(step @ bs) + np.outer(change, change) / curv
        theta, value, grad, restarted = new, new_value, new_grad, False
    return theta


def _climb(lik: _Likelihood, start):
    """BFGS from start until certified; returns (loglik, gain, theta).

    The certificate is the largest gain of a feasible step under the exact
    Hessian's quadratic model (inf when that model has no strict local
    maximum on the faces of the bounds), plus, at the omega bound, the
    first-order gain of the step on to omega = 0. An uncertified end point is
    climbed from again, up to twice, with the exact Hessian as the seed where
    it is negative definite, else BHHH.
    """
    theta = np.asarray(start, dtype=float)
    for attempt in range(3):
        seed = None
        if attempt:
            neg = -hess
            seed = neg if np.all(np.linalg.eigvalsh(neg) > 0.0) else None
        theta = _bfgs(lik, theta, seed)
        value, grad, hess = lik.score(theta, hessian=True)
        _, gain = _face_step(theta, grad, -hess, exact=True)
        if theta[0] == _OMEGA_MIN:
            gain += max(0.0, -float(grad[0])) * _OMEGA_MIN
        if gain <= _GAIN_TOL:
            break
    return value, gain, theta


def fit(returns) -> GarchFit:
    """Maximize the Gaussian quasi-likelihood by projected quasi-Newton.

    The fit runs on r / s with s = 2**round(log2(sd)), so the division is
    exact and returns scaled by a power of two give byte-identical alpha and
    beta, omega scaled by its square, and the same ``converged``. In those
    units it climbs by BFGS, seeded with the BHHH outer-product matrix, on
    (omega, alpha, beta) inside the box alpha, beta >= 0, alpha + beta <=
    1 - 1e-6 (and omega >= 2**-48), from (0.05 * sample variance, 0.05,
    0.90). Each climb ends with a certificate: the exact Hessian's quadratic
    model shows whether any feasible step gains more than 1e-6.

    When that climb is not certified, or beats the closed-form optimum at
    alpha = beta = 0 by less than 13.8 (no significant clustering, where the
    likelihood is flat and multimodal), the fit also climbs from that corner,
    from (0.01 * sample variance, 0, 0.99) on the alpha = 0 face and from
    (0.95 * sample variance, 0.05, 0) on the beta = 0 face, and keeps the
    highest end point. ``converged`` is its certificate; an uncertified fit
    is not an error.
    """
    r = _as_returns(returns)
    if len(r) < 250:
        raise DataError(f"need at least 250 observations to fit, got {len(r)}")
    # overflows, and the nan of +inf and -inf sums, are rejected just below
    with np.errstate(over="ignore", invalid="ignore"):
        sample_var = float(np.var(r, ddof=1))
        corner_omega = float(np.mean(r[1:] ** 2))
    if not math.isfinite(sample_var):
        raise DataError("sample variance of the returns is not finite")
    # below this omega, mapped back by s**2 from standardized units, underflows
    if sample_var < sys.float_info.min:
        if r.min() < r.max():  # not constant: the squared deviations underflowed
            raise DataError(f"sample variance underflowed to {sample_var} (the "
                            f"returns are too small); it must be finite and "
                            f"at least {sys.float_info.min}")
        raise DataError(f"sample variance must be finite and at least "
                        f"{sys.float_info.min}, got {sample_var}")
    if corner_omega == math.inf:
        raise DataError("mean square of the returns is not finite")
    mantissa, exponent = math.frexp(math.sqrt(sample_var))
    s = math.ldexp(1.0, exponent if mantissa >= math.sqrt(0.5) else exponent - 1)
    lik = _Likelihood(r / s)
    v0 = lik.v0
    corner = (max(float(np.mean(lik.x2[1:])), _OMEGA_MIN), 0.0, 0.0)
    best = _climb(lik, (0.05 * v0, 0.05, 0.90))
    if best[1] > _GAIN_TOL or best[0] - lik.score(corner)[0] < _WEAK:
        for start in (corner, (0.01 * v0, 0.0, 0.99), (0.95 * v0, 0.05, 0.0)):
            # highest loglik; on a tie, the smaller certificate gain
            best = max(best, _climb(lik, start), key=lambda run: (run[0], -run[1]))
    _, gain, (omega, alpha, beta) = best
    params = GarchParams(omega=float(omega) * s * s, alpha=float(alpha),
                         beta=float(beta))
    # one variance path in the units of r gives loglik, sigma and z
    r2 = r * r
    sigma2 = _variance_path(r2, sample_var, params)
    sigma = np.sqrt(sigma2)
    return GarchFit(
        params=params,
        sigma=sigma,
        z=r / sigma,
        loglik=_gauss_loglik(sigma2, r2 / sigma2),
        converged=gain <= _GAIN_TOL,
        nfev=lik.nfev + 1,  # and that final path
    )
