"""GARCH(1,1) estimation and filtering under a zero conditional mean.

Variance recursion:

    sigma2[t] = omega + alpha * r[t-1]**2 + beta * sigma2[t-1]

with sigma2[0] set to the sample variance of the input returns, and Gaussian
quasi-likelihood summed from t=0. Returns relate to shocks by r[t] =
sigma[t] * z[t], which makes the standardized residuals z available for
filtered historical simulation.

Only numpy is needed: the recursion runs as a log-step doubling scan and the
fit uses a small Nelder-Mead, so a command imports nothing heavier.
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
    """Estimated parameters plus the in-sample volatility and residual paths."""

    params: GarchParams
    sigma: np.ndarray
    z: np.ndarray
    loglik: float
    converged: bool

    @property
    def n_obs(self) -> int:
        return len(self.sigma)

    def to_dict(self) -> dict:
        return {
            "omega": self.params.omega,
            "alpha": self.params.alpha,
            "beta": self.params.beta,
            "loglik": self.loglik,
            "converged": self.converged,
            "n_obs": self.n_obs,
        }


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


def _variance_path(r2: np.ndarray, v0: float, params: GarchParams) -> np.ndarray:
    """Conditional variances from the recursion, given r**2 and sigma2[0]."""
    sigma2 = np.empty(len(r2))
    sigma2[0] = v0
    # sigma2[t] = x[t] + beta*sigma2[t-1] with x[t] = omega + alpha*r[t-1]^2
    # (plus beta*sigma2[0] at t = 1). A doubling scan: after the pass with
    # step k, x[t] holds sum_{j<2k} beta^j x[t-j] of the original x, so
    # log2(n) whole-array passes replace the loop over t
    x = sigma2[1:]
    np.multiply(params.alpha, r2[:-1], out=x)
    x += params.omega
    x[0] += params.beta * v0
    k, c = 1, params.beta
    while k < len(x) and c != 0.0:
        x[k:] += c * x[:-k]
        k, c = 2 * k, c * c
    return sigma2


def _loglik(r2: np.ndarray, v0: float, params: GarchParams) -> float:
    sigma2 = _variance_path(r2, v0, params)
    return float(
        -0.5 * (len(r2) * _LOG_2PI + np.sum(np.log(sigma2)) + np.sum(r2 / sigma2))
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
    return _loglik(r * r, _start_variance(r, params), params)


def next_variance(params: GarchParams, r_t: float, sigma2_t: float) -> float:
    """One-step variance update omega + alpha*r^2 + beta*sigma2."""
    if sigma2_t <= 0.0:
        raise ValueError(f"variance must be positive, got {sigma2_t}")
    return params.omega + params.alpha * r_t * r_t + params.beta * sigma2_t


def _expit(x: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:  # x below about -709.8, where the limit 0 is exact
        return 0.0


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def _unpack(u: np.ndarray) -> GarchParams:
    # free coordinates -> (omega > 0, alpha >= 0, beta >= 0, alpha+beta < 1)
    omega = math.exp(u[0])
    persistence = (1.0 - _MARGIN) * _expit(u[1])
    alpha = persistence * _expit(u[2])
    return GarchParams(omega=omega, alpha=alpha, beta=persistence - alpha)


def _pack(omega: float, alpha: float, beta: float) -> np.ndarray:
    persistence = alpha + beta
    return np.array([
        math.log(omega),
        _logit(persistence / (1.0 - _MARGIN)),
        _logit(alpha / persistence),
    ])


class _OutOfEvaluations(Exception):
    pass


def _nelder_mead(f, x0: np.ndarray, max_iter: int, xatol: float, fatol: float):
    """Minimize f from x0; returns (x, f(x), success).

    Non-adaptive Nelder-Mead that takes the same steps as the reference
    optimizer the tests compare against: reflection 1, expansion 2,
    contraction 1/2 and shrink 1/2; a start simplex that moves each
    coordinate by 5 % (0.00025 from zero); a stop once both the simplex size
    and the spread of its values are within xatol and fatol; and at most
    max_iter iterations and 4 * max_iter evaluations. success means neither
    limit was reached.
    """
    n = len(x0)
    max_fev = 4 * max_iter
    nfev = 0

    def g(x):
        nonlocal nfev
        if nfev >= max_fev:
            raise _OutOfEvaluations
        nfev += 1
        return f(x)

    sim = np.repeat(x0[None, :], n + 1, axis=0)
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([g(x) for x in sim])
    order = np.argsort(fsim)
    sim, fsim = sim[order], fsim[order]
    iterations = 1
    while nfev < max_fev and iterations < max_iter:
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        try:
            xbar = sim[:-1].sum(axis=0) / n
            xr = 2.0 * xbar - sim[-1]
            fxr = g(xr)
            if fxr < fsim[0]:
                xe = 3.0 * xbar - 2.0 * sim[-1]
                fxe = g(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = g(xc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = g(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = g(sim[j])
            iterations += 1
        except _OutOfEvaluations:
            pass
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    return sim[0], float(fsim[0]), nfev < max_fev and iterations < max_iter


def fit(returns) -> GarchFit:
    """Maximize the Gaussian quasi-likelihood with Nelder-Mead.

    The simplex runs on unconstrained coordinates (log omega, a squashed
    persistence and an alpha share), so every candidate satisfies the
    positivity and stationarity constraints. It stops when both the simplex
    and its likelihood values are within 1e-8 (the latter relative to the
    likelihood at the start point), or after 2,000 iterations or 8,000
    likelihood evaluations. The closed-form optimum at alpha = beta = 0 is
    also scored and wins if its likelihood is higher. A failed convergence is
    not an error: the best point found is returned with ``converged=False``.
    """
    r = _as_returns(returns)
    if len(r) < 250:
        raise DataError(f"need at least 250 observations to fit, got {len(r)}")
    with np.errstate(over="ignore"):  # overflows are rejected just below
        sample_var = float(np.var(r, ddof=1))
        corner_omega = float(np.mean(r[1:] ** 2))
    # a subnormal variance would underflow the starting omega to zero
    if not sys.float_info.min <= sample_var < math.inf:
        raise DataError(f"sample variance must be finite and at least "
                        f"{sys.float_info.min}, got {sample_var}")
    if corner_omega == math.inf:
        raise DataError("mean square of the returns is not finite")
    r2 = r * r

    def objective(u):
        try:
            # a non-finite likelihood scores 1e12 below, warnings add nothing
            with np.errstate(over="ignore", invalid="ignore"):
                value = _loglik(r2, sample_var, _unpack(u))
        except (OverflowError, ValueError):
            return 1e12
        return -value if math.isfinite(value) else 1e12

    x0 = _pack(omega=sample_var * 0.05, alpha=0.05, beta=0.90)
    x, fx, converged = _nelder_mead(objective, x0, 2000, xatol=1e-8,
                                    fatol=1e-8 * max(1.0, abs(objective(x0))))
    params = _unpack(x)
    value = -fx
    # the simplex coordinates never reach alpha = beta = 0, whose optimum has
    # a closed form because sigma2[0] is fixed at the sample variance
    if corner_omega > 0.0:
        corner = GarchParams(omega=corner_omega, alpha=0.0, beta=0.0)
        corner_value = _loglik(r2, sample_var, corner)
        if corner_value > value:
            params, value = corner, corner_value
    sigma, z = filter(r, params)
    return GarchFit(
        params=params,
        sigma=sigma,
        z=z,
        loglik=value,
        converged=converged,
    )
