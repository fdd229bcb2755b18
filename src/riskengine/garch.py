"""GARCH(1,1) estimation and filtering under a zero conditional mean.

Variance recursion:

    sigma2[t] = omega + alpha * r[t-1]**2 + beta * sigma2[t-1]

with sigma2[0] set to the sample variance of the input returns, and Gaussian
quasi-likelihood summed from t=0. Returns relate to shocks by r[t] =
sigma[t] * z[t], which makes the standardized residuals z available for
filtered historical simulation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.signal import lfilter
from scipy.special import expit, logit

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


def _variance_path(r: np.ndarray, params: GarchParams) -> np.ndarray:
    """Conditional variances from the recursion, seeded at the sample variance.

    A degenerate (zero-variance) sample falls back to the unconditional
    variance so the recursion stays defined; fitting such a series is
    rejected separately.
    """
    v0 = float(np.var(r, ddof=1))
    if v0 <= 0.0:
        v0 = params.unconditional_variance
    sigma2 = np.empty(len(r))
    sigma2[0] = v0
    if len(r) > 1:
        # sigma2[t] = x[t] + beta*sigma2[t-1] with x[t] = omega + alpha*r[t-1]^2
        x = params.omega + params.alpha * r[:-1] ** 2
        zi = np.array([params.beta * v0])
        sigma2[1:] = lfilter([1.0], [1.0, -params.beta], x, zi=zi)[0]
    return sigma2


def filter(returns, params: GarchParams):
    """Run the variance recursion; returns (sigma, z) with z = r / sigma."""
    r = _as_returns(returns)
    if len(r) < 2:
        raise DataError("need at least two observations to filter")
    sigma = np.sqrt(_variance_path(r, params))
    return sigma, r / sigma


def loglik(returns, params: GarchParams) -> float:
    """Gaussian quasi-log-likelihood of the returns under the recursion."""
    r = _as_returns(returns)
    if len(r) < 10:
        raise DataError(f"need at least 10 observations, got {len(r)}")
    sigma2 = _variance_path(r, params)
    return float(
        -0.5 * (len(r) * _LOG_2PI + np.sum(np.log(sigma2)) + np.sum(r * r / sigma2))
    )


def next_variance(params: GarchParams, r_t: float, sigma2_t: float) -> float:
    """One-step variance update omega + alpha*r^2 + beta*sigma2."""
    if sigma2_t <= 0.0:
        raise ValueError(f"variance must be positive, got {sigma2_t}")
    return params.omega + params.alpha * r_t * r_t + params.beta * sigma2_t


def _unpack(u: np.ndarray) -> GarchParams:
    # free coordinates -> (omega > 0, alpha >= 0, beta >= 0, alpha+beta < 1)
    omega = math.exp(u[0])
    persistence = (1.0 - _MARGIN) * float(expit(u[1]))
    alpha = persistence * float(expit(u[2]))
    return GarchParams(omega=omega, alpha=alpha, beta=persistence - alpha)


def _pack(omega: float, alpha: float, beta: float) -> np.ndarray:
    persistence = alpha + beta
    return np.array([
        math.log(omega),
        logit(persistence / (1.0 - _MARGIN)),
        logit(alpha / persistence),
    ])


def fit(returns, *, max_iter: int = 2000, tol: float = 1e-8) -> GarchFit:
    """Maximize the Gaussian quasi-likelihood with Nelder-Mead.

    The simplex runs on unconstrained coordinates (log omega, a squashed
    persistence and an alpha share), so every candidate satisfies the
    positivity and stationarity constraints. The closed-form optimum at
    alpha = beta = 0 is also scored and wins if its likelihood is higher. A
    failed convergence is not an error: the best point found is returned
    with ``converged=False``.
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

    def objective(u):
        try:
            # a non-finite likelihood scores 1e12 below, warnings add nothing
            with np.errstate(over="ignore", invalid="ignore"):
                value = loglik(r, _unpack(u))
        except (OverflowError, ValueError):
            return 1e12
        return -value if math.isfinite(value) else 1e12

    x0 = _pack(omega=sample_var * 0.05, alpha=0.05, beta=0.90)
    f0 = objective(x0)
    result = minimize(
        objective,
        x0,
        method="Nelder-Mead",
        options={
            "maxiter": max_iter,
            "maxfev": 4 * max_iter,
            "xatol": tol,
            "fatol": tol * max(1.0, abs(f0)),
        },
    )
    params = _unpack(result.x)
    value = -float(result.fun)
    # the simplex coordinates never reach alpha = beta = 0, whose optimum has
    # a closed form because sigma2[0] is fixed at the sample variance
    if corner_omega > 0.0:
        corner = GarchParams(omega=corner_omega, alpha=0.0, beta=0.0)
        corner_value = loglik(r, corner)
        if corner_value > value:
            params, value = corner, corner_value
    sigma, z = filter(r, params)
    return GarchFit(
        params=params,
        sigma=sigma,
        z=z,
        loglik=value,
        converged=bool(result.success),
    )
