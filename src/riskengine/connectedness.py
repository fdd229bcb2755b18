"""Variance-decomposition connectedness for multivariate return systems.

Pipeline: least-squares VAR(p) -> moving-average coefficients -> generalized
forecast-error variance decomposition (invariant to variable ordering) ->
row-normalized spillover table -> total / directional / net indices.

Orientation of the directional measures: the (j, k) table entry is the share
of j's forecast-error variance attributable to shocks in k, so "to others"
for j sums its column (off-diagonal) and "from others" sums its row.

Nothing here writes a file: the table CSV and the edge-list JSON are laid
out in ``cli.py``.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass

import numpy as np

from .data import MultiSeries
from .errors import ConfigError, DataError, EstimationError

# longest forecast horizon: every step builds one Psi_h
_MAX_HORIZON = 1000


@dataclass(frozen=True)
class VarModel:
    """VAR(p) estimate: y[t] = c + sum_i Phi_i y[t-i] + eps, eps ~ (0, Sigma)."""

    order: int
    intercept: np.ndarray
    phi: tuple[np.ndarray, ...]
    sigma: np.ndarray

    def __post_init__(self):
        if len(self.phi) != self.order:
            raise ValueError(f"{len(self.phi)} coefficient matrices for order {self.order}")
        if not np.allclose(self.sigma, self.sigma.T, atol=1e-12):
            raise ValueError("residual covariance must be symmetric")
        if np.any(np.diag(self.sigma) < 0.0):
            raise ValueError("residual covariance has a negative diagonal entry")

    @property
    def n_vars(self) -> int:
        return len(self.intercept)


@dataclass(frozen=True)
class ConnectednessTable:
    """Row-stochastic spillover table plus its summary indices (percent units)."""

    theta_tilde: np.ndarray
    tci: float
    to_others: np.ndarray
    from_others: np.ndarray
    net: np.ndarray


def fit_var(series: MultiSeries, order: int) -> VarModel:
    """Per-equation OLS with intercept; Sigma uses divisor (T - order).

    The lag regressors are demeaned and scaled to unit sd before the solve
    and the rank check, and the coefficients mapped back, so the fit does not
    depend on the scale or level of the series. A constant lag column makes
    the design rank-deficient.
    """
    check_order(order)
    y = np.asarray(series.values, dtype=float)
    total, n = y.shape
    if n < 2:
        raise DataError(f"need at least 2 series, got {n}")
    rows = total - order
    if rows < 10 * n * order:
        raise DataError(
            f"{total} observations too few for a {n}-variable VAR({order})"
        )
    # lag regressors [y[t-1], ..., y[t-p]] for t = order..total-1
    lags = np.empty((rows, n * order))
    for lag in range(1, order + 1):
        lags[:, (lag - 1) * n: lag * n] = y[order - lag:total - lag]
    with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
        mean = lags.mean(axis=0)
        sd = lags.std(axis=0)
    if not np.all(np.isfinite(sd)):
        raise DataError("sample sd of a series is not finite")
    flat = sd == 0.0
    if np.any(flat):
        # zero sd on a column that is not constant: the squared deviations
        # underflowed, so the series is out of float range, not collinear
        if np.any(lags[:, flat] != lags[0, flat]):
            raise DataError(f"sample variance of a series is below "
                            f"{sys.float_info.min}")
        raise EstimationError(
            "rank-deficient regressor matrix: a lagged series has zero sd")
    x = np.ones((rows, 1 + n * order))
    x[:, 1:] = (lags - mean) / sd
    target = y[order:]
    # lstsq counts singular values above eps * max(M, N) * the largest, as
    # matrix_rank does, from the one SVD it solves by
    coef, _, rank, _ = np.linalg.lstsq(x, target, rcond=None)
    if rank < x.shape[1]:
        raise EstimationError("rank-deficient regressor matrix")
    with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
        resid = target - x @ coef
        sigma = resid.T @ resid / rows
    sigma = 0.5 * (sigma + sigma.T)
    # gfevd needs each residual variance as a positive normal float
    variances = np.diag(sigma)
    if not np.all((variances >= sys.float_info.min) & (variances < np.inf)):
        raise DataError(f"residual variances must be finite and at least "
                        f"{sys.float_info.min}")
    slopes = coef[1:] / sd[:, None]
    intercept = coef[0] - mean @ slopes
    phi = tuple(
        slopes[(lag - 1) * n: lag * n].T.copy() for lag in range(1, order + 1)
    )
    return VarModel(order=order, intercept=intercept, phi=phi, sigma=sigma)


def check_order(order: int) -> None:
    """Reject a VAR lag order below 1."""
    if order < 1:
        raise ConfigError(f"order must be >= 1, got {order}")


def check_horizon(horizon: int) -> None:
    """Reject a forecast horizon outside 1.._MAX_HORIZON."""
    if not 1 <= horizon <= _MAX_HORIZON:
        raise ConfigError(f"horizon must lie in 1..{_MAX_HORIZON}, got {horizon}")


def gfevd(model: VarModel, horizon: int) -> np.ndarray:
    """Generalized forecast-error variance decomposition over H steps.

    theta[j, k] = sigma_kk^-1 * sum_h (Psi_h Sigma)[j, k]^2
                  / sum_h (Psi_h Sigma Psi_h')[j, j]

    with the moving-average coefficients Psi_0 = I and
    Psi_h = sum_{i=1..min(h,p)} Phi_i Psi_{h-i} for h = 0..H-1. Each Psi_h
    is added to the sums as it is made, and only the last p are kept.

    No orthogonalization is involved, so the result does not depend on how
    the variables are ordered. Nor does it depend on the units of each
    series, so it is computed in units of each residual sd, where Sigma is a
    correlation matrix and no square can overflow or underflow.
    """
    check_horizon(horizon)
    diag = np.diag(model.sigma)
    if np.any(diag <= 0.0):
        raise ValueError("residual covariance has a nonpositive variance")
    sd = np.sqrt(diag)
    phis = [phi * sd[None, :] / sd[:, None] for phi in model.phi]
    sigma = model.sigma / np.outer(sd, sd)
    diag = np.diag(sigma)
    n = model.n_vars
    numer = np.zeros((n, n))
    denom = np.zeros(n)
    recent = deque(maxlen=model.order)  # Psi_{h-1}, Psi_{h-2}, ...
    for h in range(horizon):
        if h == 0:
            psi = np.eye(n)
        else:
            psi = np.zeros((n, n))
            for phi, past in zip(phis, recent):
                psi += phi @ past
        a = psi @ sigma
        numer += a ** 2 / diag[None, :]
        denom += np.diag(a @ psi.T)
        recent.appendleft(psi)
    return numer / denom[:, None]


def normalize_rows(theta: np.ndarray) -> np.ndarray:
    """Scale each row to sum to one."""
    theta = np.asarray(theta, dtype=float)
    sums = theta.sum(axis=1)
    if np.any(sums <= 0.0):
        raise ValueError("cannot normalize a row with nonpositive sum")
    return theta / sums[:, None]


def indices(theta_tilde: np.ndarray) -> ConnectednessTable:
    """Total, directional and net connectedness of a row-stochastic table."""
    theta_tilde = np.asarray(theta_tilde, dtype=float)
    n = theta_tilde.shape[0]
    if np.max(np.abs(theta_tilde.sum(axis=1) - 1.0)) > 1e-8:
        raise ValueError("input rows must sum to 1")
    diag = np.diag(theta_tilde)
    tci = 100.0 / n * float(theta_tilde.sum() - diag.sum())
    to_others = 100.0 * (theta_tilde.sum(axis=0) - diag)
    from_others = 100.0 * (theta_tilde.sum(axis=1) - diag)
    return ConnectednessTable(
        theta_tilde=theta_tilde,
        tci=tci,
        to_others=to_others,
        from_others=from_others,
        net=to_others - from_others,
    )


def connectedness_table(model: VarModel, horizon: int = 10) -> ConnectednessTable:
    """GFEVD -> row normalization -> indices, the full pipeline."""
    return indices(normalize_rows(gfevd(model, horizon)))
