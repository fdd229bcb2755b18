"""Variance-decomposition connectedness for multivariate return systems.

Pipeline: least-squares VAR(p) -> moving-average coefficients -> generalized
forecast-error variance decomposition (invariant to variable ordering) ->
row-normalized spillover table -> total / directional / net indices.

Orientation of the directional measures: the (j, k) table entry is the share
of j's forecast-error variance attributable to shocks in k, so "to others"
for j sums its column (off-diagonal) and "from others" sums its row.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .data import MultiSeries, write_json, write_rows
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
    horizon: int


def fit_var(series: MultiSeries, order: int) -> VarModel:
    """Per-equation OLS with intercept; Sigma uses divisor (T - order).

    The lag regressors are demeaned and scaled to unit sd before the solve
    and the rank check, and the coefficients mapped back, so the fit does not
    depend on the scale or level of the series. A constant lag column makes
    the design rank-deficient.
    """
    if order < 1:
        raise ConfigError(f"order must be >= 1, got {order}")
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
    if np.linalg.matrix_rank(x) < x.shape[1]:
        raise EstimationError("rank-deficient regressor matrix")
    coef, _, _, _ = np.linalg.lstsq(x, target, rcond=None)
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


def check_horizon(horizon: int) -> None:
    """Reject a forecast horizon outside 1.._MAX_HORIZON."""
    if not 1 <= horizon <= _MAX_HORIZON:
        raise ConfigError(f"horizon must lie in 1..{_MAX_HORIZON}, got {horizon}")


def ma_coefficients(model: VarModel, horizon: int) -> list[np.ndarray]:
    """Psi_0..Psi_{H-1} of the moving-average representation.

    Psi_0 = I and Psi_h = sum_{i=1..min(h,p)} Phi_i Psi_{h-i}; the intercept
    plays no role in the recursion.
    """
    check_horizon(horizon)
    n = model.n_vars
    psi = [np.eye(n)]
    for h in range(1, horizon):
        acc = np.zeros((n, n))
        for i in range(1, min(h, model.order) + 1):
            acc += model.phi[i - 1] @ psi[h - i]
        psi.append(acc)
    return psi


def gfevd(model: VarModel, horizon: int) -> np.ndarray:
    """Generalized forecast-error variance decomposition over H steps.

    theta[j, k] = sigma_kk^-1 * sum_h (Psi_h Sigma)[j, k]^2
                  / sum_h (Psi_h Sigma Psi_h')[j, j]

    No orthogonalization is involved, so the result does not depend on how
    the variables are ordered. Nor does it depend on the units of each
    series, so it is computed in units of each residual sd, where Sigma is a
    correlation matrix and no square can overflow or underflow.
    """
    diag = np.diag(model.sigma)
    if np.any(diag <= 0.0):
        raise ValueError("residual covariance has a nonpositive variance")
    sd = np.sqrt(diag)
    unit = VarModel(
        order=model.order,
        intercept=model.intercept / sd,
        phi=tuple(phi * sd[None, :] / sd[:, None] for phi in model.phi),
        sigma=model.sigma / np.outer(sd, sd),
    )
    sigma = unit.sigma
    diag = np.diag(sigma)
    n = model.n_vars
    numer = np.zeros((n, n))
    denom = np.zeros(n)
    for psi in ma_coefficients(unit, horizon):
        a = psi @ sigma
        numer += a ** 2 / diag[None, :]
        denom += np.diag(a @ psi.T)
    return numer / denom[:, None]


def normalize_rows(theta: np.ndarray) -> np.ndarray:
    """Scale each row to sum to one."""
    theta = np.asarray(theta, dtype=float)
    sums = theta.sum(axis=1)
    if np.any(sums <= 0.0):
        raise ValueError("cannot normalize a row with nonpositive sum")
    return theta / sums[:, None]


def indices(theta_tilde: np.ndarray, horizon: int = 0) -> ConnectednessTable:
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
        horizon=horizon,
    )


def connectedness_table(model: VarModel, horizon: int = 10) -> ConnectednessTable:
    """GFEVD -> row normalization -> indices, the full pipeline."""
    return indices(normalize_rows(gfevd(model, horizon)), horizon=horizon)


def edge_list(table: ConnectednessTable, names) -> list[dict]:
    """Directed spillover edges: shock source -> affected variable."""
    names = list(names)
    edges = []
    n = table.theta_tilde.shape[0]
    for j in range(n):
        for k in range(n):
            if j != k:
                edges.append({
                    "from": names[k],
                    "to": names[j],
                    "weight": float(table.theta_tilde[j, k]),
                })
    return edges


def write_table_csv(table: ConnectednessTable, names, path) -> None:
    """Spillover table with from/to/net margins and the total index.

    Matrix cells are row-stochastic shares (each row of the N central columns
    sums to 1); the margins and TCI are in percent.
    """
    names = list(names)
    rows = [[name, *shares, margin] for name, shares, margin in
            zip(names, table.theta_tilde.tolist(), table.from_others.tolist())]
    rows.append(["to_others", *table.to_others.tolist(), ""])
    rows.append(["net", *table.net.tolist(), ""])
    rows.append(["tci", float(table.tci)] + [""] * len(names))
    write_rows(path, ["series"] + names + ["from_others"], rows)


def write_edges_json(table: ConnectednessTable, names, path) -> None:
    payload = {
        "horizon": table.horizon,
        "tci": float(table.tci),
        "edges": edge_list(table, names),
    }
    write_json(path, payload)
