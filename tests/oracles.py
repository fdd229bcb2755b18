"""Reference implementations the tests compare the engine against.

Most are the straightforward forms of what the engine now computes faster:
the row-by-row reader and date check, the ``csv.writer`` row writer that
``write_columns`` replaced, the numpy-scalar loop of
``simulate_garch_returns``, the per-date VaR of ``hs_var``, ``fhs_var`` and
``garch_normal_var`` that ``rolling_var`` replaced, and the forward-scan
GARCH score that the adjoint one replaced. The others, ``norm_cdf`` and
``normal_es``, are analytic references for the normal quantile and the
Monte Carlo tails. Each is kept here unchanged so that a test can require
the same results.
"""

import csv
import math
from datetime import date
from pathlib import Path
from statistics import NormalDist

import numpy as np

from riskengine.data import ReturnSeries
from riskengine.errors import ConfigError, DataError
from riskengine.garch import (
    GarchParams,
    _gauss_loglik,
    _scan,
    _variance_path,
    next_variance,
)
from riskengine.mathstat import empirical_quantile, norm_inv_cdf
from riskengine.var_engine import VarConfig

_SQRT2 = math.sqrt(2.0)
_STD = NormalDist()


def _parse_date(text: str, row_no: int) -> date:
    try:
        return date.fromisoformat(text.strip())
    except ValueError:
        raise DataError(f"row {row_no}: unparseable date {text!r}") from None


def _parse_value(text: str, row_no: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"row {row_no}: unparseable number {text!r}") from None
    if not math.isfinite(value):
        raise DataError(f"row {row_no}: non-finite value {text!r}")
    return value


def read_columns(path, date_column: str, value_columns):
    """Read a dated CSV into (value column names, dates, [T, k] values).

    The row-by-row reader ``riskengine.data._read_columns`` replaced.
    ``value_columns`` names the columns to parse; None means every column but
    the date. Other columns are only counted. Rows come back sorted by date;
    the series constructors reject duplicate dates.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no such file: {path}")
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = [h.strip() for h in next(reader)]
            except StopIteration:
                raise DataError(
                    f"{path}: empty file, header row required") from None
            for col in [date_column, *(value_columns or ())]:
                if col not in header:
                    raise DataError(f"{path}: missing column {col!r}")
            d_idx = header.index(date_column)
            if value_columns is None:
                v_idx = [i for i in range(len(header)) if i != d_idx]
                if not v_idx:
                    raise DataError(f"{path}: no value columns")
            else:
                v_idx = [header.index(col) for col in value_columns]
            rows = []
            for row_no, row in enumerate(reader, start=2):
                if not "".join(row).strip():  # blank or whitespace-only row
                    continue
                if len(row) != len(header):
                    raise DataError(
                        f"row {row_no}: expected {len(header)} fields")
                when = _parse_date(row[d_idx], row_no)
                rows.append(
                    (when, [_parse_value(row[i], row_no) for i in v_idx]))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: unreadable CSV: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no observations")
    rows.sort(key=lambda item: item[0])
    dates = tuple(r[0] for r in rows)
    names = tuple(header[i] for i in v_idx)
    return names, dates, np.array([r[1] for r in rows], dtype=float)


def write_rows(path, header, rows) -> None:
    """Write a header and rows as UTF-8 CSV with LF line ends.

    The row writer ``riskengine.data.write_columns`` replaced. Floats are
    written with ``repr``, so a load recovers them exactly; convert arrays
    with ``.tolist()``.
    """
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def simulate_garch_returns(params: GarchParams, n_obs: int, seed: int,
                           innovation: str = "normal") -> np.ndarray:
    """Synthetic return path following the variance recursion.

    The numpy-scalar loop ``riskengine.montecarlo.simulate_garch_returns``
    replaced. ``"student_t"`` innovations have 5 degrees of freedom and are
    rescaled to unit variance so omega keeps its meaning across innovation
    choices. Starts at the unconditional variance.
    """
    if n_obs < 1:
        raise ConfigError(f"need at least one observation, got {n_obs}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    if innovation == "normal":
        z = rng.standard_normal(n_obs)
    elif innovation == "student_t":
        z = rng.standard_t(5.0, n_obs) * math.sqrt((5.0 - 2.0) / 5.0)
    else:
        raise ConfigError(f"unknown innovation kind {innovation!r}")
    r = np.empty(n_obs)
    v = params.unconditional_variance
    for t in range(n_obs):
        r[t] = math.sqrt(v) * z[t]
        v = next_variance(params, r[t], v)
    return r


def check_finite_increasing(dates, values: np.ndarray) -> None:
    """The pairwise loop ``riskengine.data._check_finite_increasing`` replaced."""
    if not np.all(np.isfinite(values)):
        raise DataError("non-finite value in series")
    for a, b in zip(dates, dates[1:]):
        if a == b:
            raise DataError(f"duplicate date {b}")
        if a > b:
            raise DataError(f"dates not strictly increasing at {b}")


def window(series: ReturnSeries, t: int, m: int) -> np.ndarray:
    """The m observations strictly before index t (indices t-m .. t-1)."""
    if m < 1:
        raise DataError(f"window length must be positive, got {m}")
    if t < m:
        raise DataError(f"index {t} has no length-{m} history")
    if t > len(series):
        raise DataError(f"index {t} beyond series of length {len(series)}")
    return series.returns[t - m:t].copy()


def hs_var(series: ReturnSeries, t: int, cfg: VarConfig) -> float:
    """Historical-simulation VaR at index t: window quantile of raw returns."""
    return empirical_quantile(window(series, t, cfg.window), cfg.level)


def garch_normal_var(sigma_t: float, p: float) -> float:
    """Conditionally normal VaR sigma_t * Phi^-1(p)."""
    if sigma_t <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma_t}")
    return sigma_t * norm_inv_cdf(p)


def fhs_var(sigma_t: float, z_window, p: float) -> float:
    """Filtered historical simulation VaR sigma_t * quantile of residuals."""
    if sigma_t <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma_t}")
    return sigma_t * empirical_quantile(z_window, p)


def norm_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_es(p: float, sigma: float) -> float:
    """Lower-tail expected shortfall of N(0, sigma^2): -sigma*phi(Phi^-1(p))/p.

    Analytic benchmark for the Monte Carlo tail estimates; always negative.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {p}")
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return -sigma * _STD.pdf(norm_inv_cdf(p)) / p


def garch_score(lik, theta, hessian: bool = False):
    """(loglik, gradient, q) of ``garch._Likelihood`` lik at theta by forward scans.

    q is the 3 x n per-observation scores; with ``hessian`` the exact
    Hessian takes its place. The scores ``_Likelihood.score`` replaced: it
    scans the 3 x n sensitivities d sigma2 / d theta (and, for the Hessian,
    their 3 x n derivatives in beta) forward and sums them against w.
    """
    omega, alpha, beta = theta
    x2 = lik.x2
    sigma2 = _variance_path(x2, lik.v0, GarchParams(omega, alpha, beta))
    ratio = x2 / sigma2
    value = _gauss_loglik(sigma2, ratio)
    # d sigma2[t] / d(omega, alpha, beta): 0 at t = 0, then the recursion
    # with input (1, x2[t-1], sigma2[t-1]) and coefficient beta
    s = np.empty((3, len(x2)))
    s[:, 0] = 0.0
    s[0, 1:] = 1.0
    s[1, 1:] = x2[:-1]
    s[2, 1:] = sigma2[:-1]
    _scan(s[:, 1:], beta)
    w = (ratio - 1.0) / sigma2
    q = s * (0.5 * w)
    grad = q.sum(axis=1)
    if not hessian:
        return value, grad, q
    # second derivatives of sigma2: only those with beta are nonzero, and
    # they follow the recursion with input d sigma2[t-1] / d theta (twice
    # that for beta, beta)
    s2 = np.empty_like(s)
    s2[:, 0] = 0.0
    s2[:, 1:] = s[:, :-1]
    s2[2, 1:] *= 2.0
    _scan(s2[:, 1:], beta)
    u = (2.0 * ratio - 1.0) / (sigma2 * sigma2)
    hess = -0.5 * ((s * u) @ s.T)
    cross = 0.5 * (s2 @ w)
    hess[2, :] += cross
    hess[:2, 2] += cross[:2]
    return value, grad, hess
