"""Rolling one-day Value-at-Risk by three methods.

* ``hs``: empirical quantile of the trailing raw-return window.
* ``garch_n``: conditional volatility times the normal quantile.
* ``fhs``: conditional volatility times the empirical quantile of the
  trailing standardized residuals.

Forecast for index t only ever looks at indices < t (the volatility at t is
the filtered value, which depends on returns up to t-1). VaR values are kept
signed: a 5% VaR is a negative return quantile.

``rolling_var`` takes the HS and FHS quantiles of all trailing windows at
once with ``mathstat.rolling_quantile``: each forecast has the bytes of
``mathstat.empirical_quantile`` on its own window. A block of m/4 windows
bounds its answers by the k-th smallest of the values all of them share
and selects among the few values below that bound; inputs holding both
signed zeros, windows under 64 and heavily tied blocks are partitioned
window by window instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

import numpy as np

from .data import ReturnSeries
from .errors import ConfigError, DataError
from .garch import GarchFit
# empirical_quantile: unused here, but perfbench/tracer.py wraps this name
from .mathstat import empirical_quantile, norm_inv_cdf, rolling_quantile

METHOD_HS = "hs"
METHOD_GARCH_N = "garch_n"
METHOD_FHS = "fhs"
METHODS = (METHOD_HS, METHOD_GARCH_N, METHOD_FHS)


@dataclass(frozen=True)
class VarConfig:
    level: float = 0.05
    window: int = 200
    method: str = METHOD_HS

    def __post_init__(self):
        if not 0.0 < self.level < 0.5:
            raise ConfigError(f"level must lie in (0, 0.5), got {self.level}")
        if self.window < 20:
            raise ConfigError(f"window must be >= 20, got {self.window}")
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class VarSeries:
    """Per-date VaR forecasts aligned with the realized returns they judge.

    The series starts at index ``window`` of the source sample; the first
    window observations have no forecast.
    """

    dates: tuple[date, ...]
    realized: np.ndarray
    var: np.ndarray
    method: str
    level: float

    def __len__(self) -> int:
        return len(self.var)


def rolling_var(series: ReturnSeries, fit: GarchFit | None,
                cfg: VarConfig) -> VarSeries:
    """VaR forecasts for indices m..T-1, each using only indices < t.

    ``fit`` may be None for the HS method; the GARCH methods require a fit
    filtered on exactly this series (same length).
    """
    m = cfg.window
    total = len(series)
    if total <= m:
        raise DataError(f"series of length {total} too short for window {m}")
    if cfg.method in (METHOD_GARCH_N, METHOD_FHS):
        if fit is None:
            raise DataError(f"method {cfg.method!r} needs a GARCH fit")
        if fit.n_obs != total:
            raise DataError(
                f"fit covers {fit.n_obs} observations, series has {total}"
            )

    if cfg.method == METHOD_HS:
        out = rolling_quantile(series.returns, m, cfg.level)
    elif cfg.method == METHOD_GARCH_N:
        z_p = norm_inv_cdf(cfg.level)
        out = fit.sigma[m:] * z_p
    else:
        sigma = fit.sigma[m:]
        bad = sigma[sigma <= 0.0]
        if bad.size:
            raise ValueError(f"sigma must be positive, got {bad[0]}")
        out = sigma * rolling_quantile(fit.z, m, cfg.level)

    return VarSeries(
        dates=series.dates[m:],
        realized=series.returns[m:].copy(),
        var=out,
        method=cfg.method,
        level=cfg.level,
    )
