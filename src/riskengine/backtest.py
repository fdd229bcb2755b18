"""VaR backtests: breach counting plus the likelihood-ratio battery.

The Kupiec unconditional coverage test asks whether breaches happen at the
nominal rate; the Christoffersen independence test asks whether they cluster
(first-order Markov dependence); their sum is the conditional coverage test,
chi-square with 2 degrees of freedom under the joint null.

All likelihood evaluations use the 0*log(0) = 0 convention so boundary
counts stay finite. Statistics that cannot be computed (a state never
visited) are reported as None rather than NaN: "untestable" is a different
answer than "passed".
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from datetime import date

import numpy as np

from .errors import DataError
from .mathstat import chi2_sf
from .var_engine import VarSeries


def _xlogy(x: float, y: float) -> float:
    return 0.0 if x == 0.0 else x * math.log(y)


def _clamp(stat: float) -> float:
    # likelihood ratios are >= 0 up to rounding; clip stray -1e-13s and -0.0
    return 0.0 if -1e-12 < stat <= 0.0 else stat


@dataclass(frozen=True)
class BreachSeries:
    """0/1 exceedance flags aligned with the VaR series that produced them."""

    dates: tuple[date, ...]
    indicator: np.ndarray

    def __post_init__(self):
        flags = np.asarray(self.indicator)
        if len(self.dates) != len(flags):
            raise DataError("dates and indicators differ in length")
        # checked before the cast, which would truncate 0.5 to 0
        if not np.all((flags == 0) | (flags == 1)):
            raise ValueError("indicator values must be 0 or 1")
        object.__setattr__(self, "indicator", flags.astype(int))

    def __len__(self) -> int:
        return len(self.indicator)


@dataclass(frozen=True)
class TransitionCounts:
    """Consecutive-pair counts of the 2-state breach process."""

    n00: int
    n01: int
    n10: int
    n11: int

    @property
    def total(self) -> int:
        return self.n00 + self.n01 + self.n10 + self.n11


@dataclass(frozen=True)
class CoverageReport:
    breach_count: int
    n_obs: int
    frequency: float
    lr_uc: float | None
    p_uc: float | None
    lr_ind: float | None
    p_ind: float | None
    lr_cc: float | None
    p_cc: float | None

    def to_dict(self) -> dict:
        return asdict(self)


def breaches(var_series: VarSeries) -> BreachSeries:
    """Indicator 1 where the realized return fell strictly below the VaR."""
    flags = (var_series.realized < var_series.var).astype(int)
    return BreachSeries(dates=var_series.dates, indicator=flags)


def breach_frequency(b: BreachSeries) -> float:
    """Fraction of days flagged as breaches."""
    if len(b) == 0:
        raise ValueError("empty breach series")
    return float(np.mean(b.indicator))


def transition_counts(b: BreachSeries) -> TransitionCounts:
    """Counts of (I[t-1], I[t]) pairs over t = 1..T-1."""
    if len(b) < 2:
        raise ValueError(f"need at least 2 observations, got {len(b)}")
    prev = b.indicator[:-1]
    curr = b.indicator[1:]
    n11 = int(np.sum(prev & curr))
    n01 = int(np.sum((1 - prev) & curr))
    n10 = int(np.sum(prev & (1 - curr)))
    n00 = int(np.sum((1 - prev) & (1 - curr)))
    return TransitionCounts(n00=n00, n01=n01, n10=n10, n11=n11)


def lr_independence(c: TransitionCounts):
    """Christoffersen independence LR statistic and its chi2(1) p-value.

    Null: breaches are i.i.d. Bernoulli with the pooled rate p_hat.
    Alternative: first-order Markov with own transition rates pi0, pi1.
    Returns (None, None) when one of the two states is never left from
    (n00+n01 == 0 or n10+n11 == 0): independence is untestable then.
    """
    from0 = c.n00 + c.n01
    from1 = c.n10 + c.n11
    if from0 == 0 or from1 == 0:
        return None, None
    p_hat = (c.n01 + c.n11) / c.total
    pi0 = c.n01 / from0
    pi1 = c.n11 / from1
    log_l0 = _xlogy(c.n00 + c.n10, 1.0 - p_hat) + _xlogy(c.n01 + c.n11, p_hat)
    log_l1 = (_xlogy(c.n00, 1.0 - pi0) + _xlogy(c.n01, pi0)
              + _xlogy(c.n10, 1.0 - pi1) + _xlogy(c.n11, pi1))
    stat = _clamp(-2.0 * (log_l0 - log_l1))
    return stat, chi2_sf(stat, 1)


def lr_unconditional(breach_count: int, n_obs: int, alpha: float):
    """Kupiec proportion-of-failures LR statistic and its chi2(1) p-value."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if n_obs < 1 or not 0 <= breach_count <= n_obs:
        raise ValueError(f"bad counts: {breach_count} breaches in {n_obs} days")
    x = breach_count
    p_hat = x / n_obs
    log_null = _xlogy(n_obs - x, 1.0 - alpha) + _xlogy(x, alpha)
    log_alt = _xlogy(n_obs - x, 1.0 - p_hat) + _xlogy(x, p_hat)
    stat = _clamp(-2.0 * (log_null - log_alt))
    return stat, chi2_sf(stat, 1)


def lr_conditional(uc_stat: float | None, ind_stat: float | None):
    """Conditional coverage statistic: sum of the two, chi2(2) p-value."""
    if uc_stat is None or ind_stat is None:
        return None, None
    stat = uc_stat + ind_stat
    return stat, chi2_sf(stat, 2)


def evaluate(b: BreachSeries, alpha: float) -> CoverageReport:
    """Full coverage report for one breach series at nominal level alpha."""
    count = int(np.sum(b.indicator))
    uc_stat, uc_p = lr_unconditional(count, len(b), alpha)
    ind_stat, ind_p = (None, None) if len(b) < 2 else lr_independence(
        transition_counts(b))
    cc_stat, cc_p = lr_conditional(uc_stat, ind_stat)
    return CoverageReport(
        breach_count=count,
        n_obs=len(b),
        frequency=breach_frequency(b),
        lr_uc=uc_stat, p_uc=uc_p,
        lr_ind=ind_stat, p_ind=ind_p,
        lr_cc=cc_stat, p_cc=cc_p,
    )
