"""Distribution primitives used across the engine.

Everything here is a pure function. The empirical quantile implements the
sort-and-pick convention (k-th smallest with k = ceil(p*n), no interpolation)
that the VaR estimators and Monte Carlo tail statistics share, so changing it
would silently change every risk number downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import write_rows

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)

# Acklam's rational approximation to the normal inverse CDF (abs error ~1e-9
# before refinement).
_ACKLAM_A = (
    -3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
    1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00,
)
_ACKLAM_B = (
    -5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
    6.680131188771972e+01, -1.328068155288572e+01,
)
_ACKLAM_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
    -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00,
)
_ACKLAM_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
    3.754408661907416e+00,
)
_ACKLAM_LOW = 0.02425


def norm_pdf(x: float) -> float:
    """Standard normal density."""
    return math.exp(-0.5 * x * x) / _SQRT2PI


def norm_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / _SQRT2)


def _acklam(p: float) -> float:
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    if p < _ACKLAM_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if p > 1.0 - _ACKLAM_LOW:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
                ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)


def norm_inv_cdf(p: float) -> float:
    """Standard normal quantile, rational start plus one Newton step on the CDF."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {p}")
    z = _acklam(p)
    density = norm_pdf(z)
    if density > 0.0:
        z -= (norm_cdf(z) - p) / density
    return z


def empirical_quantile(xs, p: float) -> float:
    """k-th smallest element with k = ceil(p*n); always a member of xs.

    The small negative nudge before ceil keeps decimal levels such as
    p=0.05, n=200 on the intended k (float rounding would otherwise push
    p*n just above the integer).
    """
    values = np.asarray(xs, dtype=float)
    if values.size == 0:
        raise ValueError("empirical quantile of an empty sample")
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {p}")
    k = max(1, math.ceil(p * values.size - 1e-9))
    return float(np.partition(values, k - 1)[k - 1])


def chi2_sf(x: float, df: int) -> float:
    """Chi-square survival probability P(X >= x) for df 1 or 2.

    df=2 has the closed form exp(-x/2); df=1 follows from the square of a
    standard normal: P(Z^2 >= x) = 2*(1 - Phi(sqrt(x))).
    """
    if x < 0.0:
        raise ValueError(f"chi-square statistic must be >= 0, got {x}")
    if df == 1:
        return 2.0 * (1.0 - norm_cdf(math.sqrt(x)))
    if df == 2:
        return math.exp(-0.5 * x)
    raise ValueError(f"unsupported degrees of freedom: {df}")


@dataclass(frozen=True)
class QQPoints:
    """Sorted (theoretical, empirical) quantile pairs, one per observation."""

    theoretical: np.ndarray
    empirical: np.ndarray

    def __len__(self) -> int:
        return len(self.theoretical)


def qq_points(sample, mean: float, sd: float) -> QQPoints:
    """Quantile-quantile points of a sample against N(mean, sd^2).

    Theoretical coordinates use plotting positions (i - 0.5)/n; empirical
    coordinates are the order statistics.
    """
    values = np.sort(np.asarray(sample, dtype=float))
    if values.size < 2:
        raise ValueError("need at least two observations for QQ points")
    if sd <= 0.0:
        raise ValueError(f"standard deviation must be positive, got {sd}")
    n = values.size
    probs = (np.arange(1, n + 1) - 0.5) / n
    theo = np.array([mean + sd * norm_inv_cdf(p) for p in probs])
    return QQPoints(theoretical=theo, empirical=values)


def write_qq_csv(points: QQPoints, path) -> None:
    """Two-column CSV (theoretical, empirical) for external plotting."""
    write_rows(path, ["theoretical", "empirical"],
               zip(points.theoretical.tolist(), points.empirical.tolist()))


def normal_es(p: float, sigma: float) -> float:
    """Lower-tail expected shortfall of N(0, sigma^2): -sigma*phi(Phi^-1(p))/p.

    Analytic benchmark for the Monte Carlo tail estimates; always negative.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {p}")
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return -sigma * norm_pdf(norm_inv_cdf(p)) / p
