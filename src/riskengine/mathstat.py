"""Distribution primitives used across the engine.

Everything here is a pure function. The normal quantile comes from the
standard library's ``statistics.NormalDist``. ``tail_rank`` owns the
sort-and-pick convention (k-th smallest with k = ceil(p*n), no interpolation)
that the VaR estimators and Monte Carlo tail statistics share, so changing it
would silently change every risk number downstream. ``empirical_quantile``
picks from one sample, ``rolling_quantile`` from every trailing window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .data import write_rows

_STD = NormalDist()


def norm_inv_cdf(p: float) -> float:
    """Standard normal quantile (Wichura's AS241, from ``statistics``)."""
    if not 0.0 < p < 1.0:  # NormalDist.inv_cdf lets nan through
        raise ValueError(f"probability must lie in (0, 1), got {p}")
    return _STD.inv_cdf(p)


def tail_rank(p: float, n: int) -> int:
    """Sort-and-pick rank k = ceil(p*n), at least 1.

    The small negative nudge before ceil keeps decimal levels such as
    p=0.05, n=200 on the intended k (float rounding would otherwise push
    p*n just above the integer).
    """
    return max(1, math.ceil(p * n - 1e-9))


def empirical_quantile(xs, p: float) -> float:
    """k-th smallest element with k = tail_rank(p, n); always a member of xs."""
    values = np.asarray(xs, dtype=float)
    if values.size == 0:
        raise ValueError("empirical quantile of an empty sample")
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {p}")
    k = tail_rank(p, values.size)
    return float(np.partition(values, k - 1)[k - 1])


# float64 cells per partition block: 2**17 // m windows, about 1 MB copied
_BLOCK_CELLS = 2 ** 17


def rolling_quantile(xs, m: int, p: float) -> np.ndarray:
    """Trailing-window quantiles: entry t-m is the k-th smallest of xs[t-m:t].

    One entry per t = m..n-1 with k = tail_rank(p, m), so each entry equals
    ``empirical_quantile(xs[t-m:t], p)`` bit for bit. The windows are strided
    views of xs; they are partitioned a block of rows at a time, so at most
    one block (about 1 MB) is copied at once.
    """
    values = np.asarray(xs, dtype=float)
    if not 0 < m < values.size:
        raise ValueError(f"window {m} needs more than {m} values, "
                         f"got {values.size}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {p}")
    k = tail_rank(p, m)
    windows = np.lib.stride_tricks.sliding_window_view(values[:-1], m)
    out = np.empty(len(windows))
    rows = max(1, _BLOCK_CELLS // m)
    for start in range(0, len(windows), rows):
        block = windows[start:start + rows]
        out[start:start + rows] = np.partition(block, k - 1, axis=1)[:, k - 1]
    return out


def chi2_sf(x: float, df: int) -> float:
    """Chi-square survival probability P(X >= x) for df 1 or 2.

    df=2 has the closed form exp(-x/2); df=1 follows from the square of a
    standard normal: P(Z^2 >= x) = 2*Phi(-sqrt(x)) = erfc(sqrt(x/2)), which
    keeps full relative precision far into the tail.
    """
    if x < 0.0:
        raise ValueError(f"chi-square statistic must be >= 0, got {x}")
    if df == 1:
        return math.erfc(math.sqrt(x / 2.0))
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
