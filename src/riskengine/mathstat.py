"""Distribution primitives used across the engine.

Everything here is a pure function with no file I/O. The normal quantile comes from the
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
# float64 span cells per bound-then-select group, about 0.5 MB
_GROUP_CELLS = 2 ** 16


def rolling_quantile(xs, m: int, p: float) -> np.ndarray:
    """Trailing-window quantiles: entry t-m is the k-th smallest of xs[t-m:t].

    One entry per t = m..n-1 with k = tail_rank(p, m), so each entry equals
    ``empirical_quantile(xs[t-m:t], p)`` bit for bit.

    Windows go in blocks of B = m // 4 consecutive ones (the last block
    shifted left to end at the last window). Every window of a block holds
    the block's core, the m - B + 1 values all of them share, so the k-th
    smallest of the core bounds each window's answer from above, and only
    the values of the block's span at or below that bound can be it: the
    block decomposition of sliding-window filters (van Herk 1992; Gil &
    Werman 1993) applied to an order statistic. The candidates are sorted
    once per block, and each window takes the k-th of them inside it.

    Finite values have one bit pattern each, except the two zeros, so any
    exact selection gives the bytes of ``np.partition`` unless +0.0 and
    -0.0 both occur. Such inputs, and each group of blocks in which one
    block has more than m/4 candidates (always so when k > m/4), are
    partitioned whole, window by window. Scratch memory stays
    at a few MB whatever the length; non-finite values raise ValueError.
    """
    values = np.asarray(xs, dtype=float)
    if not 0 < m < values.size:
        raise ValueError(f"window {m} needs more than {m} values, "
                         f"got {values.size}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {p}")
    if not np.isfinite(values).all():
        raise ValueError("rolling quantile of a sample with non-finite values")
    k = tail_rank(p, m)
    total = values.size - m
    out = np.empty(total)
    zeros = np.signbit(values[values == 0.0])
    if 4 * k > m or 0 < zeros.sum() < zeros.size:
        _partition_windows(values, m, k, 0, total, out)
        return out
    width = min(m // 4, total)
    span = m + width - 1
    starts = np.minimum(np.arange(0, total, width), total - width)
    group = max(1, _GROUP_CELLS // span)
    for lo in range(0, starts.size, group):
        block_starts = starts[lo:lo + group]
        if not _select_blocks(values, m, k, width, block_starts, out):
            _partition_windows(values, m, k, block_starts[0],
                               block_starts[-1] + width, out)
    return out


def _partition_windows(values, m, k, lo, hi, out):
    """out[lo:hi] by partitioning windows lo..hi-1, about 1 MB at a time."""
    windows = np.lib.stride_tricks.sliding_window_view(values[:-1], m)
    rows = max(1, _BLOCK_CELLS // m)
    for start in range(lo, hi, rows):
        block = windows[start:min(start + rows, hi)]
        out[start:start + len(block)] = np.partition(block, k - 1,
                                                     axis=1)[:, k - 1]


def _select_blocks(values, m, k, width, starts, out) -> bool:
    """Fill the windows of the blocks at ``starts`` by bound-then-select.

    Returns False, leaving ``out`` untouched, when some block has more than
    m/4 candidates.
    """
    span = m + width - 1
    spans = np.lib.stride_tricks.sliding_window_view(values, span)[starts]
    core = spans[:, width - 1:m]
    bound = np.partition(core, k - 1, axis=1)[:, k - 1]
    mask = spans <= bound[:, None]
    counts = mask.sum(axis=1)
    most = int(counts.max())
    if most > m // 4:
        return False
    # candidates in (block, value) order, block b's from first[b] on;
    # equal values keep span order
    first = np.cumsum(counts) - counts
    rows, cols = np.nonzero(mask)
    cand = spans[rows, cols]
    order = np.lexsort((cand, rows))
    # where[i, b]: span position of block b's i-th candidate; the padding,
    # at position span, lies outside every window of its block
    where = np.full((most, starts.size), span)
    where[np.arange(rows.size) - first[rows], rows] = cols[order]
    # window o of a block covers span positions o..o+m-1; its answer is
    # candidate kth, the first at which `seen` inside the window reaches k
    offsets = np.arange(width)
    seen = np.zeros((starts.size, width), dtype=int)
    kth = np.zeros((starts.size, width), dtype=int)
    for pos in where:
        seen += (pos[:, None] - offsets).view(np.uintp) < m
        kth += seen < k
    out[starts[:, None] + offsets] = cand[order][first[:, None] + kth]
    return True


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
