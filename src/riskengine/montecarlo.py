"""Multi-day Monte Carlo VaR and expected shortfall under GARCH dynamics.

Each path starts from the one-step-ahead variance implied by the last
in-sample return and filtered variance, then alternates draw / accumulate /
variance-update for ``horizon`` steps. Innovations are either standard
normal or bootstrap draws (with replacement) from the fitted standardized
residuals.

Determinism contract: innovations come from ``np.random.SFC64`` seeded with
the seed, in one canonical order (path by path, each path's steps in turn).
Paths are simulated in row blocks. With more than one block, one helper
thread draws block i+1 while the calling thread runs the recursion of block
i; only the helper touches the generator, and it draws the blocks in order,
so the output is bit-identical for a given (fit, config) whatever the block
size or thread timing. ``RISK_THREADS`` is accepted and ignored.

``run_mc`` never holds the path matrix: it folds each block into per-horizon
tails of at most about 2k + block values, k = tail_rank(level, n_paths).
VaR is the k-th smallest cumulative return and ES is ``math.fsum`` of the k
smallest over k, capped at VaR; neither depends on the order of the paths,
so ``run_mc`` gives the bytes of ``term_structure(simulate_cumulative(...))``.
Seeded ``mc`` bytes differ from version 0.1.0, which drew from Philox and
averaged the tail in partition order.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ConfigError, DataError, TailTooSmallError
from .garch import GarchFit, GarchParams, next_variance
from .mathstat import tail_rank

INNOVATION_NORMAL = "normal"
INNOVATION_FHS = "fhs"
# paths per streamed block; any size gives the same output. A block's
# innovations take 0.65 MB at horizon 10, and up to three blocks are live
# (being drawn, queued, in the recursion). run_mc at 1e6 x 10 on a 2-vCPU
# Xeon, medians of 14 interleaved calls at 2,048 / 4,096 / 8,192 / 16,384 /
# 32,768 paths: fhs 0.158 / 0.112 / 0.094 / 0.085 / 0.094 s, normal 0.163 /
# 0.158 / 0.131 / 0.144 / 0.155 s. 16,384 ties 8,192 within noise but
# allocates 1.6x to 1.7x as much at its peak (tracemalloc, 4e5 x 10).
_BLOCK = 8192
# path-steps (n_paths x horizon) one run may simulate: a cap on work, since
# run_mc keeps at most about (2k + _BLOCK) x horizon cells of tail; a larger
# request is refused before anything is drawn
_MAX_CELLS = 2 ** 28
# cells of tail (k x horizon) one run may keep, rounded up to whole paths:
# k <= ceil(2^24 / horizon). run_mc allocates at most about 5.2 doubles per
# tail cell at horizon 1 (0.7 GB at this cap; tracemalloc at 2^20 paths,
# level 0.25) and 2.8 at horizon 4, with either innovation. Any level up
# to 1/16 stays within the cap, as k <= ceil(n_paths / 16) and n_paths x
# horizon <= 2^28.
_MAX_TAIL_CELLS = 2 ** 24
# tail values per tolist() in _tail's fsum
_FSUM_CHUNK = 65536


def _check_tail(n_paths: int, p: float) -> None:
    if n_paths * p < 5.0:
        raise TailTooSmallError(
            f"{n_paths} paths at level {p} leave fewer than 5 tail paths"
        )


@dataclass(frozen=True)
class McConfig:
    seed: int
    n_paths: int = 1000
    horizon: int = 5
    level: float = 0.01
    innovation: str = INNOVATION_NORMAL

    def __post_init__(self):
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must be a 64-bit unsigned int, got {self.seed}")
        if self.n_paths < 100:
            raise ConfigError(f"need at least 100 paths, got {self.n_paths}")
        if not 1 <= self.horizon <= 250:
            raise ConfigError(f"horizon must lie in 1..250, got {self.horizon}")
        if self.n_paths * self.horizon > _MAX_CELLS:
            raise ConfigError(f"paths x horizon must be at most {_MAX_CELLS}, "
                              f"got {self.n_paths} x {self.horizon}")
        if not 0.0 < self.level < 0.5:
            raise ConfigError(f"level must lie in (0, 0.5), got {self.level}")
        if self.innovation not in (INNOVATION_NORMAL, INNOVATION_FHS):
            raise ConfigError(f"unknown innovation kind {self.innovation!r}")
        k = tail_rank(self.level, self.n_paths)
        max_k = -(-_MAX_TAIL_CELLS // self.horizon)
        if k > max_k:
            raise ConfigError(f"tail paths (ceil(paths x level)) must be at most "
                              f"{max_k} at horizon {self.horizon}, got {k}")
        _check_tail(self.n_paths, self.level)


@dataclass(frozen=True)
class TermStructure:
    """Cumulative-return VaR/ES per horizon step, both signed quantities."""

    var: np.ndarray
    es: np.ndarray
    level: float
    n_paths: int

    @property
    def horizon(self) -> int:
        return len(self.var)


def _draws(rng: np.random.Generator, pool: np.ndarray, cfg: McConfig):
    """Innovations of each row block of paths, in the canonical draw order.

    Yields one C-contiguous [horizon, block] array per block of at most
    ``_BLOCK`` paths; each block draws path by path, each path's steps in
    turn, so the stream does not depend on the block size.
    """
    for lo in range(0, cfg.n_paths, _BLOCK):
        shape = (min(_BLOCK, cfg.n_paths - lo), cfg.horizon)
        if cfg.innovation == INNOVATION_NORMAL:
            yield rng.standard_normal(shape).T.copy()
        else:
            yield pool.take(rng.integers(0, pool.size, size=shape).T)


def _drawn_ahead(draws):
    """Iterate ``draws`` one item ahead, on a helper thread.

    The helper produces item i+1 while the caller works on item i, and only
    the helper advances ``draws``. An exception raised there reaches the
    caller with its own type. When this generator returns, raises or is
    closed, the helper has ended.
    """
    import queue  # only a multi-block run pays for this import

    handoff = queue.Queue(maxsize=1)
    stop = threading.Event()

    def produce():
        # On the way out the caller sets ``stop``, then takes one item if
        # there is one; the helper puts at most one more item before it sees
        # ``stop``, so no put is left blocked.
        try:
            for item in draws:
                handoff.put(item)
                if stop.is_set():
                    return
            handoff.put(None)
        except BaseException as exc:  # the caller raises it
            handoff.put(exc)

    helper = threading.Thread(target=produce, name="riskengine-mc-draw",
                              daemon=True)
    helper.start()
    try:
        while (item := handoff.get()) is not None:
            if isinstance(item, BaseException):
                raise item
            yield item
    finally:
        stop.set()
        try:
            handoff.get_nowait()
        except queue.Empty:
            pass
        helper.join()


def _blocks(fit: GarchFit, cfg: McConfig):
    """Cumulative returns of each row block of paths, in path order.

    Yields one [horizon, block] array per block of at most ``_BLOCK`` paths;
    this loop and ``_draws`` are the only places the recursion runs and
    innovations are drawn. With more than one block, the next block is
    drawn on a helper thread while this one runs its recursion and the
    caller consumes it. The recursion runs in place on each innovation
    row, with the operations of ``r = sqrt(v) * z; cum = cum + r;
    v = omega + alpha * r * r + beta * v`` in that order, so the bytes do
    not depend on the block size or the thread timing.
    """
    if len(fit.z) == 0 or len(fit.sigma) == 0:
        raise DataError("empty residual pool for bootstrap innovations")
    params = fit.params
    last_r = float(fit.sigma[-1] * fit.z[-1])
    v_start = next_variance(params, last_r, float(fit.sigma[-1] ** 2))

    rng = np.random.Generator(np.random.SFC64(cfg.seed))
    draws = _draws(rng, np.asarray(fit.z, dtype=float), cfg)
    if cfg.n_paths > _BLOCK:
        draws = _drawn_ahead(draws)
    width = min(_BLOCK, cfg.n_paths)
    v_row, tmp_row = np.empty(width), np.empty(width)
    try:
        for block in draws:
            v, tmp = v_row[:block.shape[1]], tmp_row[:block.shape[1]]
            v.fill(v_start)
            cum = 0.0  # cum + r, not r: 0.0 + -0.0 is 0.0
            for h, row in enumerate(block):
                np.multiply(np.sqrt(v, out=tmp), row, out=row)  # row is r
                np.multiply(params.alpha, row, out=tmp)
                np.multiply(tmp, row, out=tmp)
                np.add(params.omega, tmp, out=tmp)
                np.multiply(params.beta, v, out=v)
                np.add(tmp, v, out=v)
                cum = np.add(cum, row, out=row)  # row is the cumulative return
            yield block
    finally:
        draws.close()


def simulate_cumulative(fit: GarchFit, cfg: McConfig) -> np.ndarray:
    """Matrix [n_paths, horizon] of cumulative returns through each step.

    The matrix is the transpose of a C-contiguous [horizon, n_paths] buffer,
    so each horizon column ``cum[:, h]`` is contiguous in memory.
    """
    out = np.empty((cfg.horizon, cfg.n_paths))
    lo = 0
    for block in _blocks(fit, cfg):
        out[:, lo:lo + block.shape[1]] = block
        lo += block.shape[1]
    return out.T


def _tail(values: np.ndarray, k: int) -> tuple[float, float]:
    """VaR and ES of the k smallest values, whatever their order.

    Partitions ``values`` in place. VaR is the k-th smallest value. ES is
    the correctly rounded sum of the k smallest (``math.fsum``, fed
    ``_FSUM_CHUNK`` values at a time) over k; when they tie, that quotient
    can land one ulp above them, so ES is capped at VaR.
    """
    values.partition(k - 1)
    tail = values[:k]
    var = float(tail.max())
    total = math.fsum(chain.from_iterable(
        tail[lo:lo + _FSUM_CHUNK].tolist() for lo in range(0, k, _FSUM_CHUNK)))
    return var, min(total / k, var)


def term_structure(cum: np.ndarray, p: float) -> TermStructure:
    """Per-horizon empirical VaR and tail-mean ES of a cumulative matrix.

    With k = tail_rank(p, n), each column's VaR and ES come from its k
    smallest values by ``_tail``, so ES <= VaR and neither depends on the
    order of the paths.
    """
    cum = np.asarray(cum, dtype=float)
    n_paths, horizon = cum.shape
    _check_tail(n_paths, p)
    k = tail_rank(p, n_paths)
    var = np.empty(horizon)
    es = np.empty(horizon)
    for h in range(horizon):
        var[h], es[h] = _tail(cum[:, h].copy(), k)  # not the caller's matrix
    return TermStructure(var=var, es=es, level=p, n_paths=n_paths)


def run_mc(fit: GarchFit, cfg: McConfig) -> TermStructure:
    """Simulate and reduce block by block.

    Gives the bytes of ``term_structure(simulate_cumulative(fit, cfg),
    cfg.level)`` without the path matrix. Per horizon it keeps the values at
    or below a bound, +inf until 2k are kept; each time 2k are kept it
    partitions them down to the k smallest and the bound becomes their
    largest. A value dropped for lying above the bound has k kept values
    below it, so the k smallest of what is kept are the k smallest of all
    paths.
    """
    k = tail_rank(cfg.level, cfg.n_paths)
    kept = [[] for _ in range(cfg.horizon)]
    counts = [0] * cfg.horizon
    bounds = [math.inf] * cfg.horizon
    for block in _blocks(fit, cfg):
        for h, row in enumerate(block):
            new = row[row <= bounds[h]]
            kept[h].append(new)
            counts[h] += new.size
            if counts[h] >= 2 * k:
                # a copy of the k smallest, so the >= 2k buffer is freed
                tail = np.concatenate(kept[h])
                tail.partition(k - 1)
                tail = tail[:k].copy()
                kept[h], counts[h], bounds[h] = [tail], k, float(tail[k - 1])
    var = np.empty(cfg.horizon)
    es = np.empty(cfg.horizon)
    for h in range(cfg.horizon):
        var[h], es[h] = _tail(np.concatenate(kept[h]), k)
    return TermStructure(var=var, es=es, level=cfg.level, n_paths=cfg.n_paths)


def simulate_garch_returns(params: GarchParams, n_obs: int, seed: int,
                           innovation: str = INNOVATION_NORMAL) -> np.ndarray:
    """Synthetic return path following the variance recursion.

    ``"student_t"`` innovations have 5 degrees of freedom and are rescaled to
    unit variance so omega keeps its meaning across innovation choices.
    Starts at the unconditional variance.
    """
    if n_obs < 1:
        raise ConfigError(f"need at least one observation, got {n_obs}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    if innovation == INNOVATION_NORMAL:
        z = rng.standard_normal(n_obs)
    elif innovation == "student_t":
        z = rng.standard_t(5.0, n_obs) * math.sqrt((5.0 - 2.0) / 5.0)
    else:
        raise ConfigError(f"unknown innovation kind {innovation!r}")
    # next_variance's operations in its order, on Python floats
    omega, alpha, beta = params.omega, params.alpha, params.beta
    v = params.unconditional_variance
    r = []
    for z_t in z.tolist():
        r_t = math.sqrt(v) * z_t
        r.append(r_t)
        v = omega + alpha * r_t * r_t + beta * v
    return np.array(r)
