"""Multi-day Monte Carlo VaR and expected shortfall under GARCH dynamics.

Each path starts from the one-step-ahead variance implied by the last
in-sample return and filtered variance, then alternates draw / accumulate /
variance-update for ``horizon`` steps. Innovations are either standard
normal or bootstrap draws (with replacement) from the fitted standardized
residuals.

Determinism contract: innovations come from ``np.random.SFC64`` seeded with
the seed, in one canonical order (path by path, each path's steps in turn).
Paths are simulated in row blocks on one thread; each block draws its
innovations in that order and runs its recursion before the next block
draws, so the output is bit-identical for a given (fit, config) whatever the
block size. ``RISK_THREADS`` is accepted and ignored.

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
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, TailTooSmallError
from .garch import GarchFit, GarchParams, next_variance
from .mathstat import tail_rank

INNOVATION_NORMAL = "normal"
INNOVATION_FHS = "fhs"
# paths per streamed block; any size gives the same output. A 16,384-path
# block's innovations (1.3 MB at horizon 10) stay in a 2 MiB L2 through the
# recursion; at 1e6 x 10, 8,192 to 65,536 time alike within noise.
_BLOCK = 16384
# path-steps (n_paths x horizon) one run may simulate: a cap on work, since
# run_mc keeps at most about (2k + _BLOCK) x horizon cells of tail; a larger
# request is refused before anything is drawn
_MAX_CELLS = 2 ** 28


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


def _blocks(fit: GarchFit, cfg: McConfig):
    """Cumulative returns of each row block of paths, in path order.

    Yields one [horizon, block] array per block of at most ``_BLOCK`` paths;
    this loop is the only place innovations are drawn and the recursion runs.
    """
    if len(fit.z) == 0 or len(fit.sigma) == 0:
        raise DataError("empty residual pool for bootstrap innovations")
    params = fit.params
    last_r = float(fit.sigma[-1] * fit.z[-1])
    v_start = next_variance(params, last_r, float(fit.sigma[-1] ** 2))

    rng = np.random.Generator(np.random.SFC64(cfg.seed))
    pool = np.asarray(fit.z, dtype=float)
    for lo in range(0, cfg.n_paths, _BLOCK):
        shape = (min(_BLOCK, cfg.n_paths - lo), cfg.horizon)
        if cfg.innovation == INNOVATION_NORMAL:
            innov = rng.standard_normal(shape)
        else:
            innov = pool[rng.integers(0, pool.size, size=shape)]
        out = np.empty(shape[::-1])
        v = np.full(shape[0], v_start)
        cum = np.zeros(shape[0])
        for h in range(cfg.horizon):
            r = np.sqrt(v) * innov[:, h]
            cum = cum + r
            out[h] = cum
            v = params.omega + params.alpha * r * r + params.beta * v
        yield out


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

    VaR is the k-th smallest value. ES is the correctly rounded sum of the k
    smallest (``math.fsum``) over k; when they tie, that quotient can land
    one ulp above them, so ES is capped at VaR.
    """
    tail = np.partition(values, k - 1)[:k]
    var = float(tail.max())
    return var, min(math.fsum(tail.tolist()) / k, var)


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
        var[h], es[h] = _tail(cum[:, h], k)
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
                tail = np.partition(np.concatenate(kept[h]), k - 1)[:k]
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
    r = np.empty(n_obs)
    v = params.unconditional_variance
    for t in range(n_obs):
        r[t] = math.sqrt(v) * z[t]
        v = next_variance(params, r[t], v)
    return r
