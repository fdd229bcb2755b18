"""Multi-day Monte Carlo VaR and expected shortfall under GARCH dynamics.

Each path starts from the one-step-ahead variance implied by the last
in-sample return and filtered variance, then alternates draw / accumulate /
variance-update for ``horizon`` steps. Innovations are either standard
normal or bootstrap draws (with replacement) from the fitted standardized
residuals.

Determinism contract: innovations come from a counter-based generator keyed
by the seed, in one canonical order (path by path, each path's steps in
turn). Paths are simulated in row blocks on one thread; each block draws its
innovations in that order and runs its recursion before the next block
draws, so the output is bit-identical for a given (fit, config) whatever the
block size. ``RISK_THREADS`` is accepted and ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
# cells of the [horizon, n_paths] output (2 GiB of float64): a larger
# request is refused before anything is allocated
_MAX_CELLS = 2 ** 28


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


@dataclass(frozen=True)
class TermStructure:
    """Cumulative-return VaR/ES per horizon step, both signed quantities."""

    var: np.ndarray
    es: np.ndarray
    level: float
    n_paths: int
    config: McConfig | None = None

    @property
    def horizon(self) -> int:
        return len(self.var)

    def to_dict(self) -> dict:
        out = {
            "level": self.level,
            "n_paths": self.n_paths,
            "horizon": self.horizon,
            "var": [float(v) for v in self.var],
            "es": [float(e) for e in self.es],
        }
        if self.config is not None:
            out["seed"] = self.config.seed
            out["innovation"] = self.config.innovation
        return out


def simulate_cumulative(fit: GarchFit, cfg: McConfig) -> np.ndarray:
    """Matrix [n_paths, horizon] of cumulative returns through each step.

    The matrix is the transpose of a C-contiguous [horizon, n_paths] buffer,
    so each horizon column ``cum[:, h]`` is contiguous in memory.
    """
    if len(fit.z) == 0 or len(fit.sigma) == 0:
        raise DataError("empty residual pool for bootstrap innovations")
    params = fit.params
    last_r = float(fit.sigma[-1] * fit.z[-1])
    v_start = next_variance(params, last_r, float(fit.sigma[-1] ** 2))

    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    pool = np.asarray(fit.z, dtype=float)
    out = np.empty((cfg.horizon, cfg.n_paths))
    for lo in range(0, cfg.n_paths, _BLOCK):
        hi = min(lo + _BLOCK, cfg.n_paths)
        shape = (hi - lo, cfg.horizon)
        if cfg.innovation == INNOVATION_NORMAL:
            innov = rng.standard_normal(shape)
        else:
            innov = pool[rng.integers(0, pool.size, size=shape)]
        v = np.full(hi - lo, v_start)
        cum = np.zeros(hi - lo)
        for h in range(cfg.horizon):
            r = np.sqrt(v) * innov[:, h]
            cum = cum + r
            out[h, lo:hi] = cum
            v = params.omega + params.alpha * r * r + params.beta * v
    return out.T


def term_structure(cum: np.ndarray, p: float) -> TermStructure:
    """Per-horizon empirical VaR and tail-mean ES of a cumulative matrix.

    VaR is the k-th smallest cumulative return with k = tail_rank(p, n); ES
    is the mean of those k values, so ES <= VaR. When the k values tie, the
    rounded mean can land one ulp above them, so ES is capped at VaR.
    """
    cum = np.asarray(cum, dtype=float)
    n_paths, horizon = cum.shape
    if n_paths * p < 5.0:
        raise TailTooSmallError(
            f"{n_paths} paths at level {p} leave fewer than 5 tail paths"
        )
    k = tail_rank(p, n_paths)
    var = np.empty(horizon)
    es = np.empty(horizon)
    for h in range(horizon):
        tail = np.partition(cum[:, h], k - 1)[:k]
        var[h] = tail.max()
        es[h] = min(tail.mean(), var[h])
    return TermStructure(var=var, es=es, level=p, n_paths=n_paths)


def run_mc(fit: GarchFit, cfg: McConfig) -> TermStructure:
    """Simulate and reduce in one call, echoing the config for reproducibility."""
    ts = term_structure(simulate_cumulative(fit, cfg), cfg.level)
    return replace(ts, config=cfg)


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
