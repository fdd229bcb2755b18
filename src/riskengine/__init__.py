"""Market-risk engine: VaR/ES estimation, backtesting and connectedness."""

__version__ = "0.1.0"

from .backtest import (
    BreachSeries,
    CoverageReport,
    TransitionCounts,
    breach_frequency,
    breaches,
    evaluate,
    lr_conditional,
    lr_independence,
    lr_unconditional,
    transition_counts,
)
from .connectedness import (
    ConnectednessTable,
    VarModel,
    connectedness_table,
    fit_var,
    gfevd,
    indices,
    normalize_rows,
)
from .data import (
    MultiSeries,
    ReturnSeries,
    load_csv,
    load_multi_csv,
    to_log_returns,
    write_csv,
)
from .garch import GarchFit, GarchParams, filter, fit, loglik, next_variance
from .mathstat import (
    QQPoints,
    chi2_sf,
    empirical_quantile,
    norm_inv_cdf,
    qq_points,
)
from .montecarlo import (
    McConfig,
    TermStructure,
    run_mc,
    simulate_cumulative,
    simulate_garch_returns,
    term_structure,
)
from .var_engine import VarConfig, VarSeries, rolling_var
