"""Exception hierarchy shared across the engine, and the CLI's exit codes.

Each class carries the exit code and the stderr label the CLI reports it
with, so the split is decided here: 2 data error, 3 estimation failure, 4
bad configuration, 5 statistically infeasible request.
"""


class DataError(Exception):
    """Bad or unusable input data (unreadable file, duplicate dates, NaNs...)."""

    exit_code = 2
    label = "data error"


class EstimationError(Exception):
    """A model could not be estimated (rank deficiency, degenerate sample)."""

    exit_code = 3
    label = "estimation error"


class ConfigError(Exception):
    """Invalid configuration value or flag combination."""

    exit_code = 4
    label = "config error"


class TailTooSmallError(ConfigError):
    """Requested tail holds too few Monte Carlo paths to estimate anything."""

    exit_code = 5
    label = "infeasible"
