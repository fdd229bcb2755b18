"""Command-line front end: reproducible analyses with file outputs.

This module owns every output-file layout; the analytics modules only
compute. ``qq``, ``backtest`` and ``mc`` lay out their files inline with
``data.write_columns`` and ``data.write_json``; the VaR table, the spillover
table and the edge list have their own writers here, ``write_var_csv``,
``write_table_csv`` and ``write_edges_json``, which the benchmark tracer
times by these names.

Each subcommand returns the paths it wrote; ``main`` then writes one
manifest (JSON next to the main output) recording the parsed options other
than the input, output and seed as the configuration, the SHA-256 of the
input file, the seed and the tool version. Stochastic commands require an
explicit seed; identical invocations produce byte-identical files. Each
subcommand checks its options before it parses the input, so a bad option
exits 4 without a load or a fit.

A run exits 0 on success. A failure prints one line to stderr and exits with
the code its exception class carries in ``errors.py``: 2 data error
(missing, undecodable or malformed input, a sample that cannot be used, an
unwritable output; an ``OSError`` counts as one), 3 fit/estimation failure,
4 bad configuration (a ``MemoryError`` counts as one, reported as "out of
memory"), 5 statistically infeasible request. Any other exception is a bug
and keeps its traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import asdict
from datetime import date
from pathlib import Path

import numpy as np

from . import __version__
from .backtest import breaches, evaluate
from .connectedness import (
    ConnectednessTable,
    check_horizon,
    check_order,
    connectedness_table,
    fit_var,
)
from .data import (
    load_csv,
    load_multi_csv,
    to_log_returns,
    write_columns,
    write_json,
)
from .errors import ConfigError, DataError, EstimationError
from .garch import GarchFit, fit as fit_garch
from .mathstat import qq_points
from .montecarlo import McConfig, run_mc
from .var_engine import METHOD_HS, METHODS, VarConfig, VarSeries, rolling_var


class _Parser(argparse.ArgumentParser):
    # usage problems are configuration errors, not the default argparse code 2
    def error(self, message):
        self.exit(ConfigError.exit_code, f"{self.prog}: error: {message}\n")


def _sha256(path) -> str:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no such file: {path}")
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(args, input_sha256, outputs) -> None:
    """Record the run next to ``args.out``; every other parsed flag is config."""
    config = {key: value for key, value in vars(args).items()
              if key not in ("command", "input", "out", "seed")}
    write_json(str(args.out) + ".manifest.json", {
        "command": args.command,
        "config": config,
        "input_sha256": input_sha256,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "outputs": [str(p) for p in outputs],
    })


def write_var_csv(columns: list[VarSeries], path) -> None:
    """Date/return/VaR table, one VaR column per method (Table-style layout)."""
    first = columns[0]
    write_columns(path, ["date", "return"] + [f"var_{c.method}" for c in columns],
                  [map(date.isoformat, first.dates), first.realized.tolist(),
                   *(c.var.tolist() for c in columns)])


def write_table_csv(table: ConnectednessTable, names, path) -> None:
    """Spillover table with from/to/net margins and the total index.

    Matrix cells are row-stochastic shares (each row of the N central columns
    sums to 1); the margins and TCI are in percent.
    """
    names = list(names)
    rows = [[name, *shares, margin] for name, shares, margin in
            zip(names, table.theta_tilde.tolist(), table.from_others.tolist())]
    rows.append(["to_others", *table.to_others.tolist(), ""])
    rows.append(["net", *table.net.tolist(), ""])
    rows.append(["tci", float(table.tci)] + [""] * len(names))
    write_columns(path, ["series"] + names + ["from_others"], zip(*rows))


def write_edges_json(table: ConnectednessTable, names, horizon: int,
                     path) -> None:
    """Directed spillover edges, shock source -> affected variable, and TCI."""
    theta = table.theta_tilde.tolist()
    write_json(path, {
        "horizon": horizon,
        "tci": float(table.tci),
        "edges": [{"from": names[k], "to": names[j], "weight": theta[j][k]}
                  for j in range(len(names)) for k in range(len(names))
                  if j != k],
    })


def _load_returns(args):
    series = load_csv(args.input, date_column=args.date_column,
                      value_column=args.value_column,
                      kind="price" if args.prices else "return")
    if args.prices:
        series = to_log_returns(series)
    return series


def _fitted(series) -> GarchFit:
    fitted = fit_garch(series)
    if not fitted.converged:
        raise EstimationError("GARCH fit has no certified optimum")
    return fitted


def _fit_for(series, methods) -> GarchFit | None:
    """The converged fit the VaR methods need; None when all of them are HS."""
    return _fitted(series) if any(m != METHOD_HS for m in methods) else None


def _cmd_qq(args) -> list:
    series = _load_returns(args)
    if args.mode == "garch":
        points = qq_points(_fitted(series).z, mean=0.0, sd=1.0)
    else:
        r = series.returns
        if r.min() == r.max():  # a single row, too; np.std can round 0 up
            raise DataError("the returns are constant: their sample standard "
                            "deviation is 0")
        # an overflow, or the nan of +inf and -inf sums, is rejected just below
        with np.errstate(over="ignore", invalid="ignore"):
            sd = float(np.std(r, ddof=1))
        if not np.isfinite(sd):
            raise DataError("sample standard deviation of the returns is not finite")
        if sd == 0.0:  # the squared deviations underflowed
            raise DataError("sample standard deviation underflowed to 0.0: the "
                            "returns are too small")
        points = qq_points(r, mean=float(np.mean(r)), sd=sd)
    write_columns(args.out, ["theoretical", "empirical"],
                  [points.theoretical.tolist(), points.empirical.tolist()])
    return [args.out]


def _cmd_var(args) -> list:
    methods = list(METHODS) if args.method == "all" else [args.method]
    cfgs = [VarConfig(level=args.level, window=args.window, method=m)
            for m in methods]
    series = _load_returns(args)
    fitted = _fit_for(series, methods)
    write_var_csv([rolling_var(series, fitted, cfg) for cfg in cfgs], args.out)
    return [args.out]


def _cmd_backtest(args) -> list:
    cfg = VarConfig(level=args.level, window=args.window, method=args.method)
    series = _load_returns(args)
    var_series = rolling_var(series, _fit_for(series, [cfg.method]), cfg)
    b = breaches(var_series)
    payload = asdict(evaluate(b, args.level))
    payload["method"] = args.method
    payload["level"] = args.level
    write_json(args.out, payload)
    out = Path(args.out)
    breach_path = out.with_name(out.stem + ".breaches.csv")
    write_columns(breach_path, ["date", "indicator"],
                  [map(date.isoformat, b.dates), b.indicator.tolist()])
    return [args.out, breach_path]


def _cmd_mc(args) -> list:
    cfg = McConfig(seed=args.seed, n_paths=args.paths, horizon=args.horizon,
                   level=args.level, innovation=args.innovation)
    ts = run_mc(_fitted(_load_returns(args)), cfg)
    write_columns(args.out, ["horizon", "var", "es"],
                  [range(1, ts.horizon + 1), ts.var.tolist(), ts.es.tolist()])
    return [args.out]


def _cmd_connectedness(args) -> list:
    check_horizon(args.horizon)
    check_order(args.order)
    series = load_multi_csv(args.input, date_column=args.date_column)
    model = fit_var(series, order=args.order)
    table = connectedness_table(model, horizon=args.horizon)
    write_table_csv(table, series.names, args.out)
    edges_path = Path(args.out).with_suffix(".edges.json")
    write_edges_json(table, series.names, args.horizon, edges_path)
    return [args.out, edges_path]


def _add_input_options(sub, value_default: str) -> None:
    sub.add_argument("input", help="input CSV file")
    sub.add_argument("--date-column", default="date")
    sub.add_argument("--value-column", default=value_default)
    sub.add_argument("--prices", action="store_true",
                     help="treat values as prices and convert to log returns")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="riskengine",
                     description="VaR estimation, backtesting, Monte Carlo "
                                 "term structures and connectedness tables.")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    qq = commands.add_parser("qq", help="QQ points of returns or residuals")
    _add_input_options(qq, "return")
    mode = qq.add_mutually_exclusive_group(required=True)
    mode.add_argument("--mean-match", action="store_const", dest="mode",
                      const="mean-match",
                      help="raw returns vs a normal with matched mean/sd")
    mode.add_argument("--garch", action="store_const", dest="mode",
                      const="garch",
                      help="GARCH standardized residuals vs N(0,1)")
    qq.add_argument("--out", required=True)

    var = commands.add_parser("var", help="rolling one-day VaR series")
    _add_input_options(var, "return")
    var.add_argument("--method", default="all",
                     choices=["hs", "garch-n", "fhs", "all"])
    var.add_argument("--level", type=float, default=0.05)
    var.add_argument("--window", type=int, default=200)
    var.add_argument("--out", required=True)

    backtest = commands.add_parser("backtest",
                                   help="breach counts and coverage tests")
    _add_input_options(backtest, "return")
    backtest.add_argument("--method", default="fhs",
                          choices=["hs", "garch-n", "fhs"])
    backtest.add_argument("--level", type=float, default=0.05)
    backtest.add_argument("--window", type=int, default=200)
    backtest.add_argument("--out", required=True)

    mc = commands.add_parser("mc", help="multi-day Monte Carlo VaR/ES")
    _add_input_options(mc, "return")
    mc.add_argument("--innovation", default="normal", choices=["normal", "fhs"])
    mc.add_argument("--paths", type=int, default=1000)
    mc.add_argument("--horizon", type=int, default=5)
    mc.add_argument("--level", type=float, default=0.01)
    mc.add_argument("--seed", type=int, required=True,
                    help="mandatory: runs must be reproducible")
    mc.add_argument("--out", required=True)

    conn = commands.add_parser("connectedness",
                               help="spillover table for a multivariate CSV")
    conn.add_argument("input", help="CSV with a date column and N >= 2 series")
    conn.add_argument("--date-column", default="date")
    conn.add_argument("--order", type=int, default=1, help="VAR lag order")
    conn.add_argument("--horizon", type=int, default=10)
    conn.add_argument("--out", required=True)
    return parser


_DISPATCH = {
    "qq": _cmd_qq,
    "var": _cmd_var,
    "backtest": _cmd_backtest,
    "mc": _cmd_mc,
    "connectedness": _cmd_connectedness,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "method", None):
        args.method = args.method.replace("-", "_")
    try:
        # hash before the command runs: an --out may overwrite the input
        input_sha256 = _sha256(args.input)
        _write_manifest(args, input_sha256, _DISPATCH[args.command](args))
        return 0
    except (DataError, EstimationError, ConfigError, OSError) as exc:
        kind = DataError if isinstance(exc, OSError) else exc
        print(f"riskengine: {kind.label}: {exc}", file=sys.stderr)
        return kind.exit_code
    except MemoryError as exc:
        # a backstop: the size bounds refuse the requests known to need more
        print(f"riskengine: {ConfigError.label}: out of memory: {exc}",
              file=sys.stderr)
        return ConfigError.exit_code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
