"""The three benchmark workloads: inputs made from the seed, jobs, checks.

Each workload is closed-loop with one client: the next job starts when the
previous one has finished. A workload object

* ``write_inputs()`` makes its inputs from the seed and writes them (this is
  the set-up the benchmark times, run in fresh processes);
* ``prepare(recorder)`` readies the benchmark process for its jobs;
* ``run_job(i, recorder, job_id)`` runs job ``i``, traced under ``job_id``
  when a recorder is given, checks its output and returns its latency and
  extra timings;
* ``final_check()``, where output is seeded, re-runs a job once, untimed,
  to check that a repeated seed gives byte-identical output.

A failed check raises :class:`CheckFailed`; the benchmark counts the job as
failed. The checks do not depend on which optimizer produced a result.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
FIRST_DATE = date(2000, 1, 3).toordinal()
# GARCH(1,1) parameters of the simulated series
GARCH_TRUE = dict(omega=2e-6, alpha=0.08, beta=0.90)
IID_TRUE = dict(omega=1e-4, alpha=0.0, beta=0.0)
LEVELS = (0.01, 0.05)
MC_LEVEL = 0.01
# normal H=1 VaR must lie within this many standard errors of the
# analytic sqrt(v_start) * Phi^-1(p)
MC_TOL_SE = 6.0


@dataclass(frozen=True)
class Sizes:
    cli_rows: int = 2500
    panel_series: int = 20
    panel_rows: int = 3000
    cli_mc_paths: int = 1000
    sweep_rows: tuple = (2500, 10000)
    sweep_variants: int = 2
    sweep_iid_variants: int = 16
    mc_rows: int = 2500
    mc_paths: int = 1_000_000
    mc_horizon: int = 10


FULL = Sizes()
# for the benchmark's self-tests: every code path, in seconds
TINY = Sizes(cli_rows=400, panel_series=4, panel_rows=500,
             sweep_rows=(300, 600), sweep_variants=1, sweep_iid_variants=2,
             mc_rows=400, mc_paths=20_000)
SIZES = {"full": FULL, "tiny": TINY}


class CheckFailed(Exception):
    """A job's output broke one of the benchmark's checks."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def derive(seed: int, *labels) -> int:
    """A 63-bit seed for one input, fixed by the benchmark seed and labels."""
    text = ":".join(str(x) for x in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


def _dates(n: int) -> list:
    return [date.fromordinal(FIRST_DATE + i) for i in range(n)]


def _simulate(kind: str, rows: int, seed: int) -> np.ndarray:
    from riskengine.garch import GarchParams
    from riskengine.montecarlo import simulate_garch_returns

    if kind == "iid":
        return simulate_garch_returns(GarchParams(**IID_TRUE), rows, seed)
    return simulate_garch_returns(GarchParams(**GARCH_TRUE), rows, seed,
                                  innovation=kind)


def _write_series(path: Path, r: np.ndarray) -> None:
    from riskengine.data import ReturnSeries, write_csv

    write_csv(ReturnSeries(dates=_dates(len(r)), returns=r, label="return"),
              path)


def _v_start(fit) -> float:
    p = fit.params
    sigma2 = float(fit.sigma[-1]) ** 2
    last_r = float(fit.sigma[-1] * fit.z[-1])
    return p.omega + p.alpha * last_r * last_r + p.beta * sigma2


class CliMix:
    """One job is one ``riskengine`` subprocess; five commands in turn."""

    name = "cli-mix"
    COMMANDS = ("qq", "var", "backtest", "mc", "connectedness")

    def __init__(self, root: Path, workdir: Path, seed: int, sizes: Sizes):
        self.root, self.workdir, self.seed, self.sizes = root, workdir, seed, sizes
        self.series = workdir / "series.csv"
        self.panel = workdir / "panel.csv"
        self.mc_seed = derive(seed, "cli-mc")
        self.mc_reference: bytes | None = None
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("RISK_THREADS", None)

    def write_inputs(self) -> None:
        s = self.sizes
        _write_series(self.series,
                      _simulate("normal", s.cli_rows, derive(self.seed, "cli")))
        panel = np.column_stack([
            _simulate("normal", s.panel_rows, derive(self.seed, "panel", j))
            for j in range(s.panel_series)
        ])
        # mix the independent series so the spillover table is not diagonal
        rng = np.random.Generator(np.random.Philox(key=derive(self.seed, "mix")))
        loadings = np.eye(s.panel_series) + 0.3 * rng.uniform(
            size=(s.panel_series, s.panel_series))
        panel = panel @ loadings
        with self.panel.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["date"] + [f"s{j:02d}" for j in range(s.panel_series)])
            for when, row in zip(_dates(s.panel_rows), panel):
                writer.writerow([when.isoformat()] + [repr(float(v)) for v in row])

    def prepare(self, recorder) -> None:
        pass

    def command(self, i: int, out: Path):
        """(kind, argv, output paths) of job i, writing under ``out``."""
        kind = self.kind(i)
        series, panel = str(self.series), str(self.panel)
        if kind == "qq":
            main = out / "qq.csv"
            return kind, ["qq", series, "--garch", "--out", str(main)], [main]
        if kind == "var":
            main = out / "var.csv"
            return kind, ["var", series, "--method", "all", "--out", str(main)], [main]
        if kind == "backtest":
            main = out / "backtest.json"
            return kind, ["backtest", series, "--method", "fhs",
                          "--out", str(main)], [main, out / "backtest.breaches.csv"]
        if kind == "mc":
            main = out / "mc.csv"
            return kind, ["mc", series, "--paths", str(self.sizes.cli_mc_paths),
                          "--horizon", "5", "--seed", str(self.mc_seed),
                          "--out", str(main)], [main]
        main = out / "conn.csv"
        return kind, ["connectedness", panel, "--order", "1",
                      "--out", str(main)], [main, out / "conn.edges.json"]

    def kind(self, i: int) -> str:
        return self.COMMANDS[i % len(self.COMMANDS)]

    def run_job(self, i: int, recorder, job_id: int) -> dict:
        out = self.workdir / f"job-{job_id}"
        out.mkdir()
        try:
            kind, argv, outputs = self.command(i, out)
            spans = out / "spans.json"
            if recorder is None:
                cmd = [sys.executable, "-m", "riskengine", *argv]
            else:
                cmd = [sys.executable, str(HERE / "cli_entry.py"), str(spans), *argv]
            with (out / "stderr.txt").open("wb") as err:
                t0 = time.perf_counter()
                proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                        stdout=subprocess.DEVNULL, stderr=err)
                # wait4 reaps the child and returns its own peak RSS
                _, status, usage = os.wait4(proc.pid, 0)
                latency = time.perf_counter() - t0
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            extra = {"latency": latency, "rss_kb": usage.ru_maxrss}
            stderr = (out / "stderr.txt").read_text(errors="replace").strip()
            require(code == 0, f"{kind}: exit {code}: {stderr[-300:]}")
            self.check(kind, outputs)
            if recorder is not None:
                spans_data = json.loads(spans.read_text())
                recorder.merge(spans_data, job_id)
                names = spans_data["names"]
                for n, s, e in zip(spans_data["name"], spans_data["start"],
                                   spans_data["end"]):
                    if names[n] == "cli.import":
                        extra["import_s"] = e - s
                    elif names[n] == "cli.main":
                        extra["main_s"] = e - s
            return extra
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def check(self, kind: str, outputs) -> None:
        for path in outputs:
            require(path.is_file() and path.stat().st_size > 0,
                    f"{kind}: missing output {path.name}")
        manifest_path = Path(str(outputs[0]) + ".manifest.json")
        require(manifest_path.is_file(), f"{kind}: missing manifest")
        try:
            manifest = json.loads(manifest_path.read_text())
        except ValueError as exc:
            raise CheckFailed(f"{kind}: manifest does not parse: {exc}") from None
        require(manifest.get("command") == kind, f"{kind}: manifest command")
        if kind == "mc":
            data = outputs[0].read_bytes()
            if self.mc_reference is None:
                self.mc_reference = data
            require(data == self.mc_reference,
                    "mc: output differs from an earlier run with the same seed")
        elif kind == "connectedness":
            check_spillover_rows(outputs[0], self.sizes.panel_series)

    def final_check(self) -> None:
        self.run_job(self.COMMANDS.index("mc"), None, 0)


def check_spillover_rows(path: Path, n: int) -> None:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    require(len(rows) >= n + 1, "connectedness: table too short")
    for row in rows[1:n + 1]:
        total = math.fsum(float(v) for v in row[1:n + 1])
        require(abs(total - 1.0) <= 1e-9,
                f"connectedness: row {row[0]} sums to {total!r}")


class BacktestSweep:
    """In-process: one job takes one CSV from load to coverage report."""

    name = "backtest-sweep"
    final_check = None  # no seeded output to repeat

    def __init__(self, root: Path, workdir: Path, seed: int, sizes: Sizes):
        self.root, self.workdir, self.seed, self.sizes = root, workdir, seed, sizes
        small, large = sizes.sweep_rows
        # Two of every seven jobs are small, so the median job is a large
        # GARCH series and not the gap between the two sizes. One in seven
        # is iid: its fit ends at the alpha = 0 or beta = 0 boundary after
        # anywhere from a few hundred to a few thousand likelihood calls,
        # depending on the series. Each iid job therefore gets a series of
        # its own, and iid jobs stay few enough that the slowest of them
        # lie beyond the tail percentile instead of moving it.
        self.positions = ((small, "normal"), (large, "normal"),
                          (large, "student_t"), (small, "student_t"),
                          (large, "normal"), (large, "student_t"),
                          (large, "iid"))

    def _variants(self, kind: str) -> int:
        return (self.sizes.sweep_iid_variants if kind == "iid"
                else self.sizes.sweep_variants)

    def _spec(self, i: int):
        """(rows, kind, path, seed) of the series job i reads."""
        pos = i % len(self.positions)
        rows, kind = self.positions[pos]
        variant = (i // len(self.positions)) % self._variants(kind)
        return (rows, kind, self.workdir / f"sweep-{pos}-{variant}.csv",
                derive(self.seed, "sweep", pos, variant))

    def kind(self, i: int) -> str:
        rows, kind, _, _ = self._spec(i)
        return f"{kind}-{rows}"

    def write_inputs(self) -> None:
        n = len(self.positions)
        for pos, (_, kind) in enumerate(self.positions):
            for variant in range(self._variants(kind)):
                rows, kind, path, seed = self._spec(pos + n * variant)
                _write_series(path, _simulate(kind, rows, seed))

    def prepare(self, recorder) -> None:
        from riskengine import backtest, data, garch, var_engine

        self.data, self.garch = data, garch
        self.var_engine, self.backtest = var_engine, backtest
        self.true_loglik = garch.loglik  # the original, for the check

    def run_job(self, i: int, recorder, job_id: int) -> dict:
        _, kind, path, _ = self._spec(i)
        ve, bt = self.var_engine, self.backtest
        if recorder is not None:
            recorder.current_job = job_id
            recorder.install()
        try:
            t0 = time.perf_counter()
            series = self.data.load_csv(path)
            fitted = self.garch.fit(series)
            results = []
            for method in ve.METHODS:
                for level in LEVELS:
                    var = ve.rolling_var(
                        series, fitted,
                        ve.VarConfig(level=level, method=method))
                    flags = bt.breaches(var)
                    results.append((var, flags, bt.evaluate(flags, level)))
            latency = time.perf_counter() - t0
        finally:
            if recorder is not None:
                recorder.uninstall()
        self.check(kind, series, fitted, results)
        return {"latency": latency}

    def check(self, kind, series, fitted, results) -> None:
        from riskengine.garch import GarchParams

        r = np.asarray(series.returns)
        truth = (GarchParams(omega=float(np.var(r, ddof=1)), alpha=0.0, beta=0.0)
                 if kind == "iid" else GarchParams(**GARCH_TRUE))
        check_loglik(fitted.loglik, self.true_loglik(r, truth))
        for var, flags, report in results:
            m = len(r) - len(var.var)
            if var.method == "hs":
                check_hs_members(r, var.var, m)
            check_breaches(r[m:], var.var, flags.indicator, report)
            check_report(flags.indicator, report)


def check_loglik(fitted: float, at_truth: float) -> None:
    require(fitted >= at_truth - 1e-6,
            f"fitted loglik {fitted!r} below loglik at the true "
            f"parameters {at_truth!r}")


def check_hs_members(r: np.ndarray, var: np.ndarray, m: int) -> None:
    windows = np.lib.stride_tricks.sliding_window_view(r[:-1], m)
    member = (windows == var[:, None]).any(axis=1)
    require(bool(member.all()),
            f"hs VaR not in its trailing window at {int(np.argmin(member))}")


def check_breaches(realized, var, indicator, report) -> None:
    count = int(np.count_nonzero(realized < var))
    require(count == int(np.sum(indicator)) == report.breach_count,
            f"breach count {report.breach_count} != recomputed {count}")


def check_report(indicator, report) -> None:
    prev = np.asarray(indicator[:-1])
    from0, from1 = int(np.sum(prev == 0)), int(np.sum(prev == 1))
    untestable = from0 == 0 or from1 == 0
    require(report.lr_uc is not None and report.lr_uc >= 0.0, "lr_uc")
    for name in ("lr_ind", "lr_cc"):
        stat = getattr(report, name)
        require((stat is None) == untestable,
                f"{name} is {stat!r} with from0={from0}, from1={from1}")
        require(stat is None or stat >= 0.0, f"{name} = {stat!r} < 0")


class McTail:
    """In-process: one job is one large Monte Carlo run; the fit is set-up."""

    name = "mc-tail"
    # Two fhs jobs per normal one, so the median job is an fhs run and not
    # the gap between the two innovation kinds; normal runs are the tail.
    INNOVATIONS = ("normal", "fhs", "fhs")

    def __init__(self, root: Path, workdir: Path, seed: int, sizes: Sizes):
        self.root, self.workdir, self.seed, self.sizes = root, workdir, seed, sizes
        self.path = workdir / "mc-series.csv"
        self.reference = None

    def kind(self, i: int) -> str:
        return self.INNOVATIONS[i % len(self.INNOVATIONS)]

    def write_inputs(self) -> None:
        from riskengine import data, garch

        _write_series(self.path, _simulate("normal", self.sizes.mc_rows,
                                           derive(self.seed, "mc")))
        garch.fit(data.load_csv(self.path))  # the fit belongs to set-up

    def prepare(self, recorder) -> None:
        from riskengine import data, garch, montecarlo

        self.montecarlo = montecarlo
        if recorder is not None:
            recorder.current_job = 0
            recorder.install()
        try:
            self.fit = garch.fit(data.load_csv(self.path))
        finally:
            if recorder is not None:
                recorder.uninstall()
        self.v_start = _v_start(self.fit)

    def config(self, i: int):
        return self.montecarlo.McConfig(
            seed=derive(self.seed, "mc-job", i), n_paths=self.sizes.mc_paths,
            horizon=self.sizes.mc_horizon, level=MC_LEVEL,
            innovation=self.kind(i))

    def run_job(self, i: int, recorder, job_id: int) -> dict:
        mc = self.montecarlo
        cfg = self.config(i)
        if recorder is not None:
            recorder.current_job = job_id
            recorder.install()
        try:
            t0 = time.perf_counter()
            ts = mc.run_mc(self.fit, cfg)
            latency = time.perf_counter() - t0
        finally:
            if recorder is not None:
                recorder.uninstall()
        extra = {"latency": latency}
        check_term_structure(ts.var, ts.es)
        if cfg.innovation == "normal":
            check_h1_var(ts.var[0], self.v_start, cfg.level, cfg.n_paths)
        if i == 0 and self.reference is None:
            self.reference = _bytes(ts)
        if recorder is not None:
            # the same job with two worker threads; must match byte for byte
            os.environ["RISK_THREADS"] = "2"
            try:
                t0 = time.perf_counter()
                cum = mc.simulate_cumulative(self.fit, cfg)
                extra["threads2_s"] = time.perf_counter() - t0
            finally:
                del os.environ["RISK_THREADS"]
            two = mc.term_structure(cum, cfg.level)
            del cum
            require(_bytes(two) == _bytes(ts),
                    "RISK_THREADS=2 output differs from one thread")
        return extra

    def final_check(self) -> None:
        ts = self.montecarlo.run_mc(self.fit, self.config(0))
        require(self.reference is not None and _bytes(ts) == self.reference,
                "repeated seed gave different Monte Carlo output")


def _bytes(ts) -> bytes:
    return np.asarray(ts.var).tobytes() + np.asarray(ts.es).tobytes()


def check_term_structure(var, es) -> None:
    var, es = np.asarray(var), np.asarray(es)
    require(bool(np.all(np.isfinite(var)) and np.all(np.isfinite(es))),
            "non-finite VaR or ES")
    require(bool(np.all(es <= var)), "es > var at some horizon")


def check_h1_var(var1: float, v_start: float, p: float, n_paths: int) -> None:
    z_p = statistics.NormalDist().inv_cdf(p)
    # standard error of the p-quantile of n standard normals
    se = math.sqrt(p * (1.0 - p) / n_paths) / statistics.NormalDist().pdf(z_p)
    z_hat = var1 / math.sqrt(v_start)
    require(abs(z_hat - z_p) <= MC_TOL_SE * se,
            f"H=1 VaR {var1!r} is {abs(z_hat - z_p) / se:.1f} standard errors "
            f"from sqrt(v_start)*Phi^-1(p)")


WORKLOADS = {w.name: w for w in (CliMix, BacktestSweep, McTail)}
