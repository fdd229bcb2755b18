"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at tiny sizes (traced and untraced), feeds deliberately
corrupted outputs to the checks, and checks that the span wrappers leave
riskengine's functions as they found them. Takes about a minute.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from tracer import LAYERS, Recorder  # noqa: E402
from workloads import (TINY, BacktestSweep, CheckFailed, McTail,  # noqa: E402
                       check_report, check_spillover_rows)


def _run_tiny(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "2", "--trace", str(trace),
         "--sizes", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_runs_pass_and_print_the_declared_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            result = _run_tiny(workload, trace)
            where = f"{workload} trace={trace}"
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, where
            assert result["failed"] == 0 and result["attempted"] >= 1, where
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == declared[trace], where


def _workdir(name: str) -> Path:
    path = ROOT / ".perfbench_out" / f"selftest-{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class _Patched:
    """Replace module.attr with a corrupting wrapper for a with-block."""

    def __init__(self, module_name, attr, corrupt):
        self.module = importlib.import_module(module_name)
        self.attr, self.corrupt = attr, corrupt

    def __enter__(self):
        self.original = original = getattr(self.module, self.attr)
        corrupt = self.corrupt
        setattr(self.module, self.attr,
                lambda *a, **k: corrupt(original(*a, **k)))

    def __exit__(self, *exc):
        setattr(self.module, self.attr, self.original)


def _failures(workload, seconds=0.3) -> tuple[int, int]:
    records, _ = run.run_loop(workload, seconds, None)
    return sum(not r["ok"] for r in records), len(records)


def test_corrupted_outputs_count_as_failures():
    workdir = _workdir("corrupt")
    try:
        sweep = BacktestSweep(ROOT, workdir, 3, TINY)
        sweep.write_inputs()
        sweep.prepare(None)
        assert _failures(sweep)[0] == 0
        flip = lambda v: dataclasses.replace(v, var=-v.var)  # noqa: E731
        with _Patched("riskengine.var_engine", "rolling_var", flip):
            failed, attempted = _failures(sweep)
            assert failed == attempted > 0
        worse = lambda f: dataclasses.replace(f, loglik=f.loglik - 1e3)  # noqa: E731
        with _Patched("riskengine.garch", "fit", worse):
            failed, attempted = _failures(sweep)
            assert failed == attempted > 0

        mc = McTail(ROOT, workdir, 3, TINY)
        mc.write_inputs()
        mc.prepare(None)
        assert _failures(mc)[0] == 0
        high_es = lambda t: dataclasses.replace(t, es=t.var + 1e-3)  # noqa: E731
        with _Patched("riskengine.montecarlo", "run_mc", high_es):
            failed, attempted = _failures(mc)
            assert failed == attempted > 0
        # a flipped sign keeps es <= var but misses the analytic H=1 VaR
        flip_both = lambda t: dataclasses.replace(t, var=-t.es, es=-t.var)  # noqa: E731
        with _Patched("riskengine.montecarlo", "run_mc", flip_both):
            try:
                mc.run_job(0, None, 1)
            except CheckFailed:
                pass
            else:
                raise AssertionError("flipped Monte Carlo VaR passed the checks")

        table = workdir / "table.csv"
        table.write_text("series,a,b,from_others\na,0.5,0.4,40.0\n"
                         "b,0.5,0.5,50.0\n")
        _expect_failure(lambda: check_spillover_rows(table, 2))
        report = dataclasses.make_dataclass(
            "R", ["lr_uc", "lr_ind", "lr_cc"])(0.1, None, None)
        _expect_failure(lambda: check_report([0, 1, 0, 1], report))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _expect_failure(fn) -> None:
    try:
        fn()
    except CheckFailed:
        return
    raise AssertionError("corrupted output passed the checks")


def test_wrappers_restore_the_originals():
    sites = [(importlib.import_module(m), a) for _, group in LAYERS
             for m, a in group]
    originals = [getattr(m, a) for m, a in sites]
    recorder = Recorder()
    recorder.install()
    try:
        for (module, attr), original in zip(sites, originals):
            current = getattr(module, attr)
            assert current is not original and current.__wrapped__ is original
    finally:
        recorder.uninstall()
    assert [getattr(m, a) for m, a in sites] == originals

    workdir = _workdir("restore")
    try:
        sweep = BacktestSweep(ROOT, workdir, 4, TINY)
        sweep.write_inputs()
        sweep.prepare(None)
        traced = Recorder()
        sweep.run_job(4, traced, 1)
        assert len(traced.start) > 0
        # a job that raises inside a wrapper must restore the originals too
        sweep.kinds = ((TINY.sweep_rows[0], "missing"),)
        try:
            sweep.run_job(0, Recorder(), 2)
        except Exception:
            pass
        assert [getattr(m, a) for m, a in sites] == originals
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except Exception:
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
