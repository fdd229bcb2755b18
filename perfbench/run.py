"""riskengine benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository; riskengine is imported from its
``src`` directory. Set-up runs five times, each in a fresh process, and
``setup_s`` is their median. Jobs then run back to back until ``--seconds``
have passed, and every job's output is checked.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` each job runs once untraced and
once with span wrappers installed, and the line carries the per-layer
metrics. Full results, with the environment stamp, go to
``.perfbench_out/`` in the checkout. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
ORIGINAL_RISK_THREADS = os.environ.get("RISK_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli-mix", "backtest-sweep", "mc-tail"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--sizes", choices=["full", "tiny"], default="full",
                        help="input sizes; 'tiny' is for the self-tests")
    parser.add_argument("--setup-child", metavar="WORKDIR",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_child(args) -> int:
    """One timed set-up in a fresh process: import, make inputs, fit."""
    t0 = time.perf_counter()
    import riskengine.cli  # noqa: F401  (the import is what is timed)
    import_s = time.perf_counter() - t0
    from workloads import SIZES, WORKLOADS

    workload = WORKLOADS[args.workload](ROOT, Path(args.setup_child), args.seed,
                                        SIZES[args.sizes])
    workload.write_inputs()
    print(json.dumps({"import_s": import_s}), flush=True)
    return 0


def timed_setups(args, workdir: Path) -> list[dict]:
    """Run the set-up SETUP_REPEATS times; wall time from spawn to ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--sizes", args.sizes, "--setup-child", str(workdir)]
    env = dict(os.environ)
    env.pop("RISK_THREADS", None)
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        proc.stdout.close()
        if proc.wait() != 0 or not line:
            raise RuntimeError(f"set-up failed with exit code {proc.returncode}")
        samples.append({"setup_s": wall, **json.loads(line)})
    return samples


def run_loop(workload, seconds: float, recorder) -> tuple[list[dict], float]:
    """Run jobs back to back until ``seconds`` pass: (records, wall time).

    With a recorder, each job runs untraced and then traced on the same
    input, so the two latency medians compare like with like.
    """
    records = []
    modes = (None, recorder) if recorder is not None else (None,)
    t_start = time.perf_counter()
    i = 0
    while time.perf_counter() - t_start < seconds:
        for rec in modes:
            job_id = len(records) + 1
            record = {"job": job_id, "index": i, "kind": workload.kind(i),
                      "traced": rec is not None, "ok": True}
            try:
                record.update(workload.run_job(i, rec, job_id))
            except Exception as exc:  # a failed job is counted, not fatal
                record["ok"] = False
                record["error"] = "".join(
                    traceback.format_exception_only(type(exc), exc)).strip()
            records.append(record)
        i += 1
    return records, time.perf_counter() - t_start


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten jobs beyond it: (value, pct, beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(0, n - 11)
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def end_to_end(workload, records, wall, setups) -> tuple[dict, dict]:
    done = [r for r in records if r["ok"]]
    latencies = [r["latency"] for r in done]
    if workload.name == "cli-mix":
        rss_kb = max(r["rss_kb"] for r in done)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tail_s, pct, beyond = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "job_tail_s": (tail_s, "s"),
        "jobs_per_s": (len(done) / wall, "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    detail = {"timed_jobs": len(records), "timed_wall_s": wall,
              "job_tail_percentile": pct, "jobs_beyond_tail": beyond,
              "setup_samples_s": [s["setup_s"] for s in setups]}
    return metrics, detail


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def _mean(values, default=0.0):
    values = list(values)
    return statistics.fmean(values) if values else default


def per_layer(recorder, records, setups) -> tuple[dict, dict]:
    """Per-layer metrics from the traced jobs (layers not called read 0)."""
    self_s, calls, counts = recorder.per_job()
    traced = [r for r in records if r["ok"] and r["traced"]]
    untraced = [r for r in records if r["ok"] and not r["traced"]]

    def s(name):
        return (_median(self_s.get(name, {}).values()), "s")

    def n_calls(name):
        return (_mean(calls.get(name, {}).values()), "count")

    def count(names, key, unit="count"):
        per_job = {}
        for name in names:
            for job, bucket in counts.get(name, {}).items():
                per_job[job] = per_job.get(job, 0.0) + bucket.get(key, 0.0)
        return (_mean(per_job.values()), unit)

    def ratio(name, key):
        total = sum(calls.get(name, {}).values())
        hits = sum(b.get(key, 0.0) for b in counts.get(name, {}).values())
        return (hits / total if total else 0.0, "ratio")

    rolling = [f"var_engine.rolling_var.{m}" for m in ("hs", "garch_n", "fhs")]
    if any("import_s" in r for r in traced):
        import_s = [r["import_s"] for r in traced if "import_s" in r]
    else:
        import_s = [x["import_s"] for x in setups]
    spawn = [r["latency"] - r["import_s"] - r["main_s"]
             for r in traced if "main_s" in r]
    metrics = {
        "cli.import_s": (_median(import_s), "s"),
        "cli.spawn_s": (_median(spawn), "s"),
        "cli.main.self_s": s("cli.main"),
        "data.load_csv.s": s("data.load_csv"),
        "data.load_csv.rows": count(["data.load_csv"], "rows"),
        "data.load_multi_csv.s": s("data.load_multi_csv"),
        "data.load_multi_csv.cells": count(["data.load_multi_csv"], "cells"),
        "garch.fit.s": s("garch.fit"),
        "garch.fit.calls": n_calls("garch.fit"),
        "garch.loglik.calls": n_calls("garch.loglik"),
        "garch.loglik.s": s("garch.loglik"),
        "garch.filter.s": s("garch.filter"),
        "garch.fit.converged_ratio": ratio("garch.fit", "converged"),
        "garch.fit.boundary_ratio": ratio("garch.fit", "boundary"),
        **{f"{name}.s": s(name) for name in rolling},
        "var_engine.rolling_var.forecasts": count(rolling, "forecasts"),
        "var_engine.write_var_csv.s": s("var_engine.write_var_csv"),
        "mathstat.empirical_quantile.calls": n_calls("mathstat.empirical_quantile"),
        "mathstat.empirical_quantile.s": s("mathstat.empirical_quantile"),
        "mathstat.qq_points.s": s("mathstat.qq_points"),
        "mathstat.norm_inv_cdf.calls": n_calls("mathstat.norm_inv_cdf"),
        "backtest.breaches.s": s("backtest.breaches"),
        "backtest.evaluate.s": s("backtest.evaluate"),
        "backtest.evaluate.null_ratio": ratio("backtest.evaluate", "null"),
        "montecarlo.simulate_cumulative.s": s("montecarlo.simulate_cumulative"),
        "montecarlo.term_structure.s": s("montecarlo.term_structure"),
        "montecarlo.path_steps": count(["montecarlo.simulate_cumulative"],
                                       "path_steps"),
        "montecarlo.bytes_computed": count(["montecarlo.simulate_cumulative"],
                                           "bytes_computed", "bytes"),
        "montecarlo.simulate_cumulative.threads2_s": (
            _median(r["threads2_s"] for r in traced if "threads2_s" in r), "s"),
        "connectedness.fit_var.s": s("connectedness.fit_var"),
        "connectedness.gfevd.s": s("connectedness.gfevd"),
        "connectedness.connectedness_table.s":
            s("connectedness.connectedness_table"),
        "connectedness.write.s": s("connectedness.write"),
        "trace.overhead_ratio": (
            _median(r["latency"] for r in traced)
            / _median((r["latency"] for r in untraced), 1.0), "ratio"),
    }
    detail = {"traced_jobs": len(traced), "untraced_jobs": len(untraced),
              "spans": len(recorder.start),
              "time_waited": "not applicable: one process, one client, "
                             "no layer has a queue"}
    return metrics, detail


def environment(args) -> dict:
    """Where and with what the numbers were measured."""
    import numpy as np

    from workloads import SIZES

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpu_model = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(index / "level"), read(index / "type")
        if level and kind in ("Unified", "Data"):
            caches[f"L{level}"] = read(index / "size")
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    sizes = SIZES[args.sizes]
    matrix = sizes.mc_paths * sizes.mc_horizon * 8
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sizes": args.sizes,
        "nproc": os.cpu_count(), "cpu_model": cpu_model,
        "caches_per_cpu0": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                             "MKL_NUM_THREADS")},
        "RISK_THREADS": {"caller": ORIGINAL_RISK_THREADS,
                         "jobs": "unset (library default); the traced "
                                 "mc-tail run also times RISK_THREADS=2"},
        "git_commit": commit,
        "mc_tail_arrays": {"matrix_shape": [sizes.mc_paths, sizes.mc_horizon],
                           "matrix_bytes": matrix,
                           "live_bytes": 2 * matrix,
                           "vs_cache": {k: v for k, v in caches.items()
                                        if k in ("L2", "L3")}},
    }


def report(args, metrics, detail, records) -> None:
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    for key, value in detail.items():
        print(f"  {key}: {value}")
    for r in records:
        if not r.get("ok", True):
            print(f"  job {r['job']} ({r['kind']}) failed: {r['error']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "riskengine" / "__init__.py").is_file():
        print(f"perfbench: no riskengine sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("RISK_THREADS", None)
    if args.setup_child:
        return setup_child(args)

    from tracer import Recorder
    from workloads import SIZES, WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        setups = timed_setups(args, workdir)
        workload = WORKLOADS[args.workload](ROOT, workdir, args.seed,
                                            SIZES[args.sizes])
        recorder = Recorder() if args.trace else None
        workload.prepare(recorder)
        records, wall = run_loop(workload, args.seconds, recorder)
        final_error = None
        if workload.final_check is not None:
            try:
                workload.final_check()
            except Exception as exc:
                final_error = f"{type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [r for r in records if not r["traced"]]
    if not any(r["ok"] for r in untraced):
        print("perfbench: every job failed: " + untraced[0]["error"],
              file=sys.stderr)
        return 1
    metrics, detail = end_to_end(workload, untraced, wall, setups)
    if recorder is not None:
        metrics, layer_detail = per_layer(recorder, records, setups)
        detail.update(layer_detail)
        recorder.save(OUT / f"{args.workload}-spans.npz")
    # the final repeat check counts as one more job
    failed = sum(not r["ok"] for r in records) + (final_error is not None)
    attempted = len(records) + (workload.final_check is not None)
    detail.update(final_check=final_error or "ok", attempted=attempted,
                  failed=failed, fail_ratio=failed / attempted)
    env = environment(args)
    report(args, metrics, detail, records)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").open(
            "w", encoding="utf-8") as fh:
        json.dump({"env": env, "detail": detail, "jobs": records, **result},
                  fh, indent=1)
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
