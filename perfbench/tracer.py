"""Span recorder for the traced benchmark run.

The recorder replaces riskengine's public functions with timing wrappers at
the name the caller looks up (``riskengine.cli.fit_garch``,
``riskengine.garch.loglik``, ...), keeps one span per call in memory and
restores the originals on :meth:`Recorder.uninstall`. A span is (name,
start, end, parent, job); a layer's self time is its span's duration minus
the time its child spans cover.

Spans are recorded on the calling thread with one shared stack, so wrapped
functions must not run on several threads at once. riskengine's only threads
run ``montecarlo._simulate_block``, which is private and never wrapped.

This module imports only the standard library at load time, so the traced
CLI entry script can time ``import riskengine.cli`` after importing it.
"""

from __future__ import annotations

import importlib
import time
from array import array

# span name -> the module attributes it replaces (module, attribute).
# Each attribute is the name some caller looks up at call time.
LAYERS = (
    ("cli.main", (("riskengine.cli", "main"),)),
    ("data.load_csv", (("riskengine.cli", "load_csv"),
                       ("riskengine.data", "load_csv"))),
    ("data.load_multi_csv", (("riskengine.cli", "load_multi_csv"),
                             ("riskengine.data", "load_multi_csv"))),
    ("garch.fit", (("riskengine.cli", "fit_garch"),
                   ("riskengine.garch", "fit"))),
    ("garch.loglik", (("riskengine.garch", "loglik"),)),
    ("garch.filter", (("riskengine.garch", "filter"),)),
    ("var_engine.rolling_var", (("riskengine.cli", "rolling_var"),
                                ("riskengine.var_engine", "rolling_var"))),
    ("var_engine.write_var_csv", (("riskengine.cli", "write_var_csv"),)),
    ("mathstat.empirical_quantile", (("riskengine.var_engine",
                                      "empirical_quantile"),)),
    ("mathstat.qq_points", (("riskengine.cli", "qq_points"),)),
    ("mathstat.norm_inv_cdf", (("riskengine.mathstat", "norm_inv_cdf"),
                               ("riskengine.var_engine", "norm_inv_cdf"))),
    ("backtest.breaches", (("riskengine.cli", "breaches"),
                           ("riskengine.backtest", "breaches"))),
    ("backtest.evaluate", (("riskengine.cli", "evaluate"),
                           ("riskengine.backtest", "evaluate"))),
    ("montecarlo.simulate_cumulative", (("riskengine.montecarlo",
                                         "simulate_cumulative"),)),
    ("montecarlo.term_structure", (("riskengine.montecarlo",
                                    "term_structure"),)),
    ("connectedness.fit_var", (("riskengine.cli", "fit_var"),
                               ("riskengine.connectedness", "fit_var"))),
    ("connectedness.gfevd", (("riskengine.connectedness", "gfevd"),)),
    ("connectedness.connectedness_table", (("riskengine.cli",
                                            "connectedness_table"),
                                           ("riskengine.connectedness",
                                            "connectedness_table"))),
    ("connectedness.write", (("riskengine.cli", "write_table_csv"),
                             ("riskengine.cli", "write_edges_json"))),
)

# Fits this close to a parameter bound count as boundary fits.
BOUNDARY_TOL = 1e-8
PERSISTENCE_TOL = 1e-4


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _rolling_var_name(args, kwargs):
    return f"var_engine.rolling_var.{_arg(args, kwargs, 2, 'cfg').method}"


def _fit_counts(result):
    p = result.params
    boundary = (min(p.alpha, p.beta) < BOUNDARY_TOL
                or p.alpha + p.beta > 1.0 - PERSISTENCE_TOL)
    return {"converged": float(result.converged), "boundary": float(boundary)}


def _mc_counts(args, kwargs):
    cfg = _arg(args, kwargs, 1, "cfg")
    steps = cfg.n_paths * cfg.horizon
    # the innovation matrix and the output matrix, float64 each, from shapes
    return {"path_steps": float(steps), "bytes_computed": float(2 * 8 * steps)}


# span name -> callable(args, kwargs) giving the span name at call time
DYNAMIC_NAMES = {"var_engine.rolling_var": _rolling_var_name}
# span name -> callable(result) giving counts recorded with the span
RESULT_COUNTS = {
    "data.load_csv": lambda res: {"rows": float(len(res))},
    "data.load_multi_csv": lambda res: {"cells": float(res.values.size)},
    "garch.fit": _fit_counts,
    "var_engine.rolling_var": lambda res: {"forecasts": float(len(res))},
    "backtest.evaluate": lambda res: {"null": float(res.lr_ind is None)},
}
# span name -> callable(args, kwargs) giving counts recorded with the span
ARG_COUNTS = {"montecarlo.simulate_cumulative": _mc_counts}


class Recorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.counts: list[tuple[int, str, float]] = []  # (span, key, value)
        self.current_job = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, span_name: str, fn):
        dynamic = DYNAMIC_NAMES.get(span_name)
        result_counts = RESULT_COUNTS.get(span_name)
        arg_counts = ARG_COUNTS.get(span_name)
        fixed_id = self.name_id(span_name)
        names, starts, ends = self.name, self.start, self.end
        parents, jobs, stack = self.parent, self.job, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(self.name_id(dynamic(args, kwargs)) if dynamic
                         else fixed_id)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.current_job)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if result_counts:
                for key, value in result_counts(result).items():
                    self.counts.append((idx, key, value))
            if arg_counts:
                for key, value in arg_counts(args, kwargs).items():
                    self.counts.append((idx, key, value))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Replace every attribute in LAYERS with a recording wrapper."""
        if self._saved:
            raise RuntimeError("wrappers already installed")
        for span_name, sites in LAYERS:
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(span_name, original))

    def uninstall(self) -> None:
        """Put the original functions back."""
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        self._stack.clear()

    def add_span(self, name: str, start: float, end: float, job: int) -> None:
        """Record a span measured outside the wrappers, with no parent."""
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(-1)
        self.job.append(job)

    def merge(self, other: dict, job: int) -> None:
        """Append spans saved by another process, under this recorder's job id."""
        offset = len(self.start)
        remap = [self.name_id(n) for n in other["names"]]
        self.name.extend(remap[i] for i in other["name"])
        self.start.extend(other["start"])
        self.end.extend(other["end"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in other["parent"])
        self.job.extend(job for _ in other["name"])
        self.counts.extend((i + offset, k, v) for i, k, v in other["counts"])

    def to_dict(self) -> dict:
        return {
            "names": list(self.names),
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "job": self.job.tolist(),
            "counts": list(self.counts),
        }

    def save(self, path) -> None:
        """Write every span as arrays (numpy .npz), names and counts included."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.array(self.name, dtype=np.int64),
            start=np.array(self.start), end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int64),
            job=np.array(self.job, dtype=np.int64),
            count_span=np.array([c[0] for c in self.counts], dtype=np.int64),
            count_key=np.array([c[1] for c in self.counts], dtype=str),
            count_value=np.array([c[2] for c in self.counts]),
        )

    def per_job(self):
        """Self time, call count and summed counts per (job, span name).

        Returns three dicts keyed by span name, each mapping job id to a
        value: self seconds, number of calls, and {count key: sum}.
        """
        import numpy as np

        n = len(self.start)
        if n == 0:
            return {}, {}, {}
        start = np.array(self.start)
        end = np.array(self.end)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        self_time = dur - child
        names = np.array(self.name, dtype=np.int64)
        jobs = np.array(self.job, dtype=np.int64)
        self_s: dict[str, dict[int, float]] = {}
        calls: dict[str, dict[int, int]] = {}
        for name_id, name in enumerate(self.names):
            mask = names == name_id
            if not mask.any():
                continue
            job_ids, inverse = np.unique(jobs[mask], return_inverse=True)
            sums = np.bincount(inverse, weights=self_time[mask])
            cnt = np.bincount(inverse)
            self_s[name] = dict(zip(job_ids.tolist(), sums.tolist()))
            calls[name] = dict(zip(job_ids.tolist(), cnt.tolist()))
        counts: dict[str, dict[int, dict[str, float]]] = {}
        for idx, key, value in self.counts:
            per = counts.setdefault(self.names[self.name[idx]], {})
            bucket = per.setdefault(self.job[idx], {})
            bucket[key] = bucket.get(key, 0.0) + value
        return self_s, calls, counts
