"""The benchmark tracer's view of the package.

``perfbench/tracer.py`` replaces riskengine functions by the names its
callers look up, with ``getattr`` and no default, so a name it wraps that
leaves the package crashes every traced benchmark run.
"""

import importlib
from datetime import date
from pathlib import Path

import riskengine.cli as cli
from riskengine.garch import GarchParams
from riskengine.montecarlo import simulate_garch_returns

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_layer_resolves_and_is_restored(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")  # the standard library only
    sites = [(importlib.import_module(module), attr)
             for _, group in tracer.LAYERS for module, attr in group]
    missing = [f"{module.__name__}.{attr}" for module, attr in sites
               if not hasattr(module, attr)]
    assert missing == []
    originals = [getattr(module, attr) for module, attr in sites]

    values = simulate_garch_returns(GarchParams(2e-6, 0.10, 0.85), 700, seed=1)
    src = tmp_path / "returns.csv"
    src.write_text("date,return\n" + "".join(
        f"{date.fromordinal(735000 + i).isoformat()},{float(v)!r}\n"
        for i, v in enumerate(values)), encoding="utf-8")
    recorder = tracer.Recorder()
    recorder.install()
    try:
        code = cli.main(["var", str(src), "--method", "all",
                         "--out", str(tmp_path / "var.csv")])
    finally:
        recorder.uninstall()
    assert code == 0
    assert all(getattr(module, attr) is original
               for (module, attr), original in zip(sites, originals))
    _, _, counts = recorder.per_job()
    for method in ("hs", "garch_n", "fhs"):
        assert counts[f"var_engine.rolling_var.{method}"] == {
            0: {"forecasts": 500.0}}
