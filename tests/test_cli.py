import contextlib
import csv
import hashlib
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import warnings
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import riskengine
from riskengine.backtest import breaches
from riskengine.cli import main
from riskengine.data import load_csv
from riskengine.garch import GarchParams
from riskengine.montecarlo import simulate_garch_returns
from riskengine.var_engine import VarConfig, rolling_var

PARAMS = GarchParams(omega=2e-6, alpha=0.10, beta=0.85)


def _returns_csv(tmp_path, n=700, seed=1, name="returns.csv", params=PARAMS,
                 scale=1.0):
    values = scale * simulate_garch_returns(params, n, seed=seed)
    path = tmp_path / name
    rows = ["date,return"]
    rows += [f"{date.fromordinal(735000 + i).isoformat()},{float(v)!r}"
             for i, v in enumerate(values)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path, values


def _multi_csv(tmp_path, n=10_000, seed=2, name="multi.csv", scale=1.0):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, 2)) * scale
    path = tmp_path / name
    rows = ["date,us,eu"]
    rows += [f"{date.fromordinal(700000 + i).isoformat()},"
             f"{float(a)!r},{float(b)!r}" for i, (a, b) in enumerate(values)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_only_cli_binds_writers():
    # every output-file and JSON layout lives in cli.py; the analytics
    # modules compute
    modules = [importlib.import_module(f"riskengine.{name}")
               for name in ("garch", "mathstat", "var_engine", "backtest",
                            "montecarlo", "connectedness")]
    bound = [f"{module.__name__}.{attr}" for module in modules
             for attr in vars(module) if attr.startswith("write_")]
    assert bound == []
    layouts = [f"{module.__name__}.{attr}.to_dict" for module in modules
               for attr, value in vars(module).items()
               if isinstance(value, type) and "to_dict" in vars(value)]
    assert layouts == []


def test_fit_runs_without_importing_scipy(tmp_path):
    # scipy is a test-only dependency; importing it would cost each command
    # about a second
    src, _ = _returns_csv(tmp_path)
    script = (
        "import sys\n"
        "from riskengine.cli import main\n"
        f"code = main(['var', {str(src)!r}, '--method', 'all',"
        f" '--out', {str(tmp_path / 'v.csv')!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    package_root = str(Path(riskengine.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert done.stdout.strip() == "0 []"


class TestQq:
    def test_mean_match_output(self, tmp_path):
        src, values = _returns_csv(tmp_path)
        out = tmp_path / "qq.csv"
        assert main(["qq", str(src), "--mean-match", "--out", str(out)]) == 0
        rows = _read_csv(out)
        assert rows[0] == ["theoretical", "empirical"]
        assert len(rows) - 1 == len(values)

    def test_garch_mode(self, tmp_path):
        src, values = _returns_csv(tmp_path)
        out = tmp_path / "qqz.csv"
        assert main(["qq", str(src), "--garch", "--out", str(out)]) == 0
        rows = _read_csv(out)
        assert len(rows) - 1 == len(values)
        empirical = [float(r[1]) for r in rows[1:]]
        # standardized residuals of a correct fit hover around unit scale
        assert 0.5 < np.std(empirical) < 2.0

    def test_output_already_sorted(self, tmp_path):
        src, _ = _returns_csv(tmp_path)
        out = tmp_path / "qq.csv"
        main(["qq", str(src), "--mean-match", "--out", str(out)])
        rows = _read_csv(out)[1:]
        theo = [float(r[0]) for r in rows]
        emp = [float(r[1]) for r in rows]
        assert theo == sorted(theo)
        assert emp == sorted(emp)


class TestVar:
    def test_all_methods_five_columns(self, tmp_path):
        src, values = _returns_csv(tmp_path)
        out = tmp_path / "var.csv"
        code = main(["var", str(src), "--method", "all", "--level", "0.05",
                     "--window", "200", "--out", str(out)])
        assert code == 0
        rows = _read_csv(out)
        assert rows[0] == ["date", "return", "var_hs", "var_garch_n", "var_fhs"]
        assert len(rows) - 1 == len(values) - 200

    def test_level_monotonicity(self, tmp_path):
        src, _ = _returns_csv(tmp_path)
        out1 = tmp_path / "var01.csv"
        out5 = tmp_path / "var05.csv"
        main(["var", str(src), "--method", "all", "--level", "0.01",
              "--out", str(out1)])
        main(["var", str(src), "--method", "all", "--level", "0.05",
              "--out", str(out5)])
        rows1 = _read_csv(out1)[1:]
        rows5 = _read_csv(out5)[1:]
        for r1, r5 in zip(rows1, rows5):
            for col in (2, 3, 4):
                assert float(r1[col]) <= float(r5[col])

    def test_single_method(self, tmp_path):
        src, _ = _returns_csv(tmp_path)
        out = tmp_path / "var_hs.csv"
        assert main(["var", str(src), "--method", "hs", "--out", str(out)]) == 0
        assert _read_csv(out)[0] == ["date", "return", "var_hs"]

    def test_iid_series_that_nelder_mead_failed(self, tmp_path):
        # white noise on which a Nelder-Mead fit stops at its iteration cap
        # (test_garch); the certified fit must not turn it into exit 3
        src, _ = _returns_csv(tmp_path, n=10_000, seed=1059,
                              params=GarchParams(omega=1e-4, alpha=0.0, beta=0.0))
        assert main(["var", str(src), "--method", "all",
                     "--out", str(tmp_path / "var.csv")]) == 0

    def test_window_too_large(self, tmp_path):
        src, _ = _returns_csv(tmp_path, n=300)
        out = tmp_path / "var.csv"
        code = main(["var", str(src), "--method", "hs", "--window", "400",
                     "--out", str(out)])
        assert code == 2


class TestBacktest:
    def test_report_and_breach_csv_agree(self, tmp_path):
        src, values = _returns_csv(tmp_path)
        out = tmp_path / "report.json"
        code = main(["backtest", str(src), "--method", "fhs", "--level", "0.05",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert set(report) == {"breach_count", "n_obs", "frequency", "lr_uc",
                               "p_uc", "lr_ind", "p_ind", "lr_cc", "p_cc",
                               "method", "level"}
        breach_rows = _read_csv(tmp_path / "report.breaches.csv")[1:]
        assert len(breach_rows) == len(values) - 200
        freq = sum(int(r[1]) for r in breach_rows) / len(breach_rows)
        assert abs(freq - report["frequency"]) <= 1e-15

    def test_breach_rows_match_var_rows(self, tmp_path):
        src, _ = _returns_csv(tmp_path)
        var_out = tmp_path / "var.csv"
        bt_out = tmp_path / "report.json"
        main(["var", str(src), "--method", "fhs", "--out", str(var_out)])
        main(["backtest", str(src), "--method", "fhs", "--out", str(bt_out)])
        assert len(_read_csv(tmp_path / "report.breaches.csv")) == len(_read_csv(var_out))

    def test_breach_csv_round_trip_frequency(self, tmp_path):
        # an --out without a suffix still gets <stem>.breaches.csv beside it
        src, _ = _returns_csv(tmp_path, seed=79)
        out = tmp_path / "report"
        assert main(["backtest", str(src), "--method", "hs",
                     "--out", str(out)]) == 0
        expected = breaches(rolling_var(load_csv(src), None,
                                        VarConfig(method="hs")))
        lines = (tmp_path / "report.breaches.csv").read_text().splitlines()
        assert lines[0] == "date,indicator"
        rows = [line.split(",") for line in lines[1:]]
        assert [d for d, _ in rows] == [d.isoformat() for d in expected.dates]
        flags = [int(flag) for _, flag in rows]
        assert flags == expected.indicator.tolist()
        assert sum(flags) / len(flags) == json.loads(out.read_text())["frequency"]


class TestMc:
    def test_deterministic_same_seed(self, tmp_path):
        src, _ = _returns_csv(tmp_path)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["mc", str(src), "--paths", "1000", "--horizon", "5",
                "--level", "0.01", "--seed", "42"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_required(self, tmp_path):
        src, _ = _returns_csv(tmp_path)
        out = tmp_path / "mc.csv"
        with pytest.raises(SystemExit) as exc:
            main(["mc", str(src), "--out", str(out)])
        assert exc.value.code == 4

    def test_manifest_digest_matches_external_hash(self, tmp_path):
        src, _ = _returns_csv(tmp_path)
        out = tmp_path / "mc.csv"
        main(["mc", str(src), "--seed", "7", "--out", str(out)])
        manifest = json.loads((tmp_path / "mc.csv.manifest.json").read_text())
        if shutil.which("sha256sum"):
            external = subprocess.run(["sha256sum", str(src)], check=True,
                                      capture_output=True, text=True)
            expected = external.stdout.split()[0]
        else:
            expected = hashlib.sha256(src.read_bytes()).hexdigest()
        assert manifest["input_sha256"] == expected
        assert manifest["seed"] == 7
        assert manifest["command"] == "mc"

    def test_tail_too_small_exit_code(self, tmp_path):
        src, _ = _returns_csv(tmp_path)
        out = tmp_path / "mc.csv"
        code = main(["mc", str(src), "--paths", "100", "--level", "0.01",
                     "--seed", "1", "--out", str(out)])
        assert code == 5

    def test_tail_too_small_checked_before_input_is_read(self, tmp_path,
                                                         capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the input was read or fitted")

        for name in ("load_csv", "fit_garch"):
            monkeypatch.setattr(riskengine.cli, name, fail)
        src = tmp_path / "in.csv"
        src.write_text("date,return\n", encoding="utf-8")
        assert main(["mc", str(src), "--paths", "100", "--level", "0.01",
                     "--seed", "1", "--out", str(tmp_path / "mc.csv")]) == 5
        assert capsys.readouterr().err == (
            "riskengine: infeasible: 100 paths at level 0.01 leave fewer "
            "than 5 tail paths\n")

    def test_csv_layout(self, tmp_path):
        src, _ = _returns_csv(tmp_path)
        out = tmp_path / "mc.csv"
        main(["mc", str(src), "--seed", "3", "--horizon", "5", "--out", str(out)])
        rows = _read_csv(out)
        assert rows[0] == ["horizon", "var", "es"]
        assert [r[0] for r in rows[1:]] == ["1", "2", "3", "4", "5"]
        for r in rows[1:]:
            assert float(r[2]) <= float(r[1])  # es at least as extreme


class TestConnectedness:
    def test_white_noise_table(self, tmp_path):
        src = _multi_csv(tmp_path)
        out = tmp_path / "table.csv"
        code = main(["connectedness", str(src), "--order", "1",
                     "--horizon", "10", "--out", str(out)])
        assert code == 0
        rows = _read_csv(out)
        assert rows[0] == ["series", "us", "eu", "from_others"]
        for row in rows[1:3]:
            assert abs(sum(float(v) for v in row[1:3]) - 1.0) <= 1e-9
        tci_row = [r for r in rows if r[0] == "tci"][0]
        assert float(tci_row[1]) <= 5.0

    def test_edge_weights_match_table(self, tmp_path):
        src = _multi_csv(tmp_path, seed=5)
        out = tmp_path / "table.csv"
        main(["connectedness", str(src), "--out", str(out)])
        rows = _read_csv(out)
        theta = {(rows[1][0], "us"): float(rows[1][1]),
                 (rows[1][0], "eu"): float(rows[1][2]),
                 (rows[2][0], "us"): float(rows[2][1]),
                 (rows[2][0], "eu"): float(rows[2][2])}
        edges = json.loads((tmp_path / "table.edges.json").read_text())["edges"]
        assert len(edges) == 2
        for edge in edges:
            assert edge["weight"] == pytest.approx(
                theta[(edge["to"], edge["from"])], abs=1e-15)

    @pytest.mark.parametrize("horizon", [1, 1000])
    def test_edges_json_records_the_horizon(self, tmp_path, horizon):
        src = _multi_csv(tmp_path, n=500)
        out = tmp_path / "table.csv"
        assert main(["connectedness", str(src), "--horizon", str(horizon),
                     "--out", str(out)]) == 0
        payload = json.loads((tmp_path / "table.edges.json").read_text())
        assert payload["horizon"] == horizon

    def test_single_column_is_data_error(self, tmp_path):
        path = tmp_path / "one.csv"
        rows = ["date,solo"]
        rows += [f"{date.fromordinal(700000 + i).isoformat()},{i / 100}"
                 for i in range(500)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["connectedness", str(path), "--out",
                     str(tmp_path / "t.csv")]) == 2


class TestPriceInput:
    def test_prices_flag_converts(self, tmp_path):
        rng = np.random.default_rng(17)
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, size=400)))
        path = tmp_path / "prices.csv"
        rows = ["date,close"] + [
            f"{date.fromordinal(735000 + i).isoformat()},{float(p)!r}"
            for i, p in enumerate(prices)
        ]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "var.csv"
        code = main(["var", str(path), "--prices", "--value-column", "close",
                     "--method", "hs", "--out", str(out)])
        assert code == 0
        # one row lost to differencing, then the warm-up window
        assert len(_read_csv(out)) - 1 == 400 - 1 - 200


class TestExitCodes:
    def test_missing_input_file(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        missing = tmp_path / "nope.csv"
        code = main(["var", str(missing), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"riskengine: data error: no such file: {missing}\n")
        assert not out.exists()

    def test_unwritable_output_is_data_error(self, tmp_path, capsys):
        path, _ = _returns_csv(tmp_path)
        out = tmp_path / "missing" / "v.csv"
        code = main(["var", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("riskengine: data error: ")
        assert err.count("\n") == 1

    def test_rank_deficiency_is_estimation_error(self, tmp_path):
        path = tmp_path / "flat.csv"
        rows = ["date,a,b"]
        rows += [f"{date.fromordinal(700000 + i).isoformat()},1.0,{i / 97}"
                 for i in range(600)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = main(["connectedness", str(path), "--out",
                     str(tmp_path / "t.csv")])
        assert code == 3

    def test_uncertified_garch_fit_is_estimation_error(self, tmp_path, capsys):
        # all returns after the first are 0: the likelihood has no maximum
        path = tmp_path / "spike.csv"
        rows = ["date,return"]
        rows += [f"{date.fromordinal(700000 + i).isoformat()},{0.01 if i == 0 else 0.0}"
                 for i in range(300)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = main(["var", str(path), "--method", "garch-n",
                     "--out", str(tmp_path / "v.csv")])
        assert code == 3
        assert capsys.readouterr().err == (
            "riskengine: estimation error: GARCH fit has no certified optimum\n")

    def test_deterministic_outputs_without_seeds(self, tmp_path):
        src, _ = _returns_csv(tmp_path)
        for args, name in [
            (["qq", str(src), "--mean-match"], "qq{}.csv"),
            (["var", str(src), "--method", "all"], "var{}.csv"),
            (["backtest", str(src), "--method", "fhs"], "bt{}.json"),
        ]:
            out_a = tmp_path / name.format("a")
            out_b = tmp_path / name.format("b")
            assert main(args + ["--out", str(out_a)]) == 0
            assert main(args + ["--out", str(out_b)]) == 0
            assert out_a.read_bytes() == out_b.read_bytes()

    def test_bad_level_is_config_error(self, tmp_path):
        src, _ = _returns_csv(tmp_path)
        code = main(["var", str(src), "--level", "0.9",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 4

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 4

    def test_every_command_writes_manifest(self, tmp_path):
        src, _ = _returns_csv(tmp_path)
        multi = _multi_csv(tmp_path, n=3000)
        runs = [
            (["qq", str(src), "--mean-match"], "qq.csv"),
            (["var", str(src), "--method", "hs"], "var.csv"),
            (["backtest", str(src), "--method", "hs"], "bt.json"),
            (["mc", str(src), "--seed", "1"], "mc.csv"),
            (["connectedness", str(multi)], "conn.csv"),
        ]
        for args, out_name in runs:
            out = tmp_path / out_name
            assert main(args + ["--out", str(out)]) == 0
            manifest_path = tmp_path / (out_name + ".manifest.json")
            manifest = json.loads(manifest_path.read_text())
            assert manifest["version"]
            assert manifest["command"] == args[0]
            assert str(out) in manifest["outputs"]


class TestInputFaults:
    def test_oversized_field_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text("date,return\n2020-01-01," + "1" * 140_000 + "\n",
                        encoding="utf-8")
        assert main(["var", str(path), "--out", str(tmp_path / "v.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("riskengine: data error: ")
        assert "field larger than field limit" in err

    def test_non_utf8_input_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"date,return\n2020-01-01,0.1\n2020-01-02,\xff0.2\n")
        assert main(["var", str(path), "--out", str(tmp_path / "v.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("riskengine: data error: ")
        assert err.count("\n") == 1

    def test_short_row_is_data_error(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("date,return,note\n2020-01-01,0.1\n", encoding="utf-8")
        assert main(["qq", str(path), "--mean-match",
                     "--out", str(tmp_path / "q.csv")]) == 2

    @pytest.mark.parametrize("values", [[0.01] * 300, [0.1] * 300, [0.01]],
                             ids=["constant", "constant-0.1", "single-row"])
    def test_mean_match_without_spread_is_data_error(self, tmp_path, capsys,
                                                     values):
        path = tmp_path / "flat.csv"
        rows = ["date,return"] + [
            f"{date.fromordinal(735000 + i).isoformat()},{v!r}"
            for i, v in enumerate(values)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = main(["qq", str(path), "--mean-match",
                     "--out", str(tmp_path / "q.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("riskengine: data error: ")

    @pytest.mark.parametrize("argv", [["var", "--method", "garch-n"],
                                      ["mc", "--seed", "1"]], ids=["var", "mc"])
    def test_constant_series_is_data_error(self, tmp_path, capsys, argv):
        # np.var of 300 returns of 0.1 is 1.9e-34, not 0
        path = tmp_path / "flat.csv"
        rows = ["date,return"] + [
            f"{date.fromordinal(735000 + i).isoformat()},0.1" for i in range(300)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = main([argv[0], str(path), *argv[1:],
                     "--out", str(tmp_path / "out.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("riskengine: data error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, reason", [
        (["qq", "--mean-match"], "sample standard deviation underflowed to "
                                 "0.0: the returns are too small"),
        (["var", "--method", "garch-n"],
         "sample variance underflowed to 0.0 (the returns are too small); it "
         "must be finite and at least 2.2250738585072014e-308"),
    ], ids=["qq", "fit"])
    def test_underflowing_spread_is_named(self, tmp_path, capsys, argv,
                                          reason):
        # normal floats, not constant, whose squared deviations underflow
        path, _ = _returns_csv(tmp_path, n=300, scale=1e-160)
        code = main([argv[0], str(path), *argv[1:],
                     "--out", str(tmp_path / "out.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"riskengine: data error: {reason}\n"

    @pytest.mark.parametrize("argv", [
        ["mc", "--paths", "1000000000", "--seed", "1"],
        ["mc", "--paths", "100000000", "--horizon", "250", "--seed", "1"],
        ["connectedness", "--horizon", "100000000"],
    ], ids=["mc-paths", "mc-paths-horizon", "connectedness-horizon"])
    def test_oversized_request_is_config_error_at_once(self, tmp_path, capsys,
                                                      argv):
        if argv[0] == "connectedness":
            src = _multi_csv(tmp_path, n=500)
        else:
            src, _ = _returns_csv(tmp_path, n=400)
        start = time.perf_counter()
        code = main([argv[0], str(src), *argv[1:], "--out", str(tmp_path / "o.csv")])
        assert time.perf_counter() - start < 1.0
        assert code == 4
        assert capsys.readouterr().err.startswith("riskengine: config error: ")

    def test_connectedness_horizon_checked_before_panel_is_read(
            self, tmp_path, capsys, monkeypatch):
        def read(*args, **kwargs):
            raise AssertionError("the panel was read")

        monkeypatch.setattr(riskengine.cli, "load_multi_csv", read)
        src = _multi_csv(tmp_path, n=500, name="in.csv")
        assert main(["connectedness", str(src), "--horizon", "100000000",
                     "--out", str(tmp_path / "t.csv")]) == 4
        assert capsys.readouterr().err == (
            "riskengine: config error: horizon must lie in 1..1000, "
            "got 100000000\n")

    @pytest.mark.parametrize("argv, message", [
        (["var", "--level", "0.9"], "level must lie in (0, 0.5), got 0.9"),
        (["var", "--method", "hs", "--window", "10"],
         "window must be >= 20, got 10"),
        (["backtest", "--level", "0.9"], "level must lie in (0, 0.5), got 0.9"),
        (["backtest", "--window", "19"], "window must be >= 20, got 19"),
        (["connectedness", "--order", "0"], "order must be >= 1, got 0"),
        (["mc", "--seed", "1", "--paths", "268435456", "--horizon", "1",
          "--level", "0.49"],
         "tail paths (ceil(paths x level)) must be at most 16777216 at "
         "horizon 1, got 131533374"),
    ], ids=["var-level", "var-window", "backtest-level", "backtest-window",
            "connectedness-order", "mc-tail-cells"])
    def test_options_checked_before_input_is_read(self, tmp_path, capsys,
                                                  monkeypatch, argv, message):
        def fail(*args, **kwargs):
            raise AssertionError("the input was read or fitted")

        for name in ("load_csv", "load_multi_csv", "fit_garch"):
            monkeypatch.setattr(riskengine.cli, name, fail)
        src = tmp_path / "in.csv"
        src.write_text("date,return\n", encoding="utf-8")
        assert main([argv[0], str(src), *argv[1:],
                     "--out", str(tmp_path / "o.csv")]) == 4
        assert capsys.readouterr().err == f"riskengine: config error: {message}\n"

    def test_memory_error_is_config_error(self, tmp_path, capsys,
                                          monkeypatch):
        def exhaust(args):
            raise MemoryError("Unable to allocate 8.00 GiB")

        monkeypatch.setitem(riskengine.cli._DISPATCH, "var", exhaust)
        src, _ = _returns_csv(tmp_path, n=300)
        assert main(["var", str(src), "--out", str(tmp_path / "v.csv")]) == 4
        assert capsys.readouterr().err == (
            "riskengine: config error: out of memory: "
            "Unable to allocate 8.00 GiB\n")

    @pytest.mark.parametrize("flag", ["--order", "--horizon"])
    def test_connectedness_zero_is_config_error(self, tmp_path, flag):
        src = _multi_csv(tmp_path, n=500)
        assert main(["connectedness", str(src), flag, "0",
                     "--out", str(tmp_path / "t.csv")]) == 4

    def test_connectedness_underflowing_panel_is_data_error(self, tmp_path,
                                                            capsys):
        # the squared deviations underflow, so np.std reads 0 on series that
        # are not constant: out of float range, not rank-deficient
        src = _multi_csv(tmp_path, n=600, scale=1e-200)
        assert main(["connectedness", str(src),
                     "--out", str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr().err.startswith("riskengine: data error: ")


class TestManifestConfig:
    @pytest.mark.parametrize("args, config", [
        (["qq", "--garch"],
         {"mode": "garch", "date_column": "date", "value_column": "return",
          "prices": False}),
        (["qq", "--mean-match"],
         {"mode": "mean-match", "date_column": "date",
          "value_column": "return", "prices": False}),
        (["var", "--method", "garch-n", "--window", "150"],
         {"method": "garch_n", "level": 0.05, "window": 150,
          "date_column": "date", "value_column": "return", "prices": False}),
        (["backtest", "--method", "hs", "--level", "0.01"],
         {"method": "hs", "level": 0.01, "window": 200,
          "date_column": "date", "value_column": "return", "prices": False}),
        (["mc", "--seed", "9", "--innovation", "fhs", "--paths", "500"],
         {"innovation": "fhs", "paths": 500, "horizon": 5, "level": 0.01,
          "date_column": "date", "value_column": "return", "prices": False}),
        (["connectedness", "--order", "2"],
         {"order": 2, "horizon": 10, "date_column": "date"}),
    ], ids=["qq-garch", "qq-mean-match", "var", "backtest", "mc",
            "connectedness"])
    def test_exact_config(self, tmp_path, args, config):
        if args[0] == "connectedness":
            src = _multi_csv(tmp_path, n=500)
        else:
            src, _ = _returns_csv(tmp_path, n=400)
        out = tmp_path / "out.csv"
        assert main([args[0], str(src), *args[1:], "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        assert manifest["config"] == config
        assert manifest["seed"] == (9 if args[0] == "mc" else None)

    def test_hashes_input_that_out_overwrites(self, tmp_path):
        src, _ = _returns_csv(tmp_path)
        expected = hashlib.sha256(src.read_bytes()).hexdigest()
        assert main(["var", str(src), "--method", "hs", "--out", str(src)]) == 0
        assert _read_csv(src)[0] == ["date", "return", "var_hs"]
        manifest = json.loads((tmp_path / "returns.csv.manifest.json").read_text())
        assert manifest["input_sha256"] == expected


# valid values are listed several times so most runs get past validation
_LEVEL = st.sampled_from(["0.01", "0.05", "0.3"] * 3 + ["0.5", "-1"])
_WINDOW = st.sampled_from(["20", "50", "200"] * 3 + ["1"])


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["qq", "var", "backtest", "mc",
                                    "connectedness"]))
    if command == "qq":
        flags = [draw(st.sampled_from(["--mean-match", "--garch"]))]
    elif command == "var":
        flags = ["--method", draw(st.sampled_from(["hs", "garch-n", "fhs", "all"])),
                 "--level", draw(_LEVEL), "--window", draw(_WINDOW)]
    elif command == "backtest":
        flags = ["--method", draw(st.sampled_from(["hs", "garch-n", "fhs"])),
                 "--level", draw(_LEVEL), "--window", draw(_WINDOW)]
    elif command == "mc":
        flags = ["--innovation", draw(st.sampled_from(["normal", "fhs"])),
                 "--paths", draw(st.sampled_from(["50", "100", "1000", "1000000000"])),
                 "--horizon", draw(st.sampled_from(["1", "5"] * 3 + ["0", "251"])),
                 "--level", draw(_LEVEL),
                 "--seed", draw(st.sampled_from(["0", "7"] * 3 + ["-1", str(2**64)]))]
    else:
        return [command, "--order", draw(st.sampled_from(["1", "2"] * 3 + ["0"])),
                "--horizon", draw(st.sampled_from(["1", "10"] * 3 + ["0", "100000000"]))]
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        flags.append("--prices")
    return [command, *flags]


@st.composite
def _csv_bytes(draw):
    # at least half the files are long enough for a GARCH fit (250 rows)
    n = draw(st.one_of(st.integers(min_value=1, max_value=400),
                       st.integers(min_value=250, max_value=400)))
    scale = 10.0 ** draw(st.integers(min_value=-300, max_value=308))
    loc = draw(st.sampled_from([0.0] * 3 + [1.0, 1e150, 1e154]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    values = (loc + rng.standard_normal((n, 2)) * scale).tolist()
    if draw(st.booleans()):  # positive, so --prices can take them
        values = [[abs(a) + scale, abs(b) + scale] for a, b in values]
    lines = [f"{date.fromordinal(735000 + i).isoformat()},{a!r},{b!r}"
             for i, (a, b) in enumerate(values)]
    fault = draw(st.sampled_from(
        [None] * 10 + ["ragged", "duplicate", "text", "blank", "bad-byte"]))
    at = draw(st.integers(min_value=0, max_value=n - 1))
    if fault == "ragged":
        lines[at] = lines[at].rsplit(",", 1)[0]
    elif fault == "duplicate":
        lines.insert(at, lines[at])
    elif fault == "text":
        lines[at] = lines[at].split(",")[0] + ",n/a," + lines[at].split(",")[2]
    elif fault == "blank":
        lines.insert(at, "")
    data = ("date,return,b\n" + "\n".join(lines) + "\n").encode("utf-8")
    if fault == "bad-byte":
        cut = draw(st.integers(min_value=0, max_value=len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    return data


# finite values whose variance sums overflow to +inf and -inf, then cancel
# to nan
_ALTERNATING = ("date,return\n" + "".join(
    f"{date.fromordinal(735000 + i).isoformat()},{(-1) ** i * 1e308!r}\n"
    for i in range(600))).encode("utf-8")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=_argv(), data=_csv_bytes())
@example(argv=["qq", "--mean-match"], data=_ALTERNATING)
@example(argv=["qq", "--garch"], data=_ALTERNATING)
@example(argv=["var", "--method", "garch-n"], data=_ALTERNATING)
@example(argv=["backtest", "--method", "fhs"], data=_ALTERNATING)
@example(argv=["mc", "--seed", "7"], data=_ALTERNATING)
def test_every_input_ends_in_a_documented_exit_code(argv, data):
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "in.csv"
        src.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main([argv[0], str(src), *argv[1:],
                             "--out", str(Path(tmp) / "out.csv")])
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 2, 3, 4, 5)
    if code != 0:
        assert err.getvalue().count("\n") == 1
        assert err.getvalue().startswith("riskengine")
    assert [str(w.message) for w in caught] == []


def _floats(path, first_column):
    return np.array([[float(v) for v in row[first_column:]]
                     for row in _read_csv(path)[1:]])


@settings(max_examples=8, deadline=None, derandomize=True)
@given(params=st.sampled_from([PARAMS, GarchParams(omega=1e-4, alpha=0.0, beta=0.0)]),
       seed=st.integers(min_value=0, max_value=2**32),
       innovation=st.sampled_from(["normal", "fhs"]),
       c=st.integers(min_value=-400, max_value=400).map(lambda k: 2.0 ** k))
def test_var_and_mc_scale_by_a_power_of_two(params, seed, innovation, c):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        outputs = {}
        for name, scale in (("base", 1.0), ("scaled", c)):
            src, _ = _returns_csv(tmp, n=400, seed=seed, params=params,
                                  scale=scale, name=f"{name}.csv")
            var_out, mc_out = tmp / f"{name}.var.csv", tmp / f"{name}.mc.csv"
            assert main(["var", str(src), "--method", "all", "--out", str(var_out)]) == 0
            assert main(["mc", str(src), "--seed", "5", "--innovation", innovation,
                         "--out", str(mc_out)]) == 0
            outputs[name] = (_floats(var_out, 1), _floats(mc_out, 1))
    for base, scaled in zip(outputs["base"], outputs["scaled"]):
        assert np.array_equal(scaled, base * c)
