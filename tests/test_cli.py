import csv
import hashlib
import json
import shutil
import subprocess
from datetime import date

import numpy as np
import pytest

from riskengine.cli import main
from riskengine.garch import GarchParams
from riskengine.montecarlo import simulate_garch_returns

PARAMS = GarchParams(omega=2e-6, alpha=0.10, beta=0.85)


def _returns_csv(tmp_path, n=700, seed=1, name="returns.csv"):
    values = simulate_garch_returns(PARAMS, n, seed=seed)
    path = tmp_path / name
    rows = ["date,return"]
    rows += [f"{date.fromordinal(735000 + i).isoformat()},{float(v)!r}"
             for i, v in enumerate(values)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path, values


def _multi_csv(tmp_path, n=10_000, seed=2, name="multi.csv"):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, 2))
    path = tmp_path / name
    rows = ["date,us,eu"]
    rows += [f"{date.fromordinal(700000 + i).isoformat()},"
             f"{float(a)!r},{float(b)!r}" for i, (a, b) in enumerate(values)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


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
        for key in ("frequency", "lr_uc", "lr_ind", "lr_cc", "p_uc", "p_ind",
                    "p_cc", "breach_count"):
            assert key in report
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
    def test_missing_input_file(self, tmp_path):
        out = tmp_path / "x.csv"
        code = main(["var", str(tmp_path / "nope.csv"), "--out", str(out)])
        assert code == 2

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
