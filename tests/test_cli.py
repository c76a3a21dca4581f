import dataclasses
import json
import math
import os
import shutil
from pathlib import Path

import pytest

from nsconst import reports, verify
from nsconst.cli import main
from nsconst.flatsums import thread_count
from nsconst.reports import job_key, report_csv, report_json, upper_report_dict
from nsconst.tables import TABLE_E


class TestExitCodes:
    def test_regime_error_is_two(self, capsys):
        code = main(["upper", "--kind", "K", "--p", "2", "--n", "1", "--d", "3", "--rho", "20"])
        assert code == 2
        assert "out of regime" in capsys.readouterr().err

    def test_oracle_passes(self, capsys):
        code = main(["oracle", "--d", "3", "--samples", "10", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_oracle_planar_round_off_mean(self, capsys):
        # products with a round-off mean coefficient no longer abort the checks
        assert main(["oracle", "--d", "2", "--samples", "50", "--seed", "0"]) == 0
        assert "[FAIL]" not in capsys.readouterr().out

    def test_limits_output(self, capsys):
        code = main(["limits", "--kind", "K", "--n", "3", "--d", "3", "--p-list", "100,1000"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1] == "p,lower_root,upper_root"
        p, lo, hi = lines[2].split(",")
        assert float(lo) < 2.0 < float(hi) + 0.02


class TestLowerJobs:
    def test_lower_k_report(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("NSCONST_CACHE_DIR", str(tmp_path / "cache"))
        code = main(["lower", "--kind", "K", "--p", "2", "--n", "2", "--d", "3"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["result"]["rounded"] == 0.126
        assert rep["intermediates"]["heuristic_ell"] == 1

    def test_cache_round_trip(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("NSCONST_CACHE_DIR", str(tmp_path / "cache"))
        argv = ["lower", "--kind", "G", "--p", "3", "--n", "3", "--d", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second  # byte-identical via the cache
        assert list((tmp_path / "cache").glob("*.json"))

    def test_corrupt_cache_recovers(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("NSCONST_CACHE_DIR", str(tmp_path / "cache"))
        argv = ["lower", "--kind", "K", "--p", "3", "--n", "2", "--d", "3"]
        assert main(argv) == 0
        capsys.readouterr()
        for f in (tmp_path / "cache").glob("*.json"):
            f.write_text("{broken")
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "corrupt cache" in captured.err
        assert json.loads(captured.out)["result"]["rounded"] == 0.179

    def test_cache_dir_flag_leaves_environment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("NSCONST_CACHE_DIR", str(tmp_path / "env"))
        before = dict(os.environ)
        argv = ["lower", "--kind", "K", "--p", "2", "--n", "2", "--d", "3"]
        assert main(argv + ["--cache-dir", str(tmp_path / "flag")]) == 0
        assert dict(os.environ) == before
        assert list((tmp_path / "flag").glob("*.json"))
        # a later call without the flag uses NSCONST_CACHE_DIR again
        assert main(argv) == 0
        assert list((tmp_path / "env").glob("*.json"))


    def test_lower_g_csv(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("NSCONST_CACHE_DIR", str(tmp_path / "cache"))
        out = tmp_path / "row.csv"
        code = main(
            ["lower", "--kind", "G", "--p", "3", "--n", "3", "--d", "3", "--csv", str(out)]
        )
        assert code == 0
        header, row = out.read_text().strip().splitlines()
        assert header == "p,n,ell,lam,mu,nu,final"
        cells = row.split(",")
        assert cells[:3] == ["3", "3", "1"]
        assert float(cells[3]) == pytest.approx(0.388104, rel=1e-3)
        assert float(cells[4]) == pytest.approx(0.084359, rel=1e-3)
        assert float(cells[5]) == pytest.approx(0.0135851, rel=1e-3)
        assert cells[6] == "0.121"


class TestCacheKey:
    SETTINGS = {"command": "lower", "kind": "G", "p": 3.0, "n": 3.0, "d": 3,
                "rho": None, "mu": 2.0, "m": 6, "no_symmetry": False}

    def test_stable_for_fixed_sources(self, monkeypatch):
        monkeypatch.setattr(reports, "source_digest", lambda: "0" * 64)
        key = job_key(self.SETTINGS)
        assert job_key(dict(reversed(self.SETTINGS.items()))) == key
        assert job_key(dict(self.SETTINGS)) == key

    def test_source_change_changes_key(self, monkeypatch):
        monkeypatch.setattr(reports, "source_digest", lambda: "0" * 64)
        key = job_key(self.SETTINGS)
        monkeypatch.setattr(reports, "source_digest", lambda: "1" * 64)
        assert job_key(self.SETTINGS) != key

    def test_digest_follows_sources(self, tmp_path, monkeypatch):
        original = reports.source_digest()
        copy = tmp_path / "nsconst"
        shutil.copytree(Path(reports.__file__).parent, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(reports, "__file__", str(copy / "reports.py"))
        digest = reports.source_digest.__wrapped__  # bypass the per-process memo
        assert digest() == original
        (copy / "tables.py").write_text((copy / "tables.py").read_text() + "# edited\n")
        assert digest() != original

class TestJsonRoundTrip:
    def test_report_parses_back(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("NSCONST_CACHE_DIR", str(tmp_path / "cache"))
        out = tmp_path / "rep.json"
        assert main(["lower", "--kind", "K", "--p", "4", "--n", "3", "--d", "3",
                     "--json", str(out)]) == 0
        stdout_rep = json.loads(capsys.readouterr().out)
        file_rep = json.loads(out.read_text())
        assert stdout_rep == file_rep
        assert json.loads(report_json(file_rep)) == file_rep


class TestUpperCsv:
    def test_published_row_layout(self, desk_upper):
        rep = upper_report_dict(desk_upper("K", 2, 2), thread_count())
        text = report_csv(rep)
        header, row = text.strip().splitlines()
        assert header == "p,n,rho,max_flat,kmax,farfield,delta,final"
        cells = row.split(",")
        assert cells[0:3] == ["2", "2", "20"]
        assert cells[3] == "22.0223"
        assert cells[4] == "(9 9 9)"
        assert float(cells[5]) == pytest.approx(21.6447, rel=1e-2)
        assert float(cells[6]) == pytest.approx(5.68568, rel=1e-4)
        assert cells[7] == "0.335"


class TestUpperEndToEnd:
    def test_small_cutoff_job(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("NSCONST_CACHE_DIR", str(tmp_path / "cache"))
        csv_path = tmp_path / "row.csv"
        argv = ["upper", "--kind", "K", "--p", "2", "--n", "2", "--d", "3",
                "--rho", "6", "--csv", str(csv_path)]
        assert main(argv) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["meta"]["rho"] == 6.0
        assert rep["result"]["rounded"] >= rep["result"]["raw"]
        assert rep["intermediates"]["farfield_bound"] >= rep["intermediates"]["farfield"]
        header, row = csv_path.read_text().strip().splitlines()
        assert header.startswith("p,n,rho")
        # cached second run emits the identical report
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == rep


class TestVerifyTables:
    def test_lower_tables_pass(self, capsys):
        code = main(["verify-tables", "--tables", "E,F"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "[FAIL]" not in out
        assert "failed" in out.splitlines()[-1]

    def test_unknown_table_is_two(self, capsys):
        assert main(["verify-tables", "--tables", "X"]) == 2
        captured = capsys.readouterr()
        assert "--tables takes names from C,D,E,F,anchors, got 'X'" in captured.err
        assert captured.out == ""

    def test_wrong_row_fails(self, capsys, monkeypatch):
        wrong = dataclasses.replace(TABLE_E[0], family="0.0810")
        monkeypatch.setattr(verify, "TABLE_E", (wrong,))
        assert main(["verify-tables", "--tables", "E"]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert "[FAIL] table E (2,2) family: expected 0.0810, got 0.0809" in lines
        assert lines[-1] == "# 3 passed, 1 failed"


class TestThreadCount:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("NSCONST_THREADS", "3")
        assert thread_count() == 3
        assert thread_count(5) == 5
        monkeypatch.setenv("NSCONST_THREADS", "bogus")
        assert thread_count() >= 1


class TestModeFlags:
    def test_rough_log_domain(self, capsys):
        assert main(["rough", "--kind", "K", "--p", "5000", "--n", "3", "--log-domain"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert "rough_upper" not in rep["result"]
        assert rep["result"]["log_rough_upper"] > 3000

    def test_asymptotics_report(self, capsys):
        assert main(["asymptotics", "--kind", "K", "--p", "100", "--n", "3"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert 0 < rep["result"]["lower"] < math.inf
        assert rep["result"]["pth_root"] < 2.0
