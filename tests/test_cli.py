"""The command-line front end: fixtures through every subcommand, the JSON
schema, exit codes, and determinism of the verification output."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gramdist
from gramdist.cli import main

SCHEMA_KEYS = {"command", "inputs", "results", "deviations", "exit_semantics"}


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


@pytest.fixture
def dist_files(tmp_path):
    a = write(tmp_path, "a.csv", "c1\n1\n1\n")
    b = write(tmp_path, "b.csv", "v\n0\n2\n")
    return a, b


@pytest.fixture
def regress_file(tmp_path):
    return write(tmp_path, "d.csv", "x,y\n1,1\n2,2\n3,2\n4,3\n")


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def line_value(out, key):
    for line in out.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"no line {key!r} in output:\n{out}")


class TestDist:
    def test_hand_fixture_text(self, capsys, dist_files):
        a, b = dist_files
        code, out = run(capsys, ["dist", "--matrix", a, "--vector", b])
        assert code == 0
        for key in ("distance_det", "distance_projection", "distance_qr"):
            assert abs(float(line_value(out, key)) - math.sqrt(2)) < 1e-7

    def test_vector_equal_to_first_column(self, capsys, tmp_path):
        a = write(tmp_path, "a.csv", "c1,c2\n1,2\n1,3\n1,5\n")
        b = write(tmp_path, "b.csv", "v\n1\n1\n1\n")
        code, out = run(capsys, ["dist", "--matrix", a, "--vector", b])
        assert code == 0
        for key in ("distance_det", "distance_projection", "distance_qr"):
            assert float(line_value(out, key)) <= 1e-12

    def test_rank_deficient_still_reports_qr(self, capsys, tmp_path):
        a = write(tmp_path, "a.csv", "c1,c2\n1,1\n1,1\n1,1\n")
        b = write(tmp_path, "b.csv", "v\n1\n0\n0\n")
        code, out = run(capsys, ["dist", "--matrix", a, "--vector", b])
        assert code == 2
        assert line_value(out, "distance_det") == "undefined"
        got = float(line_value(out, "distance_qr"))
        assert abs(got - math.sqrt(2.0 / 3.0)) < 1e-12

    def test_json_schema_and_value_parity(self, capsys, dist_files):
        a, b = dist_files
        _, out_text = run(capsys, ["dist", "--matrix", a, "--vector", b])
        _, out_json = run(capsys, ["dist", "--matrix", a, "--vector", b, "--format", "json"])
        doc = json.loads(out_json)
        assert set(doc) == SCHEMA_KEYS
        for key in ("distance_det", "distance_projection", "distance_qr"):
            assert float(line_value(out_text, key)) == doc["results"][key]

    def test_square_matrix_reports_two_routes(self, capsys, tmp_path):
        a = write(tmp_path, "a.csv", "c1,c2\n2,1\n1,3\n")
        b = write(tmp_path, "b.csv", "v\n5\n-1\n")
        code, out = run(capsys, ["dist", "--matrix", a, "--vector", b])
        assert code == 0
        assert float(line_value(out, "distance_det")) <= 1e-12
        assert float(line_value(out, "distance_projection")) <= 1e-12
        assert line_value(out, "distance_qr") == "undefined"

    def test_bad_vector_width(self, capsys, tmp_path):
        a = write(tmp_path, "a.csv", "c1\n1\n1\n")
        b = write(tmp_path, "b.csv", "u,v\n0,1\n2,3\n")
        code, _ = run(capsys, ["dist", "--matrix", a, "--vector", b])
        assert code == 1

    def test_missing_file(self, capsys, tmp_path):
        code, _ = run(capsys, ["dist", "--matrix", str(tmp_path / "no.csv"), "--vector", str(tmp_path / "no2.csv")])
        assert code == 1

    def test_complex_cells_end_to_end(self, capsys, tmp_path):
        # the column space of (1, i) and b = (i, 1): b = i * column, so every
        # route must report distance zero
        a = write(tmp_path, "a.csv", "c1\n1\n1i\n")
        b = write(tmp_path, "b.csv", "v\n1i\n-1\n")
        code, out = run(capsys, ["dist", "--matrix", a, "--vector", b])
        assert code == 0
        for key in ("distance_det", "distance_projection", "distance_qr"):
            assert float(line_value(out, key)) <= 1e-12


class TestGramCheck:
    def test_unit_fixture(self, capsys, tmp_path):
        m = write(tmp_path, "m.csv", "c1\n1\n0\n")
        code, out = run(capsys, ["gram-check", "--matrix", m])
        assert code == 0
        assert float(line_value(out, "minor_sum")) == 1.0
        assert float(line_value(out, "gram_det")) == 1.0
        assert float(line_value(out, "deviation minor_sum_vs_gram_det")) == 0.0

    def test_random_fixture_small_deviation(self, capsys, tmp_path):
        rng = np.random.default_rng(31)
        a = rng.uniform(-1, 1, (4, 3))
        rows = "\n".join(",".join(repr(float(v)) for v in row) for row in a)
        m = write(tmp_path, "m.csv", "c1,c2,c3\n" + rows + "\n")
        code, out = run(capsys, ["gram-check", "--matrix", m])
        assert code == 0
        assert float(line_value(out, "deviation minor_sum_vs_gram_det")) <= 1e-9
        assert float(line_value(out, "orthogonality_residual")) <= 1e-10

    def test_square_input_rejected(self, capsys, tmp_path):
        m = write(tmp_path, "m.csv", "a,b,c\n1,2,3\n4,5,6\n7,8,9\n")
        code, _ = run(capsys, ["gram-check", "--matrix", m])
        assert code == 1

    def test_complex_matrix_end_to_end(self, capsys, tmp_path):
        # 2 x 1 complex column (1+1i, 2): minors are its entries, so the
        # squared-minor sum is |1+1i|^2 + |2|^2 = 6
        m = write(tmp_path, "m.csv", "c1\n1+1i\n2\n")
        code, out = run(capsys, ["gram-check", "--matrix", m])
        assert code == 0
        assert abs(float(line_value(out, "minor_sum")) - 6.0) <= 1e-12
        assert float(line_value(out, "orthogonality_residual")) <= 1e-12
        vector_cells = line_value(out, "minor_vector").split(",")
        assert len(vector_cells) == 2


class TestRegress:
    def test_hand_fixture(self, capsys, regress_file):
        code, out = run(capsys, ["regress", "--data", regress_file, "--target", "y", "--coefficients"])
        assert code == 0
        assert abs(float(line_value(out, "loss_value")) - math.sqrt(0.2)) < 1e-10
        assert abs(float(line_value(out, "correlation_det")) - math.sqrt(0.9)) < 1e-10
        assert abs(float(line_value(out, "correlation_projection")) - math.sqrt(0.9)) < 1e-10
        coefs = [float(c) for c in line_value(out, "coefficients").split(",")]
        assert abs(coefs[0] - 0.5) < 1e-10 and abs(coefs[1] - 0.6) < 1e-10

    def test_perfect_fit(self, capsys, tmp_path):
        d = write(tmp_path, "p.csv", "x,y\n1,2\n2,4\n3,6\n")
        code, out = run(capsys, ["regress", "--data", d, "--target", "y"])
        assert code == 0
        assert float(line_value(out, "loss_value")) <= 1e-9
        assert abs(float(line_value(out, "correlation_det")) - 1.0) <= 1e-9

    def test_no_solve_skips_projection(self, capsys, regress_file):
        code, out = run(capsys, ["regress", "--data", regress_file, "--target", "y", "--no-solve"])
        assert code == 0
        assert line_value(out, "correlation_projection") == "undefined"
        assert "coefficients:" not in out

    def test_constant_target_exits_3(self, capsys, tmp_path):
        d = write(tmp_path, "c.csv", "x,y\n1,5\n2,5\n3,5\n")
        code, _ = run(capsys, ["regress", "--data", d, "--target", "y"])
        assert code == 3

    def test_rank_deficient_exits_2(self, capsys, tmp_path):
        d = write(tmp_path, "r.csv", "x1,x2,y\n1,2,1\n2,4,2\n3,6,5\n4,8,9\n")
        code, _ = run(capsys, ["regress", "--data", d, "--target", "y"])
        assert code == 2

    def test_constant_column_with_inexact_mean_exits_2(self, capsys, tmp_path):
        # the mean of 0.1 rounds up, so Xc is a nonzero residue, not zero
        d = write(tmp_path, "c.csv", "x,y\n0.1,1\n0.1,2\n0.1,4\n")
        for flags in ([], ["--coefficients"], ["--no-solve"]):
            code, _ = run(capsys, ["regress", "--data", d, "--target", "y"] + flags)
            assert code == 2

    def test_rank_decided_on_centered_data(self, capsys, tmp_path):
        # (1|X) at a 1e8 offset looks rank deficient to a QR rank test, the
        # centered X does not; a duplicated column is refused in both modes
        rng = np.random.default_rng(0)
        x = rng.standard_normal((200, 3)) + 1e8
        y = 1.5 + x @ np.array([0.5, -2.0, 1.0]) + rng.standard_normal(200)
        xd = x.copy()
        xd[:, 2] = xd[:, 0]
        for name, data in (("offset", x), ("dup", xd)):
            rows = "\n".join(",".join(map(repr, r)) for r in np.column_stack([data, y]).tolist())
            write(tmp_path, f"{name}.csv", "x1,x2,x3,y\n" + rows + "\n")
        xc, yc = x - x.mean(axis=0), y - y.mean()
        _, (ss,), *_ = np.linalg.lstsq(xc, yc, rcond=None)
        for flag in ("--coefficients", "--no-solve"):
            argv = ["regress", "--target", "y", flag, "--format", "json"]
            code, out = run(capsys, argv + ["--data", str(tmp_path / "offset.csv")])
            assert code == 0
            loss = json.loads(out)["results"]["loss_value"]
            assert abs(loss - math.sqrt(ss)) <= 1e-12 * math.sqrt(ss)
            code, _ = run(capsys, argv + ["--data", str(tmp_path / "dup.csv")])
            assert code == 2

    def test_unknown_target(self, capsys, regress_file):
        code, _ = run(capsys, ["regress", "--data", regress_file, "--target", "zzz"])
        assert code == 1

    def test_json_parity(self, capsys, regress_file):
        _, out_text = run(capsys, ["regress", "--data", regress_file, "--target", "y"])
        _, out_json = run(capsys, ["regress", "--data", regress_file, "--target", "y", "--format", "json"])
        doc = json.loads(out_json)
        assert set(doc) == SCHEMA_KEYS
        assert float(line_value(out_text, "loss_value")) == doc["results"]["loss_value"]
        assert doc["exit_semantics"] == {"code": 0, "meaning": "ok"}


class TestVerify:
    def test_deterministic_and_green(self, capsys):
        code1, out1 = run(capsys, ["verify", "--seed", "42", "--trials", "10"])
        code2, out2 = run(capsys, ["verify", "--seed", "42", "--trials", "10"])
        assert code1 == code2 == 0
        assert out1 == out2
        assert "result: PASS" in out1

    def test_different_seed_different_bytes(self, capsys):
        _, out1 = run(capsys, ["verify", "--seed", "1", "--trials", "5"])
        _, out2 = run(capsys, ["verify", "--seed", "2", "--trials", "5"])
        assert out1 != out2

    def test_trials_zero_rejected(self, capsys):
        code, _ = run(capsys, ["verify", "--trials", "0"])
        assert code == 1

    def test_impossible_tolerance_fails_with_4(self, capsys, monkeypatch):
        import gramdist.verify

        suites = [(name, fn, 1e-30 if name == "distance_product_identity" else tol)
                  for name, fn, tol in gramdist.verify.SUITES]
        monkeypatch.setattr(gramdist.verify, "SUITES", tuple(suites))
        code, out = run(capsys, ["verify", "--trials", "5"])
        assert code == 4
        assert "distance_product_identity: FAIL" in out
        assert "result: FAIL suites=10 failed=1" in out

    def test_json_schema(self, capsys):
        code, out = run(capsys, ["verify", "--trials", "5", "--format", "json"])
        doc = json.loads(out)
        assert code == 0
        assert set(doc) == SCHEMA_KEYS
        assert doc["results"]["passed"] is True
        assert len(doc["results"]["suites"]) == len(doc["deviations"])


class TestUsageErrors:
    def test_unknown_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1

    def test_missing_required_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["dist", "--matrix", "a.csv"])
        assert err.value.code == 1


class TestNumberFormatting:
    def test_text_values_round_trip(self, capsys, regress_file):
        _, out_text = run(capsys, ["regress", "--data", regress_file, "--target", "y"])
        _, out_json = run(capsys, ["regress", "--data", regress_file, "--target", "y", "--format", "json"])
        doc = json.loads(out_json)
        # shortest round-trip decimals: parsing the text gives the exact double
        for key in ("loss_value", "correlation_det", "mean_squared_loss"):
            assert float(line_value(out_text, key)) == doc["results"][key]


class TestDependencies:
    def test_cli_import_leaves_scipy_out(self):
        # numpy is the only runtime dependency; scipy alone would add about a
        # third of a second and 27 MiB to every CLI process
        src = str(Path(gramdist.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = "import sys, gramdist.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"
