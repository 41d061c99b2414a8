"""The command-line front end: fixtures through every subcommand, the JSON
schema, exit codes, and determinism of the verification output."""

import gc
import importlib
import json
import math
import os
import runpy
import subprocess
import sys
import textwrap
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


def complex_cell(z):
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"


def write_complex(tmp_path, a, b):
    """A complex matrix and vector as the two CSV files ``dist`` reads."""
    rows = "".join(",".join(map(complex_cell, row)) + "\n" for row in a.tolist())
    ma = write(tmp_path, "a.csv", ",".join(f"c{j}" for j in range(a.shape[1])) + "\n" + rows)
    vb = write(tmp_path, "b.csv", "v\n" + "".join(complex_cell(z) + "\n" for z in b.tolist()))
    return ma, vb


@pytest.fixture
def overflow_files(tmp_path):
    """A complex 40x6 (A, b) at 1e160, where A* A overflows."""
    rng = np.random.default_rng(89)
    a = 1e160 * (rng.uniform(-1, 1, (40, 6)) + 1j * rng.uniform(-1, 1, (40, 6)))
    b = 1e160 * (rng.uniform(-1, 1, 40) + 1j * rng.uniform(-1, 1, 40))
    return write_complex(tmp_path, a, b)


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


    def test_overflowing_gram_keeps_the_factor_routes(self, capsys, overflow_files):
        # at 1e160 A* A overflows: the projection route is undefined, the
        # determinant and qr routes answer, and the exit code is theirs
        ma, vb = overflow_files
        argv = ["dist", "--matrix", ma, "--vector", vb]
        code, out = run(capsys, argv)
        json_code, json_out = run(capsys, argv + ["--format", "json"])
        assert code == json_code == 0
        assert line_value(out, "distance_projection") == "undefined"
        det, qr = float(line_value(out, "distance_det")), float(line_value(out, "distance_qr"))
        assert 1e159 < qr < 1e162 and abs(det - qr) <= 1e-11 * qr
        results = json.loads(json_out)["results"]
        assert results["distance_projection"] is None
        assert results["distance_det"] == det and results["distance_qr"] == qr

    def test_handled_overflow_prints_no_warnings(self, capsys, overflow_files):
        # the process prints what main prints, and no RuntimeWarning from
        # the overflows the routes handle
        ma, vb = overflow_files
        argv = ["dist", "--matrix", ma, "--vector", vb]
        code, out = run(capsys, argv)
        res = python("-m", "gramdist", *argv)
        assert code == 0
        assert (res.returncode, res.stdout, res.stderr) == (0, out, "")

    def test_factor_beyond_a_double_exits_1(self, capsys, tmp_path):
        # finite cells whose factor holds inf: the error names the factor
        ma = write(tmp_path, "a.csv", "c1,c2\n1e308,1\n1e308,2\n-1e308,3\n")
        vb = write(tmp_path, "b.csv", "v\n1\n2\n3\n")
        for fmt in ("text", "json"):
            code = main(["dist", "--matrix", ma, "--vector", vb, "--format", fmt])
            captured = capsys.readouterr()
            assert (code, captured.out) == (1, "")
            assert captured.err == "gramdist: error: the triangular factor does not fit a double\n"

    def test_overflowing_rhs_keeps_the_factor_routes(self, capsys, tmp_path):
        # A at 1e150 keeps A* A in range and b at 1e160 takes A* b out of
        # it: the projection route is undefined, the other two answer
        rng = np.random.default_rng(1)
        a, b = 1e150 * rng.standard_normal((40, 6)), 1e160 * rng.standard_normal(40)
        rows = "".join(",".join(map(repr, row)) + "\n" for row in a.tolist())
        ma = write(tmp_path, "a.csv", ",".join(f"c{j}" for j in range(6)) + "\n" + rows)
        vb = write(tmp_path, "b.csv", "v\n" + "".join(f"{v!r}\n" for v in b.tolist()))
        code, out = run(capsys, ["dist", "--matrix", ma, "--vector", vb])
        assert code == 0
        assert line_value(out, "distance_projection") == "undefined"
        det, qr = float(line_value(out, "distance_det")), float(line_value(out, "distance_qr"))
        assert 1e160 < qr < 1e162 and abs(det - qr) <= 1e-11 * qr

    @pytest.mark.parametrize("exponent", [-600, 600])
    def test_extreme_column_scale_exits_with_the_rank_decision(self, capsys, tmp_path, exponent):
        # one column of a full-rank 30x5 A scaled by 2^-600 or 2^600: A* A
        # underflows or overflows in that column, so the projection route
        # is undefined either way, while the rank rule counts full rank and
        # the determinant and qr routes answer with the unscaled distance
        rng = np.random.default_rng(2024)
        a, b = rng.standard_normal((30, 5)), rng.standard_normal(30)
        x, *_ = np.linalg.lstsq(a, b, rcond=None)
        ref = float(np.linalg.norm(b - a @ x))
        a[:, 2] *= 2.0 ** exponent
        rows = "".join(",".join(map(repr, row)) + "\n" for row in a.tolist())
        ma = write(tmp_path, "a.csv", ",".join(f"c{j}" for j in range(5)) + "\n" + rows)
        vb = write(tmp_path, "b.csv", "v\n" + "".join(f"{v!r}\n" for v in b.tolist()))
        code, out = run(capsys, ["dist", "--matrix", ma, "--vector", vb])
        assert code == 0
        assert line_value(out, "distance_projection") == "undefined"
        for key in ("distance_det", "distance_qr"):
            assert abs(float(line_value(out, key)) - ref) <= 1e-12 * ref, key

    def test_small_regressor_keeps_the_determinant_route(self, capsys, tmp_path):
        # (Xc, yc) of a 40x4 regression whose first regressor is multiplied
        # by 1e-14: the column is no dependence, so the determinant route
        # answers with the others and with the regression's loss value
        rng = np.random.default_rng(29)
        x = rng.standard_normal((40, 4)) + rng.normal(0.0, 3.0, 4)
        y = x @ np.array([1.0, -2.0, 0.5, 3.0]) + rng.standard_normal(40)
        x[:, 0] *= 1e-14
        loss = gramdist.regression_report(gramdist.Dataset(x, y)).loss_value
        xc, yc = x - x.mean(axis=0), y - y.mean()
        rows = "".join(",".join(map(repr, row)) + "\n" for row in xc.tolist())
        ma = write(tmp_path, "a.csv", "x1,x2,x3,x4\n" + rows)
        vb = write(tmp_path, "b.csv", "y\n" + "".join(f"{v!r}\n" for v in yc.tolist()))
        code, out = run(capsys, ["dist", "--matrix", ma, "--vector", vb])
        assert code == 0
        assert float(line_value(out, "distance_det")) > 0.0
        for key in ("distance_det", "distance_projection", "distance_qr"):
            assert abs(float(line_value(out, key)) - loss) <= 1e-12 * loss, key


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

    def test_overflowing_minor_sum_is_named(self, capsys, tmp_path):
        # the 2x2 minors of a 3x2 at 1e80 fit a double; their squares do not
        m = write(tmp_path, "m.csv", "c1,c2\n1e80,2e80\n3e80,-1e80\n0.5e80,4e80\n")
        code = main(["gram-check", "--matrix", m])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "gramdist: error: the sum of squared minors does not fit a double\n"

    def test_one_set_of_minors(self, capsys, monkeypatch, tmp_path):
        # the minor sum and the minor vector share one stacked slogdet
        import gramdist.distance

        calls = []
        minors = gramdist.distance._minor_logdets
        monkeypatch.setattr(gramdist.distance, "_minor_logdets", lambda a: calls.append(1) or minors(a))
        m = write(tmp_path, "m.csv", "c1,c2\n1,2\n3,-1\n0.5,4\n")
        code, _ = run(capsys, ["gram-check", "--matrix", m])
        assert code == 0
        assert len(calls) == 1

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

    def test_result_beyond_a_double_exits_1(self, capsys, tmp_path):
        # y at 1e200 overflows the squared loss: an error on stderr and
        # nothing on stdout, not inf with exit 0
        rng = np.random.default_rng(6)
        x = rng.standard_normal(50)
        y = 1e200 * (x + rng.standard_normal(50))
        rows = "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist()))
        d = write(tmp_path, "big.csv", "x,y\n" + rows)
        for flags in ([], ["--no-solve"], ["--coefficients"]):
            code = main(["regress", "--data", d, "--target", "y"] + flags)
            captured = capsys.readouterr()
            assert code == 1
            assert captured.out == ""
            assert captured.err.startswith("gramdist: error:")

    def test_overflow_names_what_overflowed(self, capsys, tmp_path):
        # max|y - mean| is 1.36e308, at or above 2^1023: geqrf's reflector
        # product with yc overflows, so the computed factor of (Xc|yc) holds
        # -inf and nan, and the error names that factor, with and without
        # the solve.  With y near 1e250 and x near 1e100 the factor fits,
        # and the error names Xc* yc, or the squared loss, in the
        # regression's own terms
        huge = write(tmp_path, "huge.csv", "x,y\n1,1.7e308\n2,0\n3,1\n4,0\n5,2\n")
        wide = write(tmp_path, "wide.csv", "x,y\n1e100,1e250\n2e100,0\n3e100,3e250\n4e100,0\n5e100,2e250\n")
        for d, flags, what in ((huge, [], "the triangular factor"), (huge, ["--no-solve"], "the triangular factor"),
                               (wide, [], "Xc* yc"), (wide, ["--no-solve"], "a result of the regression")):
            code = main(["regress", "--data", d, "--target", "y"] + flags)
            captured = capsys.readouterr()
            assert code == 1
            assert captured.out == ""
            assert captured.err == f"gramdist: error: {what} does not fit a double\n"

    def test_centered_data_beyond_a_double_exits_1(self, capsys, tmp_path):
        # the column sum of finite cells overflows: the error names the
        # centered data, not the cells
        d = write(tmp_path, "c.csv", "x,y\n1e308,1\n1e308,2\n-1e308,3\n0,1\n")
        for flags in ([], ["--no-solve"], ["--coefficients"]):
            code = main(["regress", "--data", d, "--target", "y"] + flags)
            captured = capsys.readouterr()
            assert (code, captured.out) == (1, "")
            assert captured.err == "gramdist: error: the centered data does not fit a double\n"

    def test_regressor_whose_squares_overflow_keeps_its_rank(self, capsys, tmp_path):
        # one nonconstant column near 1e160: its norm is taken on the column
        # scaled by a power of two, so the rank rule counts it; without a
        # solve the determinant route answers (lstsq gives 1.5), and the
        # solve names the Gram matrix that does not fit a double
        d = write(tmp_path, "big.csv", "x,y\n1e160,1\n-1e160,0\n3e160,1\n4,0\n5e159,2\n")
        code, out = run(capsys, ["regress", "--data", d, "--target", "y", "--no-solve"])
        assert code == 0
        assert "loss_value: 1.5000000000000002\n" in out
        code = main(["regress", "--data", d, "--target", "y"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "gramdist: error: Xc* Xc does not fit a double\n"

    def test_widely_scaled_regressors_solve(self, capsys, tmp_path):
        # one column scaled by 1e8 leaves the centered normal equations well
        # conditioned up to that scaling: every Cholesky pivot stays far
        # above eps times its own diagonal, so the solve answers
        rng = np.random.default_rng(3)
        x = rng.standard_normal((50, 3))
        y = x @ [1.0, -2.0, 0.5] + 0.1 * rng.standard_normal(50)
        x[:, 2] *= 1e8
        rows = "".join(",".join(map(repr, r)) + "\n" for r in np.column_stack([x, y]).tolist())
        d = write(tmp_path, "scaled.csv", "x1,x2,x3,y\n" + rows)
        code, out = run(capsys, ["regress", "--data", d, "--target", "y", "--coefficients", "--format", "json"])
        assert code == 0
        coefs = np.array(json.loads(out)["results"]["coefficients"])
        a = np.column_stack([np.ones(50), x])
        norms = np.linalg.norm(a, axis=0)
        ref = np.linalg.lstsq(a / norms, y, rcond=None)[0] / norms
        assert np.max(np.abs(coefs - ref) / np.abs(ref)) <= 1e-12

    def test_coefficients_need_the_solve(self, capsys, regress_file):
        with pytest.raises(SystemExit) as err:
            main(["regress", "--data", regress_file, "--target", "y", "--coefficients", "--no-solve"])
        assert err.value.code == 1
        assert "not allowed with" in capsys.readouterr().err

    def test_undecodable_csv_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"x,y\n\xff,1\n")
        code = main(["regress", "--data", str(path), "--target", "y"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("gramdist: error:")

    def test_byte_order_mark_leaves_the_table_unchanged(self, capsys, tmp_path):
        text = "y,x\n1,1\n2,2\n2,3\n3,4\n"
        plain = run(capsys, ["regress", "--data", write(tmp_path, "plain.csv", text), "--target", "y"])
        marked = run(capsys, ["regress", "--data", write(tmp_path, "bom.csv", "\ufeff" + text), "--target", "y"])
        assert plain[0] == marked[0] == 0
        assert marked[1].splitlines()[1:] == plain[1].splitlines()[1:]

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

        suites = [(index, name, fn, 1e-30 if name == "distance_product_identity" else tol)
                  for index, name, fn, tol in gramdist.verify.SUITES]
        monkeypatch.setattr(gramdist.verify, "SUITES", tuple(suites))
        code, out = run(capsys, ["verify", "--trials", "5"])
        assert code == 4
        assert "distance_product_identity: FAIL" in out
        assert "result: FAIL suites=8 failed=1" in out

    def test_retired_suites_leave_the_output(self, capsys):
        # det_identities and psd_solve were retired: no text line, no JSON
        # key, and the summary counts the eight suites left
        _, text = run(capsys, ["verify", "--seed", "1", "--trials", "3"])
        _, out = run(capsys, ["verify", "--seed", "1", "--trials", "3", "--format", "json"])
        doc = json.loads(out)
        lines = text.splitlines()
        assert lines[-2] == "result: PASS suites=8 failed=0"
        assert [line.split(":", 1)[0] for line in lines[1:-2]] == list(gramdist.SUITE_NAMES)
        for retired in ("det_identities", "psd_solve"):
            assert f"{retired}:" not in text
            assert retired not in doc["results"]["suites"] and retired not in doc["deviations"]
        assert list(doc["results"]["suites"]) == list(doc["deviations"]) == list(gramdist.SUITE_NAMES)

    def test_json_schema(self, capsys):
        code, out = run(capsys, ["verify", "--trials", "5", "--format", "json"])
        doc = json.loads(out)
        assert code == 0
        assert set(doc) == SCHEMA_KEYS
        assert doc["results"]["passed"] is True
        assert len(doc["results"]["suites"]) == len(doc["deviations"])

    def test_json_record_per_suite(self, capsys, monkeypatch):
        # each suite's digest hashes its per-trial record, argmax_trial is
        # where the maximum deviation first occurs, and first_failure names
        # a trial and the generator seed that replays it alone
        import hashlib

        import gramdist.verify
        from gramdist.rng import SplitMix64

        suites = tuple((index, name, fn, 1e-30 if name == "distance_agreement" else tol)
                       for index, name, fn, tol in gramdist.verify.SUITES)
        monkeypatch.setattr(gramdist.verify, "SUITES", suites)
        code, out = run(capsys, ["verify", "--seed", "3", "--trials", "6", "--format", "json"])
        assert code == 4
        records = json.loads(out)["results"]["suites"]
        for (_, name, fn, tol), s in zip(suites, gramdist.verify.run_all(seed=3, trials=6)):
            rec = records[name]
            data = b"".join(bytes([ok]) + np.array(dev, "<f8").tobytes() for ok, dev in s.outcomes)
            assert rec["digest"] == hashlib.sha256(data).hexdigest()[:16]
            devs = [dev for _, dev in s.outcomes]
            assert rec["argmax_trial"] == (devs.index(max(devs)) if max(devs) > 0.0 else None)
            if name != "distance_agreement":
                assert rec["first_failure"] is None
                continue
            t = rec["first_failure"]["trial"]
            assert [ok for ok, _ in s.outcomes].index(False) == t
            replay = fn(SplitMix64(rec["first_failure"]["derive_seed"]), t, tol)
            assert replay == s.outcomes[t]

    def test_first_failure_past_the_retired_index_replays(self, capsys, monkeypatch):
        # qr_gram sits at position 7 of the registry but draws from index 9,
        # past the retired 7 and 8: the recorded seed must be the one its trial
        # drew from, and replaying it alone must give the recorded outcome
        import gramdist.verify
        from gramdist.rng import SplitMix64, derive_seed

        suites = tuple((index, name, fn, 1e-30 if name == "qr_gram" else tol)
                       for index, name, fn, tol in gramdist.verify.SUITES)
        monkeypatch.setattr(gramdist.verify, "SUITES", suites)
        code, out = run(capsys, ["verify", "--seed", "5", "--trials", "6", "--format", "json"])
        assert code == 4
        rec = json.loads(out)["results"]["suites"]["qr_gram"]
        t = rec["first_failure"]["trial"]
        assert rec["first_failure"]["derive_seed"] == derive_seed(5, 9, t)
        _, _, fn, tol = next(entry for entry in suites if entry[1] == "qr_gram")
        s = gramdist.verify.run_suite("qr_gram", seed=5, trials=6)
        assert fn(SplitMix64(rec["first_failure"]["derive_seed"]), t, tol) == s.outcomes[t]
        assert not s.outcomes[t][0]


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

    def test_payloads_hold_only_built_in_types(self, capsys, monkeypatch, tmp_path, dist_files, regress_file):
        # every value reaches _fmt and _json_safe as a built-in type, so
        # neither needs a numpy scalar case
        import gramdist.cli as cli

        payloads = []
        emit = cli._emit
        monkeypatch.setattr(cli, "_emit", lambda payload, fmt: payloads.append(payload) or emit(payload, fmt))
        gram = write(tmp_path, "g.csv", "a,b\n1+1i,2\n0,1-2i\n3,1\n")
        deficient = write(tmp_path, "m.csv", "c1,c2\n1,2\n2,4\n3,6\n")
        argvs = [
            ["dist", "--matrix", dist_files[0], "--vector", dist_files[1]],
            ["dist", "--matrix", deficient, "--vector", dist_files[1].replace("b.csv", "b3.csv")],
            ["gram-check", "--matrix", gram],
            ["regress", "--data", regress_file, "--target", "y", "--coefficients"],
            ["verify", "--seed", "3", "--trials", "2"],
        ]
        write(tmp_path, "b3.csv", "v\n1\n0\n2\n")
        for argv in argvs:
            for fmt in ("text", "json"):
                run(capsys, [*argv, "--format", fmt])
        assert len(payloads) == 2 * len(argvs)

        def leaves(x):
            if isinstance(x, dict):
                assert all(type(k) is str for k in x)
                x = list(x.values())
            if isinstance(x, (list, tuple)):
                return [leaf for v in x for leaf in leaves(v)]
            return [x]

        kinds = {type(leaf) for payload in payloads for leaf in leaves(payload)}
        assert kinds <= {str, int, float, bool, type(None)}
        assert {int, float, bool, type(None)} <= kinds


SRC = Path(gramdist.__file__).resolve().parents[1]
VERIFY_STACK = ["gramdist.rng", "gramdist.verify"]


def python(*args, **env_vars):
    """Run a fresh interpreter that imports gramdist from this source tree,
    with env_vars added to its environment; COLUMNS pins argparse's help
    width to the one the in-process runs get."""
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p), **env_vars)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def imported(importtime_log):
    """The module names in a ``-X importtime`` log."""
    return {line.rsplit("|", 1)[1].strip() for line in importtime_log.splitlines()
            if line.startswith("import time:") and "|" in line}


class TestDependencies:
    def test_cli_import_leaves_scipy_out(self):
        # numpy is the only runtime dependency; scipy alone would add about a
        # third of a second and 27 MiB to every CLI process
        code = "import sys, gramdist.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        res = python("-c", code)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"

    def test_verify_stack_loads_only_for_verify(self, regress_file):
        code = ("import sys, gramdist, gramdist.cli; dir(gramdist); "
                "print(*(m for m in sys.modules if m.startswith('gramdist.')))")
        res = python("-c", code)
        assert res.returncode == 0, res.stderr
        loaded = set(res.stdout.split())
        assert "gramdist.cli" in loaded and not set(VERIFY_STACK) & loaded
        # and the CSV reader and json only where a file is read or JSON written
        lazy = {*VERIFY_STACK, "gramdist.csvio", "json"}
        for argv, expected in (
            (["regress", "--data", regress_file, "--target", "y"], {"gramdist.csvio"}),
            (["regress", "--data", regress_file, "--target", "y", "--format", "json"], {"gramdist.csvio", "json"}),
            (["verify", "--trials", "1"], set(VERIFY_STACK)),
        ):
            res = python("-X", "importtime", "-m", "gramdist", *argv)
            assert res.returncode == 0, res.stderr
            names = imported(res.stderr)
            assert "gramdist.cli" in names
            assert lazy & names == expected, argv

    def test_lazy_names_are_listed(self):
        assert set(gramdist.__all__) <= set(dir(gramdist))
        with pytest.raises(AttributeError):
            gramdist.no_such_name  # noqa: B018

    def test_main_leaves_the_heap_unfrozen(self, capsys, regress_file):
        assert gc.get_freeze_count() == 0
        assert main(["regress", "--data", regress_file, "--target", "y"]) == 0
        assert main(["verify", "--trials", "1"]) == 0
        assert gc.get_freeze_count() == 0


class TestProcessEntry:
    # argv, the CSV written and passed last (if any), the exit code
    CASES = {
        "help": (["--help"], None, 0),
        "usage": (["regress", "--data", "d.csv"], None, 1),
        "ok": (["regress", "--target", "y", "--data"], "x,y\n1,1\n2,2\n3,2\n4,3\n", 0),
        "parse": (["regress", "--target", "y", "--data"], "x,y\n1,2\n3,oops\n", 1),
        "rank": (["regress", "--target", "y", "--data"], "x1,x2,y\n1,2,1\n2,4,2\n3,6,5\n4,8,9\n", 2),
        "variance": (["regress", "--target", "y", "--data"], "x,y\n1,5\n2,5\n3,5\n", 3),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_subprocess_matches_main(self, case, capsys, monkeypatch, tmp_path):
        argv, data, expected = self.CASES[case]
        if data is not None:
            argv = argv + [write(tmp_path, "d.csv", data)]
        monkeypatch.setenv("COLUMNS", "80")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert code == expected
        res = python("-m", "gramdist", *argv)
        assert (res.returncode, res.stdout, res.stderr) == (code, out, err)

    def test_both_entries_freeze_then_run_main(self, monkeypatch):
        import gramdist.__main__
        import gramdist.cli

        tomllib = pytest.importorskip("tomllib")
        with open(SRC.parent / "pyproject.toml", "rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["gramdist"]
        module, _, attr = target.partition(":")
        script = getattr(importlib.import_module(module), attr)
        assert script is gramdist.__main__.entry

        calls = []

        def fake_main():
            calls.append("main")
            return 7

        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(gramdist.cli, "main", fake_main)
        monkeypatch.setattr(gramdist.__main__, "main", fake_main)
        assert script() == 7
        assert calls == ["freeze", "main"]
        calls.clear()
        # python -m gramdist runs the package's __main__ module afresh
        monkeypatch.delitem(sys.modules, "gramdist.__main__")
        with pytest.raises(SystemExit) as exit_:
            runpy.run_module("gramdist", run_name="__main__")
        assert exit_.value.code == 7
        assert calls == ["freeze", "main"]


class TestBlasThreads:
    """A command prints the same bytes whatever the BLAS thread count.
    OpenBLAS splits a dot product of a vector longer than 10 000 entries
    across its threads, and rounds it differently with each count; on
    these inputs a norm or cosine taken that way changes its last digit."""

    ROWS = 20000

    def test_output_does_not_depend_on_the_thread_count(self, tmp_path):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((self.ROWS, 3))
        y = x @ rng.standard_normal(3) + rng.standard_normal(self.ROWS)
        data = write(tmp_path, "d.csv", "x1,x2,x3,y\n" + "".join(
            ",".join(map(repr, row)) + "\n" for row in np.column_stack([x, y]).tolist()))
        a = rng.standard_normal((self.ROWS, 4)) + 1j * rng.standard_normal((self.ROWS, 4))
        b = rng.standard_normal(self.ROWS) + 1j * rng.standard_normal(self.ROWS)
        ma, vb = write_complex(tmp_path, a, b)
        regress = ["regress", "--data", data, "--target", "y", "--format", "json"]
        for argv in (regress, regress + ["--coefficients"],
                     ["dist", "--matrix", ma, "--vector", vb, "--format", "json"],
                     ["verify", "--trials", "20"]):
            runs = [python("-m", "gramdist", *argv, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n)
                    for n in ("1", "2")]
            assert [(r.returncode, r.stderr) for r in runs] == [(0, "")] * 2, argv[0]
            assert runs[0].stdout == runs[1].stdout, argv

    def test_real_rank_deficient_factor_does_not_depend_on_the_thread_count(self):
        # dgeqrf's factor of a real (A|b) with dependent columns, and the
        # distance_qr read off it, are the same bytes at 1 and 2 threads;
        # a complex factor of this size is not (zgeqrf)
        script = textwrap.dedent("""
            import hashlib
            import numpy as np
            from gramdist import distance_qr, householder_qr
            for seed in range(12):
                rng = np.random.default_rng(seed)
                a = rng.standard_normal((300, 60))
                a[:, -1] = 1.7 * a[:, 0]
                b = rng.standard_normal(300)
                r = householder_qr(np.column_stack([a, b]))
                print(seed, hashlib.sha256(r.tobytes()).hexdigest(), repr(distance_qr(a, b).value))
        """)
        runs = [python("-c", script, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n) for n in ("1", "2")]
        assert [(r.returncode, r.stderr) for r in runs] == [(0, "")] * 2
        assert len(runs[0].stdout.splitlines()) == 12
        assert runs[0].stdout == runs[1].stdout
