"""The shape of the package and of the test settings: which module owns
each numerical step, and what a failing property test prints."""

import ast
import dataclasses
import inspect
import subprocess
import sys
import textwrap
from pathlib import Path

import gramdist
import gramdist.qr

PACKAGE = Path(gramdist.__file__).resolve().parent
ROOT = PACKAGE.parents[1]


def names_in(module: str) -> set[str]:
    """Every name a module of the package mentions: bare names, attributes
    and imported names."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def imported_modules(module: str) -> set[str]:
    """The package modules that a module of the package imports from."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found.add(node.module if node.level else (node.module or "").removeprefix("gramdist."))
        elif isinstance(node, ast.Import):
            found.update(alias.name.removeprefix("gramdist.") for alias in node.names)
    return found


def named_outside(owner: str, owned: set[str]) -> dict[str, set[str]]:
    """{module: the owned names it mentions} for every other module that
    mentions one."""
    found = {p.stem: names_in(p.stem) & owned for p in PACKAGE.glob("*.py") if p.stem != owner}
    return {module: names for module, names in found.items() if names}


class TestLayering:
    def test_regression_does_not_import_distance(self):
        assert "distance" not in imported_modules("regression")

    def test_rank_certificates_are_named_only_in_qr(self):
        owned = {"_certifies_triangular", "_certifies_full_rank", "_substituted_max", "_SCALAR_COLUMNS"}
        assert owned <= names_in("qr")
        assert named_outside("qr", owned) == {}

    def test_one_rank_rule_owned_by_qr(self):
        # a rank count compares singular values with a tolerance: only qr
        # takes singular values and holds the column division and its range
        owned = {"_SQUARES_FIT", "_divided", "_count_above", "svd"}
        assert owned <= names_in("qr")
        assert named_outside("qr", owned) == {}

    def test_callers_pass_the_rank_rule_no_tolerance(self):
        # the rank entries take the matrix, its row count and the divisors;
        # no argument of a call to one outside qr is formed from eps
        entries = {"_rank", "_rank_of_r", "_outside_rank", "gram_logdet"}
        for name in entries:
            params = inspect.signature(getattr(gramdist.qr, name)).parameters
            assert not {"tol", "tolerance"} & set(params), name
        for path in PACKAGE.glob("*.py"):
            if path.stem == "qr":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) in entries:
                    args = [*node.args, *(kw.value for kw in node.keywords)]
                    assert not any(isinstance(sub, ast.Name) and sub.id == "EPS"
                                   for arg in args for sub in ast.walk(arg)), path.stem
        assert "EPS" not in names_in("distance")

    def test_the_old_rank_rules_are_gone(self):
        gone = {"_rank_tolerance", "_equilibrated_rank", "_centered_rank_of_r"}
        assert {p.stem for p in PACKAGE.glob("*.py") if names_in(p.stem) & gone} == set()

    def test_the_phase_record_is_gone(self):
        # a Gram determinant is real and nonnegative: LogDet is its log,
        # and the minors read slogdet's sign and log as they come
        gone = {"_logdet", "_PHASE_TOL", "phase"}
        assert {p.stem for p in PACKAGE.glob("*.py") if names_in(p.stem) & gone} == set()
        assert [f.name for f in dataclasses.fields(gramdist.LogDet)] == ["log_mag"]

    def test_power_of_two_scaling_is_only_in_linalg(self):
        owned = {"frexp", "ldexp"}
        assert owned <= names_in("linalg")
        assert named_outside("linalg", owned) == {}


class TestPytestSettings:
    def test_a_failing_property_test_shows_its_example(self, tmp_path):
        # the repository's warning filters stay in force, so a warning that
        # hypothesis' own reporting raises must not turn the report into an
        # INTERNALERROR
        (tmp_path / "test_falsified.py").write_text(textwrap.dedent("""
            from hypothesis import given, settings, strategies as st

            @settings(database=None, derandomize=True)
            @given(st.integers())
            def test_small(x):
                assert x < 5
        """), encoding="utf-8")
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
             "-p", "no:cacheprovider", "test_falsified.py"],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 1
        assert "Falsifying example" in run.stdout
        assert "INTERNALERROR" not in run.stdout + run.stderr
        assert "1 failed" in run.stdout
