"""The public surface of the package and of the command line, pinned: a
change to ``__all__`` or to a subcommand's options shows up as a change to
the lists below."""

import re
from pathlib import Path

import gramdist

PUBLIC = [
    "CsvError",
    "Dataset",
    "DimensionMismatch",
    "DistanceResult",
    "EPS",
    "EmptyFile",
    "GramDistError",
    "LogDet",
    "ParseError",
    "RaggedRows",
    "RankDeficient",
    "RegressionReport",
    "SUITE_NAMES",
    "ShapeError",
    "SplitMix64",
    "SuiteResult",
    "ZeroVariance",
    "centered_rank",
    "derive_seed",
    "design_rank",
    "distance_det",
    "distance_projection",
    "distance_qr",
    "gram_logdet",
    "gram_logdets",
    "householder_qr",
    "loss_value_residual",
    "minor_sum",
    "orthogonal_minor_vector",
    "regression_report",
    "run_all",
    "run_suite",
]


def test_public_surface_is_pinned():
    assert len(set(gramdist.__all__)) == len(gramdist.__all__)
    assert sorted(gramdist.__all__) == PUBLIC
    for name in PUBLIC:
        getattr(gramdist, name)


def test_every_public_function_has_a_user():
    # a public function is one the command line, the verify suites or a
    # demo calls; anything else is private to its module
    root = Path(gramdist.__file__).resolve().parents[2]
    users = [root / "src" / "gramdist" / "cli.py", root / "src" / "gramdist" / "verify.py",
             *sorted((root / "demos").glob("*.py"))]
    words = set(re.findall(r"\w+", "".join(p.read_text(encoding="utf-8") for p in users)))
    unused = [name for name in gramdist.__all__
              if callable(getattr(gramdist, name)) and not isinstance(getattr(gramdist, name), type)
              and name not in words]
    assert unused == []


# The command-line surface, pinned the same way: each subcommand's option
# strings, help left out.
OPTIONS = {
    "dist": ["--format", "--matrix", "--vector"],
    "gram-check": ["--format", "--matrix"],
    "regress": ["--coefficients", "--data", "--format", "--no-solve", "--target"],
    "verify": ["--format", "--seed", "--trials"],
}


def test_cli_options_are_pinned():
    import argparse

    from gramdist.cli import build_parser

    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: sorted(s for a in parser._actions if not isinstance(a, argparse._HelpAction)
                     for s in a.option_strings)
        for name, parser in sub.choices.items()
    }
    assert found == OPTIONS
