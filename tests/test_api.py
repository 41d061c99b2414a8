"""The public surface of the package and of the command line, pinned: a
change to ``__all__`` or to a subcommand's options shows up as a change to
the lists below."""

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
    "NotPositiveDefinite",
    "NotSquare",
    "ParseError",
    "RaggedRows",
    "RankDeficient",
    "RegressionReport",
    "SUITE_NAMES",
    "ShapeError",
    "SplitMix64",
    "SuiteResult",
    "ZeroProjection",
    "ZeroVariance",
    "augment",
    "centered_rank",
    "derive_seed",
    "design_rank",
    "det_lu",
    "distance_det",
    "distance_projection",
    "distance_qr",
    "gram_logdet",
    "gram_logdets",
    "householder_qr",
    "loss_value_det",
    "loss_value_residual",
    "mean_squared_loss",
    "minor_sum",
    "mix64",
    "multiple_correlation_det",
    "multiple_correlation_projection",
    "normal_solve",
    "orthogonal_minor_vector",
    "regression_report",
    "run_all",
    "run_suite",
    "solve_hermitian_psd",
]


def test_public_surface_is_pinned():
    assert len(set(gramdist.__all__)) == len(gramdist.__all__)
    assert sorted(gramdist.__all__) == PUBLIC
    for name in PUBLIC:
        getattr(gramdist, name)


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
