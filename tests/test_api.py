"""The public surface of the package, pinned: a change to ``__all__`` shows
up as a change to the list below."""

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
    "as_matrix",
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
