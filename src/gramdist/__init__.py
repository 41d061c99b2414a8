"""Column-space distances, regression loss values, and multiple correlation,
all computable from ratios of Gram determinants and verified against
independent routes."""

from .errors import (
    CsvError,
    DimensionMismatch,
    EmptyFile,
    GramDistError,
    NotPositiveDefinite,
    NotSquare,
    ParseError,
    RaggedRows,
    RankDeficient,
    ShapeError,
    ZeroProjection,
    ZeroVariance,
)
from .linalg import (
    EPS,
    LogDet,
    det_lu,
    solve_hermitian_psd,
)
from .qr import gram_logdet, householder_qr
from .distance import (
    DistanceResult,
    augment,
    distance_det,
    distance_projection,
    distance_qr,
    gram_logdets,
    minor_sum,
    orthogonal_minor_vector,
)
from .regression import (
    Dataset,
    RegressionReport,
    centered_rank,
    design_rank,
    loss_value_det,
    loss_value_residual,
    mean_squared_loss,
    multiple_correlation_det,
    multiple_correlation_projection,
    normal_solve,
    regression_report,
)
from .rng import SplitMix64, derive_seed, mix64
from .verify import SUITE_NAMES, SuiteResult, run_all, run_suite

__version__ = "0.1.0"

__all__ = [
    "EPS",
    "CsvError",
    "Dataset",
    "DimensionMismatch",
    "DistanceResult",
    "EmptyFile",
    "GramDistError",
    "LogDet",
    "NotPositiveDefinite",
    "NotSquare",
    "ParseError",
    "RaggedRows",
    "RankDeficient",
    "RegressionReport",
    "ShapeError",
    "SplitMix64",
    "SuiteResult",
    "SUITE_NAMES",
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
