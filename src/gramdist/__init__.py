"""Column-space distances, regression loss values, and multiple correlation,
all computable from ratios of Gram determinants and verified against
independent routes.

Importing the package has no process-wide effect.  The verification stack
(the ``verify`` suites and their ``rng`` generator) loads on first use of one
of its public names, so ``import gramdist`` and the ``dist``, ``gram-check``
and ``regress`` commands never compile or run it.
"""

from .errors import (
    CsvError,
    DimensionMismatch,
    EmptyFile,
    GramDistError,
    ParseError,
    RaggedRows,
    RankDeficient,
    ShapeError,
    ZeroVariance,
)
from .linalg import EPS, LogDet
from .qr import gram_logdet, householder_qr
from .distance import (
    DistanceResult,
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
    loss_value_residual,
    regression_report,
)

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
    "ParseError",
    "RaggedRows",
    "RankDeficient",
    "RegressionReport",
    "ShapeError",
    "SplitMix64",
    "SuiteResult",
    "SUITE_NAMES",
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

# public names resolved on first access (PEP 562), by the module defining them
_LAZY = {
    "SplitMix64": "rng",
    "derive_seed": "rng",
    "SUITE_NAMES": "verify",
    "SuiteResult": "verify",
    "run_all": "verify",
    "run_suite": "verify",
}


def __getattr__(name):
    from importlib import import_module

    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
