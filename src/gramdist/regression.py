"""Centered multiple linear regression over real data.

The minimized residual norm (the loss value) and the multiple correlation
coefficient both come in two flavors: the classical route through the normal
equations, and a determinant route that needs no solve at all -- the loss is
the square root of the ratio of two centered Gram determinants, and the
correlation follows from it by Pythagoras.  Both determinants are read off
one triangular factor of (Xc|yc).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InsufficientSamples,
    NotPositiveDefinite,
    RankDeficient,
    ZeroProjection,
    ZeroVariance,
)
from .linalg import EPS, _frozen, as_real_matrix, as_real_vector, solve_hermitian_psd
from .qr import _rank_of_r, householder_qr


@dataclass(frozen=True)
class Dataset:
    """A real sample matrix with one target column.

    names lists the n regressor labels followed by the target label; when
    omitted they default to x1..xn, y.
    """

    x: np.ndarray
    y: np.ndarray
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        x = as_real_matrix(self.x)
        y = as_real_vector(self.y)
        if y.shape[0] != x.shape[0]:
            raise DimensionMismatch(
                f"target length {y.shape[0]} does not match sample count {x.shape[0]}"
            )
        names = self.names
        if names is None:
            names = tuple(f"x{j + 1}" for j in range(x.shape[1])) + ("y",)
        names = tuple(str(s) for s in names)
        if len(names) != x.shape[1] + 1:
            raise ValueError(
                f"expected {x.shape[1] + 1} column labels, got {len(names)}"
            )
        if len(set(names)) != len(names):
            raise ValueError("column labels must be distinct")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "names", names)

    @property
    def m(self) -> int:
        return self.x.shape[0]

    @property
    def n(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class CenteredView:
    """Column-centered copies of the sample matrix and target."""

    x_hat: np.ndarray
    y_hat: np.ndarray
    x_means: np.ndarray
    y_mean: float


@dataclass(frozen=True)
class RegressionReport:
    """Everything the regress front end emits in one bundle.

    correlation is always the determinant-route value; the projection-route
    value is kept separately because it is undefined when the projection of
    the centered target vanishes (flags records that discrepancy).
    """

    loss_value: float
    correlation: float
    correlation_projection: float | None
    mean_squared_loss: float
    coefficients: np.ndarray | None
    methods: dict = field(default_factory=dict)
    flags: tuple[str, ...] = ()


def center(d: Dataset) -> CenteredView:
    """Subtract each column's arithmetic mean."""
    x_means = d.x.mean(axis=0)
    y_mean = float(d.y.mean())
    return CenteredView(
        x_hat=_frozen(d.x - x_means),
        y_hat=_frozen(d.y - y_mean),
        x_means=_frozen(x_means),
        y_mean=y_mean,
    )


def _design(d: Dataset) -> np.ndarray:
    return np.column_stack([np.ones(d.m), d.x])


def design_rank(d: Dataset) -> int:
    """QR rank estimate of the intercept-augmented matrix (1|X)."""
    return _rank(_design(d))


def centered_rank(d: Dataset) -> int:
    """QR rank estimate of the centered sample matrix."""
    return _rank(center(d).x_hat)


def _rank(mat: np.ndarray) -> int:
    m, n = mat.shape
    if m < n:
        mat = mat.T
    return householder_qr(mat).rank_estimate


def _variance_tolerance(d: Dataset) -> float:
    return d.m * EPS * max(1.0, float(np.max(np.abs(d.y))))


def _target_norm(d: Dataset, cv: CenteredView) -> float:
    """||yc||; raises :class:`ZeroVariance` at or below the variance tolerance."""
    ny = float(np.linalg.norm(cv.y_hat))
    if ny <= _variance_tolerance(d):
        raise ZeroVariance("target vector has zero sample variance at tolerance")
    return ny


def _centered_r(d: Dataset, cv: CenteredView) -> np.ndarray:
    """The unpivoted triangular factor of (Xc|yc), with full rank of Xc checked.

    Its leading n x n block is the factor of Xc, so the rank is decided on
    Xc alone and the target column's entries stay plain values whatever the
    scale of y.  Raises :class:`RankDeficient` when Xc is rank deficient at
    its own tolerance, or when it is only full rank by its centering
    residue (see below).
    """
    m, n = d.m, d.n
    if m < n + 1:
        raise RankDeficient(f"need at least {n + 1} samples for {n} regressors")
    r = householder_qr(np.column_stack([cv.x_hat, cv.y_hat])).r
    r11 = r[:n, :n]
    # Subtracting the means leaves up to about eps * ||x_j|| of rounding in
    # column j of Xc: three samples of 0.1 center to a nonzero 1e-17.  With
    # each column divided by ||x_j|| (r11 divided the same way is its
    # factor), a singular value at or below m * eps is that rounding.
    if _rank_of_r(r11, m) < n or int(np.sum(
        np.linalg.svd(r11 / np.linalg.norm(d.x, axis=0), compute_uv=False) > m * EPS
    )) < n:
        raise RankDeficient("centered sample matrix is rank deficient at tolerance")
    return r


def _correlation_from_r(r: np.ndarray) -> float:
    """rho = ||r[:n, n]|| / ||r[:, n]||: the share of yc inside the span of Xc."""
    return float(np.linalg.norm(r[:-1, -1]) / np.linalg.norm(r[:, -1]))


def _solve_centered(cv: CenteredView) -> np.ndarray:
    gram = cv.x_hat.T @ cv.x_hat
    rhs = cv.x_hat.T @ cv.y_hat
    try:
        a1 = solve_hermitian_psd(gram, rhs)
    except NotPositiveDefinite as exc:
        raise RankDeficient(str(exc)) from exc
    alpha0 = cv.y_mean - float(a1 @ cv.x_means)
    return _frozen(np.concatenate([[alpha0], a1]))


def normal_solve(d: Dataset) -> np.ndarray:
    """Least-squares coefficients (intercept first) via the centered system.

    Solves the n x n centered normal equations for the slope part, then
    recovers the intercept from the mean equation.  This is better
    conditioned than attacking the (n+1) x (n+1) system head on.  Raises
    :class:`RankDeficient` when Xc fails the rank test of the regression
    report, or the Cholesky factorization of Xc' Xc fails its pivot check.
    """
    cv = center(d)
    _centered_r(d, cv)
    return _solve_centered(cv)


def loss_value_residual(d: Dataset, a) -> float:
    """Exact residual norm ||(1|X) a - y|| for a given coefficient vector."""
    av = as_real_vector(a)
    if av.shape[0] != d.n + 1:
        raise DimensionMismatch(
            f"expected {d.n + 1} coefficients, got {av.shape[0]}"
        )
    return float(np.linalg.norm(_design(d) @ av - d.y))


def loss_value_det(d: Dataset) -> float:
    """Minimized loss value from centered Gram determinants, no solve.

    sqrt(det((Xc|yc)' (Xc|yc)) / det(Xc' Xc)).  Both determinants are
    products over the diagonal of one triangular factor R of (Xc|yc), so
    the ratio is |r[n, n]|.  Raises :class:`RankDeficient` when the centered
    sample matrix is not full rank.
    """
    r = _centered_r(d, center(d))
    return float(abs(r[d.n, d.n]))


def _projection_correlation(d: Dataset, cv: CenteredView, ny: float, a: np.ndarray) -> float:
    p_hat = cv.x_hat @ a[1:]
    npn = float(np.linalg.norm(p_hat))
    if npn <= _variance_tolerance(d):
        raise ZeroProjection("projection of the centered target is zero at tolerance")
    return float(cv.y_hat @ p_hat) / (npn * ny)


def multiple_correlation_projection(d: Dataset) -> float:
    """Correlation as the cosine between the centered target and its projection.

    Needs the regression solve; undefined (ZeroProjection) when the projected
    target is numerically zero.
    """
    cv = center(d)
    ny = _target_norm(d, cv)
    return _projection_correlation(d, cv, ny, normal_solve(d))


def multiple_correlation_det(d: Dataset) -> float:
    """Correlation from Gram determinants alone, no solve.

    The paper's sqrt(1 - det((Xc|yc)' (Xc|yc)) / (det(Xc' Xc) * yc'yc)).
    On the triangular factor R of (Xc|yc) the radicand is
    1 - |r[n, n]|^2 / ||r[:, n]||^2 = ||r[:n, n]||^2 / ||r[:, n]||^2, so the
    subtraction is exact and the value needs no clamp.
    """
    cv = center(d)
    _target_norm(d, cv)
    return _correlation_from_r(_centered_r(d, cv))


def sample_covariance(d: Dataset) -> np.ndarray:
    """The n x n matrix Xc' Xc / (m - 1); symmetric positive semidefinite."""
    if d.m < 2:
        raise InsufficientSamples("covariance needs at least two samples")
    xc = center(d).x_hat
    return _frozen((xc.T @ xc) / (d.m - 1))


def mean_squared_loss(d: Dataset) -> float:
    """loss_value_det squared over (m - 1)."""
    if d.m < 2:
        raise InsufficientSamples("mean squared loss needs at least two samples")
    v = loss_value_det(d)
    return v * v / (d.m - 1)


def regression_report(d: Dataset, *, coefficients: bool = False, solve: bool = True) -> RegressionReport:
    """Assemble the full report, running each step once.

    With solve=False only the determinant-route numbers are produced, which
    demonstrates that loss and correlation need no regression solve.  When
    the projection-route correlation is undefined (zero projection) while the
    determinant route gives 0, the discrepancy is recorded in flags.  The
    rank is decided once, on the centered sample matrix; the solve keeps the
    Cholesky pivot check of :func:`normal_solve`.
    """
    cv = center(d)
    r = _centered_r(d, cv)
    loss = float(abs(r[d.n, d.n]))
    ny = _target_norm(d, cv)
    rho_det = _correlation_from_r(r)
    msl = loss * loss / (d.m - 1)
    methods = {
        "loss_value": "det_ratio",
        "correlation": "det_ratio",
        "mean_squared_loss": "det_ratio",
    }
    rho_proj = None
    coefs = None
    flags: tuple[str, ...] = ()
    if solve:
        a = _solve_centered(cv)
        try:
            rho_proj = _projection_correlation(d, cv, ny, a)
            methods["correlation_projection"] = "projection"
        except ZeroProjection:
            flags = (
                "zero_projection: cosine form undefined, determinant form gives 0",
            )
        if coefficients:
            coefs = a
            methods["coefficients"] = "normal_equations"
    return RegressionReport(
        loss_value=loss,
        correlation=rho_det,
        correlation_projection=rho_proj,
        mean_squared_loss=msl,
        coefficients=coefs,
        methods=methods,
        flags=flags,
    )
