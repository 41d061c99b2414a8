"""Centered multiple linear regression over real data.

The minimized residual norm (the loss value) and the multiple correlation
coefficient both come in two flavors: the classical route through the normal
equations, and a determinant route that needs no solve at all -- the loss is
the square root of the ratio of two centered Gram determinants, and the
correlation follows from it by Pythagoras.  Both determinants are read off
one triangular factor of (Xc|yc).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distance import _normal_solution
from .errors import DimensionMismatch, RankDeficient, ZeroProjection, ZeroVariance
from .linalg import EPS, _array, _frozen
from .qr import _count_above, _rank_of_r, householder_qr


def _real(a, ndim: int) -> np.ndarray:
    """a validated as a real float64 array of ndim dimensions, not copied."""
    if np.iscomplexobj(a):
        raise TypeError("expected real data, got complex")
    return _array(a, ndim)


@dataclass(frozen=True)
class Dataset:
    """A real sample matrix with one target column.

    names lists the n regressor labels followed by the target label; when
    omitted they default to x1..xn, y.  x and y are kept as read-only
    copies, x in column-major order, so later writes to the caller's arrays
    do not reach them.
    """

    x: np.ndarray
    y: np.ndarray
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        # one layout whatever the caller's: the BLAS and LAPACK results on x
        # depend on it in the last bit, and column-major is the layout of the
        # CLI's column selection
        x = _frozen(np.array(_real(self.x, 2), order="F"))
        y = _frozen(_real(self.y, 1).copy())
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
class RegressionReport:
    """Everything the regress front end emits in one bundle.

    correlation is always the determinant-route value; the projection-route
    value is kept separately because it is undefined when the projection of
    the centered target vanishes (flags records that discrepancy).
    coefficients (intercept first) are present whenever the report solved.
    """

    loss_value: float
    correlation: float
    correlation_projection: float | None
    mean_squared_loss: float
    coefficients: np.ndarray | None
    flags: tuple[str, ...] = ()


def _design(d: Dataset) -> np.ndarray:
    return np.column_stack([np.ones(d.m), d.x])


def design_rank(d: Dataset) -> int:
    """Numerical rank of the intercept-augmented matrix (1|X), counted on
    (1|X) itself, wide or tall."""
    return _rank_of_r(_design(d), d.m)


def centered_rank(d: Dataset) -> int:
    """Rank of the centered sample matrix by the rule of the regression report,
    counted on Xc itself."""
    return _centered_rank_of_r(d.x - d.x.mean(axis=0), d)


def _centered_rank_of_r(r: np.ndarray, d: Dataset) -> int:
    """Rank of Xc, counted on Xc itself or on a triangular factor of it (the
    two share singular values and column norms): the smaller of two counts.

    The first counts at Xc's own tolerance.  The second catches the rounding
    that centering leaves, up to about eps * ||x_j|| in column j of Xc: three
    samples of 0.1 center to a nonzero 1e-17.  With each column divided by
    the uncentered ||x_j|| (r divided the same way stays Xc or its factor), a
    singular value at or below m * eps is that rounding.
    """
    norms = np.linalg.norm(d.x, axis=0)
    scaled = r / np.where(norms > 0.0, norms, 1.0)
    residue_free = _count_above(scaled, d.m * EPS)
    return min(_rank_of_r(r, d.m), residue_free)


def _fit(d: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Xc, yc, R): the data less its column means and the unpivoted
    triangular factor R of (Xc|yc), with full rank of Xc checked.

    The leading n x n block of R is the factor of Xc, so the rank is decided
    on Xc alone, by :func:`_centered_rank_of_r`, and the target column's
    entries stay plain values whatever the scale of y.  Raises
    :class:`RankDeficient` when that rank is below n.
    """
    n = d.n
    if d.m < n + 1:
        raise RankDeficient(f"need at least {n + 1} samples for {n} regressors")
    xc, yc = d.x - d.x.mean(axis=0), d.y - float(d.y.mean())
    r = householder_qr(np.column_stack([xc, yc]))
    if _centered_rank_of_r(r[:n, :n], d) < n:
        raise RankDeficient("centered sample matrix is rank deficient at tolerance")
    return xc, yc, r


def _solve_centered(d: Dataset, xc: np.ndarray, yc: np.ndarray) -> np.ndarray:
    a1 = _normal_solution(xc, yc)
    alpha0 = float(d.y.mean()) - float(a1 @ d.x.mean(axis=0))
    return _frozen(np.concatenate([[alpha0], a1]))


def normal_solve(d: Dataset) -> np.ndarray:
    """Least-squares coefficients (intercept first) via the centered system.

    Solves the n x n centered normal equations for the slope part, then
    recovers the intercept from the mean equation.  This is better
    conditioned than attacking the (n+1) x (n+1) system head on.  Raises
    :class:`RankDeficient` when Xc fails the rank test of the regression
    report, or the Cholesky factorization of Xc' Xc fails its pivot check.
    """
    xc, yc, _ = _fit(d)
    return _solve_centered(d, xc, yc)


def loss_value_residual(d: Dataset, a) -> float:
    """Exact residual norm ||(1|X) a - y|| for a given coefficient vector."""
    av = _real(a, 1)
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
    r = _fit(d)[2]
    return float(abs(r[d.n, d.n]))


def multiple_correlation_projection(d: Dataset) -> float:
    """Correlation as the cosine between the centered target and its projection.

    Needs the regression solve; undefined (ZeroProjection) when the projected
    target is numerically zero.
    """
    rho = regression_report(d).correlation_projection
    if rho is None:
        raise ZeroProjection("projection of the centered target is zero at tolerance")
    return rho


def multiple_correlation_det(d: Dataset) -> float:
    """Correlation from Gram determinants alone, no solve.

    The paper's sqrt(1 - det((Xc|yc)' (Xc|yc)) / (det(Xc' Xc) * yc'yc)).
    On the triangular factor R of (Xc|yc) the radicand is
    1 - |r[n, n]|^2 / ||r[:, n]||^2 = ||r[:n, n]||^2 / ||r[:, n]||^2, so the
    subtraction is exact and the value needs no clamp.
    """
    return regression_report(d, solve=False).correlation


def mean_squared_loss(d: Dataset) -> float:
    """loss_value_det squared over (m - 1)."""
    v = loss_value_det(d)
    return v * v / (d.m - 1)


def regression_report(d: Dataset, *, solve: bool = True) -> RegressionReport:
    """Assemble the full report, running each step once.

    The solve gives the coefficients (intercept first) and the
    projection-route correlation.  With solve=False only the
    determinant-route numbers are produced, which demonstrates that loss and
    correlation need no regression solve.  The rank is decided once, on the
    centered sample matrix, before the target's variance: data that is both
    rank deficient and constant in y raises :class:`RankDeficient`.  A
    target with zero variance at tolerance raises :class:`ZeroVariance`.
    When the projection-route correlation is undefined (zero projection)
    while the determinant route gives 0, the discrepancy is recorded in
    flags.  The solve keeps the Cholesky pivot check of
    :func:`normal_solve`.
    """
    xc, yc, r = _fit(d)
    n = d.n
    loss = float(abs(r[n, n]))
    ny = float(np.linalg.norm(yc))
    tol = d.m * EPS * max(1.0, float(np.max(np.abs(d.y))))
    if ny <= tol:
        raise ZeroVariance("target vector has zero sample variance at tolerance")
    rho_proj = None
    coefs = None
    flags: tuple[str, ...] = ()
    if solve:
        coefs = _solve_centered(d, xc, yc)
        p_hat = xc @ coefs[1:]
        npn = float(np.linalg.norm(p_hat))
        if npn <= tol:
            flags = ("zero_projection: cosine form undefined, determinant form gives 0",)
        else:
            rho_proj = float(yc @ p_hat) / (npn * ny)
    return RegressionReport(
        loss_value=loss,
        correlation=float(np.linalg.norm(r[:n, n]) / np.linalg.norm(r[:, n])),
        correlation_projection=rho_proj,
        mean_squared_loss=loss * loss / (d.m - 1),
        coefficients=coefs,
        flags=flags,
    )
