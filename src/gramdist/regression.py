"""Centered multiple linear regression over real data.

One triangular factor R of (Xc|yc), the data less its column means, gives
the regression numbers without a solve: the minimized residual norm (the
loss value) is |r[n, n]|, the square root of the ratio of two centered Gram
determinants, and the multiple correlation follows from it by Pythagoras.
The classical route through the normal equations gives the coefficients
and a second correlation to check against.  :func:`regression_report`
computes them all, each step once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distance import _normal_solution, _stacked
from .errors import DimensionMismatch, RankDeficient, ZeroVariance
from .linalg import EPS, _array, _column_norms, _frozen, _norm
from .qr import _count_above, householder_qr


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
    """Every number of a centered regression, from :func:`regression_report`.

    loss_value and correlation are the determinant-route values, read off
    the factor of (Xc|yc) with no solve, and mean_squared_loss is
    loss_value squared over m - 1.  coefficients (intercept first) and the
    projection-route correlation_projection come from the solve and are
    None without it; correlation_projection is also None when the
    projection of the centered target vanishes, which flags records.
    """

    loss_value: float
    correlation: float
    correlation_projection: float | None
    mean_squared_loss: float
    coefficients: np.ndarray | None
    flags: tuple[str, ...] = ()


def _design(d: Dataset) -> np.ndarray:
    return np.column_stack([np.ones(d.m), d.x])


def _equilibrated_rank(a: np.ndarray, norms: np.ndarray, m: int) -> int:
    """Number of singular values above m * eps of the m-row matrix a with
    column j divided by norms[j] (a zero norm divides by 1).

    This is the one rank rule of the regression layer.  Dividing each
    column by a norm puts every column on one scale, and column scaling is
    within sqrt(n) of the best diagonal scaling (van der Sluis 1969), so
    the scale of one column against the others does not change the count,
    as long as the squares behind its norm stay in the double range.
    """
    return _count_above(a / np.where(norms > 0.0, norms, 1.0), m * EPS)


def design_rank(d: Dataset) -> int:
    """Numerical rank of the intercept-augmented matrix (1|X), wide or tall,
    counted on (1|X) itself with each column divided by its own norm: sqrt(m)
    for the ones and ||x_j|| for x_j.

    With :func:`centered_rank`'s rule this gives rk(1|X) = rk(Xc) + 1 also
    at large offsets, where (1|X) is ill-conditioned relative to its largest
    column and Xc is not.
    """
    a = _design(d)
    return _equilibrated_rank(a, _column_norms(a), d.m)


def centered_rank(d: Dataset) -> int:
    """Rank of the centered sample matrix by the rule of the regression report,
    counted on Xc itself."""
    return _centered_rank_of_r(d.x - d.x.mean(axis=0), d)


def _centered_rank_of_r(r: np.ndarray, d: Dataset) -> int:
    """Rank of Xc, counted on Xc itself or on a triangular factor of it (the
    two share singular values and column norms).

    Column j is divided by the uncentered ||x_j|| (r divided the same way
    stays Xc or its factor), and a singular value at or below m * eps is
    not rank.  That catches the rounding that centering leaves, up to about
    eps * ||x_j|| in column j of Xc: three samples of 0.1 center to a
    nonzero 1e-17.
    """
    return _equilibrated_rank(r, _column_norms(d.x), d.m)


def loss_value_residual(d: Dataset, a) -> float:
    """Exact residual norm ||(1|X) a - y|| for a given coefficient vector."""
    av = _real(a, 1)
    if av.shape[0] != d.n + 1:
        raise DimensionMismatch(
            f"expected {d.n + 1} coefficients, got {av.shape[0]}"
        )
    return _norm(_design(d) @ av - d.y)


def _scaled(v: np.ndarray) -> tuple[np.ndarray, float]:
    """(v / s, s) for s the power of two just above max|v| (1 for a zero v).

    The division is exact, so norms and dot products of v / s are those of
    v scaled bit for bit, and their squares stay in the double range.
    """
    s = math.ldexp(1.0, math.frexp(float(np.abs(v).max(initial=0.0)))[1])
    return v / s, s


def regression_report(d: Dataset, *, solve: bool = True) -> RegressionReport:
    """Every number of the regression of d, each step run once.

    (Xc|yc) is stacked once, column-major, and factored in place.  The
    leading n x n block of its factor R is the factor of Xc, so the rank is
    decided on Xc alone, by one count of :func:`_centered_rank_of_r`, and
    the target column stays a plain value whatever the scale of y.  The
    rank comes first: data that has fewer than n + 1 samples or is rank
    deficient raises :class:`RankDeficient`, even with a constant y.  A
    target with zero variance at tolerance raises :class:`ZeroVariance`.

    With no solve, the loss value is |r[n, n]| and the correlation
    ||r[:n, n]|| / ||r[:, n]||: the paper's radicand
    1 - |r[n, n]|^2 / ||r[:, n]||^2 with the subtraction done exactly, so
    no clamp is needed.  The solve gives the coefficients, intercept first,
    from the n x n centered normal equations (better conditioned than the
    system of (1|X)) and the mean equation, where a failed Cholesky pivot
    raises :class:`RankDeficient`, and the projection-route correlation;
    when the projection vanishes, flags records that the determinant route
    gives 0.  Norms and the dot product
    are taken on :func:`_scaled` vectors, so only a number that does not
    fit a double itself, such as the squared loss at a huge y, raises
    OverflowError.
    """
    n = d.n
    if d.m < n + 1:
        raise RankDeficient(f"need at least {n + 1} samples for {n} regressors")
    x_mean, y_mean = d.x.mean(axis=0), float(d.y.mean())
    xc, yc = d.x - x_mean, d.y - y_mean
    r = householder_qr(_stacked(xc, yc), overwrite_a=True)
    if _centered_rank_of_r(r[:n, :n], d) < n:
        raise RankDeficient("centered sample matrix is rank deficient at tolerance")
    loss = float(abs(r[n, n]))
    ys, y_scale = _scaled(yc)
    ny = _norm(ys)
    tol = d.m * EPS * max(1.0, float(np.abs(d.y).max()))
    if ny * y_scale <= tol:
        raise ZeroVariance("target vector has zero sample variance at tolerance")
    rho_proj = None
    coefs = None
    flags: tuple[str, ...] = ()
    if solve:
        a1 = _normal_solution(xc, yc)
        coefs = _frozen(np.concatenate([[y_mean - float(a1 @ x_mean)], a1]))
        ps, p_scale = _scaled(xc @ coefs[1:])
        npn = _norm(ps)
        if npn * p_scale <= tol:
            flags = ("zero_projection: cosine form undefined, determinant form gives 0",)
        else:
            rho_proj = float(ys @ ps) / (npn * ny)
    rs = _scaled(r[:, n])[0]
    rho = _norm(rs[:n]) / _norm(rs)
    mse = loss * loss / (d.m - 1)
    shown = [loss, rho, mse]
    if solve:
        shown += [*coefs.tolist(), 0.0 if rho_proj is None else rho_proj]
    if not all(map(math.isfinite, shown)):
        raise OverflowError("a result of the regression does not fit a double")
    return RegressionReport(
        loss_value=loss,
        correlation=rho,
        correlation_projection=rho_proj,
        mean_squared_loss=mse,
        coefficients=coefs,
        flags=flags,
    )
