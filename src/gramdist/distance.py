"""Distance from a vector to a column space, three ways, plus the
row-deleted minor identities for (n+1) x n matrices.

The three routes:

* ``distance_det``        -- square root of the ratio of the augmented Gram
                             determinant to the plain one, entirely in log
                             space; needs full column rank.
* ``distance_projection`` -- residual of the orthogonal projection obtained
                             from the normal equations; needs full rank.
* ``distance_qr``         -- trailing coordinates of the unpivoted
                             triangularization of (A|b); no rank requirement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, RankDeficient, ShapeError
from .linalg import EPS, LogDet, _frozen, as_matrix, as_vector, det_lu, solve_hermitian_psd
from .qr import gram_logdet, householder_qr

_METHODS = ("det_ratio", "projection", "qr_coordinate")


@dataclass(frozen=True)
class DistanceResult:
    """A distance value together with the two Gram log-determinants behind it."""

    value: float
    method: str
    gram_logdet_a: LogDet
    gram_logdet_ab: LogDet

    def __post_init__(self):
        value = float(self.value)
        if not math.isfinite(value) or value < 0.0:
            raise ValueError(f"distance must be finite and nonnegative, got {value!r}")
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        object.__setattr__(self, "value", value)


def augment(a, b) -> np.ndarray:
    """The matrix A with b appended as its last column."""
    mat = as_matrix(a)
    vec = as_vector(b)
    if vec.shape[0] != mat.shape[0]:
        raise DimensionMismatch(
            f"vector length {vec.shape[0]} does not match row count {mat.shape[0]}"
        )
    return _frozen(np.column_stack([mat, vec]))


def gram_logdets(a, b) -> tuple[LogDet, LogDet]:
    """Log determinants of A* A and of (A|b)* (A|b), via QR.

    The augmented Gram determinant is read off the factor of (b|A), which
    has the same determinant: factoring (A|b) would repeat A's factor in its
    leading block bit for bit, and the product identity that ``verify``
    checks between this and :func:`distance_qr` would hold by construction.
    For a square A the augmented columns are necessarily dependent, so the
    augmented Gram determinant is exactly zero.
    """
    mat = as_matrix(a)
    vec = as_vector(b)
    if vec.shape[0] != mat.shape[0]:
        raise DimensionMismatch(
            f"vector length {vec.shape[0]} does not match row count {mat.shape[0]}"
        )
    m, n = mat.shape
    ld_a = gram_logdet(householder_qr(mat))
    if m >= n + 1:
        ld_ab = gram_logdet(householder_qr(np.column_stack([vec, mat])))
    else:
        ld_ab = LogDet.zero()
    return ld_a, ld_ab


def distance_det(a, b) -> DistanceResult:
    """Distance as exp of half the difference of the two Gram log-determinants.

    Raises :class:`RankDeficient` when the Gram determinant of A is zero at
    tolerance, where the quotient is undefined.
    """
    ld_a, ld_ab = gram_logdets(a, b)
    if ld_a.is_zero:
        raise RankDeficient(
            "Gram determinant of the matrix is zero at tolerance; "
            "the determinant ratio is undefined"
        )
    value = math.exp((ld_ab.log_mag - ld_a.log_mag) / 2.0)
    return DistanceResult(value, "det_ratio", ld_a, ld_ab)


def distance_projection(a, b) -> DistanceResult:
    """Distance as the residual norm of the orthogonal projection.

    Solves the normal equations (A* A) x = A* b through the Cholesky routine
    and returns ||b - A x||.  At the minimizer this equals
    sqrt(b*b - b*A (A*A)^-1 A*b), but evaluating the residual vector avoids
    the sqrt(eps)-level cancellation floor that the quadratic-form difference
    hits when b lies (nearly) in the column space.  A failed factorization is
    reported as :class:`RankDeficient`.  The Gram log-determinants carried on
    the result come from LU on the explicitly formed Gram matrices, which is
    this route's natural bookkeeping.
    """
    mat = as_matrix(a)
    vec = as_vector(b)
    if vec.shape[0] != mat.shape[0]:
        raise DimensionMismatch(
            f"vector length {vec.shape[0]} does not match row count {mat.shape[0]}"
        )
    at = mat.conj().T
    gram = at @ mat
    rhs = at @ vec
    try:
        x = solve_hermitian_psd(gram, rhs)
    except NotPositiveDefinite as exc:
        raise RankDeficient(str(exc)) from exc
    value = float(np.linalg.norm(vec - mat @ x))
    aug = augment(mat, vec)
    ld_a = det_lu(gram)
    ld_ab = det_lu(aug.conj().T @ aug)
    return DistanceResult(value, "projection", ld_a, ld_ab)


def distance_qr(a, b) -> DistanceResult:
    """Distance from the triangularized (A|b), no rank requirement.

    The augmented matrix is factored without pivoting, so b stays the last
    column.  After the first n reflectors the tail of the transformed b is
    the residual; the final reflector collapses that tail into the single
    entry r[n, n], which is at once the (n+1)-th coordinate (m = n+1) and
    the tail norm (m > n+1).  When A is rank deficient, a column whose
    diagonal falls to tolerance adds no direction to the span, so the
    b-column entry in its row is unmatched as well:

        value^2 = |r[n, n]|^2  +  sum |r[k, n]|^2 over k < n
                                   with |r[k, k]| at or below tolerance

    which by unitarity equals the true squared distance to the column span.
    Requires m >= n + 1 rows.
    """
    mat = as_matrix(a)
    vec = as_vector(b)
    if vec.shape[0] != mat.shape[0]:
        raise DimensionMismatch(
            f"vector length {vec.shape[0]} does not match row count {mat.shape[0]}"
        )
    m, n = mat.shape
    aug = augment(mat, vec)
    f = householder_qr(aug)
    tau = max(m, n + 1) * EPS * float(np.linalg.norm(aug))
    unmatched = np.abs(np.diag(f.r)) <= tau
    unmatched[n] = True
    value = float(np.linalg.norm(f.r[unmatched, n]))
    ld_a, ld_ab = gram_logdets(mat, vec)
    return DistanceResult(value, "qr_coordinate", ld_a, ld_ab)


def _minor_logdets(mat: np.ndarray) -> list[LogDet]:
    base = np.asarray(mat)
    return [det_lu(np.delete(base, i, axis=0)) for i in range(base.shape[0])]


def orthogonal_minor_vector(a) -> np.ndarray:
    """The alternating conjugated row-deleted minors of an (n+1) x n matrix.

    Entry i (1-based) is (-1)^(n+1+i) * conj(det of A with row i removed):
    the cofactor signs of a hypothetical last column, which is the
    generalized cross product of the columns of A.  Expanding det(A|a_j)
    along that column shows the vector is orthogonal to every column a_j;
    the alternating per-row sign is what makes that expansion vanish, a
    constant sign would not.  Raises OverflowError when a minor's magnitude
    exceeds the double range.
    """
    mat = as_matrix(a)
    m, n = mat.shape
    if m != n + 1:
        raise ShapeError(f"need an (n+1) x n matrix, got {mat.shape}")
    signs = np.array([1.0 if (n + i) % 2 == 0 else -1.0 for i in range(m)])
    vals = np.array([ld.value() for ld in _minor_logdets(mat)], np.complex128)
    out = signs * np.conj(vals)
    if not np.iscomplexobj(mat):
        out = out.real
    return _frozen(out)


def minor_sum(a) -> float:
    """Sum of squared magnitudes of the n+1 row-deleted minor determinants.

    Accumulated as a shifted compensated sum in the log domain, so individual
    minors far above or below unit scale do not poison the intermediate
    terms.  Only the final result must fit a double.
    """
    mat = as_matrix(a)
    m, n = mat.shape
    if m != n + 1:
        raise ShapeError(f"need an (n+1) x n matrix, got {mat.shape}")
    logs = [2.0 * ld.log_mag for ld in _minor_logdets(mat) if not ld.is_zero]
    if not logs:
        return 0.0
    shift = max(logs)
    total = 0.0
    carry = 0.0
    for lg in logs:
        term = math.exp(lg - shift) - carry
        acc = total + term
        carry = (acc - total) - term
        total = acc
    return math.exp(shift + math.log(total))
