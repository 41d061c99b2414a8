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
from .linalg import LogDet, _frozen, as_matrix, as_vector, det_lu, solve_hermitian_psd
from .qr import _rank_tolerance, gram_logdet, householder_qr

_METHODS = ("det_ratio", "projection", "qr_coordinate")


@dataclass(frozen=True)
class DistanceResult:
    """A distance value and the route that produced it."""

    value: float
    method: str

    def __post_init__(self):
        value = float(self.value)
        if not math.isfinite(value) or value < 0.0:
            raise ValueError(f"distance must be finite and nonnegative, got {value!r}")
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        object.__setattr__(self, "value", value)


def _operands(a, b) -> tuple[np.ndarray, np.ndarray]:
    """A and b validated and copied, with b's length checked against A's rows."""
    mat = as_matrix(a)
    vec = as_vector(b)
    if vec.shape[0] != mat.shape[0]:
        raise DimensionMismatch(
            f"vector length {vec.shape[0]} does not match row count {mat.shape[0]}"
        )
    return mat, vec


def augment(a, b) -> np.ndarray:
    """The matrix A with b appended as its last column."""
    return _frozen(np.column_stack(_operands(a, b)))


def gram_logdets(a, b) -> tuple[LogDet, LogDet]:
    """Log determinants of A* A and of (A|b)* (A|b), via QR.

    The augmented Gram determinant is read off the factor of (b|A), which
    has the same determinant: factoring (A|b) would repeat A's factor in its
    leading block bit for bit, and the product identity that ``verify``
    checks between this and :func:`distance_qr` would hold by construction.
    For a square A the augmented columns are necessarily dependent, so the
    augmented Gram determinant is exactly zero.
    """
    mat, vec = _operands(a, b)
    m, n = mat.shape
    ld_a = gram_logdet(householder_qr(mat))
    if m >= n + 1:
        ld_ab = gram_logdet(householder_qr(np.column_stack([vec, mat])))
    else:
        ld_ab = LogDet.zero()
    return ld_a, ld_ab


def _det_ratio(ld_a: LogDet, ld_ab: LogDet) -> float:
    """sqrt(det((A|b)* (A|b)) / det(A* A)) from the pair of :func:`gram_logdets`."""
    if ld_a.is_zero:
        raise RankDeficient(
            "Gram determinant of the matrix is zero at tolerance; "
            "the determinant ratio is undefined"
        )
    return math.exp((ld_ab.log_mag - ld_a.log_mag) / 2.0)


def distance_det(a, b) -> DistanceResult:
    """Distance as exp of half the difference of the two Gram log-determinants.

    Raises :class:`RankDeficient` when the Gram determinant of A is zero at
    tolerance, where the quotient is undefined.
    """
    return DistanceResult(_det_ratio(*gram_logdets(a, b)), "det_ratio")


def distance_projection(a, b) -> DistanceResult:
    """Distance as the residual norm of the orthogonal projection.

    Solves the normal equations (A* A) x = A* b through the Cholesky routine
    and returns ||b - A x||.  At the minimizer this equals
    sqrt(b*b - b*A (A*A)^-1 A*b), but evaluating the residual vector avoids
    the sqrt(eps)-level cancellation floor that the quadratic-form difference
    hits when b lies (nearly) in the column space.  A failed factorization is
    reported as :class:`RankDeficient`.
    """
    mat, vec = _operands(a, b)
    at = mat.conj().T
    try:
        x = solve_hermitian_psd(at @ mat, at @ vec)
    except NotPositiveDefinite as exc:
        raise RankDeficient(str(exc)) from exc
    return DistanceResult(float(np.linalg.norm(vec - mat @ x)), "projection")


def distance_qr(a, b) -> DistanceResult:
    """Distance from the triangularized (A|b), no rank requirement.

    The augmented matrix is factored without pivoting, so b stays the last
    column.  After the first n reflectors the tail of the transformed b is
    the residual; the final reflector collapses that tail into the single
    entry r[n, n], which is at once the (n+1)-th coordinate (m = n+1) and
    the tail norm (m > n+1).  When (A|b) has full rank at tolerance, so does
    A (its singular values interlace those of (A|b)), and the distance is
    |r[n, n]|.  Otherwise the column span of A is Q times the range of
    R11 = r[:n, :n], and the part of r[:n, n] outside that range is
    unmatched as well:

        value^2 = |r[n, n]|^2  +  ||U[:, k:]* r[:n, n]||^2

    where R11 = U S V* and k counts the singular values above
    max(m, n) * eps * (largest column norm of R11), the rank tolerance of A.
    By unitarity this is the squared distance to the column span, wherever
    the dependent columns sit.  Requires m >= n + 1 rows.
    """
    aug = augment(a, b)
    m, n = aug.shape[0], aug.shape[1] - 1
    f = householder_qr(aug)
    value = float(abs(f.r[n, n]))
    if f.rank_estimate < n + 1:
        r11 = f.r[:n, :n]
        u, s, _ = np.linalg.svd(r11)
        k = int(np.sum(s > _rank_tolerance(r11, m)))
        value = math.hypot(value, float(np.linalg.norm(u[:, k:].conj().T @ f.r[:n, n])))
    return DistanceResult(value, "qr_coordinate")


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
