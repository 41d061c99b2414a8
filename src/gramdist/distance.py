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

``distance_det`` factors one tall matrix.  With (b|A) = Q R for an m x n A
and m >= n + 1, A = Q R[:, 1:], so A* A = M* M for the (n+1) x n block
M = R[:, 1:]: A's Gram determinant is read off a QR of M, at O(n^3) cost
instead of O(m n^2).  Re-triangularizing M composes two unitary
reductions, so its factor is a backward-stable R factor of A (Higham,
Accuracy and Stability of Numerical Algorithms, ch. 19).  When (b|A) has
full rank, so has its column subset A, and A's rank is not decided again.

Each tall QR operand is built once, column-major, the order LAPACK
factors in, as a private temporary that
:func:`~gramdist.qr.householder_qr` factors in place
(``overwrite_a=True``): one copy of A per route, and the caller's arrays
are only read.  The projection route forms A* A by one symmetric rank-k
update (:func:`~gramdist.linalg._gram`).

The routes stay independent: the determinant route reads only the factor
of (b|A), ``distance_qr`` only that of (A|b), and ``distance_projection``
only the Gram matrix A* A.  No route reuses another's factor, so the
identities that ``verify`` checks between them compare different roundings
and hold by no construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, RankDeficient, ShapeError
from .linalg import LogDet, _array, _frozen, _gram, _norm, solve_hermitian_psd
from .qr import (
    _certifies_full_rank,
    _logdet_at_rank,
    _rank_of_r,
    _rank_tolerance,
    gram_logdet,
    householder_qr,
)

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
    """A and b validated, with b's length checked against A's rows.

    Neither is copied: every caller only reads them, and keeps neither.
    """
    mat = _array(a, 2)
    vec = _array(b, 1)
    if vec.shape[0] != mat.shape[0]:
        raise DimensionMismatch(
            f"vector length {vec.shape[0]} does not match row count {mat.shape[0]}"
        )
    return mat, vec


def _stacked(*blocks: np.ndarray) -> np.ndarray:
    """The matrices and vectors in blocks side by side, as the columns of
    one new, writeable column-major matrix: the order LAPACK factors in,
    so householder_qr can factor it in place (``overwrite_a=True``)."""
    cols = [blk.reshape(blk.shape[0], -1) for blk in blocks]
    out = np.empty((cols[0].shape[0], sum(c.shape[1] for c in cols)),
                   np.result_type(*cols), order="F")
    return np.concatenate(cols, axis=1, out=out)


def augment(a, b) -> np.ndarray:
    """The matrix A with b appended as its last column, column-major."""
    return _frozen(_stacked(*_operands(a, b)))


def gram_logdets(a, b) -> tuple[LogDet, LogDet]:
    """Log determinants of A* A and of (A|b)* (A|b), from one tall QR.

    For m >= n + 1 rows, (b|A) = Q R is factored once, and the augmented
    Gram determinant is read off R.  Since A = Q R[:, 1:], A* A is the Gram
    matrix of the (n+1) x n block R[:, 1:], whose own triangular factor
    gives A's determinant.

    A's rank follows from that of (b|A) when the latter is full: its count
    n + 1 means sigma_min(R) > tol, the tolerance m * eps * (largest column
    norm of R).  R[:, 1:] is a column subset of R, so by interlacing
    (Golub and Van Loan, Matrix Computations, 8.6) sigma_min(R[:, 1:]) >=
    sigma_min(R) > tol, and A's own tolerance, m * eps * (largest column
    norm of R[:, 1:]), is at most tol: A has full rank n.  Otherwise A's
    rank is decided on its own factor with A's row count m, so the
    tolerance is A's own.  Factoring (b|A) rather than (A|b) keeps this
    route apart from :func:`distance_qr`: the factor of (A|b) would repeat
    A's factor in its leading block bit for bit, and the product identity
    that ``verify`` checks between the two would hold by construction.

    A square A is factored directly; its augmented columns are necessarily
    dependent, so the augmented Gram determinant is exactly zero.  A wide A
    is rejected by the factorization.
    """
    mat, vec = _operands(a, b)
    m, n = mat.shape
    if m <= n:
        return gram_logdet(householder_qr(mat), m), LogDet.zero()
    r = householder_qr(_stacked(vec, mat), overwrite_a=True)
    k = _rank_of_r(r, m)
    r_a = householder_qr(r[:, 1:])
    ld_a = _logdet_at_rank(r_a, n) if k == n + 1 else gram_logdet(r_a, m)
    return ld_a, _logdet_at_rank(r, k)


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
    reported as :class:`RankDeficient`, and an A* A or A* b that overflows as
    :class:`OverflowError`, whose message names the operand.

    A is read in row-major order, a copy only for other layouts, so the
    value does not depend on the caller's layout.
    """
    mat, vec = _operands(a, b)
    mat = np.ascontiguousarray(mat)
    x = _normal_solution(mat, vec)
    return DistanceResult(_norm(vec - mat @ x), "projection")


def _normal_solution(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """The solution x of the normal equations (A* A) x = A* b, by Cholesky.

    A* A is formed by :func:`~gramdist.linalg._gram`, one symmetric rank-k
    update, and A* b as conj(b* A), so A itself is never conjugated or
    copied.  A failed factorization is reported as :class:`RankDeficient`,
    and an entry of A* A or A* b that overflows as :class:`OverflowError`.
    """
    gram, rhs = _gram(mat), (vec.conj() @ mat).conj()
    if not np.isfinite(gram).all():
        raise OverflowError("Gram matrix of A does not fit a double")
    if not np.isfinite(rhs).all():
        raise OverflowError("A* b does not fit a double")
    try:
        return solve_hermitian_psd(gram, rhs)
    except NotPositiveDefinite as exc:
        raise RankDeficient(str(exc)) from exc


def distance_qr(a, b) -> DistanceResult:
    """Distance from the triangularized (A|b), no rank requirement.

    The augmented matrix is factored without pivoting, so b stays the last
    column.  After the first n reflectors the tail of the transformed b is
    the residual; the final reflector collapses that tail into the single
    entry r[n, n], which is at once the (n+1)-th coordinate (m = n+1) and
    the tail norm (m > n+1).  When A has full rank at tolerance, the
    distance is |r[n, n]|.  Otherwise the column span of A is Q times the
    range of R11 = r[:n, :n], and the part of r[:n, n] outside that range is
    unmatched as well:

        value^2 = |r[n, n]|^2  +  ||U[:, k:]* r[:n, n]||^2

    where R11 = U S V* and k counts the singular values above
    max(m, n) * eps * (largest column norm of R11), the rank tolerance of A.
    By unitarity this is the squared distance to the column span, wherever
    the dependent columns sit.  Requires m >= n + 1 rows.

    (A|b) is built once and factored in place; no name keeps it past the
    factorization, so the rank certificate's arrays do not stack on it.
    """
    mat, vec = _operands(a, b)
    m, n = mat.shape
    r = householder_qr(_stacked(mat, vec), overwrite_a=True)
    value = float(abs(r[n, n]))
    r11 = r[:n, :n]
    tol = _rank_tolerance(r11, m)
    if not _certifies_full_rank(r11, tol):
        # one SVD decides k and gives U; at k == n, U[:, k:] is empty and
        # the hypot returns value exactly
        u, s, _ = np.linalg.svd(r11)
        k = int((s > tol).sum())
        value = math.hypot(value, _norm(u[:, k:].conj().T @ r[:n, n]))
    return DistanceResult(value, "qr_coordinate")


def _minor_logdets(a) -> tuple[np.ndarray, list[LogDet]]:
    """A validated as an (n+1) x n matrix, and the determinants of its n+1
    row-deleted minors, each by LU as :func:`~gramdist.linalg.det_lu`
    computes it, stacked into one (n+1, n, n) slogdet call; an exactly
    singular minor is the exact zero."""
    mat = _array(a, 2)
    m, n = mat.shape
    if m != n + 1:
        raise ShapeError(f"need an (n+1) x n matrix, got {mat.shape}")
    rows = np.arange(m)
    # row i of kept lists every row index but i
    kept = np.broadcast_to(rows, (m, m))[rows[:, None] != rows].reshape(m, n)
    signs, log_mags = np.linalg.slogdet(mat[kept])
    return mat, [
        LogDet.zero() if sign == 0 else LogDet(complex(sign), float(log_mag))
        for sign, log_mag in zip(signs, log_mags)
    ]


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
    mat, minors = _minor_logdets(a)
    n = mat.shape[1]
    signs = np.array([1.0 if (n + i) % 2 == 0 else -1.0 for i in range(n + 1)])
    vals = np.array([ld.value() for ld in minors], np.complex128)
    out = signs * np.conj(vals)
    if not np.iscomplexobj(mat):
        out = out.real
    return _frozen(out)


def minor_sum(a) -> float:
    """Sum of squared magnitudes of the n+1 row-deleted minor determinants.

    Accumulated as an exactly rounded sum (``math.fsum``) of terms shifted
    in the log domain, so individual minors far above or below unit scale do
    not poison the intermediate terms.  Only the final result must fit a
    double.
    """
    logs = [2.0 * ld.log_mag for ld in _minor_logdets(a)[1] if not ld.is_zero]
    if not logs:
        return 0.0
    shift = max(logs)
    return math.exp(shift + math.log(math.fsum(math.exp(lg - shift) for lg in logs)))
