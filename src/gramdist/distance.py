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

Each tall QR operand is built once by ``qr._stacked``, a private
temporary that :func:`~gramdist.qr.householder_qr` factors in place: one
copy of A per route, and the caller's arrays are only read.  The two QR
routes check the finiteness of A and b once, as the entries of that
operand in ``householder_qr``; only where a check or the length test
fails do they validate A and b apart, so that an error is the one the
projection route raises for the same input.  Every rank is decided by the
one rule of ``qr``, and the projection route solves the normal equations
of ``linalg._normal_solution``.

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

from .errors import DimensionMismatch, RankDeficient, ShapeError
from .linalg import LogDet, _array, _column_norms, _exact, _frozen, _normal_solution
from .qr import _logdet_at_rank, _rank_of_r, _residual, _stacked, gram_logdet, householder_qr

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


def _unchecked_operands(a, b) -> tuple[np.ndarray, np.ndarray]:
    """A and b as :func:`_operands` gives them, but not checked for
    finiteness where both are float64 or complex128 arrays of matching
    length: for a route that factors a matrix stacked from both by
    :func:`_factored`, whose check covers every entry of both.  Other
    input goes through :func:`_operands`, so it converts and fails as
    there."""
    if _exact(a, 2) and _exact(b, 1) and a.shape[0] == b.shape[0]:
        return a, b
    return _operands(a, b)


def _factored(a, b, *blocks: np.ndarray) -> np.ndarray:
    """The triangular factor of the blocks of :func:`_unchecked_operands`
    (a, b) side by side, factored in place.  The finiteness check of
    ``householder_qr`` on them stands for that of a and b; where it fails,
    :func:`_operands` raises the error of their full validation, so the
    class, the message and which operand it names are the same."""
    work = _stacked(*blocks)
    try:
        return householder_qr(work, overwrite_a=True)
    except ValueError:
        _operands(a, b)
        raise


def gram_logdets(a, b) -> tuple[LogDet, LogDet]:
    """Log determinants of A* A and of (A|b)* (A|b), from one tall QR.

    For m >= n + 1 rows, (b|A) = Q R is factored once, and the augmented
    Gram determinant is read off R.  Since A = Q R[:, 1:], A* A is the Gram
    matrix of the (n+1) x n block R[:, 1:], whose own triangular factor
    gives A's determinant.

    A's rank follows from that of (b|A) when the latter is full.  The rule
    of ``qr._rank`` counts on R D^-1, D the diagonal of R's column norms,
    and its count n + 1 means sigma_min(R D^-1) > m * eps.  A's column norms
    are those of R[:, 1:], so A's rule counts on R[:, 1:] D_A^-1, a column
    subset of R D^-1, at the same tolerance m * eps.  By interlacing (Golub
    and Van Loan, Matrix Computations, 8.6) its smallest singular value is
    at least sigma_min(R D^-1) > m * eps: A has full rank n.  Otherwise A's
    rank is decided on its own factor with A's row count m.  Factoring (b|A)
    rather than (A|b) keeps this route apart from :func:`distance_qr`: the
    factor of (A|b) would repeat A's factor in its leading block bit for
    bit, and the product identity that ``verify`` checks between the two
    would hold by construction.

    A square A is factored directly; its augmented columns are necessarily
    dependent, so the augmented Gram determinant is exactly zero, and b,
    which that factor leaves out, is validated on its own.  A wide A is
    rejected by the factorization.
    """
    mat, vec = _unchecked_operands(a, b)
    m, n = mat.shape
    if m <= n:
        _operands(mat, vec)
        return gram_logdet(householder_qr(mat), m), LogDet.zero()
    r = _factored(a, b, vec, mat)
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
    return DistanceResult(_column_norms(vec - mat @ x), "projection")


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

    where R11 D^-1 = U S V*, D the diagonal of R11's column norms, and k
    counts its singular values above m * eps: A's rank by the rule of
    ``qr._rank``.  D leaves the range of R11 as it is, and a column of A
    rescaled by a power of two leaves k and the value as they are, bit for
    bit within the double range.  By unitarity this is the squared distance
    to the column span, wherever the dependent columns sit.  Requires
    m >= n + 1 rows.  The value and k are the one reading of the factor,
    ``qr._residual``, that ``regression_report`` also takes; its SVD runs
    only where the certificates of the rule fail.

    (A|b) is built once and factored in place; no name keeps it past the
    factorization, so the rank certificates' arrays do not stack on it.
    """
    mat, vec = _unchecked_operands(a, b)
    return DistanceResult(_residual(_factored(a, b, mat, vec), mat.shape[0])[0], "qr_coordinate")


def _minor_logdets(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A validated as an (n+1) x n matrix, and the signs and log magnitudes
    of the determinants of its n+1 row-deleted minors, each by LU with
    partial pivoting, stacked into one (n+1, n, n) slogdet call.  An
    exactly singular minor has sign 0 and log -inf.  An LU that overflows
    raises OverflowError, and numpy's warnings about it are off: that
    check handles it."""
    mat = _array(a, 2)
    m, n = mat.shape
    if m != n + 1:
        raise ShapeError(f"need an (n+1) x n matrix, got {mat.shape}")
    rows = np.arange(m)
    # row i of kept lists every row index but i
    kept = np.broadcast_to(rows, (m, m))[rows[:, None] != rows].reshape(m, n)
    with np.errstate(over="ignore", invalid="ignore"):
        signs, logs = np.linalg.slogdet(mat[kept])
    if not (logs < math.inf).all():
        raise OverflowError("the LU factorization of a row-deleted minor overflowed")
    return mat, signs, logs


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
    return _minor_vector(*_minor_logdets(a))


def minor_sum(a) -> float:
    """Sum of squared magnitudes of the n+1 row-deleted minor determinants.

    Accumulated as an exactly rounded sum (``math.fsum``) of terms shifted
    in the log domain, so individual minors far above or below unit scale do
    not poison the intermediate terms.  Only the final result must fit a
    double; one that does not raises OverflowError.
    """
    return _minor_sum(_minor_logdets(a)[2])


def _minor_identity(a) -> tuple[float, np.ndarray]:
    """:func:`minor_sum` and :func:`orthogonal_minor_vector` of a, from one
    set of row-deleted minors.  The sum is formed first, so an overflow
    raises the error that minor_sum alone would."""
    mat, signs, logs = _minor_logdets(a)
    return _minor_sum(logs), _minor_vector(mat, signs, logs)


def _minor_vector(mat: np.ndarray, signs: np.ndarray, logs: np.ndarray) -> np.ndarray:
    n = mat.shape[1]
    alternating = np.array([1.0 if (n + i) % 2 == 0 else -1.0 for i in range(n + 1)])
    try:
        # each minor is its unit sign times exp(log), the zero minor 0
        minors = np.array([s / abs(s) * math.exp(lg) if s else 0j
                           for s, lg in zip(signs.tolist(), logs.tolist())], np.complex128)
    except OverflowError:
        raise OverflowError("the determinant does not fit a double") from None
    out = alternating * np.conj(minors)
    if not np.iscomplexobj(mat):
        out = out.real
    return _frozen(out)


def _minor_sum(logs: np.ndarray) -> float:
    squares = [2.0 * lg for lg in logs.tolist() if lg != -math.inf]
    if not squares:
        return 0.0
    shift = max(squares)
    try:
        return math.exp(shift + math.log(math.fsum(math.exp(lg - shift) for lg in squares)))
    except OverflowError:
        raise OverflowError("the sum of squared minors does not fit a double") from None
