"""Householder QR through LAPACK, keeping only the triangular factor, and
the one rank rule of the package.

The Gram log-determinant of the input is read directly off the triangular
diagonal, which is the numerically safe way to get det(A* A) for tall
matrices.  Q is never formed: callers that need a unitary matrix take it
from ``np.linalg.qr`` directly.  LAPACK's geqrf factors a column-major
array in place: by default a copy of the operand, or, with
``overwrite_a=True``, the operand itself, which :func:`_stacked` builds
for it.  geqrf is reached through ``numpy.linalg.lapack_lite``, so numpy
stays the only runtime dependency.

No rank is decided while factoring.  Every rank of the package is counted
here, by the one rule of :func:`_rank`: the singular values above
rows * eps of a matrix, or of its triangular factor, with column j
divided by ||x_j||.  Full rank is settled by the first certificate that
proves it, on the undivided matrix, then on the divided one.  Each tries,
on a triangular factor of at most _SCALAR_COLUMNS or more than _BLOCK
columns, an O(n^2) back substitution on its comparison matrix
(:func:`_certifies_triangular`), then an O(n^3) shifted Cholesky of its
Gram matrix (:func:`_certifies_full_rank`), which alone bounds a general
matrix.  An SVD runs only when they fail.  Column norms come from
``linalg._column_norms``, the one norm rule of the package, and
reductions are array methods: the same arithmetic as
``np.linalg.norm(x, axis=0)`` and ``np.max`` without their per-call Python
cost, which dominates on small matrices.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from operator import mul

import numpy as np
from numpy.linalg import lapack_lite

from .errors import ShapeError
from .linalg import _BLOCK, EPS, LogDet, _array, _column_norms, _finite, _frozen, _scaled, _solve_triangular

# The smallest positive (subnormal) double.
_ETA = 2.0**-1074

# Factors of at most this many columns try the comparison-matrix
# certificate first, by a loop in Python floats that costs less there than
# the Cholesky certificate.  So do factors of more than _BLOCK columns,
# whose block substitution is O(n^2) against Cholesky's O(n^3).  Between
# the two, either substitution costs more than the Cholesky certificate,
# which runs alone.
_SCALAR_COLUMNS = 8

# A full-rank certificate: True only if sigma_min(a) >= 2 * tol.
_Certificate = Callable[[np.ndarray, float], bool]

# The upper triangle of every n x n factor with n <= _BLOCK, as the
# top-left block of one read-only mask.
_UPPER = _frozen(np.triu(np.ones((_BLOCK, _BLOCK), bool)))

# Entries within [1/_SQUARES_FIT, _SQUARES_FIT] have normal squares, and no
# sum of them overflows.
_SQUARES_FIT = 2.0**480


def _rank(a: np.ndarray, rows: int, x: np.ndarray | None = None, *,
          triangular: bool = False) -> int:
    """The rank rule of the package: the number of singular values above
    rows * eps of the m x n matrix a, m = rows, with column j divided by
    ||x_j||, the norm of column j of x (by default a itself).

    Column j of x is zero only where column j of a is.  With
    ``triangular=True``, a is the triangular factor R of an m-row matrix A,
    zero below its diagonal, with A's column norms and singular values.
    Every column on one scale is within sqrt(n) of the best diagonal
    scaling (van der Sluis 1969), and neither the scale of one column nor
    the column order changes the count, as a distance to a column space
    does not change.
    """
    certified = _certified if triangular else _certifies_full_rank
    e = _divided(a, rows, x, certified)
    return a.shape[1] if e is None else _count_above(e, rows * EPS, certified)


def _rank_of_r(r: np.ndarray, rows: int) -> int:
    """:func:`_rank` of the triangular factor r of an m-row matrix, m = rows."""
    return _rank(r, rows, triangular=True)


def _outside_rank(r: np.ndarray, rows: int) -> np.ndarray | None:
    """The directions outside the numerical range of the triangular factor
    r of an m-row matrix, m = rows, by the rule of :func:`_rank`: None
    where a certificate proves full rank, else U[:, k:] for the divided
    r = U S V* and k its count, empty at a full count.  Dividing a column
    by a positive number leaves the range as it is."""
    e = _divided(r, rows, None, _certified)
    if e is None or _certified(e, rows * EPS):
        return None
    u, s, _ = np.linalg.svd(e)
    return u[:, int((s > rows * EPS).sum()):]


def _divided(a: np.ndarray, rows: int, x: np.ndarray | None,
             certified: _Certificate) -> np.ndarray | None:
    """None where certified proves the count of :func:`_rank` full on a
    itself, else a with column j divided by ||x_j|| (a zero column stays
    zero), the matrix whose singular values the rule counts.

    With D = diag(||x_j||), sigma_min(a D^-1) >= sigma_min(a) / max_j ||x_j||,
    so a certificate of sigma_min(a) >= 2 rows eps top, for any top at or
    above max_j ||x_j||, proves the full count without dividing, wherever
    the squares behind the norms fit a double.  On a matrix of at most
    _BLOCK columns and _BLOCK^2 entries top is :func:`_norm_bound`, read
    off the max|x| of that range check, and elsewhere the largest norm
    itself.  A larger top only asks more of the certificate, so the
    shortcut can fail where the exact norm would pass, never pass where
    the count falls short: a matrix it fails goes on to the divided count
    and gets the count the rule defines.  There column j of x and of a is
    first divided by the power of two s_j that ``linalg._scaled`` takes
    for x_j, exactly, so the quotient is the same for x_j and for x_j times
    any power of two, and it is formed also where the squares of x_j leave
    the double range.
    """
    x = a if x is None else x
    big = float(np.abs(x).max())
    if big <= _SQUARES_FIT:
        p, n = x.shape
        if n <= _BLOCK and p * n <= _BLOCK * _BLOCK:
            top = _norm_bound(big, p)
        else:
            top = float(_column_norms(x).max())
        if top >= 1.0 / _SQUARES_FIT and certified(a, rows * EPS * top):
            return None
    xs, s = _scaled(x)
    norms = _column_norms(xs)
    return a / (s * np.where(norms > 0.0, norms, 1.0))


def _norm_bound(big: float, rows: int) -> float:
    """An upper bound on the computed norm of every column of a matrix of
    the given row count whose largest entry modulus is big, for big within
    [1/_SQUARES_FIT, _SQUARES_FIT]: sqrt(rows) big, which column j reaches
    only when all its entries share the modulus big, raised by
    (rows + 4) eps.  That covers the rounding of the norm (the squares, a
    sum of rows terms, the root, and big itself off the rounded modulus of
    a complex entry) and of this product, with room to spare."""
    return math.sqrt(rows) * big * (1.0 + (rows + 4) * EPS)


def _certified(r: np.ndarray, tol: float) -> bool:
    """True only if sigma_min(r) >= 2 * tol for a square triangular factor
    r, by the certificates in their one order, cheapest first: at most
    _SCALAR_COLUMNS or more than _BLOCK columns
    :func:`_certifies_triangular`, then :func:`_certifies_full_rank`."""
    n = r.shape[1]
    return (((n <= _SCALAR_COLUMNS or n > _BLOCK) and _certifies_triangular(r, tol))
            or _certifies_full_rank(r, tol))


def _certifies_triangular(r: np.ndarray, tol: float) -> bool:
    """True only if sigma_min(r) >= 2 * tol, for a square upper triangular
    r, zero below its diagonal as a factor of :func:`householder_qr` is.
    A diagonal entry that is zero, or whose modulus overflows, is never
    certified.  Up to _SCALAR_COLUMNS columns its substitution is a loop
    in Python floats, which there costs less than the numpy calls of
    :func:`_certifies_full_rank`.

    The proof is a bound through the comparison matrix M = M(r), which has
    |r_ii| on its diagonal and -|r_ij| above it.  M is an M-matrix, so
    M^-1 >= 0, and |r^-1| <= M^-1 entrywise (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 8.3).  The 2-norm
    is monotone on nonnegative matrices and ||B||_2 <= sqrt(n) ||B||_inf,
    so with x = M^-1 e, e the vector of ones, whose largest entry is
    ||M^-1||_inf,

        sigma_min(r) = 1 / ||r^-1||_2 >= 1 / ||M^-1||_2
                     >= 1 / (sqrt(n) max(x)).

    Then 2 tol sqrt(n) max(x) <= 1 proves sigma_min(r) >= 2 tol; the test
    asks 4 tol sqrt(n) max(x^) <= 1 of the computed x^, a factor 2 to spare
    for rounding.  With u = eps/2 and gamma_k = k u / (1 - k u):

    * the comparison matrix: |r_ij| of a complex entry carries a relative
      error of at most 2u, or overflows.  An infinite |r_ij| above the
      diagonal makes its row of x^ an inf or a nan, and one on the
      diagonal is refused, as it would give x^_i = 0.  Otherwise
      M^-1 = sum_(k<n) (D^-1 U)^k D^-1 for M = D - U, so the exact inverse
      of the computed M is at least M^-1 / (1 + 2u)^(2n) entrywise;
    * the substitution: M x = e is solved from x_n up.  Up to
      _SCALAR_COLUMNS columns that is a loop in Python floats over
      ``r.tolist()``, each x_i the sum 1 + sum_(j>i) |r_ij| x_j divided by
      |r_ii|.  Above, it is ``linalg._solve_triangular``, whose diagonal
      blocks reach LAPACK's LU with partial pivoting; on a triangular M
      that LU is exact (no row is swapped, every multiplier is 0), so it
      forms the same quotients with the sums in some order.  Every term is
      nonnegative, so nothing cancels: a sum of k nonnegative terms
      carries a relative error of at most gamma_k, and the product, the
      division (or the product by a computed reciprocal) a few u more.  By
      induction from x_n up, x^ >= x (1 - gamma_(n+4))^n;
    * underflow: the numerator of x_i is at least 1, so underflowed
      products shift it by at most n eta, eta the smallest subnormal, and
      x_i >= 1 / |r_ii| >= 2^-1024 is rounded to within 2^-50 relative.

    Together x^ >= x / 2 whenever n (n + 8) u < 1/2, that is for every n
    below 6 * 10^7, far beyond any matrix that fits in memory.  Nothing is
    claimed when a diagonal modulus is zero or infinite, when the modulus
    of a complex entry overflows (Python's ``abs`` raises OverflowError),
    nor when x^ holds an inf or a nan: the loop tests each x_i itself, and
    the LU runs with overflow and invalid operations ignored, its nan or
    inf maximum failing the test.
    """
    n = r.shape[1]
    if n <= _SCALAR_COLUMNS:
        top = _substituted_max(r.tolist())
    else:
        cmp = np.negative(np.abs(r), order="C")
        diag = cmp.reshape(-1)[:: n + 1]
        diag *= -1.0
        if diag.max() == math.inf:
            return False
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                x = _solve_triangular(cmp, np.ones(n), lower=False)
        except np.linalg.LinAlgError:  # a zero on the diagonal
            return False
        top = float(x.max())
    return 4.0 * tol * math.sqrt(n) * top <= 1.0


def _substituted_max(rows: list) -> float:
    """max(x) for M x = e, M the comparison matrix of the upper triangular
    matrix whose rows are given as lists, by back substitution in Python
    floats; inf, which certifies nothing, where a diagonal modulus is zero
    or infinite, a complex modulus overflows, or some x_i is not finite.
    Each x_i is tested as it is formed, so no nan reaches ``max``, which
    skips one that is not first."""
    xs = []  # x_(n-1), x_(n-2), ... down to the row below the one in hand
    try:
        for i in range(len(rows) - 1, -1, -1):
            row = rows[i]
            d = abs(row[i])
            if not 0.0 < d < math.inf:
                return math.inf
            xi = sum(map(mul, map(abs, row[:i:-1]), xs), 1.0) / d
            if not xi < math.inf:
                return math.inf
            xs.append(xi)
    except OverflowError:
        return math.inf
    return max(xs)


def _certifies_full_rank(a: np.ndarray, tol: float) -> bool:
    """True only if sigma_min(a) >= 2 * tol, for an m x n matrix a with
    m >= n; a wide a is never certified.

    The proof is a Cholesky factorization of H = fl(G - s I), G = a* a, that
    succeeds with a finite factor (Rump 2006, "Verification of positive
    definiteness", BIT 46), with the shift

        s = 4 tol^2 + 2 (m + n + 2) (eps ||a||_F^2 + n eta),

    where eta is the smallest subnormal and ||a||_F^2 is the trace of the
    computed G.  With u = eps/2 and gamma_k = k u / (1 - k u), in complex
    arithmetic (real is no worse):

    * the matmul: fl(a* a) = G + E1 with |E1| <= gamma_(m+2) |a|*|a|, so
      ||E1||_2 <= gamma_(m+2) ||a||_F^2 (inner dimension m);
    * the subtraction: |h_ii - (fl(G)_ii - s)| <= u fl(G)_ii, as a
      successful factor has h_ii > 0, i.e. s < fl(G)_ii;
    * the factorization: L L* = H + E2 with |E2| <= gamma_(n+3) |L||L*|
      (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.3),
      and ||L||_F^2 <= trace(H) / (1 - gamma_(n+3)) <= trace(fl(G)) (1 + O(u)).

    L L* is positive semidefinite, so lambda_min(G) >= s minus the three
    errors, which total at most ((m + 2) + 1 + (n + 3)) u ||a||_F^2
    (1 + O(n u)) = (m + n + 6)/2 eps ||a||_F^2 (1 + O(n u)).  For every
    m + n >= 2 that is below c (m + n + 2) eps ||a||_F^2 once c = 2, with
    room for the O(n u) terms and for reading ||a||_F^2 off the computed
    trace (relative error gamma_(m+2)).  Hence
    sigma_min^2 = lambda_min(G) >= 4 tol^2.

    Gradual underflow adds at most about sqrt(2) n (m + n + 2) eta to the
    three errors, which the n eta term covers.  Nothing is claimed when the
    shift overflows, nor when L holds an inf or a nan.  Success thus proves
    the count is n with a factor 2 to spare, far from where the SVD's own
    rounding could move it.
    """
    m, n = a.shape
    if m < n:
        return False
    g = a.conj().T @ a
    diag = g.reshape(-1)[:: n + 1]
    fro2 = sum(diag.real.tolist())  # Python floats: an overflow is a quiet inf
    shift = 4.0 * tol * tol + 2.0 * (m + n + 2) * (EPS * fro2 + n * _ETA)
    if shift == math.inf:
        return False
    diag -= shift
    try:
        low = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return False
    # the factorization does not flag a nan pivot
    return _finite(low)


def _count_above(a: np.ndarray, tol: float,
                 certified: _Certificate = _certifies_full_rank) -> int:
    """Number of singular values of an m x n matrix a above tol, with no
    SVD where certified, by default the shifted Cholesky that any matrix
    takes, proves sigma_min >= 2 * tol."""
    if certified(a, tol):
        return a.shape[1]
    return int((np.linalg.svd(a, compute_uv=False) > tol).sum())


def _stacked(*blocks: np.ndarray) -> np.ndarray:
    """The matrices and vectors in blocks side by side, as the columns of
    one new, writeable column-major matrix: the order LAPACK factors in,
    so householder_qr can factor it in place (``overwrite_a=True``)."""
    cols = [blk.reshape(blk.shape[0], -1) for blk in blocks]
    out = np.empty((cols[0].shape[0], sum(c.shape[1] for c in cols)),
                   np.result_type(*cols), order="F")
    return np.concatenate(cols, axis=1, out=out)


def householder_qr(a, *, overwrite_a: bool = False) -> np.ndarray:
    """The read-only n x n triangular factor R of A = Q R, by unpivoted
    Householder QR (LAPACK geqrf); columns stay in the caller's order.

    A is validated, then copied once into the column-major array that
    geqrf factors in place, so A is never written to and R shares no
    memory with it.  With ``overwrite_a=True`` the validated A is itself
    that array and is left holding the Householder reflectors: it must be
    a writeable column-major float64 or complex128 array, else ValueError.
    The same values reach geqrf in the same layout either way, and R is
    a new array in both.  The workspace is the size geqrf asks for, as
    ``np.linalg.qr`` sizes it, so the block size and hence R are the same
    bit for bit.
    """
    mat = _array(a, 2)
    m, n = mat.shape
    if m < n:
        raise ShapeError(f"need rows >= cols, got {mat.shape}")
    if not overwrite_a:
        work = np.array(mat, order="F")
    elif mat is a and mat.flags.f_contiguous and mat.flags.writeable:
        work = mat
    else:
        raise ValueError("overwrite_a needs a writeable column-major "
                         "float64 or complex128 array")
    geqrf = lapack_lite.zgeqrf if work.dtype.kind == "c" else lapack_lite.dgeqrf
    # lapack_lite takes C-contiguous arrays: work.T is the same memory
    tau = np.empty(n, work.dtype)
    query = np.empty(1, work.dtype)
    geqrf(m, n, work.T, m, tau, query, -1, 0)
    lwork = max(1, n, int(query[0].real))
    info = geqrf(m, n, work.T, m, tau, np.empty(lwork, work.dtype), lwork, 0)["info"]
    if info != 0:
        raise np.linalg.LinAlgError(f"geqrf failed with info={info}")
    if n > _BLOCK:
        return _frozen(np.triu(work[:n]))
    # np.triu's where, without rebuilding its mask: +0.0 below the diagonal
    return _frozen(np.where(_UPPER[:n, :n], work[:n], 0.0))


def gram_logdet(r: np.ndarray, rows: int) -> LogDet:
    """log det(A* A) = 2 * sum(log |r_ii|) from the triangular factor of an
    m x n matrix A with m = rows.

    Returns the exact zero LogDet whenever the rank of A falls short of n:
    the Gram determinant is then zero at tolerance.
    """
    return _logdet_at_rank(r, _rank_of_r(r, rows))


def _logdet_at_rank(r: np.ndarray, rank: int) -> LogDet:
    """:func:`gram_logdet` for a caller that has already decided the rank."""
    if rank < r.shape[1]:
        return LogDet.zero()
    d = np.abs(r.diagonal())
    return LogDet(2.0 * float(np.log(d).sum()))
