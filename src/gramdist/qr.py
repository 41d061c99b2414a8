"""Householder QR through LAPACK, keeping only the triangular factor.

The Gram log-determinant of the input is read directly off the triangular
diagonal, which is the numerically safe way to get det(A* A) for tall
matrices.  Q is never formed: callers that need a unitary matrix take it
from ``np.linalg.qr`` directly.  LAPACK's geqrf factors a column-major
array in place: by default a copy of the operand, or, with
``overwrite_a=True``, the operand itself, for a caller that has just built
it as a private temporary.  geqrf is reached through
``numpy.linalg.lapack_lite``, so numpy stays the only runtime dependency.

No rank is decided while factoring: a caller that needs one asks
:func:`_rank_of_r` for it.  Every count of singular values above a
tolerance goes through :func:`_count_above`, which first tries a shifted
Cholesky certificate of full rank and runs an SVD only when that fails.
Column norms come from ``linalg._column_norms`` and reductions are array
methods, the same arithmetic as ``np.linalg.norm`` and ``np.max`` without
their per-call Python cost, which dominates on small matrices.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import lapack_lite

from .errors import ShapeError
from .linalg import EPS, LogDet, _array, _column_norms, _frozen

# The smallest positive (subnormal) double.
_ETA = 2.0**-1074


def _rank_tolerance(r: np.ndarray, rows: int) -> float:
    """max(m, n) * eps * (largest column norm) of A, from A or its factor R.

    A column norm whose square overflows is recomputed on r / max|r| and
    scaled back, so the tolerance overflows only where that norm does.
    """
    top = float(_column_norms(r).max())
    if top == math.inf:
        big = float(np.abs(r).max())
        top = big * float(_column_norms(r / big).max())
    return max(rows, r.shape[1]) * EPS * top


def _rank_of_r(r: np.ndarray, rows: int) -> int:
    """Numerical rank of an m x n matrix A with m = rows, counted on A itself
    or on its triangular factor R, whichever the caller holds.

    Counts the singular values above max(m, n) * eps * (largest column norm
    of A).  R has the column norms and singular values of A, so both give
    the same count, and it does not depend on the column order.
    """
    return _count_above(r, _rank_tolerance(r, rows))


def _count_above(a: np.ndarray, tol: float) -> int:
    """Number of singular values of an m x n matrix a above tol.

    A full count is settled without an SVD when
    :func:`_certifies_full_rank` proves sigma_min >= 2 * tol; otherwise the
    singular values are computed and counted.
    """
    if _certifies_full_rank(a, tol):
        return a.shape[1]
    return int((np.linalg.svd(a, compute_uv=False) > tol).sum())


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
    # the factorization does not flag a nan pivot, and a sum of the entries
    # is finite only if every entry is
    return bool(np.isfinite(low.sum()))


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
    return _frozen(np.triu(work[:n]))


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
    return LogDet(1.0 + 0.0j, 2.0 * float(np.log(d).sum()))
