"""Householder QR through LAPACK, keeping only the triangular factor.

The Gram log-determinant of the input is read directly off the triangular
diagonal, which is the numerically safe way to get det(A* A) for tall
matrices.  Q is never formed: callers that need a unitary matrix take it
from ``np.linalg.qr`` directly.  No rank is decided here: a caller that
needs one asks :func:`_rank_of_r` for it.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .linalg import EPS, LogDet, _frozen, as_matrix


def _rank_tolerance(r: np.ndarray, rows: int) -> float:
    """max(m, n) * eps * (largest column norm) of A, from A or its factor R."""
    return max(rows, r.shape[1]) * EPS * float(np.max(np.linalg.norm(r, axis=0)))


def _rank_of_r(r: np.ndarray, rows: int) -> int:
    """Numerical rank of an m x n matrix A with m = rows, counted on A itself
    or on its triangular factor R, whichever the caller holds.

    Counts the singular values above max(m, n) * eps * (largest column norm
    of A).  R has the column norms and singular values of A, so both give
    the same count, and it does not depend on the column order.
    """
    return int(np.sum(np.linalg.svd(r, compute_uv=False) > _rank_tolerance(r, rows)))


def householder_qr(a) -> np.ndarray:
    """The read-only n x n triangular factor R of A = Q R, by unpivoted
    Householder QR (LAPACK geqrf); columns stay in the caller's order."""
    mat = as_matrix(a)
    m, n = mat.shape
    if m < n:
        raise ShapeError(f"need rows >= cols, got {mat.shape}")
    return _frozen(np.linalg.qr(mat, mode="r"))


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
    d = np.abs(np.diag(r))
    return LogDet(1.0 + 0.0j, 2.0 * float(np.sum(np.log(d))))
