"""Householder QR through LAPACK, keeping only the triangular factor.

The Gram log-determinant of the input is read directly off the triangular
diagonal, which is the numerically safe way to get det(A* A) for tall
matrices.  Q is never formed: callers that need a unitary matrix take it
from ``np.linalg.qr`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .linalg import EPS, LogDet, _frozen, as_matrix


@dataclass(frozen=True)
class QRFactors:
    """The n x n triangular factor R of A = Q R, columns in the caller's order.

    rank_estimate counts the singular values of r above
    max(m, n) * eps * (largest column norm of A).
    """

    r: np.ndarray
    rank_estimate: int


def _rank_tolerance(r: np.ndarray, rows: int) -> float:
    """max(m, n) * eps * (largest column norm) of A, from its factor R."""
    return max(rows, r.shape[1]) * EPS * float(np.max(np.linalg.norm(r, axis=0)))


def _rank_of_r(r: np.ndarray, rows: int) -> int:
    """Numerical rank of A from its triangular factor and row count.

    R has the column norms and singular values of A, so the count is the same
    as on A itself, and it does not depend on the column order.
    """
    return int(np.sum(np.linalg.svd(r, compute_uv=False) > _rank_tolerance(r, rows)))


def householder_qr(a) -> QRFactors:
    """Factor a tall matrix by unpivoted Householder QR (LAPACK geqrf)."""
    mat = as_matrix(a)
    m, n = mat.shape
    if m < n:
        raise ShapeError(f"need rows >= cols, got {mat.shape}")
    r = np.linalg.qr(mat, mode="r")
    return QRFactors(r=_frozen(r), rank_estimate=_rank_of_r(r, m))


def gram_logdet(f: QRFactors) -> LogDet:
    """log det(A* A) = 2 * sum(log |r_ii|) from the triangular diagonal.

    Returns the exact zero LogDet whenever the rank estimate falls short of
    the column count: the Gram determinant is then zero at tolerance.
    """
    n = f.r.shape[0]
    if f.rank_estimate < n:
        return LogDet.zero()
    d = np.abs(np.diag(f.r))
    return LogDet(1.0 + 0.0j, 2.0 * float(np.sum(np.log(d))))
