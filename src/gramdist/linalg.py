"""Dense matrix arithmetic: validated arrays, Gram determinants kept in
log form, and the normal equations solved by Cholesky, all on LAPACK, plus
the one exact power-of-two scaling.

Operands are validated without a copy: every routine here and in the
modules built on it only reads its input, and each factorization works on
an array of its own: LAPACK's copy inside numpy, the one column-major
copy that ``qr.householder_qr`` makes, or an operand that ``qr._stacked``
builds for it to factor in place.  Only ``regression.Dataset`` copies to
keep an array.  Outputs come back with the writeable flag cleared, so
every operation behaves as a pure function over values.

A float64 or complex128 ndarray is validated by one finiteness pass and
nothing else.  Every norm in the package is taken by ``_column_norms``:
numpy's pairwise sum of the squares, the expression that
``np.linalg.norm(x, axis=0)`` evaluates, without its argument handling,
which costs more than the arithmetic at the sizes ``verify`` runs.  No
norm is a BLAS dot product: OpenBLAS splits a long one across its threads,
and a printed number would then depend on the BLAS thread count.  Where
squares would leave the double range, every rescaling goes through
:func:`_scaled`, an exact division by powers of two.

:func:`_normal_solution` is the one Cholesky solve: the normal equations
of the projection route and of the regression.  Its two triangles are
solved by block substitution, O(n^2) for an n x n system, where an LU of
each would be O(n^3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient, ShapeError

EPS = float(np.finfo(np.float64).eps)


# The dtypes that _array passes on as they are.
_EXACT = (np.dtype(np.float64), np.dtype(np.complex128))

# Complex arrays of more than this many entries are summed before _finite
# counts their finite entries; below it the sum's set-up costs more than
# it saves, and on real arrays the count is as fast as the sum.
_SUMMED = 4096


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _exact(a, ndim: int) -> bool:
    """True when :func:`_array` passes a on as itself: a float64 or
    complex128 ndarray of ndim positive dimensions."""
    return type(a) is np.ndarray and a.ndim == ndim and a.size > 0 and a.dtype in _EXACT


def _array(a, ndim: int) -> np.ndarray:
    """a as a float64 or complex128 array of ndim (1 or 2) dimensions, each
    positive, with finite entries.

    A float64 or complex128 ndarray comes back as itself, never copied;
    other input is converted into a new array.  That first case is tested
    first and costs one finiteness pass.
    """
    if _exact(a, ndim):
        out = a
    else:
        arr = np.asarray(a)
        if arr.ndim != ndim:
            raise ShapeError(f"expected a {ndim}-d array, got ndim={arr.ndim}")
        if arr.size == 0:
            raise ShapeError(f"matrix dimensions must be positive, got {arr.shape}"
                             if ndim == 2 else "vector length must be positive")
        out = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64, copy=False)
    if not _finite(out):
        raise ValueError(f"{'matrix' if ndim == 2 else 'vector'} entries must be finite")
    return out


def _finite(a: np.ndarray) -> bool:
    """True when every entry of a is finite.

    The finite entries are counted, one C call, where
    ``np.isfinite(a).all()`` would add a reduction's set-up, which costs
    more on a small matrix.  A complex a of more than _SUMMED entries is
    first summed, numpy's pairwise sum at memory speed, which costs less
    than the entry-wise test of both parts: a nan or an infinite part
    makes every sum over it a nan or an infinity, so a finite sum proves
    every entry finite.  Any other sum, one of finite entries that
    overflows included, falls through to the count.
    """
    if a.size > _SUMMED and a.dtype.kind == "c":
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.add.reduce(a, axis=None)
        if math.isfinite(total.real) and math.isfinite(total.imag):
            return True
    return bool(np.count_nonzero(np.isfinite(a)) == a.size)


def _column_norms(x: np.ndarray) -> np.ndarray:
    """The 2-norm of each column of x, and of a 1-d x as one column: the
    expression that ``np.linalg.norm(x, axis=0)`` evaluates, bit for bit,
    without its argument handling."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=0))


def _scaled(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(v / s, s) for s the power of two at or just below max|v| (1/2 for a
    zero v), taken column by column for a 2-d v, so that s fits a double
    for every finite v.

    The division is exact, so norms and inner products of v / s are those
    of v scaled bit for bit, and their squares stay in the double range.
    """
    s = np.ldexp(1.0, np.frexp(np.abs(v).max(axis=0, initial=0.0))[1] - 1)
    return v / s, s


@dataclass(frozen=True)
class LogDet:
    """A Gram determinant det(A* A), stored as its log.

    A Gram determinant is real and nonnegative, so its log is the whole
    record; the exact zero is log_mag -inf.  Keeping determinants in this
    form makes ratios of badly scaled Gram determinants a subtraction in
    the exponent instead of an overflow.
    """

    log_mag: float

    def __post_init__(self):
        log_mag = float(self.log_mag)
        if math.isnan(log_mag) or log_mag == math.inf:
            raise ValueError("log_mag must be finite or -inf")
        object.__setattr__(self, "log_mag", log_mag)

    @classmethod
    def zero(cls) -> "LogDet":
        return cls(-math.inf)

    @property
    def is_zero(self) -> bool:
        return self.log_mag == -math.inf

    def magnitude(self) -> float:
        """det(A* A) as a plain double; raises OverflowError when it does not fit."""
        if self.is_zero:
            return 0.0
        try:
            return math.exp(self.log_mag)
        except OverflowError:
            raise OverflowError("the determinant does not fit a double") from None


def _gram(a: np.ndarray) -> np.ndarray:
    """The Gram matrix A* A of an m x n array, by one symmetric rank-k
    update (BLAS syrk), which forms only one triangle: half the flops of a
    general product.

    A complex A in row-major order, viewed as a real m x 2n matrix Z, has
    the columns re(a_1), im(a_1), re(a_2), ...; then with G = Z^T Z,
    re(A* A)_ij = G[2i, 2j] + G[2i+1, 2j+1] and
    im(A* A)_ij = G[2i, 2j+1] - G[2i+1, 2j].  G is exactly symmetric, so
    the result is exactly hermitian, with a zero imaginary diagonal.
    """
    if a.dtype.kind != "c":
        return a.T @ a
    z = np.ascontiguousarray(a).view(np.float64)
    g = z.T @ z
    out = np.empty((a.shape[1],) * 2, np.complex128)
    out.real = g[0::2, 0::2] + g[1::2, 1::2]
    out.imag = g[0::2, 1::2] - g[1::2, 0::2]
    return out


def _normal_solution(mat: np.ndarray, vec: np.ndarray,
                     operands: tuple[str, str] = ("Gram matrix of A", "A* b")) -> np.ndarray:
    """The solution x of the normal equations (A* A) x = A* b, by Cholesky.

    A* A is formed by :func:`_gram`, one symmetric rank-k update, and A* b
    as conj(b* A), so A itself is never conjugated or copied.  An entry of
    A* A or A* b that overflows raises :class:`OverflowError`, whose
    message names the operand by its entry in operands, in the caller's
    terms; that check handles the overflow, so both are formed with
    numpy's overflow and invalid-value warnings off, and past it both go
    to LAPACK as they are.

    Pivot j, |l_jj|^2, is the part of h_jj that the earlier columns leave
    (a Schur complement) in H = A* A, so the pivot tolerance is
    n * eps * h_jj, its own diagonal: the test is the same for A and for
    A D with D a positive diagonal, so widely scaled but independent
    columns pass.  A pivot at or below its tolerance, or a factorization
    that fails outright, raises :class:`RankDeficient`.  Real inputs give
    a real solution.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram, rhs = _gram(mat), (vec.conj() @ mat).conj()
    for value, name in zip((gram, rhs), operands):
        if not _finite(value):
            raise OverflowError(f"{name} does not fit a double")
    try:
        low = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient(f"Cholesky factorization failed: {exc}") from exc
    pivots = np.abs(low.diagonal()) ** 2
    taus = gram.shape[0] * EPS * gram.diagonal().real
    refused = pivots <= taus
    if np.count_nonzero(refused):
        j = int(refused.argmax())
        raise RankDeficient(
            f"pivot {float(pivots[j])!r} at column {j} is at or below tolerance {float(taus[j])!r}"
        )
    y = _solve_triangular(low, rhs, lower=True)
    return _frozen(_solve_triangular(low.conj().T, y, lower=False))


# The largest diagonal block solved whole: systems up to this size go to
# np.linalg.solve as they are.
_BLOCK = 32


def _solve_triangular(t: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    """Solve T x = b for a nonsingular lower or upper triangular n x n T.

    T is halved recursively: one half of x is solved first, its product
    with the off-diagonal block is subtracted from the other half of b, and
    the other half is solved.  Diagonal blocks of at most _BLOCK rows go to
    ``np.linalg.solve`` (LU), so the whole solve is O(n^2) instead of the
    O(n^3) of one LU of T, and any n <= _BLOCK is exactly np.linalg.solve.
    """
    n = t.shape[0]
    if n <= _BLOCK:
        return np.linalg.solve(t, b)
    h = n // 2
    if lower:
        top = _solve_triangular(t[:h, :h], b[:h], lower)
        rest = _solve_triangular(t[h:, h:], b[h:] - t[h:, :h] @ top, lower)
        return np.concatenate((top, rest))
    rest = _solve_triangular(t[h:, h:], b[h:], lower)
    top = _solve_triangular(t[:h, :h], b[:h] - t[:h, h:] @ rest, lower)
    return np.concatenate((top, rest))
