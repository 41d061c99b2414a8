"""Dense matrix arithmetic: validated arrays, determinants kept in log
form, and hermitian positive-definite solves, both on LAPACK.

Operands are validated without a copy: every routine here and in the
modules built on it only reads its input, and each factorization works on
an array of its own: LAPACK's copy inside numpy, the one column-major
copy that ``qr.householder_qr`` makes, or a stacked operand that the
distance and regression layers build for it to factor in place
(``overwrite_a=True``).  Only ``regression.Dataset`` copies to keep an
array.  Outputs come back with the writeable flag cleared, so
every operation behaves as a pure function over values.

A float64 or complex128 ndarray is validated by one finiteness pass and
nothing else.  The norm helpers evaluate the expressions that
``np.linalg.norm`` evaluates, bit for bit, without its argument handling:
at the sizes ``verify`` runs, thousands of calls of at most 12x12, that
handling costs more than the arithmetic.

The two triangles of a Cholesky solve are solved by block substitution,
O(n^2) for an n x n system, where an LU of each would be O(n^3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, NotSquare, ShapeError

EPS = float(np.finfo(np.float64).eps)

_PHASE_TOL = 1e-9


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _array(a, ndim: int) -> np.ndarray:
    """a as a float64 or complex128 array of ndim (1 or 2) dimensions, each
    positive, with finite entries.

    A float64 or complex128 ndarray comes back as itself, never copied;
    other input is converted into a new array.  That first case is tested
    first and costs one finiteness pass.
    """
    if (type(a) is np.ndarray and a.ndim == ndim and a.size
            and (a.dtype == np.float64 or a.dtype == np.complex128)):
        out = a
    else:
        arr = np.asarray(a)
        if arr.ndim != ndim:
            raise ShapeError(f"expected a {ndim}-d array, got ndim={arr.ndim}")
        if arr.size == 0:
            raise ShapeError(f"matrix dimensions must be positive, got {arr.shape}"
                             if ndim == 2 else "vector length must be positive")
        out = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64, copy=False)
    if not np.isfinite(out).all():
        raise ValueError(f"{'matrix' if ndim == 2 else 'vector'} entries must be finite")
    return out


def _column_norms(x: np.ndarray) -> np.ndarray:
    """The 2-norm of each column of x: the expression that
    ``np.linalg.norm(x, axis=0)`` evaluates, bit for bit, without its
    argument handling."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=0))


def _norm(v: np.ndarray) -> float:
    """The 2-norm of a float64 or complex128 array as one vector:
    ``np.linalg.norm(v)``'s own path, bit for bit.  The ravel stays, so a
    strided v is dotted as the same contiguous copy."""
    v = v.ravel(order="K")
    if v.dtype.kind == "c":
        re, im = v.real, v.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(v.dot(v))


@dataclass(frozen=True)
class LogDet:
    """A determinant stored as a unit phase and the log of its magnitude.

    The zero determinant is the pair (phase 0, log_mag -inf).  Keeping
    determinants in this form makes ratios of badly scaled Gram determinants
    a subtraction in the exponent instead of an overflow.
    """

    phase: complex
    log_mag: float

    def __post_init__(self):
        phase = complex(self.phase)
        log_mag = float(self.log_mag)
        if math.isnan(log_mag) or log_mag == math.inf:
            raise ValueError("log_mag must be finite or -inf")
        if log_mag == -math.inf:
            if phase != 0:
                raise ValueError("the zero determinant must carry phase 0")
        else:
            mag = abs(phase)
            if abs(mag - 1.0) > _PHASE_TOL:
                raise ValueError(f"phase must have unit modulus, got |phase|={mag!r}")
            phase = phase / mag
        object.__setattr__(self, "phase", phase)
        object.__setattr__(self, "log_mag", log_mag)

    @classmethod
    def zero(cls) -> "LogDet":
        return cls(0j, -math.inf)

    @property
    def is_zero(self) -> bool:
        return self.log_mag == -math.inf

    def magnitude(self) -> float:
        """|det| as a plain double; raises OverflowError when it does not fit."""
        if self.is_zero:
            return 0.0
        return math.exp(self.log_mag)

    def value(self) -> complex:
        """The determinant itself; raises OverflowError when it does not fit."""
        if self.is_zero:
            return 0j
        return self.phase * math.exp(self.log_mag)

    def conjugate(self) -> "LogDet":
        return LogDet(self.phase.conjugate(), self.log_mag)

    def __mul__(self, other: "LogDet") -> "LogDet":
        if self.is_zero or other.is_zero:
            return LogDet.zero()
        return LogDet(self.phase * other.phase, self.log_mag + other.log_mag)


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


def det_lu(m) -> LogDet:
    """Determinant by LU with partial pivoting (LAPACK getrf), in log form.

    An exactly singular factor gives the exact zero determinant.
    """
    a = _array(m, 2)
    if a.shape[0] != a.shape[1]:
        raise NotSquare(f"determinant needs a square matrix, got {a.shape}")
    sign, log_mag = np.linalg.slogdet(a)
    if sign == 0:
        return LogDet.zero()
    return LogDet(complex(sign), float(log_mag))


def solve_hermitian_psd(h, rhs) -> np.ndarray:
    """Solve H x = rhs for hermitian positive definite H by Cholesky.

    The pivot tolerance is dim * eps * max(diag(H)); a pivot diag(L)**2 at
    or below it, or a factorization that fails outright, raises
    :class:`NotPositiveDefinite`.  Real inputs give a real solution.
    """
    hm = _array(h, 2)
    b = _array(rhs, 1)
    n = hm.shape[0]
    if hm.shape[1] != n:
        raise NotSquare(f"expected a square matrix, got {hm.shape}")
    if b.shape[0] != n:
        raise DimensionMismatch(
            f"matrix is {n}x{n} but right-hand side has length {b.shape[0]}"
        )
    tau = n * EPS * float(hm.diagonal().real.max())
    try:
        low = np.linalg.cholesky(hm)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"Cholesky factorization failed: {exc}") from exc
    pivots = np.abs(low.diagonal()) ** 2
    j = int(pivots.argmin())
    if pivots[j] <= tau:
        raise NotPositiveDefinite(
            f"pivot {float(pivots[j])!r} at column {j} is at or below tolerance {tau!r}"
        )
    y = _solve_triangular(low, b, lower=True)
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
