"""Dense matrix arithmetic: validated immutable arrays, determinants kept in
log form, and hermitian positive-definite solves, both on LAPACK.

Inputs are validated and copied, except where a caller only reads them;
outputs come back with the writeable flag cleared, so every operation
behaves as a pure function over values.
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


def _matrix(a, copy: bool) -> np.ndarray:
    """The checks and dtype of :func:`as_matrix`, returned writeable.

    With copy=False a float64 or complex128 ndarray comes back as itself,
    for callers that only read it; other input is converted into a new array.
    """
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-d array, got ndim={arr.ndim}")
    m, n = arr.shape
    if m < 1 or n < 1:
        raise ShapeError(f"matrix dimensions must be positive, got {arr.shape}")
    dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
    out = arr.astype(dtype, copy=copy)
    if not np.isfinite(out).all():
        raise ValueError("matrix entries must be finite")
    return out


def _vector(a, copy: bool) -> np.ndarray:
    """:func:`_matrix` for the 1-d rules of :func:`as_vector`."""
    arr = np.asarray(a)
    if arr.ndim != 1:
        raise ShapeError(f"expected a 1-d array, got ndim={arr.ndim}")
    if arr.shape[0] < 1:
        raise ShapeError("vector length must be positive")
    dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
    out = arr.astype(dtype, copy=copy)
    if not np.isfinite(out).all():
        raise ValueError("vector entries must be finite")
    return out


def as_matrix(a) -> np.ndarray:
    """Validate a 2-d array-like and return a read-only float64/complex128 copy.

    Rejects empty axes and any non-finite entry.
    """
    return _frozen(_matrix(a, copy=True))


def as_vector(a) -> np.ndarray:
    """Validate a 1-d array-like; same rules as :func:`as_matrix`."""
    return _frozen(_vector(a, copy=True))


def as_real_matrix(a) -> np.ndarray:
    """Like :func:`as_matrix` but rejects complex input."""
    if np.iscomplexobj(np.asarray(a)):
        raise TypeError("expected real data, got complex")
    return as_matrix(a)


def as_real_vector(a) -> np.ndarray:
    """Like :func:`as_vector` but rejects complex input."""
    if np.iscomplexobj(np.asarray(a)):
        raise TypeError("expected real data, got complex")
    return as_vector(a)


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

    @classmethod
    def from_value(cls, value) -> "LogDet":
        z = complex(value)
        if z == 0:
            return cls.zero()
        return cls(z / abs(z), math.log(abs(z)))

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


def det_lu(m) -> LogDet:
    """Determinant by LU with partial pivoting (LAPACK getrf), in log form.

    An exactly singular factor gives the exact zero determinant.
    """
    a = as_matrix(m)
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
    hm = as_matrix(h)
    b = as_vector(rhs)
    n = hm.shape[0]
    if hm.shape[1] != n:
        raise NotSquare(f"expected a square matrix, got {hm.shape}")
    if b.shape[0] != n:
        raise DimensionMismatch(
            f"matrix is {n}x{n} but right-hand side has length {b.shape[0]}"
        )
    tau = n * EPS * float(np.max(hm.diagonal().real))
    try:
        low = np.linalg.cholesky(hm)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"Cholesky factorization failed: {exc}") from exc
    pivots = np.abs(np.diagonal(low)) ** 2
    j = int(np.argmin(pivots))
    if pivots[j] <= tau:
        raise NotPositiveDefinite(
            f"pivot {float(pivots[j])!r} at column {j} is at or below tolerance {tau!r}"
        )
    y = np.linalg.solve(low, b)
    return _frozen(np.linalg.solve(low.conj().T, y))
