"""Reference values at 60 significant digits, computed with mpmath.

mpmath is a test dependency only: importing this helper skips the test
module that imports it where mpmath is missing.  Every double converts to
mpmath exactly, so the reference is that of the stored input, and mpmath's
exponent range is unbounded.
"""

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

DIGITS = 60


def mp_distance(a, b) -> float:
    """Distance from b to the column span of A as the paper's ratio
    sqrt(det((A|b)* (A|b)) / det(A* A)), the Gram products and the two
    determinants evaluated at 60 digits."""
    n = np.shape(a)[1]
    with mpmath.workdps(DIGITS):
        aug = mpmath.matrix(np.column_stack([a, b]).tolist())
        gram = aug.H * aug
        ratio = mpmath.det(gram) / mpmath.det(gram[0:n, 0:n])
        return float(mpmath.sqrt(mpmath.re(ratio)))


def mp_gram_logdet(a) -> float:
    """log det(A* A), the Gram product and its determinant evaluated at 60
    digits."""
    with mpmath.workdps(DIGITS):
        mat = mpmath.matrix(np.asarray(a).tolist())
        return float(mpmath.log(mpmath.re(mpmath.det(mat.H * mat))))


def mp_regression(x, y) -> tuple[float, float, np.ndarray]:
    """(loss, rho, coefficients) of the least-squares fit of y on (1|X) for
    a real X, at 60 digits: the residual norm, the multiple correlation
    sqrt(1 - loss^2 / ||y - mean(y)||^2), and the coefficients, intercept
    first, from the normal equations of (1|X)."""
    m = np.shape(x)[0]
    with mpmath.workdps(DIGITS):
        design = mpmath.matrix(np.column_stack([np.ones(m), x]).tolist())
        target = mpmath.matrix(np.asarray(y).tolist())
        coefs = mpmath.lu_solve(design.T * design, design.T * target)
        loss = mpmath.norm(design * coefs - target)
        mean = mpmath.fsum(target) / m
        spread = mpmath.norm(target - mpmath.matrix([mean] * m))
        rho = mpmath.sqrt(1 - (loss / spread) ** 2)
        return float(loss), float(rho), np.array([float(c) for c in coefs])
