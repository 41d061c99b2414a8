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
