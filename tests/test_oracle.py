"""Accuracy of the distance routes against a 60-digit oracle.

On graded spectra with condition number kappa the distance has relative
condition number of order kappa, so a backward-stable route is within a
small multiple of kappa * eps of the exact distance of the stored input.
The projection route solves the normal equations, whose Gram matrix has
condition number kappa^2, so its bound is a small multiple of
kappa^2 * eps.
"""

import numpy as np
import pytest

from gramdist import distance_det, distance_projection, distance_qr
from gramdist.linalg import EPS
from mp_oracle import mp_distance


def graded(rng, m, n, kappa, complex_input):
    """An m x n A with singular values spaced geometrically from 1 down to
    1/kappa, and a random b."""
    def draw(k, j):
        g = rng.standard_normal((k, j))
        return g + 1j * rng.standard_normal((k, j)) if complex_input else g

    u = np.linalg.qr(draw(m, n))[0]
    v = np.linalg.qr(draw(n, n))[0]
    return (u * np.geomspace(1.0, 1.0 / kappa, n)) @ v.conj().T, draw(m, 1)[:, 0]


@pytest.mark.parametrize("complex_input", [False, True])
@pytest.mark.parametrize("k", range(2, 11))
def test_factor_routes_within_ten_kappa_eps(k, complex_input):
    kappa = 10.0**k
    rng = np.random.default_rng([109, k, int(complex_input)])
    for _ in range(5):
        a, b = graded(rng, 30, 5, kappa, complex_input)
        exact = mp_distance(a, b)
        for route in (distance_det, distance_qr):
            err = abs(route(a, b).value - exact) / exact
            assert err <= 10.0 * kappa * EPS, route.__name__


@pytest.mark.parametrize("complex_input", [False, True])
@pytest.mark.parametrize("k", range(2, 8))
def test_projection_within_ten_kappa_squared_eps(k, complex_input):
    kappa = 10.0**k
    rng = np.random.default_rng([113, k, int(complex_input)])
    shapes = [(30, 5)] * 5
    if k in (3, 5, 7):
        # n > 32: the Cholesky triangles are solved by blocks
        shapes.append((80, 40))
    for m, n in shapes:
        a, b = graded(rng, m, n, kappa, complex_input)
        exact = mp_distance(a, b)
        err = abs(distance_projection(a, b).value - exact) / exact
        assert err <= 10.0 * kappa**2 * EPS
