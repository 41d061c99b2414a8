"""Accuracy of the distance routes and of the regression report against
a 60-digit oracle.

On graded spectra with condition number kappa the distance has relative
condition number of order kappa, so a backward-stable route is within a
small multiple of kappa * eps of the exact distance of the stored input.
The projection route solves the normal equations, whose Gram matrix has
condition number kappa^2, so its bound is a small multiple of
kappa^2 * eps.  The regression's loss value and correlation are read off
one QR factor, and its coefficients come from a Cholesky solve of the
centered normal equations, so the same two bounds apply to them.
"""

import numpy as np
import pytest

from gramdist import Dataset, distance_det, distance_projection, distance_qr, gram_logdets, regression_report
from gramdist.linalg import EPS
from mp_oracle import mp_distance, mp_gram_logdet, mp_regression


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


@pytest.mark.parametrize("k", range(1, 7))
def test_regression_report_on_graded_offset_data(k):
    # X is a graded 60 x 4 matrix offset by 3, so (1|X) is worse
    # conditioned than the centered Xc the report factors
    kappa = 10.0**k
    rng = np.random.default_rng([127, k])
    for _ in range(5):
        a, b = graded(rng, 60, 4, kappa, False)
        x = a + 3.0
        y = b + x @ rng.standard_normal(4)
        loss, rho, coefs = mp_regression(x, y)
        rep = regression_report(Dataset(x, y))
        assert abs(rep.loss_value - loss) <= 10.0 * kappa * EPS * loss
        assert abs(rep.correlation - rho) <= 10.0 * kappa * EPS * rho
        assert np.linalg.norm(rep.coefficients - coefs) <= 10.0 * kappa**2 * EPS * np.linalg.norm(coefs)
        ld_a, _ = gram_logdets(x, y)
        assert abs(ld_a.log_mag - mp_gram_logdet(x)) <= 10.0 * x.shape[1] * kappa * EPS
