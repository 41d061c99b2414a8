"""The defect ledger: each open silent wrong number or wrong refusal of the
ROADMAP, as a strict xfail that asserts the bound its item promises.

Each test fails today for the reason its marker names, with an assertion
or with the exception given as ``raises``.  A fix turns it into an XPASS,
which fails the run, so the fix removes the marker and the ledger shrinks
only by fixes.  References are 60-digit mpmath values of the stored input
(``mp_oracle``) or ``np.linalg.lstsq``; no bound is loosened to pass.
"""

import math

import numpy as np
import pytest

from gramdist import Dataset, RankDeficient, ZeroVariance, distance_projection, distance_qr, regression_report
from gramdist.linalg import EPS
from mp_oracle import mp_distance, mp_regression

# the constant c of a bound of c * eps on a relative error
C_EPS = 16


def near_collinear(seed, gap):
    """200 x 4 Gaussian regressors whose last column is the third plus gap
    times fresh Gaussian noise, and y = X (1, -2, 0.5, 0) + noise."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((200, 3))
    x = np.column_stack([x, x[:, 2] + gap * rng.standard_normal(200)])
    return x, x[:, :3] @ np.array([1.0, -2.0, 0.5]) + rng.standard_normal(200)


def near_span(seed, eta):
    """A 30 x 5 Gaussian A and b = A z + eta N(0, 1)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((30, 5))
    return a, a @ rng.standard_normal(5) + eta * rng.standard_normal(30)


def seven():
    """The 50 x 3 seed-7 dataset: Gaussian X and y = X (1, -2, 0.5) + noise."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal((50, 3))
    return x, x @ np.array([1.0, -2.0, 0.5]) + rng.standard_normal(50)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the slopes come from the Cholesky solve of the "
                                       "normal equations, 2e5 to 9e5 times the bound at gap 1e-7")
def test_item_1_slopes_near_collinear_within_kappa_eps():
    # the triangular factor of (Xc|yc) gives these slopes within 2.8 kappa
    # eps; the normal equations square kappa
    for seed in range(3):
        x, y = near_collinear(seed, 1e-7)
        ref = mp_regression(x, y)[2][1:]
        got = regression_report(Dataset(x, y)).coefficients[1:]
        kappa = np.linalg.cond(x - x.sum(axis=0) / x.shape[0])
        assert np.linalg.norm(got - ref) <= 10.0 * kappa * EPS * np.linalg.norm(ref), seed


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: near the span the residual loses eps kappa ||b|| / "
                                       "dist, about 1e-3 relative at eta = 1e-14")
@pytest.mark.parametrize("route", [distance_qr, distance_projection], ids=lambda f: f.__name__)
def test_item_2_near_span_distance_within_c_eps(route):
    for seed in range(100, 105):
        a, b = near_span(seed, 1e-14)
        ref = mp_distance(a, b)
        assert abs(route(a, b).value - ref) <= C_EPS * EPS * ref, seed


@pytest.mark.xfail(strict=True, raises=ZeroVariance,
                   reason="ROADMAP item 4: the variance tolerance has an absolute floor, so the "
                          "whole dataset at 1e-150 has zero variance")
def test_item_4_whole_dataset_at_1e_150_keeps_its_correlation():
    x, y = seven()
    base = regression_report(Dataset(x, y), solve=False).correlation
    kappa = np.linalg.cond(x - x.sum(axis=0) / x.shape[0])
    rho = regression_report(Dataset(x * 1e-150, y * 1e-150), solve=False).correlation
    assert math.isclose(rho, base, rel_tol=10.0 * kappa * EPS)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: A* A is subnormal at 1e-160, about 1e9 times "
                                       "the bound")
def test_item_4_projection_at_1e_160_within_its_kappa_squared_class():
    # at scale 1 every seed is within 0.31 kappa^2 eps
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a, b = 1e-160 * rng.standard_normal((30, 5)), 1e-160 * rng.standard_normal(30)
        ref = mp_distance(a, b)
        kappa = np.linalg.cond(a)
        assert abs(distance_projection(a, b).value - ref) <= 10.0 * kappa**2 * EPS * ref, seed


@pytest.mark.xfail(strict=True, raises=RankDeficient,
                   reason="ROADMAP item 12: the report refuses rank-deficient data, whose loss is defined")
def test_item_12_rank_deficient_loss_is_the_least_squares_loss():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((50, 4))
    x[:, 3] = 2.0 * x[:, 1] - x[:, 0]
    y = x @ np.array([1.0, -2.0, 0.5, 3.0]) + rng.standard_normal(50)
    design = np.column_stack([np.ones(50), x])
    # 8.555802985158131 here, as distance_qr(Xc, yc) reads it
    ref = float(np.linalg.norm(y - design @ np.linalg.lstsq(design, y, rcond=None)[0]))
    loss = regression_report(Dataset(x, y), solve=False).loss_value
    assert abs(loss - ref) <= C_EPS * EPS * ref
