"""Centered regression: normal equations, the determinant route for the loss
value and the correlation, covariance, and the report assembly.

The hand-worked fixture x = (1,2,3,4), y = (1,2,2,3) anchors everything:
slope 0.6, intercept 0.5, residuals (-0.1, 0.3, -0.3, 0.1), loss sqrt(0.2),
correlation sqrt(0.9), centered Grams [[5,3],[3,2]] and [5].
"""

import math

import numpy as np
import pytest

from gramdist import (
    Dataset,
    DimensionMismatch,
    InsufficientSamples,
    RankDeficient,
    ZeroProjection,
    ZeroVariance,
    center,
    centered_rank,
    design_rank,
    loss_value_det,
    loss_value_residual,
    mean_squared_loss,
    multiple_correlation_det,
    multiple_correlation_projection,
    normal_solve,
    regression_report,
    sample_covariance,
)

SQRT_02 = math.sqrt(0.2)
SQRT_09 = math.sqrt(0.9)


@pytest.fixture
def line_fixture():
    return Dataset(np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([1.0, 2.0, 2.0, 3.0]))


@pytest.fixture
def perfect_fit():
    return Dataset(np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([2.0, 4.0, 6.0, 8.0]))


def random_dataset(rng, m, n):
    return Dataset(rng.uniform(-1, 1, (m, n)), rng.uniform(-1, 1, m))


class TestDataset:
    def test_default_names(self, line_fixture):
        assert line_fixture.names == ("x1", "y")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((2, 1)), np.ones(2), ("a", "a"))

    def test_complex_rejected(self):
        with pytest.raises(TypeError):
            Dataset(np.ones((2, 1), complex), np.ones(2))

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Dataset(np.ones((3, 1)), np.ones(2))


class TestCenter:
    def test_constant_vector_centers_to_zero(self):
        d = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([1.0, 1.0, 1.0]))
        cv = center(d)
        np.testing.assert_array_equal(cv.y_hat, np.zeros(3))
        assert cv.y_mean == 1.0

    def test_simple_centering(self):
        d = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([1.0, 2.0, 3.0]))
        cv = center(d)
        np.testing.assert_allclose(cv.y_hat, [-1.0, 0.0, 1.0], atol=1e-15)

    def test_constant_column_drops_rank(self):
        x = np.column_stack([np.full(5, 2.0), np.arange(5.0)])
        d = Dataset(x, np.arange(5.0) + 1.0)
        cv = center(d)
        np.testing.assert_array_equal(cv.x_hat[:, 0], np.zeros(5))
        assert centered_rank(d) == 1

    def test_columns_sum_to_zero(self):
        rng = np.random.default_rng(3)
        d = random_dataset(rng, 25, 4)
        cv = center(d)
        bound = 1e-10 * d.m * max(1.0, float(np.max(np.abs(d.x))))
        assert np.max(np.abs(cv.x_hat.sum(axis=0))) <= bound
        assert abs(cv.y_hat.sum()) <= bound


class TestNormalSolve:
    def test_exact_line_through_origin(self, perfect_fit):
        np.testing.assert_allclose(normal_solve(perfect_fit), [0.0, 2.0], atol=1e-12)

    def test_hand_fixture(self, line_fixture):
        np.testing.assert_allclose(normal_solve(line_fixture), [0.5, 0.6], atol=1e-12)

    def test_constant_target(self):
        d = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([7.0, 7.0, 7.0]))
        np.testing.assert_allclose(normal_solve(d), [7.0, 0.0], atol=1e-12)

    def test_rank_deficient_rejected(self):
        x = np.column_stack([np.arange(4.0), np.arange(4.0)])
        with pytest.raises(RankDeficient):
            normal_solve(Dataset(x, np.ones(4)))

    def test_too_few_samples_rejected(self):
        with pytest.raises(RankDeficient):
            normal_solve(Dataset(np.ones((1, 1)), np.ones(1)))

    def test_mean_equation(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            d = random_dataset(rng, 20, 3)
            a = normal_solve(d)
            cv = center(d)
            assert abs(cv.y_mean - (a[0] + a[1:] @ cv.x_means)) <= 1e-10

    def test_minimality_of_solution(self, line_fixture):
        a = normal_solve(line_fixture)
        base = loss_value_residual(line_fixture, a)
        rng = np.random.default_rng(7)
        for _ in range(20):
            perturbed = a + 1e-4 * rng.uniform(-1, 1, a.shape[0])
            assert loss_value_residual(line_fixture, perturbed) >= base - 1e-12


class TestLossValueResidual:
    def test_perfect_fit(self, perfect_fit):
        a = normal_solve(perfect_fit)
        assert loss_value_residual(perfect_fit, a) <= 1e-12

    def test_hand_residuals(self, line_fixture):
        # residuals (-0.1, 0.3, -0.3, 0.1) for a = (0.5, 0.6)
        v = loss_value_residual(line_fixture, [0.5, 0.6])
        assert abs(v - SQRT_02) <= 1e-12

    def test_zero_coefficients_give_norm_of_y(self, line_fixture):
        v = loss_value_residual(line_fixture, [0.0, 0.0])
        assert abs(v - np.linalg.norm(line_fixture.y)) <= 1e-15

    def test_wrong_length(self, line_fixture):
        with pytest.raises(DimensionMismatch):
            loss_value_residual(line_fixture, [1.0, 2.0, 3.0])


class TestLossValueDet:
    def test_perfect_fit_is_zero(self, perfect_fit):
        assert loss_value_det(perfect_fit) <= 1e-9

    def test_hand_fixture(self, line_fixture):
        # centered Grams: [[5, 3], [3, 2]] augmented (det 1) over [5]
        assert abs(loss_value_det(line_fixture) - SQRT_02) <= 1e-10

    def test_matches_residual_route(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(n + 2, 41))
            d = random_dataset(rng, m, n)
            dd = loss_value_det(d)
            dr = loss_value_residual(d, normal_solve(d))
            assert abs(dd - dr) <= 1e-8 * max(dd, dr, 1e-30)

    def test_exact_interpolation_both_routes_vanish(self):
        # m = n + 1 makes (1|X) square: the fit is exact and both routes
        # must agree on zero at machine scale
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            d = random_dataset(rng, n + 1, n)
            scale = np.linalg.norm(d.y)
            assert loss_value_det(d) <= 1e-12 * max(scale, 1.0)
            assert loss_value_residual(d, normal_solve(d)) <= 1e-9 * max(scale, 1.0)

    def test_rank_deficient_rejected(self):
        x = np.column_stack([np.arange(4.0), 2.0 * np.arange(4.0)])
        with pytest.raises(RankDeficient):
            loss_value_det(Dataset(x, np.ones(4)))


class TestCorrelation:
    def test_perfect_fit_is_one(self, perfect_fit):
        assert abs(multiple_correlation_projection(perfect_fit) - 1.0) <= 1e-10
        assert abs(multiple_correlation_det(perfect_fit) - 1.0) <= 1e-9

    def test_hand_fixture_both_routes(self, line_fixture):
        assert abs(multiple_correlation_projection(line_fixture) - SQRT_09) <= 1e-12
        assert abs(multiple_correlation_det(line_fixture) - SQRT_09) <= 1e-12

    def test_constant_target_is_zero_variance(self):
        d = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([5.0, 5.0, 5.0]))
        with pytest.raises(ZeroVariance):
            multiple_correlation_projection(d)
        with pytest.raises(ZeroVariance):
            multiple_correlation_det(d)

    def test_orthogonal_target(self):
        # centered x is (-1, 0, 1); y = (1, -2, 1) is already centered and
        # orthogonal to it, so the determinant route gives exactly 0
        d = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([1.0, -2.0, 1.0]))
        assert multiple_correlation_det(d) <= 1e-9
        with pytest.raises(ZeroProjection):
            multiple_correlation_projection(d)

    def test_routes_agree_and_stay_in_range(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            m = int(rng.integers(3, 41))
            n = int(rng.integers(1, min(m - 1, 8) + 1))
            d = random_dataset(rng, m, n)
            rho_d = multiple_correlation_det(d)
            rho_p = multiple_correlation_projection(d)
            assert abs(rho_d - rho_p) <= 1e-8
            assert -1e-12 <= rho_d <= 1.0 + 1e-12
            assert -1e-12 <= rho_p <= 1.0 + 1e-12

    def test_pythagoras(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = int(rng.integers(4, 31))
            n = int(rng.integers(1, min(m - 1, 6) + 1))
            d = random_dataset(rng, m, n)
            rho = multiple_correlation_det(d)
            delta = loss_value_det(d)
            ny2 = float(center(d).y_hat @ center(d).y_hat)
            assert abs(rho * rho + delta * delta / ny2 - 1.0) <= 1e-8

    def test_tiny_target_scales_loss_and_keeps_correlation(self):
        # the rank is decided on Xc alone, so a target far below the scale of
        # X is still a value, not a column lost to the rank tolerance
        rng = np.random.default_rng(31)
        d = random_dataset(rng, 50, 2)
        tiny = Dataset(d.x, d.y * 1e-14)
        delta, rho = loss_value_det(d), multiple_correlation_det(d)
        assert abs(loss_value_det(tiny) - 1e-14 * delta) <= 1e-12 * 1e-14 * delta
        assert abs(multiple_correlation_det(tiny) - rho) <= 1e-12
        assert abs(multiple_correlation_projection(tiny) - rho) <= 1e-8

    def test_translation_invariance(self):
        rng = np.random.default_rng(19)
        d = random_dataset(rng, 15, 3)
        rho0 = multiple_correlation_det(d)
        delta0 = loss_value_det(d)
        shifted = Dataset(d.x + 100.0, d.y - 7.5)
        assert abs(multiple_correlation_det(shifted) - rho0) <= 1e-9 * max(rho0, 1e-30)
        assert abs(loss_value_det(shifted) - delta0) <= 1e-9 * max(delta0, 1e-30)


class TestRankRelation:
    def test_random_and_adversarial(self):
        rng = np.random.default_rng(23)
        for trial in range(50):
            n = int(rng.integers(1, 9))
            m = n + 1 if trial % 4 == 3 else int(rng.integers(n + 2, 41))
            x = rng.uniform(-1, 1, (m, n))
            if trial % 4 == 1:
                x[:, int(rng.integers(0, n))] = 0.75
            elif trial % 4 == 2 and n >= 2:
                x[:, 1] = x[:, 0]
            d = Dataset(x, rng.uniform(-1, 1, m))
            assert design_rank(d) == centered_rank(d) + 1


class TestSampleCovariance:
    def test_variance_of_1_2_3(self):
        d = Dataset(np.array([[1.0], [2.0], [3.0]]), np.zeros(3))
        np.testing.assert_allclose(sample_covariance(d), [[1.0]], atol=1e-15)

    def test_duplicated_column_gives_equal_entries(self):
        x = np.column_stack([np.arange(4.0), np.arange(4.0)])
        cov = sample_covariance(Dataset(x, np.zeros(4)))
        assert cov.shape == (2, 2)
        assert np.max(np.abs(cov - cov[0, 0])) <= 1e-15

    def test_matches_outer_product_sum(self):
        rng = np.random.default_rng(29)
        d = random_dataset(rng, 12, 4)
        cv = center(d)
        expected = np.zeros((4, 4))
        for i in range(d.m):
            expected += np.outer(cv.x_hat[i], cv.x_hat[i])
        expected /= d.m - 1
        np.testing.assert_allclose(sample_covariance(d), expected, atol=1e-12)

    def test_single_sample_rejected(self):
        with pytest.raises(InsufficientSamples):
            sample_covariance(Dataset(np.ones((1, 1)), np.ones(1)))


class TestMeanSquaredLoss:
    def test_perfect_fit(self, perfect_fit):
        assert mean_squared_loss(perfect_fit) <= 1e-18

    def test_hand_fixture(self, line_fixture):
        assert abs(mean_squared_loss(line_fixture) - 0.2 / 3.0) <= 1e-10

    def test_two_point_exact_fit(self):
        d = Dataset(np.array([[0.0], [1.0]]), np.array([3.0, 5.0]))
        assert mean_squared_loss(d) <= 1e-18


class TestRegressionReport:
    def test_full_report(self, line_fixture):
        rep = regression_report(line_fixture, coefficients=True)
        assert abs(rep.loss_value - SQRT_02) <= 1e-10
        assert abs(rep.correlation - SQRT_09) <= 1e-10
        assert abs(rep.correlation_projection - SQRT_09) <= 1e-10
        assert abs(rep.mean_squared_loss - 0.2 / 3.0) <= 1e-10
        np.testing.assert_allclose(rep.coefficients, [0.5, 0.6], atol=1e-12)
        assert rep.rank_full
        assert rep.flags == ()
        assert rep.methods["loss_value"] == "det_ratio"

    def test_no_solve_leaves_projection_out(self, line_fixture):
        rep = regression_report(line_fixture, solve=False)
        assert rep.correlation_projection is None
        assert rep.coefficients is None

    def test_each_step_runs_once(self, line_fixture, monkeypatch):
        # one factorization of (Xc|yc), one of (1|X) for the rank, one solve
        import gramdist.regression as reg

        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("householder_qr", "design_rank", "solve_hermitian_psd"):
            monkeypatch.setattr(reg, name, counted(name, getattr(reg, name)))
        regression_report(line_fixture, coefficients=True)
        assert sorted(calls) == ["design_rank", "householder_qr", "householder_qr", "solve_hermitian_psd"]

    def test_zero_projection_is_flagged(self):
        d = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([1.0, -2.0, 1.0]))
        rep = regression_report(d)
        assert rep.correlation_projection is None
        assert rep.correlation <= 1e-9
        assert any("zero_projection" in f for f in rep.flags)
