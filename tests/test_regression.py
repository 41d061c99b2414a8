"""Centered regression: normal equations, the determinant route for the loss
value and the correlation, the rank rule, and the report assembly.

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
    RankDeficient,
    ZeroProjection,
    ZeroVariance,
    centered_rank,
    design_rank,
    householder_qr,
    loss_value_det,
    loss_value_residual,
    mean_squared_loss,
    multiple_correlation_det,
    multiple_correlation_projection,
    normal_solve,
    regression_report,
)
from gramdist.cli import main
from gramdist.qr import _rank_of_r
from gramdist.regression import _centered_rank_of_r

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


def offset_dataset(offset=1e8):
    """200 x 3 Gaussian regressors shifted by offset: well conditioned once
    centered, while (1|X) has a tiny singular value relative to its scale."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((200, 3)) + offset
    y = 1.5 + x @ np.array([0.5, -2.0, 1.0]) + rng.standard_normal(200)
    return Dataset(x, y)


def centering_residue_datasets():
    """Regressors that are constant, or dependent through the intercept, but
    whose centered columns keep a rounding residue far above a tolerance
    relative to Xc itself: 0.1 has a mean that rounds to 0.10000000000000002,
    and x + 0.1 at a 1e8 offset centers to x plus about 3e-7."""
    rng = np.random.default_rng(1)
    x1 = rng.standard_normal(200) + 1e8
    return (
        Dataset(np.full((3, 1), 0.1), np.array([1.0, 2.0, 4.0])),
        Dataset(np.column_stack([x1, x1 + 0.1]), rng.standard_normal(200)),
    )


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

    def test_report_does_not_depend_on_the_callers_layout(self):
        # a 3000 x 11 sample with mixed column scales, made the way the
        # benchmark's regress input is; the BLAS products behind the solve
        # sum in another order per layout, so Dataset keeps one layout
        rng = np.random.default_rng(7)
        scales = 10.0 ** rng.uniform(-3.0, 3.0, 11)
        offsets = rng.normal(0.0, 2.0, 11)
        x = (rng.standard_normal((3000, 11)) + offsets) * scales
        y = rng.normal() + x @ (rng.standard_normal(11) / scales) + rng.standard_normal(3000)
        c_order, f_order = np.ascontiguousarray(x), np.asfortranarray(x)
        reports = [regression_report(Dataset(xs, y)) for xs in (c_order, f_order)]
        for field in ("loss_value", "correlation", "correlation_projection", "mean_squared_loss", "flags"):
            assert getattr(reports[0], field) == getattr(reports[1], field), field
        assert np.array_equal(reports[0].coefficients, reports[1].coefficients)
        d = Dataset(c_order, y)
        assert not d.x.flags.writeable and not d.y.flags.writeable
        kept = d.x.copy(), d.y.copy()
        c_order[0, 0] = y[0] = 1e300
        assert np.array_equal(d.x, kept[0]) and np.array_equal(d.y, kept[1])

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

    def test_constant_column_with_inexact_mean_rejected(self):
        for d in centering_residue_datasets():
            with pytest.raises(RankDeficient):
                normal_solve(d)

    def test_mean_equation(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            d = random_dataset(rng, 20, 3)
            a = normal_solve(d)
            assert abs(d.y.mean() - (a[0] + a[1:] @ d.x.mean(axis=0))) <= 1e-10

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
            yc = d.y - d.y.mean()
            ny2 = float(yc @ yc)
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
        datasets = []
        for trial in range(50):
            n = int(rng.integers(1, 9))
            m = n + 1 if trial % 4 == 3 else int(rng.integers(n + 2, 41))
            x = rng.uniform(-1, 1, (m, n))
            if trial % 4 == 1:
                x[:, int(rng.integers(0, n))] = 0.75
            elif trial % 4 == 2 and n >= 2:
                x[:, 1] = x[:, 0]
            datasets.append(Dataset(x, rng.uniform(-1, 1, m)))
        # fewer samples than regressors: (1|X) is wide
        for m, n in ((2, 3), (3, 5)):
            datasets.append(Dataset(rng.uniform(-1, 1, (m, n)), rng.uniform(-1, 1, m)))
        for d in datasets:
            assert design_rank(d) == centered_rank(d) + 1

    def test_counting_on_the_matrix_matches_its_factor(self):
        # a rank counted on A is the rank counted on its factor R; the
        # centered rule on Xc matches its factor, zero-padded when Xc is wide
        rng = np.random.default_rng(29)
        for trial in range(40):
            m, n = int(rng.integers(4, 30)), int(rng.integers(2, 6))
            m = max(m, n)
            a = rng.standard_normal((m, n))
            if trial % 2:
                a = a + 1j * rng.standard_normal((m, n))
            case = trial % 5
            if case == 1:
                a[:, n - 1] = a[:, 0]
            elif case == 2:
                a[:, 1] = -3.75 * a[:, 0]
            elif case == 3:
                a[:, 0] = 0.0
            elif case == 4:
                a[:, n - 1] = 0.1
            for scale in (1.0, 1e8):
                assert _rank_of_r(scale * a, m) == _rank_of_r(householder_qr(scale * a), m)
        datasets = [*centering_residue_datasets(), offset_dataset()]
        for m, n in ((2, 3), (3, 5), (6, 6), (7, 4), (40, 8)):
            x = rng.uniform(-1, 1, (m, n))
            datasets.append(Dataset(x, rng.uniform(-1, 1, m)))
            dup = x.copy()
            dup[:, n - 1] = dup[:, 0]
            const = 1e8 * x
            const[:, 0] = 0.1
            datasets += [Dataset(dup, np.zeros(m)), Dataset(const, np.zeros(m))]
        for d in datasets:
            xc = d.x - d.x.mean(axis=0)
            padded = np.vstack([xc, np.zeros((max(d.n - d.m, 0), d.n))])
            assert _centered_rank_of_r(xc, d) == _centered_rank_of_r(householder_qr(padded), d)

    def test_constant_columns_drop_centered_rank(self):
        # the rule the report enforces: an exact constant centers to zeros,
        # and one whose mean rounds leaves a residue that is not rank
        x = np.column_stack([np.full(5, 2.0), np.arange(5.0)])
        assert centered_rank(Dataset(x, np.arange(5.0) + 1.0)) == 1
        inexact, offset = centering_residue_datasets()
        assert centered_rank(inexact) == 0
        assert design_rank(inexact) == 1
        # at the 1e8 offset, (1|X) is itself rank 1 at its own tolerance,
        # one short of the exact 2, so only the centered side is pinned
        assert centered_rank(offset) == 1


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
        rep = regression_report(line_fixture)
        assert abs(rep.loss_value - SQRT_02) <= 1e-10
        assert abs(rep.correlation - SQRT_09) <= 1e-10
        assert abs(rep.correlation_projection - SQRT_09) <= 1e-10
        assert abs(rep.mean_squared_loss - 0.2 / 3.0) <= 1e-10
        np.testing.assert_allclose(rep.coefficients, [0.5, 0.6], atol=1e-12)
        assert rep.flags == ()

    def test_no_solve_leaves_projection_out(self, line_fixture):
        rep = regression_report(line_fixture, solve=False)
        assert rep.correlation_projection is None
        assert rep.coefficients is None

    def test_each_step_runs_once(self, line_fixture, monkeypatch):
        # one factorization of (Xc|yc), which also decides the rank, one solve
        import gramdist.distance as dist
        import gramdist.regression as reg

        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("householder_qr", "design_rank"):
            monkeypatch.setattr(reg, name, counted(name, getattr(reg, name)))
        monkeypatch.setattr(dist, "solve_hermitian_psd", counted("solve_hermitian_psd", dist.solve_hermitian_psd))
        regression_report(line_fixture)
        assert sorted(calls) == ["householder_qr", "solve_hermitian_psd"]

    def test_rank_decided_only_where_read(self, line_fixture, monkeypatch):
        # the factorization decides no rank; the report and centered_rank
        # make the two counts of the centered rank rule and no third, and the
        # two rank functions count on the matrix itself, factoring nothing
        import gramdist.qr as qr
        import gramdist.regression as reg

        count_above = qr._count_above
        calls = []
        factored = []
        svds = []

        def counted(a, tol):
            calls.append(a.shape)
            return count_above(a, tol)

        def counted_qr(a):
            factored.append(np.shape(a))
            return householder_qr(a)

        monkeypatch.setattr(qr, "_count_above", counted)
        monkeypatch.setattr(reg, "_count_above", counted)
        householder_qr(np.column_stack([line_fixture.x, line_fixture.y]))
        assert calls == []
        regression_report(line_fixture)
        assert len(calls) == 2
        calls.clear()
        monkeypatch.setattr(reg, "householder_qr", counted_qr)
        centered_rank(line_fixture)
        assert len(calls) == 2
        design_rank(line_fixture)
        assert len(calls) == 3
        assert factored == []
        # where no certificate of full rank exists, the count reaches the SVD
        svd = np.linalg.svd

        def counted_svd(*args, **kwargs):
            svds.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        x = np.column_stack([line_fixture.x[:, 0], 2.0 * line_fixture.x[:, 0]])
        assert centered_rank(Dataset(x, line_fixture.y)) == 1
        assert svds

    def test_large_offset_is_full_rank(self):
        # Centered, the regressors are plain Gaussians; the rank test on the
        # uncentered (1|X) would call them dependent at this offset.
        d = offset_dataset()
        xc, yc = d.x - d.x.mean(axis=0), d.y - d.y.mean()
        slopes, (ss,), *_ = np.linalg.lstsq(xc, yc, rcond=None)
        for kwargs in ({}, {"solve": False}):
            rep = regression_report(d, **kwargs)
            assert abs(rep.loss_value - math.sqrt(ss)) <= 1e-12 * math.sqrt(ss)
        rep = regression_report(d)
        np.testing.assert_allclose(rep.coefficients[1:], slopes, rtol=1e-9)
        assert abs(rep.correlation - rep.correlation_projection) <= 1e-12

    def test_duplicated_column_rejected_with_and_without_solve(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((50, 3))
        x[:, 2] = x[:, 0]
        d = Dataset(x, rng.standard_normal(50))
        for kwargs in ({}, {"solve": False}):
            with pytest.raises(RankDeficient):
                regression_report(d, **kwargs)

    def test_small_column_beside_large_offset_is_full_rank(self):
        # the centering residue is judged per column: a floor set by the
        # largest column of X would refuse the 1e-6 column here
        rng = np.random.default_rng(2)
        x = np.column_stack([rng.standard_normal(200) + 1e8, 1e-6 * rng.standard_normal(200)])
        d = Dataset(x, x @ np.array([1.0, 1e6]) + rng.standard_normal(200))
        _, (ss,), *_ = np.linalg.lstsq(x - x.mean(axis=0), d.y - d.y.mean(), rcond=None)
        for kwargs in ({}, {"solve": False}):
            rep = regression_report(d, **kwargs)
            assert abs(rep.loss_value - math.sqrt(ss)) <= 1e-12 * math.sqrt(ss)

    def test_centering_residue_rejected_with_and_without_solve(self):
        for d in centering_residue_datasets():
            for kwargs in ({}, {"solve": False}):
                with pytest.raises(RankDeficient):
                    regression_report(d, **kwargs)

    def test_zero_projection_is_flagged(self):
        d = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([1.0, -2.0, 1.0]))
        rep = regression_report(d)
        assert rep.correlation_projection is None
        assert rep.correlation <= 1e-9
        assert any("zero_projection" in f for f in rep.flags)


class TestErrorPrecedence:
    def test_rank_deficiency_wins_over_zero_variance(self, tmp_path, capsys):
        # duplicated regressors and a constant target: every entry point
        # decides the rank first, as the regress command does
        x = np.column_stack([np.arange(4.0), np.arange(4.0)])
        d = Dataset(x, np.full(4, 7.0))
        for fn in (
            multiple_correlation_det,
            multiple_correlation_projection,
            loss_value_det,
            normal_solve,
            regression_report,
        ):
            with pytest.raises(RankDeficient):
                fn(d)
        path = tmp_path / "d.csv"
        path.write_text("a,b,y\n" + "".join(f"{v},{v},7\n" for v in range(4)), encoding="utf-8")
        assert main(["regress", "--data", str(path), "--target", "y"]) == 2
        assert "rank-deficient" in capsys.readouterr().err
