"""Centered regression: the coefficients of the normal equations, the
determinant route for the loss value and the correlation, the rank rule,
and the report that assembles them.

The hand-worked fixture x = (1,2,3,4), y = (1,2,2,3) anchors everything:
slope 0.6, intercept 0.5, residuals (-0.1, 0.3, -0.3, 0.1), loss sqrt(0.2),
correlation sqrt(0.9), centered Grams [[5,3],[3,2]] and [5].
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gramdist import (
    Dataset,
    DimensionMismatch,
    GramDistError,
    RankDeficient,
    ZeroVariance,
    centered_rank,
    design_rank,
    distance_qr,
    householder_qr,
    loss_value_residual,
    regression_report,
)
from gramdist.cli import main
from gramdist.linalg import EPS
from gramdist.qr import _rank, _rank_of_r, _residual
from test_qr import rank_tolerance, svd_count

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


def scaled_columns(exponents):
    """(j, k, x, y, report) for each column j of a 50 x 3 Gaussian X and
    each k in exponents, with a fresh copy x of X and the solve-free report
    of the unscaled (X, y)."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((50, 3))
    y = x @ np.array([1.0, -2.0, 0.5]) + rng.standard_normal(50)
    base = regression_report(Dataset(x, y), solve=False)
    for j in range(3):
        for k in exponents:
            yield j, k, x.copy(), y, base


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
        np.testing.assert_allclose(regression_report(perfect_fit).coefficients, [0.0, 2.0], atol=1e-12)

    def test_hand_fixture(self, line_fixture):
        np.testing.assert_allclose(regression_report(line_fixture).coefficients, [0.5, 0.6], atol=1e-12)

    def test_rank_deficient_rejected(self):
        x = np.column_stack([np.arange(4.0), np.arange(4.0)])
        with pytest.raises(RankDeficient):
            regression_report(Dataset(x, np.ones(4)))

    def test_too_few_samples_rejected(self):
        with pytest.raises(RankDeficient):
            regression_report(Dataset(np.ones((1, 1)), np.ones(1)))

    def test_constant_column_with_inexact_mean_rejected(self):
        for d in centering_residue_datasets():
            with pytest.raises(RankDeficient):
                regression_report(d)

    def test_mean_equation(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            d = random_dataset(rng, 20, 3)
            a = regression_report(d).coefficients
            assert abs(d.y.mean() - (a[0] + a[1:] @ d.x.mean(axis=0))) <= 1e-10

    def test_minimality_of_solution(self, line_fixture):
        a = regression_report(line_fixture).coefficients
        base = loss_value_residual(line_fixture, a)
        rng = np.random.default_rng(7)
        for _ in range(20):
            perturbed = a + 1e-4 * rng.uniform(-1, 1, a.shape[0])
            assert loss_value_residual(line_fixture, perturbed) >= base - 1e-12


class TestLossValueResidual:
    def test_perfect_fit(self, perfect_fit):
        a = regression_report(perfect_fit).coefficients
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
        assert regression_report(perfect_fit, solve=False).loss_value <= 1e-9

    def test_hand_fixture(self, line_fixture):
        # centered Grams: [[5, 3], [3, 2]] augmented (det 1) over [5]
        assert abs(regression_report(line_fixture, solve=False).loss_value - SQRT_02) <= 1e-10

    def test_matches_residual_route(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(n + 2, 41))
            d = random_dataset(rng, m, n)
            rep = regression_report(d)
            dd = rep.loss_value
            dr = loss_value_residual(d, rep.coefficients)
            assert abs(dd - dr) <= 1e-8 * max(dd, dr, 1e-30)

    @given(
        n=st.integers(1, 6),
        extra=st.integers(1, 30),
        exponents=st.lists(st.integers(-20, 20), min_size=6, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_loss_is_distance_qr_of_the_centered_data(self, n, extra, exponents, seed):
        # one reading of one factor: the report's loss is distance_qr of
        # the (Xc, yc) it centers, bit for bit, whatever power of two
        # scales each column
        rng = np.random.default_rng(seed)
        m = n + extra
        d = Dataset(rng.standard_normal((m, n)) * np.ldexp(1.0, exponents[:n]), rng.standard_normal(m))
        xc, yc = d.x - d.x.sum(axis=0) / m, d.y - float(d.y.sum()) / m
        assert regression_report(d).loss_value == distance_qr(xc, yc).value

    def test_exact_interpolation_both_routes_vanish(self):
        # m = n + 1 makes (1|X) square: the fit is exact and both routes
        # must agree on zero at machine scale
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            d = random_dataset(rng, n + 1, n)
            scale = np.linalg.norm(d.y)
            rep = regression_report(d)
            assert rep.loss_value <= 1e-12 * max(scale, 1.0)
            assert loss_value_residual(d, rep.coefficients) <= 1e-9 * max(scale, 1.0)

    def test_rank_deficient_rejected(self):
        x = np.column_stack([np.arange(4.0), 2.0 * np.arange(4.0)])
        with pytest.raises(RankDeficient):
            regression_report(Dataset(x, np.ones(4)), solve=False)


class TestCorrelation:
    def test_perfect_fit_is_one(self, perfect_fit):
        rep = regression_report(perfect_fit)
        assert abs(rep.correlation_projection - 1.0) <= 1e-10
        assert abs(rep.correlation - 1.0) <= 1e-9

    def test_hand_fixture_both_routes(self, line_fixture):
        rep = regression_report(line_fixture)
        assert abs(rep.correlation_projection - SQRT_09) <= 1e-12
        assert abs(rep.correlation - SQRT_09) <= 1e-12

    def test_constant_target_is_zero_variance(self):
        d = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([5.0, 5.0, 5.0]))
        for kwargs in ({}, {"solve": False}):
            with pytest.raises(ZeroVariance):
                regression_report(d, **kwargs)

    def test_orthogonal_target(self):
        # centered x is (-1, 0, 1); y = (1, -2, 1) is already centered and
        # orthogonal to it, so the determinant route gives exactly 0 (the
        # undefined projection route is test_zero_projection_is_flagged's)
        d = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([1.0, -2.0, 1.0]))
        assert regression_report(d, solve=False).correlation <= 1e-9

    def test_routes_agree_and_stay_in_range(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            m = int(rng.integers(3, 41))
            n = int(rng.integers(1, min(m - 1, 8) + 1))
            d = random_dataset(rng, m, n)
            rep = regression_report(d)
            rho_d, rho_p = rep.correlation, rep.correlation_projection
            assert abs(rho_d - rho_p) <= 1e-8
            assert -1e-12 <= rho_d <= 1.0 + 1e-12
            assert -1e-12 <= rho_p <= 1.0 + 1e-12

    def test_pythagoras(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = int(rng.integers(4, 31))
            n = int(rng.integers(1, min(m - 1, 6) + 1))
            d = random_dataset(rng, m, n)
            rep = regression_report(d, solve=False)
            rho, delta = rep.correlation, rep.loss_value
            yc = d.y - d.y.mean()
            ny2 = float(yc @ yc)
            assert abs(rho * rho + delta * delta / ny2 - 1.0) <= 1e-8

    def test_tiny_target_scales_loss_and_keeps_correlation(self):
        # the rank is decided on Xc alone, so a target far below the scale of
        # X is still a value, not a column lost to the rank tolerance
        rng = np.random.default_rng(31)
        d = random_dataset(rng, 50, 2)
        tiny = Dataset(d.x, d.y * 1e-14)
        base, rep = regression_report(d, solve=False), regression_report(tiny)
        delta, rho = base.loss_value, base.correlation
        assert abs(rep.loss_value - 1e-14 * delta) <= 1e-12 * 1e-14 * delta
        assert abs(rep.correlation - rho) <= 1e-12
        assert abs(rep.correlation_projection - rho) <= 1e-8

    def test_translation_invariance(self):
        rng = np.random.default_rng(19)
        d = random_dataset(rng, 15, 3)
        base = regression_report(d, solve=False)
        rho0, delta0 = base.correlation, base.loss_value
        rep = regression_report(Dataset(d.x + 100.0, d.y - 7.5), solve=False)
        assert abs(rep.correlation - rho0) <= 1e-9 * max(rho0, 1e-30)
        assert abs(rep.loss_value - delta0) <= 1e-9 * max(delta0, 1e-30)


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
        # large offsets: (1|X) is ill-conditioned relative to its largest
        # column, Xc is not; both are counted with each column on one scale
        datasets += [offset_dataset(offset) for offset in (1e4, 1e8, 1e10, 1e12)]
        for d in datasets:
            assert design_rank(d) == centered_rank(d) + 1

    def test_columns_scaled_beyond_the_range_of_their_squares(self):
        # a column at 2^600 squares past the double range and one at 2^-600
        # below it; each norm is taken on the column scaled by a power of
        # two, so both counts are those of the unscaled data
        rng = np.random.default_rng(31)
        x = rng.uniform(-1, 1, (20, 3))
        dup = x.copy()
        dup[:, 2] = dup[:, 0]
        for base, rank in ((x, 3), (dup, 2)):
            for k in (600, -600):
                for cols in ([0], [0, 1, 2]):
                    scaled = base.copy()
                    scaled[:, cols] *= 2.0**k
                    d = Dataset(scaled, rng.uniform(-1, 1, 20))
                    assert centered_rank(d) == rank
                    assert design_rank(d) == rank + 1

    def test_counting_on_the_matrix_matches_its_factor(self):
        # a rank counted on A is the rank counted on its factor R; the
        # centered rule on Xc matches the count that qr._residual reads off
        # the factor of (Xc|yc), zero-padded when it is wide
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
                count = svd_count(scale * a, rank_tolerance(scale * a, m))
                assert count == _rank(scale * a, m) == _rank_of_r(householder_qr(scale * a), m)
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
            aug = np.column_stack([xc, d.y - d.y.mean()])
            padded = np.vstack([aug, np.zeros((max(d.n + 1 - d.m, 0), d.n + 1))])
            assert _rank(xc, d.m, d.x) == _residual(householder_qr(padded), d.m, d.x)[1]

    def test_constant_columns_drop_centered_rank(self):
        # the rule the report enforces: an exact constant centers to zeros,
        # and one whose mean rounds leaves a residue that is not rank
        x = np.column_stack([np.full(5, 2.0), np.arange(5.0)])
        assert centered_rank(Dataset(x, np.arange(5.0) + 1.0)) == 1
        inexact, offset = centering_residue_datasets()
        assert centered_rank(inexact) == 0
        assert design_rank(inexact) == 1
        # x2 = x1 + 0.1 at a 1e8 offset: the intercept spans the 0.1
        assert centered_rank(offset) == 1
        assert design_rank(offset) == 2


class TestMeanSquaredLoss:
    def test_perfect_fit(self, perfect_fit):
        assert regression_report(perfect_fit, solve=False).mean_squared_loss <= 1e-18

    def test_hand_fixture(self, line_fixture):
        assert abs(regression_report(line_fixture, solve=False).mean_squared_loss - 0.2 / 3.0) <= 1e-10

    def test_two_point_exact_fit(self):
        d = Dataset(np.array([[0.0], [1.0]]), np.array([3.0, 5.0]))
        assert regression_report(d, solve=False).mean_squared_loss <= 1e-18


class TestRegressionReport:
    def test_full_report(self, line_fixture):
        rep = regression_report(line_fixture)
        assert abs(rep.loss_value - SQRT_02) <= 1e-10
        assert abs(rep.correlation - SQRT_09) <= 1e-10
        assert abs(rep.correlation_projection - SQRT_09) <= 1e-10
        assert abs(rep.mean_squared_loss - 0.2 / 3.0) <= 1e-10
        np.testing.assert_allclose(rep.coefficients, [0.5, 0.6], atol=1e-12)
        assert rep.flags == ()

    def test_report_copies_the_centered_data_once(self):
        # the centered copies and one stacked (Xc|yc) factored in place: 2
        # copies of the data; a second stacked copy would make it 3
        rng = np.random.default_rng(83)
        x = rng.standard_normal((20000, 10))
        d = Dataset(x, x @ np.arange(1.0, 11.0) + rng.standard_normal(20000))
        regression_report(d)
        tracemalloc.start()
        try:
            regression_report(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * (d.x.nbytes + d.y.nbytes)

    def test_no_solve_leaves_projection_out(self, line_fixture):
        rep = regression_report(line_fixture, solve=False)
        assert rep.correlation_projection is None
        assert rep.coefficients is None

    def test_each_step_runs_once(self, line_fixture, monkeypatch):
        # one factorization of (Xc|yc), which also decides the rank, one solve
        import gramdist.regression as reg

        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("householder_qr", "design_rank"):
            monkeypatch.setattr(reg, name, counted(name, getattr(reg, name)))
        monkeypatch.setattr(reg, "_normal_solution", counted("_normal_solution", reg._normal_solution))
        regression_report(line_fixture)
        assert sorted(calls) == ["_normal_solution", "householder_qr"]

    def test_rank_decided_only_where_read(self, line_fixture, monkeypatch):
        # the factorization decides no rank; the report reads its rank and
        # loss in one qr._residual call and makes no _rank call;
        # centered_rank and design_rank make one count each, and the two
        # rank functions count on the matrix itself, factoring nothing
        import gramdist.qr as qr
        import gramdist.regression as reg

        rank, residual = qr._rank, qr._residual
        calls = []
        residuals = []
        factored = []
        svds = []

        def counted(a, rows, x=None, **kwargs):
            calls.append(a.shape)
            return rank(a, rows, x, **kwargs)

        def counted_residual(r, rows, x=None):
            residuals.append(r.shape)
            return residual(r, rows, x)

        def counted_qr(a):
            factored.append(np.shape(a))
            return householder_qr(a)

        monkeypatch.setattr(qr, "_rank", counted)
        monkeypatch.setattr(reg, "_rank", counted)
        monkeypatch.setattr(qr, "_residual", counted_residual)
        monkeypatch.setattr(reg, "_residual", counted_residual)
        householder_qr(np.column_stack([line_fixture.x, line_fixture.y]))
        assert calls == residuals == []
        regression_report(line_fixture)
        regression_report(line_fixture, solve=False)
        assert calls == []
        assert residuals == [(2, 2), (2, 2)]
        monkeypatch.setattr(reg, "householder_qr", counted_qr)
        centered_rank(line_fixture)
        assert len(calls) == 1
        design_rank(line_fixture)
        assert len(calls) == 2
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

    def test_column_scale_leaves_loss_and_correlation(self):
        # one column scaled by 10^k: the rank is counted with each column
        # on one scale, so the report answers as for the unscaled data.  A
        # rounding of order eps in the factor moves rho by about eps / rho
        # relative, so the target carries signal and rho is not small.
        for j, k, x, y, base in scaled_columns((-150, -100, -60, -20, 20, 60, 100, 150)):
            x[:, j] *= 10.0**k
            d = Dataset(x, y)
            rep = regression_report(d, solve=False)
            assert abs(rep.loss_value - base.loss_value) <= 8 * EPS * base.loss_value, (j, k)
            assert abs(rep.correlation - base.correlation) <= 8 * EPS * base.correlation, (j, k)
            assert design_rank(d) == centered_rank(d) + 1 == d.n + 1, (j, k)

    def test_column_scale_beyond_the_range_refuses_or_agrees(self):
        # much past 10^+-150 the squares behind a column norm leave the
        # double range; the report may then refuse, but not answer wrongly
        for j, k, x, y, base in scaled_columns((-300, -170, 160, 300)):
            x[:, j] *= 10.0**k
            with np.errstate(all="ignore"):
                try:
                    rep = regression_report(Dataset(x, y), solve=False)
                except GramDistError:
                    continue
            assert abs(rep.loss_value - base.loss_value) <= 8 * EPS * base.loss_value, (j, k)
            assert abs(rep.correlation - base.correlation) <= 8 * EPS * base.correlation, (j, k)

    def test_result_beyond_a_double_raises_overflow(self):
        # y at 1e200: the squared loss overflows, which is an error, not an
        # inf or a nan
        rng = np.random.default_rng(6)
        x = rng.standard_normal((50, 2))
        d = Dataset(x, 1e200 * (x @ np.array([1.0, -1.0]) + rng.standard_normal(50)))
        with np.errstate(all="ignore"):
            for kwargs in ({}, {"solve": False}):
                with pytest.raises(OverflowError):
                    regression_report(d, **kwargs)

    def test_centered_data_beyond_a_double_is_an_overflow(self):
        # finite entries whose column sum overflows: centering warns of
        # nothing, and the error names the centered data, not the entries
        d = Dataset(np.array([[1e308], [1e308], [-1e308], [0.0]]), np.array([1.0, 2.0, 3.0, 1.0]))
        for solve in (True, False):
            with pytest.raises(OverflowError, match=r"^the centered data does not fit a double$"):
                regression_report(d, solve=solve)

    @pytest.mark.parametrize("k", [510, 515])
    def test_results_that_fit_a_double_survive_a_huge_target(self, k):
        # y at 2^k: the squares behind the norms and the dot product of
        # the two correlations leave the double range, the numbers do not;
        # the norms are taken on power-of-two scaled vectors, so the report
        # scales exactly with y
        rng = np.random.default_rng(6)
        x = rng.standard_normal((50, 2))
        y = x @ np.array([1.0, -1.0]) + 1e-3 * rng.standard_normal(50)
        for solve in (True, False):
            base = regression_report(Dataset(x, y), solve=solve)
            rep = regression_report(Dataset(x, math.ldexp(1.0, k) * y), solve=solve)
            assert rep.correlation == base.correlation
            assert rep.correlation_projection == base.correlation_projection
            assert rep.loss_value == math.ldexp(base.loss_value, k)
            assert rep.mean_squared_loss > 1e300
            if solve:
                assert np.array_equal(rep.coefficients, np.ldexp(base.coefficients, k))

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
        # duplicated regressors and a constant target: the report decides
        # the rank first, with and without the solve, as the regress command
        # does
        x = np.column_stack([np.arange(4.0), np.arange(4.0)])
        d = Dataset(x, np.full(4, 7.0))
        for solve in (True, False):
            with pytest.raises(RankDeficient):
                regression_report(d, solve=solve)
        path = tmp_path / "d.csv"
        path.write_text("a,b,y\n" + "".join(f"{v},{v},7\n" for v in range(4)), encoding="utf-8")
        assert main(["regress", "--data", str(path), "--target", "y"]) == 2
        assert "rank-deficient" in capsys.readouterr().err
