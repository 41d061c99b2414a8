"""Householder QR: the triangular factor against the Gram matrix and a
Gram-Schmidt oracle, the rank read off that factor, the comparison-matrix
and shifted-Cholesky certificates of full rank against the SVD count, and
the Gram log-determinant read off the diagonal.

The independent oracle is classical Gram-Schmidt: it builds an orthonormal
basis of the column space, the associated projector and the residual norm
of each column against the ones before it, without touching the QR code.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from numpy.linalg import lapack_lite

import gramdist.qr
from gramdist import (
    Dataset,
    ShapeError,
    distance_det,
    distance_projection,
    distance_qr,
    gram_logdet,
    householder_qr,
    orthogonal_minor_vector,
    regression_report,
)
from gramdist.linalg import EPS, _column_norms, _scaled, _solve_triangular
from gramdist.qr import (
    _BLOCK,
    _SCALAR_COLUMNS,
    _SQUARES_FIT,
    _certified,
    _certifies_full_rank,
    _certifies_triangular,
    _divided,
    _norm_bound,
    _rank,
    _rank_of_r,
    _residual,
    _stacked,
    _substituted_max,
)


def rank_tolerance(a, rows):
    """max(m, n) * eps * (largest column norm) of an m x n matrix a, m =
    rows, or of its factor: a tolerance to test the certificates at.  A
    column norm whose square overflows is taken on the column divided by
    its power of two from ``linalg._scaled`` and scaled back."""
    top = float(_column_norms(a).max())
    if top == math.inf:
        rs, s = _scaled(a)
        top = float((s * _column_norms(rs)).max())
    return max(rows, a.shape[1]) * EPS * top


def gram_schmidt(a, tol=1e-12):
    """Orthonormal basis of the column space by classical Gram-Schmidt, and
    the norm of each column's residual against the columns before it."""
    a = np.asarray(a, np.complex128)
    basis = []
    residuals = []
    for j in range(a.shape[1]):
        v = a[:, j].copy()
        for q in basis:
            v -= q * np.vdot(q, a[:, j])
        nv = np.linalg.norm(v)
        residuals.append(nv)
        if nv > tol * np.linalg.norm(a[:, j]):
            basis.append(v / nv)
    q = np.column_stack(basis) if basis else np.zeros((a.shape[0], 0))
    return q, np.array(residuals)


def projector(basis):
    return basis @ basis.conj().T


def random_complex(rng, m, n):
    return rng.uniform(-1, 1, (m, n)) + 1j * rng.uniform(-1, 1, (m, n))


class TestHouseholderQr:
    def test_identity_is_its_own_r(self):
        r = householder_qr(np.eye(3))
        np.testing.assert_allclose(np.abs(np.diag(r)), np.ones(3), atol=1e-15)
        assert _rank_of_r(r, 3) == 3

    def test_single_column_norm(self):
        r = householder_qr([[1.0], [1.0]])
        assert abs(abs(r[0, 0]) - math.sqrt(2)) < 1e-15
        assert _rank_of_r(r, 2) == 1

    def test_rows_less_than_cols_rejected(self):
        with pytest.raises(ShapeError):
            householder_qr(np.ones((2, 3)))

    def test_factor_beyond_a_double_is_an_overflow(self):
        # every entry of A is finite and so is the true R (r[0, 0] is
        # -sqrt(3) 1e308, r[0, 1] is 0 and |r[1, 1]| sqrt(14)), but the first
        # reflector overflows on the second column: geqrf returns -inf (nan
        # in complex) for r[0, 1], which is an error, not a warning
        a = np.array([[1e308, 1.0], [1e308, 2.0], [-1e308, 3.0]])
        for operand in (a, np.column_stack([a, [1.0, 2.0, 3.0]]), a.astype(complex)):
            with pytest.raises(OverflowError, match=r"^the triangular factor does not fit a double$"):
                householder_qr(operand)
            work = np.array(operand, order="F")
            with pytest.raises(OverflowError):
                householder_qr(work, overwrite_a=True)

    @pytest.mark.parametrize("complex_input", [False, True])
    def test_reconstruction(self, complex_input):
        # R* R reconstructs the Gram matrix A* A, whatever Q was
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = random_complex(rng, 6, 3) if complex_input else rng.uniform(-1, 1, (6, 3))
            r = householder_qr(a)
            assert r.shape == (3, 3)
            assert np.iscomplexobj(r) == complex_input
            np.testing.assert_array_equal(r, np.triu(r))
            gram = a.conj().T @ a
            err = np.linalg.norm(r.conj().T @ r - gram) / np.linalg.norm(gram)
            assert err <= 1e-12

    def test_column_space_matches_gram_schmidt(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            a = random_complex(rng, 6, 3)
            r = householder_qr(a)
            q_cols = np.linalg.solve(r.T, a.T).T  # A R^-1
            p_householder = projector(q_cols)
            p_gs = projector(gram_schmidt(a)[0])
            assert np.max(np.abs(p_householder - p_gs)) <= 1e-10

    def test_diagonal_matches_gram_schmidt_residuals(self):
        # unpivoted, |r_jj| is the distance of column j to the span of the
        # columns before it
        rng = np.random.default_rng(19)
        for _ in range(10):
            a = random_complex(rng, 8, 5)
            r = householder_qr(a)
            np.testing.assert_allclose(np.abs(np.diag(r)), gram_schmidt(a)[1], rtol=1e-12)

    def test_rank_detects_dependent_columns(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert _rank_of_r(householder_qr(a), 2) == 1
        assert _rank_of_r(householder_qr(np.zeros((3, 2)) + 0.0), 3) == 0
        # the zero middle diagonal of the unpivoted factor is not a lost rank
        b = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        assert _rank_of_r(householder_qr(b), 3) == 2

    def test_rank_invariant_under_permutation(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            a = random_complex(rng, 7, 4)
            a[:, 2] = a[:, 0] * (0.5 - 0.25j)
            base = _rank_of_r(householder_qr(a), 7)
            assert base == 3
            perm = rng.permutation(4)
            assert _rank_of_r(householder_qr(a[:, perm]), 7) == base


class TestImmutability:
    def test_factors_are_read_only(self):
        rng = np.random.default_rng(47)
        a = random_complex(rng, 5, 3)
        r = householder_qr(a)
        assert type(r) is np.ndarray
        assert not r.flags.writeable

    def test_input_is_not_mutated(self):
        # the default QR, the three distance routes and the regression
        # report only read the caller's arrays, in either layout, though
        # the routes factor private operands in place
        rng = np.random.default_rng(53)
        for order in ("C", "F"):
            a = np.array(random_complex(rng, 5, 3), order=order)
            b = random_complex(rng, 5, 1)[:, 0]
            snapshot = a.copy(), b.copy()
            householder_qr(a)
            for route in (distance_det, distance_projection, distance_qr):
                route(a, b)
            np.testing.assert_array_equal(a, snapshot[0])
            np.testing.assert_array_equal(b, snapshot[1])
            x = np.array(rng.standard_normal((8, 3)), order=order)
            d = Dataset(x, x @ np.array([1.0, -2.0, 0.5]) + rng.standard_normal(8))
            data = d.x.copy(), d.y.copy()
            regression_report(d)
            np.testing.assert_array_equal(d.x, data[0])
            np.testing.assert_array_equal(d.y, data[1])

    def test_result_shares_no_memory_with_the_input(self):
        for a in (np.random.default_rng(59).standard_normal((4, 4)),
                  random_complex(np.random.default_rng(61), 6, 3)):
            r = householder_qr(a)
            assert not np.shares_memory(r, a)
            assert not r.flags.writeable
            assert a.flags.writeable

    def test_lapack_factors_one_column_major_copy(self, monkeypatch):
        # householder_qr copies A once, column-major, and geqrf factors that
        # copy in place: one factorization after the workspace query, on
        # memory A does not share, so zeroing A afterwards leaves the factor
        # as it was
        rng = np.random.default_rng(67)
        calls = []

        def spy_on(name):
            routine = getattr(lapack_lite, name)

            def spy(m, n, a, lda, tau, work, lwork, info):
                calls.append((name, m, n, a, lwork))
                return routine(m, n, a, lda, tau, work, lwork, info)

            monkeypatch.setattr(gramdist.qr.lapack_lite, name, spy)

        spy_on("dgeqrf")
        spy_on("zgeqrf")
        real, cplx = rng.standard_normal((6, 3)), random_complex(rng, 6, 3)
        for a, name in ((real, "dgeqrf"), (np.asfortranarray(real), "dgeqrf"),
                        (cplx, "zgeqrf"), (np.asfortranarray(cplx), "zgeqrf")):
            r = householder_qr(a)
            factorizations = [c for c in calls if c[4] != -1]
            assert len(factorizations) == 1 and len(calls) == 2
            called, m, n, operand, _ = factorizations[0]
            assert (called, m, n) == (name, 6, 3)
            # lapack_lite takes the transpose: a C-contiguous 3 x 6 view is
            # a column-major 6 x 3 matrix
            assert operand.shape == (3, 6) and operand.flags.c_contiguous
            assert operand.T.flags.f_contiguous
            assert not np.shares_memory(operand, a)
            calls.clear()
            before = r.copy()
            a[:] = 0.0
            np.testing.assert_array_equal(r, before)

    def test_validation_is_kept(self):
        for bad in (np.array([[1.0, np.nan], [0.0, 1.0]]), np.array([[np.inf], [1.0]]),
                    np.array([[1.0 + 1j * np.inf], [1.0]])):
            with pytest.raises(ValueError, match="finite"):
                householder_qr(bad)
        for bad in (np.ones(3), np.zeros((0, 2)), np.zeros((2, 0)), np.ones((2, 2, 2))):
            with pytest.raises(ShapeError):
                householder_qr(bad)
        for value, dtype in (([[1, 2], [3, 4], [5, 7]], np.float64),
                             (np.array([[1, 2], [3, 4]], np.int32), np.float64),
                             (np.array([[1.0], [2.0]], np.float32), np.float64),
                             ([[1 + 1j], [2.0]], np.complex128),
                             (np.array([[1 + 1j], [2.0]], np.complex64), np.complex128)):
            r = householder_qr(value)
            assert r.dtype == dtype
            assert not r.flags.writeable


class TestOverwriteA:
    """With overwrite_a=True geqrf factors the caller's operand itself: the
    same values in the same layout, so the same R bit for bit."""

    @pytest.mark.parametrize("shape", [(6, 3), (5, 5), (40, 7)])
    @pytest.mark.parametrize("complex_input", [False, True])
    def test_same_factor_as_the_copying_path(self, shape, complex_input):
        rng = np.random.default_rng([97, *shape, int(complex_input)])
        a = random_complex(rng, *shape) if complex_input else rng.uniform(-1, 1, shape)
        work = np.asfortranarray(a)
        assert not np.shares_memory(work, a)
        r = householder_qr(a)
        r_in_place = householder_qr(work, overwrite_a=True)
        assert r_in_place.dtype == r.dtype and r_in_place.shape == r.shape
        assert r_in_place.tobytes() == r.tobytes()
        assert not r_in_place.flags.writeable
        # the operand now holds the reflectors below the diagonal
        assert not np.array_equal(work, a)
        assert not np.shares_memory(r_in_place, work)

    def test_rejects_an_operand_it_may_not_factor_in_place(self):
        rng = np.random.default_rng(101)
        frozen = np.asfortranarray(rng.standard_normal((5, 3)))
        frozen.setflags(write=False)
        for bad in (np.ascontiguousarray(rng.standard_normal((5, 3))),
                    np.ascontiguousarray(random_complex(rng, 5, 3)),
                    frozen,
                    np.asfortranarray(np.arange(15).reshape(5, 3)),
                    np.asfortranarray(rng.standard_normal((5, 3)), np.float32),
                    rng.standard_normal((5, 3)).tolist()):
            snapshot = np.array(bad)
            with pytest.raises(ValueError, match="overwrite_a"):
                householder_qr(bad, overwrite_a=True)
            np.testing.assert_array_equal(bad, snapshot)


class TestStacked:
    """_stacked writes the bytes of np.concatenate into a new writeable
    column-major matrix, whether it copies a block whole or in bands of
    rows."""

    @staticmethod
    def blocks(rng, m, width, kind):
        """One block of m rows, width columns (0 for a vector) and a dtype
        of kind, in each layout, with a -0.0 among its entries."""
        shape = (m,) if width == 0 else (m, width)
        a = rng.standard_normal(shape)
        if kind == "c":
            a = a + 1j * rng.standard_normal(shape)
        a.reshape(-1)[-1] = -0.0
        wide = np.zeros(shape[:-1] + (2 * shape[-1],), a.dtype)
        wide[..., ::2] = a
        out = {"C": np.ascontiguousarray(a), "F": np.asfortranarray(a), "strided": wide[..., ::2]}
        if width:
            out["strided rows"] = np.repeat(a, 2, axis=0)[::2]
        return out

    @pytest.mark.parametrize("m", [1, 63, 64, 65, 1000])
    @pytest.mark.parametrize("kinds", ["rr", "cc", "rc", "cr"])
    def test_same_bytes_as_concatenate(self, m, kinds):
        rng = np.random.default_rng([107, m, *map(ord, kinds)])
        for width in (0, 1, 3, 16, 33):
            for lead, first in self.blocks(rng, m, width, kinds[0]).items():
                for tail, second in self.blocks(rng, m, 0 if width else 17, kinds[1]).items():
                    for order in ((first, second), (second, first)):
                        label = f"{m} rows, width {width}, {lead} and {tail}, {kinds}"
                        ref = np.concatenate([blk.reshape(m, -1) for blk in order], axis=1)
                        out = _stacked(*order)
                        assert out.dtype == ref.dtype and out.shape == ref.shape, label
                        assert out.flags.f_contiguous and out.flags.writeable, label
                        assert not any(np.shares_memory(out, blk) for blk in order), label
                        assert out.tobytes(order="F") == ref.tobytes(order="F"), label

    def test_factor_of_a_stacked_row_major_operand(self):
        rng = np.random.default_rng(109)
        a = random_complex(rng, 1000, 200)
        b = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        assert a.flags.c_contiguous
        ref = np.linalg.qr(np.concatenate((a, b[:, None]), axis=1), mode="r")
        r = householder_qr(_stacked(a, b), overwrite_a=True)
        assert r.dtype == ref.dtype and r.shape == ref.shape
        assert r.tobytes() == ref.tobytes()


class TestLapackCanary:
    """householder_qr calls geqrf through numpy.linalg.lapack_lite with the
    workspace np.linalg.qr uses, so R is np.linalg.qr's bit for bit.  A
    numpy that changes lapack_lite or its QR fails here first."""

    @staticmethod
    def layouts(a):
        """a in row-major, column-major, strided and read-only copies."""
        wide = np.zeros((a.shape[0], 2 * a.shape[1]), a.dtype)
        wide[:, ::2] = a
        frozen = a.copy()
        frozen.setflags(write=False)
        return {"C": np.ascontiguousarray(a), "F": np.asfortranarray(a),
                "strided": wide[:, ::2], "read-only": frozen}

    @staticmethod
    def assert_bit_identical(a, label=""):
        r, ref = householder_qr(a), np.linalg.qr(a, mode="r")
        assert r.dtype == ref.dtype and r.shape == ref.shape, label
        assert r.tobytes() == ref.tobytes(), label

    @pytest.mark.parametrize("shape, complex_input", [
        ((1, 1), False), ((1, 1), True), ((5, 5), False), ((5, 5), True),
        ((6, 5), False), ((6, 5), True), ((1000, 201), True), ((20000, 12), False),
    ])
    def test_same_factor_as_numpy_qr(self, shape, complex_input):
        rng = np.random.default_rng([71, *shape, int(complex_input)])
        a = rng.standard_normal(shape)
        if complex_input:
            a = a + 1j * rng.standard_normal(shape)
        for scale in (1.0, 2.0**400, 2.0**-400):
            for layout, arr in self.layouts(a * scale).items():
                self.assert_bit_identical(arr, f"{layout} at scale {scale}")

    def test_integer_input(self):
        a = np.random.default_rng(73).integers(-9, 10, (7, 4))
        self.assert_bit_identical(a)

    @pytest.mark.parametrize("complex_input", [False, True])
    def test_every_small_order(self, complex_input):
        # up to _BLOCK columns R is cut from the reflectors by a cached
        # mask, beyond it by np.triu; both leave +0.0 below the diagonal
        rng = np.random.default_rng([83, int(complex_input)])
        for n in range(1, 41):
            for m in (n, n + 3):
                a = random_complex(rng, m, n) if complex_input else rng.uniform(-1, 1, (m, n))
                self.assert_bit_identical(a, f"{m}x{n}")
                below = householder_qr(a)[np.tril_indices(n, -1)]
                assert not np.signbit(below.real).any() and not np.signbit(below.imag).any()


def ldexp(a, k):
    """a times 2**k, entry by entry, real and imaginary parts alike: exact
    while no entry leaves the normal range."""
    return np.ldexp(a.view(np.float64), k).view(a.dtype)


def all_normal(a):
    """True when every nonzero real and imaginary part of a is a normal,
    finite double."""
    parts = np.abs(a.view(np.float64))
    return bool(np.isfinite(parts).all() and (parts[parts > 0.0] >= np.finfo(np.float64).tiny).all())


class TestPowerOfTwoEquivariance:
    """geqrf commutes with scaling by a power of two: householder_qr(2^k A)
    is 2^k householder_qr(A) bit for bit, wherever no entry of either side
    goes subnormal, so an exponent can be split off a factor exactly."""

    @pytest.mark.parametrize("complex_input", [False, True])
    @pytest.mark.parametrize("shape", [(12, 6), (30, 5), (32, 32), (40, 33), (50, 40), (300, 60)])
    def test_scaled_input_gives_the_scaled_factor(self, shape, complex_input):
        rng = np.random.default_rng([89, *shape, int(complex_input)])
        for _ in range(8):
            a = rng.standard_normal(shape)
            if complex_input:
                a = a + 1j * rng.standard_normal(shape)
            r = householder_qr(a)
            for k in (-500, -60, -1, 1, 60, 500, *rng.integers(-500, 501, 4).tolist()):
                scaled, want = ldexp(a, k), ldexp(r, k)
                assert all_normal(scaled) and all_normal(want), k
                assert householder_qr(scaled).tobytes() == want.tobytes(), (shape, k)


def svd_count(a, tol):
    return int(np.sum(np.linalg.svd(a, compute_uv=False) > tol))


def never(a, tol):
    """A certificate that proves nothing."""
    return False


def rule_count(a, rows, x=None):
    """The count of the rank rule by the SVD alone: the singular values
    above rows * eps of the matrix that qr._divided divides when no
    certificate proves the full count."""
    return svd_count(_divided(a, rows, x, never), rows * EPS)


def with_sigma_min(rng, m, n, factor, complex_input=False, top=1.0):
    """An m x n matrix with singular values spread over [0.01, top] and the
    smallest set to factor times the rank tolerance of the same matrix with
    that singular value zero; factor None sets it to sqrt(eps) * top."""
    def draw(k, j):
        g = rng.standard_normal((k, j))
        return g + 1j * rng.standard_normal((k, j)) if complex_input else g

    u = np.linalg.qr(draw(m, n))[0]
    v = np.linalg.qr(draw(n, n))[0]
    s = top * np.geomspace(1.0, 0.01, n)
    s[-1] = 0.0
    if factor is None:
        s[-1] = math.sqrt(EPS) * top
    else:
        s[-1] = factor * rank_tolerance((u * s) @ v.conj().T, m)
    return (u * s) @ v.conj().T


def dependent_inputs(rng):
    """Zero, duplicated and scaled-dependent columns, real and complex."""
    out = []
    for m, n in ((6, 3), (9, 9), (40, 5)):
        for cplx in (False, True):
            a = random_complex(rng, m, n) if cplx else rng.uniform(-1, 1, (m, n))
            zero, dup, scaled = a.copy(), a.copy(), a.copy()
            zero[:, n // 2] = 0.0
            dup[:, -1] = dup[:, 0]
            scaled[:, -1] = (3.0 - 2.0j if cplx else -3.0) * scaled[:, 0]
            out += [zero, dup, scaled, np.zeros((m, n))]
    return out


class TestRankCertificate:
    """The certificate returns n only where the SVD counts n singular values
    above the tolerance, and _rank always gives the SVD count of the rule."""

    @staticmethod
    def check(a, tol=None):
        tol = rank_tolerance(a, a.shape[0]) if tol is None else tol
        count = svd_count(a, tol)
        certified = _certifies_full_rank(a, tol)
        assert not certified or count == a.shape[1]
        assert _rank(a, a.shape[0]) == rule_count(a, a.shape[0])
        return certified

    @pytest.mark.parametrize("complex_input", [False, True])
    @pytest.mark.parametrize("shape", [(8, 5), (12, 12), (30, 1), (200, 20)])
    def test_near_the_tolerance(self, shape, complex_input):
        rng = np.random.default_rng(71)
        for factor in (0.5, 1.0, 2.0, 4.0, None):
            for _ in range(5):
                a = with_sigma_min(rng, *shape, factor, complex_input)
                for scale in (1.0, 2.0**400, 2.0**-400):
                    self.check(a * scale)

    def test_tall_real_inputs_of_20000_rows(self):
        # the matmul error grows with the row count m
        rng = np.random.default_rng(73)
        for factor in (0.5, 1.0, 2.0, 4.0, None):
            self.check(with_sigma_min(rng, 20000, 11, factor))
        a = rng.standard_normal((20000, 11))
        assert self.check(a)
        a[:, 5] = a[:, 2] - 2.0 * a[:, 7]
        assert not self.check(a)

    def test_dependent_columns(self):
        for a in dependent_inputs(np.random.default_rng(79)):
            for scale in (1.0, 2.0**400, 2.0**-400):
                assert not self.check(a * scale)

    def test_one_column_square_and_wide(self):
        rng = np.random.default_rng(83)
        for a in (np.ones((1, 1)), np.zeros((1, 1)), rng.standard_normal((5, 1)),
                  np.full((4, 1), 1e-300), random_complex(rng, 7, 7), np.eye(3)):
            self.check(a)
        for m, n in ((2, 3), (5, 9), (1, 4)):
            a = random_complex(rng, m, n)
            assert not self.check(a)
            assert _rank(a, m) == m

    def test_overflow_claims_nothing(self):
        # squares beyond the double range: the Gram matrix holds inf, so the
        # certificate claims nothing and the SVD counts
        rng = np.random.default_rng(103)
        with np.errstate(over="ignore", invalid="ignore"):
            for a in (1e200 * rng.standard_normal((6, 3)), 1e200 * random_complex(rng, 4, 4),
                      np.full((3, 1), 1e160)):
                assert not self.check(a)
            a = rng.standard_normal((6, 3))
            a[0, 0] = 1e160
            assert not self.check(a, 1.0)
        # column norms in range whose squares sum past it: no certificate,
        # and no warning on the way to the SVD
        a = 0.9e154 * np.array([[1.0, 1.0], [1.0, -1.0]])
        assert not self.check(a)
        assert svd_count(a, rank_tolerance(a, 2)) == _rank(a, 2) == 2

    def test_tolerance_survives_overflowing_squares(self):
        # exact power-of-two scalings: column norms up to about 1e302, whose
        # squares overflow, reach the division of qr._divided, which divides
        # column j by s_j ||x_j / s_j||, s_j from linalg._scaled: 2^k times
        # the norm in range to a few ulps, and the full count; a certificate
        # that proves nothing makes _divided return the divided matrix
        rng = np.random.default_rng(107)
        for a, m in ((rng.standard_normal((30, 5)), 30), (random_complex(rng, 12, 12), 12),
                     (householder_qr(random_complex(rng, 40, 6)), 40)):
            norms = _column_norms(a)
            for k in (520, 1000):
                x = a * 2.0**k
                with np.errstate(over="ignore", invalid="ignore"):
                    assert svd_count(x, rank_tolerance(x, m)) == a.shape[1]
                assert _rank(x, m) == a.shape[1]
                divided = _divided(x, m, None, never)
                xs, s = _scaled(x)
                divisors = s * _column_norms(xs)
                assert divided.tobytes() == (x / divisors).tobytes()
                assert np.abs(divisors / (norms * 2.0**k) - 1.0).max() <= 4 * EPS

    def test_well_conditioned_input_needs_no_svd(self, monkeypatch):
        rng = np.random.default_rng(89)
        inputs = [rng.standard_normal((50, 20)), random_complex(rng, 30, 30),
                  householder_qr(random_complex(rng, 1000, 200))]
        monkeypatch.setattr(np.linalg, "svd", None)
        for a in inputs:
            for scale in (1.0, 2.0**400, 2.0**-400):
                assert _certifies_full_rank(a * scale, rank_tolerance(a * scale, a.shape[0]))
                assert _rank(a * scale, a.shape[0]) == a.shape[1]

    def test_shift_sets_the_threshold(self):
        # sigma_min^2 at four times the shift certifies, at a quarter fails;
        # at the rank tolerance the rounding term of the shift dominates, at
        # a tolerance of 1e-3 the 4 tol^2 term does
        rng = np.random.default_rng(97)
        for cplx in (False, True):
            for m, n in ((10, 4), (300, 30)):
                base = with_sigma_min(rng, m, n, 0.0, cplx)
                fro2 = float(np.sum(np.abs(base) ** 2))
                u, s, vh = np.linalg.svd(base, full_matrices=False)
                for tol in (rank_tolerance(base, m), 1e-3):
                    shift = 4.0 * tol * tol + 2.0 * (m + n + 2) * EPS * fro2
                    for ratio, expected in ((4.0, True), (0.25, False)):
                        s[-1] = math.sqrt(ratio * shift)
                        assert self.check((u * s) @ vh, tol) is expected

    @given(
        m=st.integers(1, 12),
        n=st.integers(1, 12),
        complex_input=st.booleans(),
        factor=st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0, 1e3, None]),
        dependent=st.sampled_from(["none", "zero", "duplicate", "scaled"]),
        scale_exp=st.sampled_from([-400, 0, 400]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_sided_property(self, m, n, complex_input, factor, dependent, scale_exp, seed):
        rng = np.random.default_rng(seed)
        if m >= n:
            a = with_sigma_min(rng, m, n, factor, complex_input)
        else:
            a = random_complex(rng, m, n) if complex_input else rng.uniform(-1, 1, (m, n))
        if n > 1 and dependent == "zero":
            a[:, 0] = 0.0
        elif n > 1 and dependent == "duplicate":
            a[:, -1] = a[:, 0]
        elif n > 1 and dependent == "scaled":
            a[:, -1] = -2.5 * a[:, 0]
        self.check(a * 2.0**scale_exp)


class TestColumnScaleInvariance:
    """The rank rule divides each column by its norm, so scaling one column
    by a power of two changes no count, on the matrix or on its factor."""

    @given(
        m=st.integers(1, 12),
        n=st.integers(1, 12),
        complex_input=st.booleans(),
        factor=st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0, 1e3, None]),
        dependent=st.sampled_from(["none", "zero", "duplicate", "scaled"]),
        column=st.integers(0, 11),
        k=st.integers(-600, 600),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_scaled_column_keeps_the_count(self, m, n, complex_input, factor, dependent,
                                               column, k, seed):
        rng = np.random.default_rng(seed)
        if m >= n:
            a = with_sigma_min(rng, m, n, factor, complex_input)
        else:
            a = random_complex(rng, m, n) if complex_input else rng.uniform(-1, 1, (m, n))
        if n > 1 and dependent == "zero":
            a[:, 0] = 0.0
        elif n > 1 and dependent == "duplicate":
            a[:, -1] = a[:, 0]
        elif n > 1 and dependent == "scaled":
            a[:, -1] = -2.5 * a[:, 0]
        scaled = a.copy()
        scaled[:, column % n] *= 2.0**k
        counts = [(_rank(x, m), _rank_of_r(householder_qr(x), m) if m >= n else None)
                  for x in (a, scaled)]
        assert counts[0] == counts[1]
        if dependent != "none" and n > 1:
            assert counts[0][0] < n

    def test_one_small_column_is_rank(self, monkeypatch):
        # one column at 2^-50 of the others: a tolerance relative to the
        # largest column norm would count it as no rank.  The certificate
        # on the divided matrix proves the full count, so neither the rank
        # nor the distance read off the factor of (A|b) takes an SVD
        rng = np.random.default_rng(113)
        for a in (rng.standard_normal((30, 5)), random_complex(rng, 12, 6)):
            a[:, 0] *= 2.0**-50
            m, n = a.shape
            assert not _certifies_full_rank(a, rank_tolerance(a, m))
            assert svd_count(a, rank_tolerance(a, m)) < n
            r = householder_qr(np.column_stack([a, rng.standard_normal(m)]))
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "svd", None)
                assert _rank(a, m) == _rank_of_r(householder_qr(a), m) == n
                assert _residual(r, m) == (abs(r[n, n]), n)


class TestNormBound:
    """Up to _BLOCK columns and _BLOCK^2 entries, the undivided certificate
    of qr._divided is asked at sqrt(p) max|x| for a p-row x, not at the
    largest column norm: the computed bound must be at or above every
    computed column norm, or the certificate would prove less than the
    rule asks."""

    @given(
        p=st.integers(1, _BLOCK),
        n=st.integers(1, _BLOCK),
        complex_input=st.booleans(),
        kind=st.sampled_from(["uniform", "equal_column", "at_fit"]),
        exponent=st.sampled_from([-479, -200, 0, 200, 479]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bound_covers_every_column_norm(self, p, n, complex_input, kind, exponent, seed):
        rng = np.random.default_rng(seed)
        x = random_complex(rng, p, n) if complex_input else rng.uniform(-1, 1, (p, n))
        if kind == "equal_column":
            # the equality case: a column whose entries all share max|x|
            x[:, rng.integers(n)] = x.flat[np.abs(x).argmax()]
        x = x * 2.0**exponent
        if kind == "at_fit":
            x[:, rng.integers(n)] = _SQUARES_FIT
        big = float(np.abs(x).max())
        assume(1.0 / _SQUARES_FIT <= big <= _SQUARES_FIT)
        assert _norm_bound(big, p) >= float(_column_norms(x).max())

    def test_equal_entries_at_the_ends_of_the_range(self):
        # one column of p equal entries, the case where sqrt(p) max|x| is
        # the norm itself, at every p and at entries near 1 / _SQUARES_FIT,
        # 1 and _SQUARES_FIT
        for c in (1.0 / _SQUARES_FIT, 1.0, 1.0 + 2**-52, 3.0, 0.1, _SQUARES_FIT * (1 - 2**-53),
                  _SQUARES_FIT, (0.6 + 0.8j) * _SQUARES_FIT, 0.1 + 0.7j):
            for p in range(1, _BLOCK + 1):
                x = np.full((p, 1), c)
                assert _norm_bound(float(np.abs(x).max()), p) >= float(_column_norms(x).max()), (c, p)


def kahan(rng, n, complex_input):
    """The n x n Kahan matrix diag(s^i) (I - c N), N the strictly upper
    ones, s = sin(theta) and c = cos(theta): its smallest singular value is
    far below its smallest diagonal entry.  Complex entries get random
    phases, which leave the comparison matrix as it is."""
    theta = rng.uniform(0.05, 1.4)
    r = np.diag(math.sin(theta) ** np.arange(n)) @ (np.eye(n) - math.cos(theta) * np.triu(np.ones((n, n)), 1))
    if complex_input:
        r = r * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, (n, n)))
    return r


class TestTriangularCertificate:
    """The comparison-matrix certificate holds only where the SVD of the
    triangular factor counts n singular values above the tolerance."""

    @given(
        n=st.integers(1, 40),
        extra_rows=st.integers(0, 30),
        complex_input=st.booleans(),
        kind=st.sampled_from(["sigma_min", "kahan", "graded", "zero_diagonal"]),
        factor=st.sampled_from([0.5, 1.0, 2.0, 4.0, None]),
        tol_scale=st.sampled_from([1.0, 1e6, 1e12]),
        scale_exp=st.sampled_from([-500, 0, 500]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_sided_property(self, n, extra_rows, complex_input, kind, factor,
                                tol_scale, scale_exp, seed):
        rng = np.random.default_rng(seed)
        m = n + extra_rows
        if kind == "sigma_min":
            r = householder_qr(with_sigma_min(rng, m, n, factor, complex_input))
        elif kind == "kahan":
            r = kahan(rng, n, complex_input)
        elif kind == "graded":
            # columns falling by up to 2^-60 each: the diagonal spans the
            # double range
            g = random_complex(rng, m, n) if complex_input else rng.standard_normal((m, n))
            r = householder_qr(g) * 2.0 ** -(rng.integers(0, 61) * np.arange(n))
        else:
            r = householder_qr(random_complex(rng, m, n)).copy()
            r[(i := int(rng.integers(0, n))), i] = 0.0
        r = r * 2.0**scale_exp
        tol = tol_scale * rank_tolerance(r, m)
        certified = _certifies_triangular(r, tol)
        assert not certified or svd_count(r, tol) == n
        if kind == "zero_diagonal":
            assert not certified

    def test_well_conditioned_factors_are_certified(self):
        # the factors of the distance routes on a wide problem, and small
        # ones at the extremes of the double range
        rng = np.random.default_rng(109)
        # (40, 8) and (40, 9) take the scalar substitution and the LU on
        # either side of _SCALAR_COLUMNS; (40, 32) and (40, 33) lie on
        # either side of _BLOCK, where _certified tries it first again
        for m, n in ((1000, 201), (1000, 200), (40, 33), (40, 32), (12, 12), (40, 9), (40, 8)):
            r = householder_qr(random_complex(rng, m, n))
            for scale in (1.0, 2.0**500, 2.0**-500):
                assert _certifies_triangular(r * scale, rank_tolerance(r * scale, m))

    def test_tried_first_only_where_cheaper(self, monkeypatch):
        # _certified tries the comparison matrix first up to
        # _SCALAR_COLUMNS and above _BLOCK columns; between the two the
        # Cholesky certificate runs alone
        import gramdist.qr

        tried = []
        monkeypatch.setattr(gramdist.qr, "_certifies_triangular",
                            lambda r, tol: tried.append(r.shape[1]) or False)
        rng = np.random.default_rng(127)
        for n in (1, _SCALAR_COLUMNS, _SCALAR_COLUMNS + 1, _BLOCK, _BLOCK + 1):
            r = householder_qr(random_complex(rng, n + 3, n))
            assert _certified(r, rank_tolerance(r, n + 3))
        assert tried == [1, _SCALAR_COLUMNS, _BLOCK + 1]

    def test_overflow_claims_nothing(self):
        # x = M^-1 e overflows to inf, and with a zero tolerance the test
        # meets 0 * inf; neither certifies nor warns
        for n in (5, 40):
            r = np.triu(np.ones((n, n)))
            np.fill_diagonal(r, 1e-200)
            r[0, 1] = 0.0
            for tol in (1e-300, 0.0):
                assert not _certifies_triangular(r, tol)
                assert not _certifies_triangular(r + 0j, tol)
        # a diagonal entry whose modulus overflows would read as x_i = 0
        r = np.array([[1.5e308 + 1.5e308j, 1.0], [0.0, 1.0]])
        assert not _certifies_triangular(r, 0.1)
        assert not _certifies_triangular(np.array([[math.inf, 1.0], [0.0, 1.0]]), 0.1)

    def test_overflowing_complex_modulus_claims_nothing(self):
        # Python's abs of the off-diagonal entry raises OverflowError, which
        # claims nothing and warns of nothing
        for n in (2, _SCALAR_COLUMNS):
            r = np.eye(n, dtype=complex)
            r[0, n - 1] = 1.5e308 + 1.5e308j
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert not _certifies_triangular(r, 0.1)
                assert not _certifies_triangular(r, 0.0)

    def test_non_finite_entry_after_the_first_claims_nothing(self):
        # x_2 = 1 comes first; the subnormal r_11 makes x_1 = inf, and
        # r_01 = 0 would make x_0 = (1 + 0 * inf + 1) / 1 a nan.  A nan
        # entry makes x = (nan, 1), whose max would skip the nan and read 1.
        overflowing = [[1.0, 0.0, 1.0], [0.0, 5e-324, 1.0], [0.0, 0.0, 1.0]]
        for rows in (overflowing, [[1.0, math.nan], [0.0, 1.0]]):
            for dtype in (float, complex):
                r = np.array(rows, dtype)
                assert _substituted_max(r.tolist()) == math.inf
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    for tol in (0.1, 1e-300, 0.0):
                        assert not _certifies_triangular(r, tol)

    def test_scalar_substitution_matches_the_lu(self):
        # up to _SCALAR_COLUMNS columns the loop forms the quotients the
        # LU forms above it, up to the order of each nonnegative sum
        rng = np.random.default_rng(113)
        for n in (1, 2, 5, _SCALAR_COLUMNS, 12):
            for complex_input in (False, True):
                g = random_complex(rng, n + 3, n) if complex_input else rng.standard_normal((n + 3, n))
                r = householder_qr(g)
                cmp = -np.abs(r)
                np.fill_diagonal(cmp, np.abs(r.diagonal()))
                x = _solve_triangular(cmp, np.ones(n), lower=False)
                top = _substituted_max(r.tolist())
                assert abs(top - float(x.max())) <= 4 * n * EPS * top


class TestGramLogDet:
    def test_identity(self):
        ld = gram_logdet(householder_qr(np.eye(3)), 3)
        assert ld.log_mag == 0.0 and ld.magnitude() == 1.0
        # with a zero row appended, I is the one nonsingular row-deleted
        # minor, and its LU determinant keeps the sign +1
        a = np.vstack([np.eye(3), np.zeros((1, 3))])
        assert orthogonal_minor_vector(a).tolist() == [0.0, 0.0, 0.0, 1.0]
        assert gram_logdet(householder_qr(a), 4) == ld

    def test_single_column_by_hand(self):
        # Gram of the column (1, 1) is the 1x1 matrix [2]
        ld = gram_logdet(householder_qr([[1.0], [1.0]]), 2)
        assert abs(ld.log_mag - math.log(2.0)) <= 1e-15

    def test_rank_deficient_gives_zero(self):
        ld = gram_logdet(householder_qr([[1.0, 1.0], [1.0, 1.0]]), 2)
        assert ld.is_zero

    def test_matches_lu_on_explicit_gram(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            m = int(rng.integers(1, 11))
            n = int(rng.integers(1, min(m, 6) + 1))
            a = random_complex(rng, m, n)
            ld_qr = gram_logdet(householder_qr(a), m)
            _, log_lu = np.linalg.slogdet(a.conj().T @ a)
            assert abs(math.expm1(ld_qr.log_mag - log_lu)) <= 1e-9

    def test_unitary_invariance(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            m = int(rng.integers(2, 9))
            n = int(rng.integers(1, m))
            a = random_complex(rng, m, n)
            u = np.linalg.qr(random_complex(rng, m, m))[0]
            base = gram_logdet(householder_qr(a), m)
            moved = gram_logdet(householder_qr(u @ a), m)
            assert abs(math.expm1(moved.log_mag - base.log_mag)) <= 1e-9
