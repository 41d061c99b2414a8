"""Householder QR: the triangular factor against the Gram matrix and a
Gram-Schmidt oracle, the rank read off that factor, the shifted-Cholesky
certificate of full rank against the SVD count, and the Gram
log-determinant read off the diagonal.

The independent oracle is classical Gram-Schmidt: it builds an orthonormal
basis of the column space, the associated projector and the residual norm
of each column against the ones before it, without touching the QR code.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.linalg import lapack_lite

import gramdist.qr
from gramdist import (
    ShapeError,
    det_lu,
    gram_logdet,
    householder_qr,
)
from gramdist.linalg import EPS
from gramdist.qr import _certifies_full_rank, _count_above, _rank_of_r, _rank_tolerance


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
        rng = np.random.default_rng(53)
        a = random_complex(rng, 5, 3)
        snapshot = a.copy()
        householder_qr(a)
        np.testing.assert_array_equal(a, snapshot)

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


def svd_count(a, tol):
    return int(np.sum(np.linalg.svd(a, compute_uv=False) > tol))


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
        s[-1] = factor * _rank_tolerance((u * s) @ v.conj().T, m)
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
    above the tolerance, and _count_above always gives the SVD count."""

    @staticmethod
    def check(a, tol=None):
        tol = _rank_tolerance(a, a.shape[0]) if tol is None else tol
        count = svd_count(a, tol)
        certified = _certifies_full_rank(a, tol)
        assert not certified or count == a.shape[1]
        assert _count_above(a, tol) == count
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
            assert _count_above(a, _rank_tolerance(a, m)) == m

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
        assert _count_above(a, _rank_tolerance(a, 2)) == 2

    def test_tolerance_survives_overflowing_squares(self):
        # exact power-of-two scalings: column norms up to about 1e302, whose
        # squares overflow, give the scaled tolerance to a few ulps and the
        # full count
        rng = np.random.default_rng(107)
        for a, m in ((rng.standard_normal((30, 5)), 30), (random_complex(rng, 12, 12), 12),
                     (householder_qr(random_complex(rng, 40, 6)), 40)):
            tol = _rank_tolerance(a, m)
            for k in (520, 1000):
                with np.errstate(over="ignore", invalid="ignore"):
                    scaled = _rank_tolerance(a * 2.0**k, m)
                    assert _count_above(a * 2.0**k, scaled) == a.shape[1]
                assert abs(scaled / (tol * 2.0**k) - 1.0) <= 4 * EPS

    def test_well_conditioned_input_needs_no_svd(self, monkeypatch):
        rng = np.random.default_rng(89)
        inputs = [rng.standard_normal((50, 20)), random_complex(rng, 30, 30),
                  householder_qr(random_complex(rng, 1000, 200))]
        monkeypatch.setattr(np.linalg, "svd", None)
        for a in inputs:
            for scale in (1.0, 2.0**400, 2.0**-400):
                assert _count_above(a * scale, _rank_tolerance(a * scale, a.shape[0])) == a.shape[1]

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
                for tol in (_rank_tolerance(base, m), 1e-3):
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


class TestGramLogDet:
    def test_identity(self):
        ld = gram_logdet(householder_qr(np.eye(3)), 3)
        assert ld.log_mag == 0.0 and abs(ld.phase - 1) < 1e-15

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
            ld_lu = det_lu(a.conj().T @ a)
            assert abs(math.expm1(ld_qr.log_mag - ld_lu.log_mag)) <= 1e-9

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
