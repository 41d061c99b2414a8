"""Householder QR: the triangular factor against the Gram matrix and a
Gram-Schmidt oracle, the rank read off that factor, and the Gram
log-determinant read off the diagonal.

The independent oracle is classical Gram-Schmidt: it builds an orthonormal
basis of the column space, the associated projector and the residual norm
of each column against the ones before it, without touching the QR code.
"""

import math

import numpy as np
import pytest

from gramdist import (
    ShapeError,
    det_lu,
    gram_logdet,
    householder_qr,
)
from gramdist.qr import _rank_of_r


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
