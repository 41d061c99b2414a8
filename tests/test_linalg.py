"""Matrix core: validation, LU determinants in log form, and the hermitian
positive-definite solve.

The oracle lives at the top and stays independent of the code paths it
checks: a recursive cofactor determinant.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gramdist import (
    DimensionMismatch,
    LogDet,
    NotPositiveDefinite,
    NotSquare,
    ShapeError,
    det_lu,
    householder_qr,
    solve_hermitian_psd,
)
from gramdist.linalg import EPS, _gram, _solve_triangular


def det_cofactor(a):
    """Recursive cofactor expansion along the first row; fine up to 5x5."""
    a = np.asarray(a, np.complex128)
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0 + 0.0j
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1) ** j * a[0, j] * det_cofactor(minor)
    return total


def _elements(lo=-5.0, hi=5.0):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def square_pairs(draw, max_size=4):
    k = draw(st.integers(1, max_size))
    mats = []
    for _ in range(2):
        re = draw(arrays(np.float64, (k, k), elements=_elements()))
        im = draw(arrays(np.float64, (k, k), elements=_elements()))
        mats.append(re + 1j * im)
    return mats


class TestValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            det_lu([[1.0, float("nan")], [0.0, 1.0]])

    def test_rejects_inf_vector(self):
        with pytest.raises(ValueError):
            solve_hermitian_psd(np.eye(2), [1.0, float("inf")])

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ShapeError):
            det_lu([1.0, 2.0])
        with pytest.raises(ShapeError):
            solve_hermitian_psd(np.eye(2), [[1.0], [2.0]])

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            householder_qr(np.zeros((0, 3)))

    def test_int_input_becomes_float(self):
        assert householder_qr([[1], [2]]).dtype == np.float64


class TestLogDet:
    def test_zero_is_phase_zero_log_minus_inf(self):
        z = LogDet.zero()
        assert z.is_zero and z.phase == 0 and z.log_mag == -math.inf
        assert z.value() == 0

    def test_nonzero_needs_unit_phase(self):
        with pytest.raises(ValueError):
            LogDet(0.5 + 0j, 1.0)
        with pytest.raises(ValueError):
            LogDet(0j, 1.0)

    def test_mul_adds_logs_and_multiplies_phases(self):
        a = LogDet(1.0, math.log(2.0))
        b = LogDet(-1.0, math.log(3.0))
        c = a * b
        assert abs(c.value() - (-6.0)) < 1e-14
        assert (a * LogDet.zero()).is_zero

    def test_value_overflow(self):
        big = LogDet(1.0 + 0j, 800.0)
        with pytest.raises(OverflowError):
            big.value()
        with pytest.raises(OverflowError):
            big.magnitude()


class TestDetLu:
    def test_identity(self):
        ld = det_lu(np.eye(4))
        assert abs(ld.phase - 1) < 1e-15 and ld.log_mag == 0.0

    def test_row_swap_sign(self):
        ld = det_lu([[0.0, 1.0], [1.0, 0.0]])
        assert abs(ld.phase + 1) < 1e-15 and ld.log_mag == 0.0

    def test_not_square(self):
        with pytest.raises(NotSquare):
            det_lu(np.ones((2, 3)))

    def test_exact_zero_column(self):
        ld = det_lu([[0.0, 1.0], [0.0, 2.0]])
        assert ld.is_zero

    def test_float_input_reaches_lapack_uncopied(self, monkeypatch):
        # LAPACK copies its operand itself, so det_lu passes a float64 or
        # complex128 array through
        rng = np.random.default_rng(71)
        slogdet = np.linalg.slogdet
        seen = []
        monkeypatch.setattr(np.linalg, "slogdet", lambda a: seen.append(a) or slogdet(a))
        real, imag = rng.standard_normal((2, 4, 4))
        for m in (real, real + 1j * imag):
            det_lu(m)
            assert seen.pop() is m

    def test_against_cofactor_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
            expected = det_cofactor(m)
            got = det_lu(m).value()
            assert abs(got - expected) <= 1e-12 * abs(expected)

    @given(square_pairs())
    def test_product_rule(self, mats):
        m, n = mats
        # determinants are only as accurate as their conditioning allows, so
        # restrict the property to draws where it is numerically well posed
        assume(np.linalg.cond(m) < 1e4)
        assume(np.linalg.cond(n) < 1e4)
        assume(np.linalg.cond(m @ n) < 1e4)
        lhs = det_lu(m) * det_lu(n)
        rhs = det_lu(m @ n)
        ratio = lhs.phase * rhs.phase.conjugate() * math.exp(lhs.log_mag - rhs.log_mag)
        assert abs(ratio - 1) <= 1e-10

    def test_product_rule_random_8x8(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            k = rng.integers(1, 9)
            m = rng.uniform(-1, 1, (k, k)) + 1j * rng.uniform(-1, 1, (k, k))
            n = rng.uniform(-1, 1, (k, k)) + 1j * rng.uniform(-1, 1, (k, k))
            lhs = det_lu(m) * det_lu(n)
            rhs = det_lu(m @ n)
            ratio = lhs.phase * rhs.phase.conjugate() * math.exp(lhs.log_mag - rhs.log_mag)
            assert abs(ratio - 1) <= 1e-10

    def test_conj_transpose_determinant(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            k = rng.integers(1, 7)
            m = rng.uniform(-1, 1, (k, k)) + 1j * rng.uniform(-1, 1, (k, k))
            a = det_lu(m.conj().T)
            b = det_lu(m).conjugate()
            ratio = a.phase * b.phase.conjugate() * math.exp(a.log_mag - b.log_mag)
            assert abs(ratio - 1) <= 1e-12


class TestSolveHermitianPsd:
    def test_identity_system(self):
        x = solve_hermitian_psd(np.eye(3), [0.0, 1.0, 0.0])
        np.testing.assert_allclose(x, [0.0, 1.0, 0.0], atol=1e-15)

    def test_diagonal_system(self):
        x = solve_hermitian_psd([[2.0, 0.0], [0.0, 5.0]], [2.0, 10.0])
        np.testing.assert_allclose(x, [1.0, 2.0], atol=1e-14)

    def test_regression_fixture_gram(self):
        # centered Gram of x = (1,2,3,4): [[5]], rhs = centered cross term 3
        x = solve_hermitian_psd([[5.0]], [3.0])
        np.testing.assert_allclose(x, [0.6], atol=1e-15)

    def test_rank_deficient_gram_rejected(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            solve_hermitian_psd(a.T @ a, [1.0, 1.0])

    def test_pivot_at_tolerance_rejected(self):
        # the factorization succeeds, but the second pivot 1e-20 is below
        # dim * eps * max(diag)
        with pytest.raises(NotPositiveDefinite):
            solve_hermitian_psd([[1.0, 0.0], [0.0, 1e-20]], [1.0, 1.0])

    def test_not_square_and_mismatch(self):
        with pytest.raises(NotSquare):
            solve_hermitian_psd(np.ones((2, 3)), [1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            solve_hermitian_psd(np.eye(2), [1.0, 1.0, 1.0])

    def test_float_input_reaches_lapack_uncopied(self, monkeypatch):
        # LAPACK copies its operands itself, so the Cholesky factorization
        # gets the float64 or complex128 H and the first solve gets rhs
        rng = np.random.default_rng(73)
        cholesky, solve = np.linalg.cholesky, np.linalg.solve
        seen = []
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: seen.append(a) or cholesky(a))
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: seen.append(b) or solve(a, b))
        real, imag = rng.standard_normal((2, 4, 4))
        for g in (real, real + 1j * imag):
            h = g.conj().T @ g + np.eye(4)
            rhs = g[0].copy()
            solve_hermitian_psd(h, rhs)
            assert seen[0] is h and seen[1] is rhs
            seen.clear()

    def test_real_inputs_give_real_solution(self):
        x = solve_hermitian_psd([[4.0, 1.0], [1.0, 3.0]], [1.0, 2.0])
        assert x.dtype == np.float64

    def test_residual_on_random_shifted_grams(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            k = rng.integers(1, 11)
            g = rng.uniform(-1, 1, (k, k)) + 1j * rng.uniform(-1, 1, (k, k))
            h = g.conj().T @ g + np.eye(k)
            rhs = rng.uniform(-1, 1, k) + 1j * rng.uniform(-1, 1, k)
            x = solve_hermitian_psd(h, rhs)
            assert np.linalg.norm(h @ x - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_gram_matrices_hermitian_psd(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            k = rng.integers(1, 8)
            g = rng.uniform(-1, 1, (k, k)) + 1j * rng.uniform(-1, 1, (k, k))
            gram = g.conj().T @ g
            assert np.max(np.abs(gram - gram.conj().T)) <= 1e-14
            x = rng.uniform(-1, 1, k) + 1j * rng.uniform(-1, 1, k)
            assert np.vdot(x, gram @ x).real >= -1e-12


class TestSolveTriangular:
    """The block substitution behind the two Cholesky triangles."""

    @staticmethod
    def system(n, complex_input, seed):
        """A random lower triangular n x n T and a right-hand side."""
        rng = np.random.default_rng([seed, n, int(complex_input)])
        shape = (n + 1, n)
        draw = rng.standard_normal(shape)
        if complex_input:
            draw = draw + 1j * rng.standard_normal(shape)
        return np.tril(draw[:n]), draw[n]

    @pytest.mark.parametrize("complex_input", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 17, 32])
    def test_small_systems_are_numpy_solve(self, n, complex_input):
        t, b = self.system(n, complex_input, 97)
        for tri, lower in ((t, True), (t.conj().T, False)):
            x = _solve_triangular(tri, b, lower)
            assert x.tobytes() == np.linalg.solve(tri, b).tobytes()

    @pytest.mark.parametrize("complex_input", [False, True])
    @pytest.mark.parametrize("n", [33, 47, 64, 200])
    def test_blocked_residual_is_backward_stable(self, n, complex_input):
        # ||T x - b|| <= n eps ||T|| ||x||, also where T is far from well
        # conditioned (random triangular matrices reach cond 1e17 here)
        for seed in range(3):
            t, b = self.system(n, complex_input, seed)
            for tri, lower in ((t, True), (t.conj().T, False)):
                x = _solve_triangular(tri, b, lower)
                assert x.shape == (n,)
                bound = n * EPS * np.linalg.norm(tri, 2) * np.linalg.norm(x)
                assert np.linalg.norm(tri @ x - b) <= bound


class TestGram:
    """The private A* A of the projection route: one syrk on the real view of A."""

    @staticmethod
    def layouts(a):
        """a in row-major, column-major and strided (non-contiguous) copies."""
        wide = np.zeros((a.shape[0], 2 * a.shape[1]), a.dtype)
        wide[:, ::2] = a
        return {"C": np.ascontiguousarray(a), "F": np.asfortranarray(a), "strided": wide[:, ::2]}

    @pytest.mark.parametrize("shape", [(1, 1), (1, 4), (7, 1), (30, 5), (200, 20)])
    def test_complex_hermitian_and_close_to_the_product(self, shape):
        rng = np.random.default_rng([83, *shape])
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ref = a.conj().T @ a
        bound = 4 * shape[0] * EPS * np.linalg.norm(a) ** 2
        for layout, arr in self.layouts(a).items():
            g = _gram(arr)
            assert g.dtype == np.complex128 and g.shape == (shape[1],) * 2, layout
            np.testing.assert_array_equal(g, g.conj().T)
            assert (g.diagonal().imag == 0.0).all(), layout
            assert np.max(np.abs(g - ref)) <= bound, layout

    @pytest.mark.parametrize("shape", [(1, 1), (7, 1), (30, 5), (200, 20)])
    def test_real_input_is_the_plain_product(self, shape):
        a = np.random.default_rng([89, *shape]).standard_normal(shape)
        for layout, arr in self.layouts(a).items():
            g = _gram(arr)
            assert g.dtype == np.float64, layout
            np.testing.assert_array_equal(g, arr.T @ arr)
