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
from gramdist.linalg import EPS, _array, _column_norms, _gram, _norm, _solve_triangular
from gramdist.qr import _rank_tolerance


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


def _layouts(a):
    """a as C-ordered, F-ordered, strided and read-only arrays of its dtype."""
    wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],), a.dtype)
    wide[..., ::2] = a
    frozen = a.copy()
    frozen.setflags(write=False)
    return {"C": np.ascontiguousarray(a), "F": np.asfortranarray(a),
            "strided": wide[..., ::2], "read-only": frozen}


class TestArrayContract:
    """_array passes a valid float64 or complex128 ndarray through as itself
    and converts or refuses everything else as before."""

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("ndim", [1, 2])
    def test_valid_arrays_come_back_as_themselves(self, dtype, ndim):
        a = np.arange(1.0, 7.0).reshape((2, 3) if ndim == 2 else (6,)).astype(dtype)
        for layout, arr in _layouts(a).items():
            assert _array(arr, ndim) is arr, layout

    def test_other_input_is_converted(self):
        class Sub(np.ndarray):
            pass

        sub = np.ones((2, 2)).view(Sub)
        for value, dtype in ((sub, np.float64), (np.ones((2, 2), np.int64), np.float64),
                             (np.ones((2, 2), np.float32), np.float64),
                             (np.ones((2, 2), np.complex64), np.complex128),
                             ([[1, 2], [3, 4]], np.float64), ([[1j, 2], [3, 4]], np.complex128)):
            out = _array(value, 2)
            assert type(out) is np.ndarray and out.dtype == dtype
            assert out is not value
            np.testing.assert_array_equal(out, np.asarray(value))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1, np.inf)])
    def test_non_finite_entries_raise(self, bad):
        vec = np.array([1.0, bad])
        for value, ndim, what in ((vec, 1, "vector"), (vec[None, :], 2, "matrix"),
                                  (vec.tolist(), 1, "vector")):
            with pytest.raises(ValueError, match=f"^{what} entries must be finite$"):
                _array(value, ndim)

    def test_shapes_raise_the_same_shape_error(self):
        for value, ndim, message in (
                (np.float64(1.0), 2, "expected a 2-d array, got ndim=0"),
                (np.array(1.0), 1, "expected a 1-d array, got ndim=0"),
                (np.ones((2, 2, 2)), 2, "expected a 2-d array, got ndim=3"),
                (np.zeros((0, 3)), 2, "matrix dimensions must be positive, got (0, 3)"),
                (np.zeros((3, 0), np.complex128), 2, "matrix dimensions must be positive, got (3, 0)"),
                (np.zeros(0), 1, "vector length must be positive")):
            with pytest.raises(ShapeError) as info:
                _array(value, ndim)
            assert str(info.value) == message


class TestNormHelpers:
    """_column_norms and _norm return np.linalg.norm's bytes, on every layout
    and across the double range."""

    @staticmethod
    def inputs():
        rng = np.random.default_rng(97)
        for shape in ((1, 1), (1, 5), (7, 1), (12, 12), (40, 11)):
            real = rng.standard_normal(shape)
            for a in (real, real + 1j * rng.standard_normal(shape)):
                for scale in (1.0, 2.0**600, 2.0**-600):
                    for layout, arr in _layouts(a * scale).items():
                        yield f"{a.dtype} {shape} {scale:g} {layout}", arr

    def test_column_norms_are_numpys(self):
        with np.errstate(over="ignore"):
            for case, x in self.inputs():
                ref = np.linalg.norm(x, axis=0)
                got = _column_norms(x)
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), case

    def test_norm_is_numpys(self):
        with np.errstate(over="ignore"):
            for case, x in self.inputs():
                for v in (x, x[:, 0], x[0]):
                    assert np.float64(_norm(v)).tobytes() == np.linalg.norm(v).tobytes(), case

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_strided_column_of_a_c_ordered_factor(self, dtype):
        rng = np.random.default_rng(101)
        a = rng.standard_normal((30, 7)).astype(dtype)
        if dtype == np.complex128:
            a += 1j * rng.standard_normal((30, 7))
        r = np.ascontiguousarray(householder_qr(a))
        n = r.shape[1] - 1
        col = r[:n, n]
        assert not col.flags.c_contiguous
        assert np.float64(_norm(col)).tobytes() == np.linalg.norm(col).tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_rank_tolerance_overflow_branch(self, dtype):
        # at 1e160 the squares behind each column norm overflow, so the
        # tolerance is taken on r / max|r| and scaled back
        rng = np.random.default_rng(103)
        r = rng.standard_normal((6, 5)).astype(dtype) * 1e160
        with np.errstate(over="ignore"):
            assert np.max(np.linalg.norm(r, axis=0)) == math.inf
            big = float(np.max(np.abs(r)))
            ref = 6 * EPS * (big * float(np.max(np.linalg.norm(r / big, axis=0))))
            got = _rank_tolerance(r, 6)
        assert math.isfinite(got) and got == ref


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
