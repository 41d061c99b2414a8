"""Matrix core: validation, Gram determinants in log form, the LU
determinants behind the row-deleted minors, and the Cholesky solve of the
normal equations.

The oracle lives at the top and stays independent of the code paths it
checks: a recursive cofactor determinant.
"""

import math
import warnings

import numpy as np
import pytest

import gramdist.linalg as lin
from gramdist import (
    LogDet,
    RankDeficient,
    ShapeError,
    distance_qr,
    householder_qr,
    minor_sum,
    orthogonal_minor_vector,
)
from gramdist.linalg import EPS, _array, _column_norms, _gram, _normal_solution, _scaled, _solve_triangular
from gramdist.qr import _certifies_full_rank, _divided, _rank


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


class TestValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            householder_qr([[1.0, float("nan")], [0.0, 1.0]])

    def test_rejects_inf_vector(self):
        with pytest.raises(ValueError):
            distance_qr([[1.0], [0.0], [0.0]], [1.0, float("inf"), 0.0])

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ShapeError):
            distance_qr([[1.0], [0.0], [0.0]], [[1.0], [2.0], [3.0]])

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


class TestFinite:
    """_finite sums a complex array of more than _SUMMED entries first,
    where a finite sum proves every entry finite, and counts the finite
    entries of every other array, and wherever the sum is not finite."""

    BAD = (complex(np.nan, 0.0), complex(np.inf, 0.0), complex(0.0, -np.inf))

    @staticmethod
    def counted(monkeypatch):
        """The sizes of the arrays whose finite entries _finite counts."""
        sizes = []

        class Numpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def isfinite(a):
                sizes.append(a.size)
                return np.isfinite(a)

        monkeypatch.setattr(lin, "np", Numpy())
        return sizes

    @pytest.mark.parametrize("size", [lin._SUMMED + 1, 3 * lin._SUMMED + 7])
    def test_one_non_finite_entry(self, size):
        rng = np.random.default_rng([89, size])
        a = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        assert lin._finite(a)
        for bad in self.BAD:
            for i in (0, size // 2, size - 1):
                b = a.copy()
                b[i] = bad
                assert not lin._finite(b), (bad, i)
                assert not lin._finite(b.reshape(-1, 1)), (bad, i)

    def test_overflowing_sum_of_finite_entries(self, monkeypatch):
        counted = self.counted(monkeypatch)
        for z in (complex(1e308, 0.0), complex(0.0, -1e308), complex(1e308, 1e308)):
            a = np.full(lin._SUMMED + 1, z)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert lin._finite(a)
                a[-1] = np.nan
                assert not lin._finite(a)
        # every one of those sums overflowed, so the count decided
        assert counted == [lin._SUMMED + 1] * 6

    def test_non_contiguous_views(self):
        rng = np.random.default_rng(91)
        base = rng.standard_normal((130, 70)) + 1j * rng.standard_normal((130, 70))
        views = {"strided rows": lambda x: x[::2], "strided columns": lambda x: x[:, ::2],
                 "transposed": lambda x: x.T, "column block": lambda x: x[:, 3:65]}
        for label, view_of in views.items():
            view = view_of(base)
            assert view.size > lin._SUMMED and not view.flags.c_contiguous, label
            assert lin._finite(view), label
            for bad in self.BAD:
                for idx in ((0, 0), (view.shape[0] // 2, view.shape[1] // 2), (-1, -1)):
                    b = base.copy()
                    view_of(b)[idx] = bad
                    assert not lin._finite(view_of(b)), (label, bad, idx)
        # a non-finite entry outside the view is not one of its entries
        b = base.copy()
        b[1, 1] = np.nan
        assert lin._finite(b[::2]) and lin._finite(b[:, ::2])

    def test_real_and_small_arrays_take_the_count(self, monkeypatch):
        counted = self.counted(monkeypatch)
        rng = np.random.default_rng(93)
        real = rng.standard_normal(200_000)
        small = rng.standard_normal(lin._SUMMED) + 1j * rng.standard_normal(lin._SUMMED)
        arrays = [real, small, real.reshape(400, 500), small.reshape(64, 64)]
        assert all(lin._finite(a) for a in arrays)
        assert counted == [a.size for a in arrays]
        counted.clear()
        real[-1] = np.inf
        small[-1] = complex(0.0, np.nan)
        assert not lin._finite(real) and not lin._finite(small)
        assert lin._finite(np.full(lin._SUMMED + 1, 1e308))
        assert counted == [real.size, small.size, lin._SUMMED + 1]
        counted.clear()
        # a finite sum decides a large complex array alone
        assert lin._finite(rng.standard_normal(lin._SUMMED + 1) + 0j)
        assert counted == []


class TestNormHelpers:
    """_column_norms returns np.linalg.norm's bytes, of the columns of a
    matrix and of a vector, on every layout and across the double range."""

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
                for v in (x, x[:, 0], x[0]):
                    ref = np.linalg.norm(v, axis=0)
                    got = _column_norms(v)
                    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), case

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
        assert _column_norms(col).tobytes() == _column_norms(col.copy()).tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_rank_tolerance_overflow_branch(self, dtype):
        # at 1e160 the squares behind each column norm overflow, so the rank
        # rule takes each norm on the column divided by its power of two
        # from _scaled and divides the matrix by those norms scaled back
        rng = np.random.default_rng(103)
        r = rng.standard_normal((6, 5)).astype(dtype) * 1e160
        with np.errstate(over="ignore"):
            assert np.max(np.linalg.norm(r, axis=0)) == math.inf
        rs, s = _scaled(r)
        ref = s * _column_norms(rs)
        got = _divided(r, 6, None, _certifies_full_rank)
        assert np.isfinite(ref).all() and got.tobytes() == (r / ref).tobytes()
        assert _rank(r, 6) == 5


class TestLogDet:
    def test_zero_is_log_minus_inf(self):
        z = LogDet.zero()
        assert z.is_zero and z.log_mag == -math.inf
        assert z.magnitude() == 0.0

    def test_log_mag_must_be_finite_or_minus_inf(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="^log_mag must be finite or -inf$"):
                LogDet(bad)
        assert LogDet(0.0).magnitude() == 1.0 and not LogDet(-800.0).is_zero

    def test_value_overflow(self):
        with pytest.raises(OverflowError, match="^the determinant does not fit a double$"):
            LogDet(800.0).magnitude()


def with_zero_row(square) -> np.ndarray:
    """square with a zero row below it: its one nonsingular row-deleted
    minor is square itself, and orthogonal_minor_vector's last entry is
    conj(det(square))."""
    square = np.asarray(square)
    return np.vstack([square, np.zeros((1, square.shape[1]), square.dtype)])


class TestDetLu:
    """LU determinants (np.linalg.slogdet) with their signs, read through
    the row-deleted minors of ``orthogonal_minor_vector``."""

    def test_identity(self):
        b = orthogonal_minor_vector(with_zero_row(np.eye(4)))
        assert b.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]
        assert minor_sum(with_zero_row(np.eye(4))) == 1.0

    def test_row_swap_sign(self):
        assert orthogonal_minor_vector(with_zero_row([[0.0, 1.0], [1.0, 0.0]])).tolist() == [0.0, 0.0, -1.0]
        # det [[0, 1], [1j, 0]] = -1j, a unit phase, and the entry is its conjugate
        assert orthogonal_minor_vector(with_zero_row([[0.0, 1.0], [1j, 0.0]]))[2] == 1j

    def test_exact_zero_column(self):
        a = [[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]]
        assert orthogonal_minor_vector(a).tolist() == [0.0, 0.0, 0.0]
        assert minor_sum(a) == 0.0

    def test_against_cofactor_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.uniform(-1, 1, (5, 4)) + 1j * rng.uniform(-1, 1, (5, 4))
            got = orthogonal_minor_vector(a)
            for i in range(5):
                expected = (-1) ** (4 + i) * np.conj(det_cofactor(np.delete(a, i, axis=0)))
                assert abs(got[i] - expected) <= 1e-12 * abs(expected)


class TestSolveHermitianPsd:
    """The hermitian positive-definite solve, as the package runs it: the
    normal equations (A* A) x = A* b of an A built for each case, by
    ``_normal_solution``."""

    def test_identity_system(self):
        x = _normal_solution(np.eye(3), np.array([0.0, 1.0, 0.0]))
        np.testing.assert_allclose(x, [0.0, 1.0, 0.0], atol=1e-15)

    def test_diagonal_system(self):
        # A* A = diag(2, 5) and A* b = (2, 10)
        a = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 2.0], [0.0, 1.0]])
        x = _normal_solution(a, np.array([1.0, 1.0, 4.0, 2.0]))
        np.testing.assert_allclose(x, [1.0, 2.0], atol=1e-14)

    def test_regression_fixture_gram(self):
        # the centered x = (1, 2, 3, 4) and y = (1, 2, 2, 3): Gram [[5]],
        # cross term 3
        xc = np.array([[-1.5], [-0.5], [0.5], [1.5]])
        x = _normal_solution(xc, np.array([-1.0, 0.0, 0.0, 1.0]), ("Xc* Xc", "Xc* yc"))
        np.testing.assert_allclose(x, [0.6], atol=1e-15)

    def test_rank_deficient_gram_rejected(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(RankDeficient, match="at column 1 "):
            _normal_solution(a, np.ones(2))

    def test_pivot_at_tolerance_rejected(self):
        # two nearly dependent columns, the Gram [[1, c], [c, 1]] exactly:
        # the factorization succeeds, but the second pivot, eps * h_11, is
        # below dim * eps * h_11, also with the second column scaled by
        # 1e10 (the Gram D H D); two orthogonal columns on scales 2^33
        # apart are no dependence and solve exactly
        c, t = 1.0 - 2.0 ** -53, 2.0 ** -26
        for d in (1.0, 1e10):
            a = np.array([[1.0, c * d], [0.0, t * d]])
            with pytest.raises(RankDeficient, match="at column 1 "):
                _normal_solution(a, np.ones(2))
        x = _normal_solution(np.diag([1.0, 2.0 ** -33]), np.array([1.0, 2.0 ** 33]))
        assert x.tolist() == [1.0, 2.0 ** 66]

    def test_float_input_reaches_lapack_uncopied(self, monkeypatch):
        # LAPACK copies its operands itself, so the Cholesky factorization
        # gets the float64 or complex128 Gram as _gram formed it
        rng = np.random.default_rng(73)
        cholesky, gram = np.linalg.cholesky, lin._gram
        formed, seen = [], []
        monkeypatch.setattr(lin, "_gram", lambda a: formed.append(gram(a)) or formed[-1])
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: seen.append(a) or cholesky(a))
        real, imag = rng.standard_normal((2, 8, 4))
        for a in (real, real + 1j * imag):
            _normal_solution(a, a[:, 0].copy())
            assert len(seen) == len(formed) == 1 and seen[0] is formed[0]
            formed.clear()
            seen.clear()

    def test_real_inputs_give_real_solution(self):
        a = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        x = _normal_solution(a, np.array([1.0, 2.0, 0.5]))
        assert x.dtype == np.float64

    def test_residual_on_random_shifted_grams(self):
        # A = (G; I) has the Gram G* G + I
        rng = np.random.default_rng(29)
        for _ in range(20):
            k = rng.integers(1, 11)
            g = rng.uniform(-1, 1, (k, k)) + 1j * rng.uniform(-1, 1, (k, k))
            a = np.vstack((g, np.eye(k)))
            b = rng.uniform(-1, 1, 2 * k) + 1j * rng.uniform(-1, 1, 2 * k)
            h, rhs = g.conj().T @ g + np.eye(k), a.conj().T @ b
            x = _normal_solution(a, b)
            assert np.linalg.norm(h @ x - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_gram_matrices_hermitian_psd(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            k = rng.integers(1, 8)
            g = rng.uniform(-1, 1, (k, k)) + 1j * rng.uniform(-1, 1, (k, k))
            gram = _gram(g)
            np.testing.assert_array_equal(gram, gram.conj().T)
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
