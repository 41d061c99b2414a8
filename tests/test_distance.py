"""Distance routes and the row-deleted minor identities.

Independent oracles: residuals against an orthonormal basis built by
Gram-Schmidt (also covers the rank-deficient case), hand-computed fixtures,
and cofactor determinants for the minors.
"""

import math

import numpy as np
import pytest

from gramdist import (
    DimensionMismatch,
    RankDeficient,
    ShapeError,
    augment,
    distance_det,
    distance_projection,
    distance_qr,
    gram_logdets,
    minor_sum,
    orthogonal_minor_vector,
)

SQRT2 = math.sqrt(2.0)


def span_distance(a, b, tol=1e-12):
    """Distance of b to the column span of a, via a Gram-Schmidt basis.

    Handles rank-deficient a; independent of the QR and determinant code.
    """
    a = np.asarray(a, np.complex128)
    b = np.asarray(b, np.complex128)
    basis = []
    for j in range(a.shape[1]):
        v = a[:, j].copy()
        for q in basis:
            v -= q * np.vdot(q, a[:, j])
        nv = np.linalg.norm(v)
        if nv > tol * max(np.linalg.norm(a[:, j]), 1e-30):
            basis.append(v / nv)
    resid = b.copy()
    for q in basis:
        resid -= q * np.vdot(q, b)
    return float(np.linalg.norm(resid))


def random_complex(rng, m, n):
    return rng.uniform(-1, 1, (m, n)) + 1j * rng.uniform(-1, 1, (m, n))


def random_cvec(rng, m):
    return rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)


class TestAugment:
    def test_basis_vectors(self):
        out = augment([[1.0], [0.0]], [0.0, 1.0])
        np.testing.assert_array_equal(out, np.eye(2))

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        a = random_complex(rng, 4, 2)
        b = random_cvec(rng, 4)
        out = augment(a, b)
        np.testing.assert_array_equal(out[:, :2], a)
        np.testing.assert_array_equal(out[:, 2], b)
        assert out.shape[1] == a.shape[1] + 1

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            augment(np.eye(2), np.ones(3))


class TestDistanceDet:
    def test_orthogonal_unit_vector(self):
        r = distance_det([[1.0], [0.0]], [0.0, 1.0])
        assert abs(r.value - 1.0) <= 1e-14
        assert r.method == "det_ratio"

    def test_vector_in_column_space(self):
        r = distance_det([[1.0], [0.0]], [1.0, 0.0])
        assert r.value <= 1e-12

    def test_hand_fixture(self):
        # Gram determinants 2 and 4, distance sqrt(2)
        r = distance_det([[1.0], [1.0]], [0.0, 2.0])
        assert abs(r.value - SQRT2) <= 1e-12
        ld_a, ld_ab = gram_logdets([[1.0], [1.0]], [0.0, 2.0])
        assert abs(ld_a.log_mag - math.log(2.0)) <= 1e-12
        assert abs(ld_ab.log_mag - math.log(4.0)) <= 1e-12

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficient):
            distance_det([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]], [1.0, 0.0, 0.0])


class TestDistanceProjection:
    def test_residual_by_hand(self):
        a = np.array([[1.0], [0.0], [0.0]])
        r = distance_projection(a, [3.0, 4.0, 0.0])
        assert abs(r.value - 4.0) <= 1e-14

    def test_member_of_span_is_zero(self):
        rng = np.random.default_rng(3)
        a = random_complex(rng, 6, 3)
        x = random_cvec(rng, 3)
        b = a @ x
        r = distance_projection(a, b)
        assert r.value <= 1e-9 * np.linalg.norm(b)

    def test_cross_method_fixture(self):
        rp = distance_projection([[1.0], [1.0]], [0.0, 2.0])
        rd = distance_det([[1.0], [1.0]], [0.0, 2.0])
        assert abs(rp.value - SQRT2) <= 1e-12
        assert abs(rp.value - rd.value) <= 1e-10

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficient):
            distance_projection([[1.0, 1.0], [1.0, 1.0]], [1.0, 0.0])


class TestDistanceQr:
    def test_orthogonal_unit_vector(self):
        r = distance_qr([[1.0], [0.0]], [0.0, 1.0])
        assert abs(r.value - 1.0) <= 1e-14
        assert r.method == "qr_coordinate"

    def test_matches_projection_on_full_rank(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = random_complex(rng, 7, 3)
            b = random_cvec(rng, 7)
            vq = distance_qr(a, b).value
            vp = distance_projection(a, b).value
            assert abs(vq - vp) <= 1e-9 * max(vq, vp)

    def test_rank_deficient_matches_brute_force(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        b = np.array([1.0, 0.0, 0.0])
        r = distance_qr(a, b)
        expected = span_distance(a, b)  # sqrt(2/3)
        assert abs(expected - math.sqrt(2.0 / 3.0)) <= 1e-15
        assert abs(r.value - expected) <= 1e-12

    def test_rank_deficient_random_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = random_complex(rng, 6, 3)
            a[:, 2] = a[:, 0]  # exact dependency
            b = random_cvec(rng, 6)
            r = distance_qr(a, b)
            assert abs(r.value - span_distance(a, b)) <= 1e-10
        # A dependent column before the last: the last column still has
        # weight in its row of R, so that row is partly in the span.
        for _ in range(10):
            a = random_complex(rng, 6, 3)
            b = random_cvec(rng, 6)
            for middle in (0.0, 2.0 * a[:, 0]):
                a[:, 1] = middle
                r = distance_qr(a, b)
                assert abs(r.value - span_distance(a, b)) <= 1e-10


class TestDistanceProperties:
    def test_product_identity_including_rank_deficient(self):
        rng = np.random.default_rng(11)
        in_log_form = 0
        for trial in range(50):
            m = int(rng.integers(2, 13))
            n = int(rng.integers(1, m))
            a = random_complex(rng, m, n)
            if trial % 5 == 4:
                if n == 1:
                    a[:, 0] = 0.0
                else:
                    a[:, n - 1] = a[:, 0] * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            b = random_cvec(rng, m)
            value = distance_qr(a, b).value
            la, lab = gram_logdets(a, b)
            if not la.is_zero and not lab.is_zero and value > 0:
                dev = abs(math.expm1(math.log(value) + la.log_mag / 2 - lab.log_mag / 2))
                assert dev <= 1e-9
                in_log_form += 1
            else:
                assert trial % 5 == 4
                lhs = 0.0 if la.is_zero else value * math.exp(la.log_mag / 2)
                rhs = 0.0 if lab.is_zero else math.exp(lab.log_mag / 2)
                scale = float(np.linalg.norm(augment(a, b))) ** (n + 1)
                assert abs(lhs - rhs) <= 1e-9 * scale
        # every full-rank trial compares nonzero determinants
        assert in_log_form == 40

    def test_three_methods_agree(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            m = int(rng.integers(2, 13))
            n = int(rng.integers(1, m))
            a = random_complex(rng, m, n)
            b = random_cvec(rng, m)
            vals = [
                distance_det(a, b).value,
                distance_projection(a, b).value,
                distance_qr(a, b).value,
            ]
            assert (max(vals) - min(vals)) <= 1e-8 * max(vals)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            m = int(rng.integers(2, 9))
            n = int(rng.integers(1, m))
            a = random_complex(rng, m, n)
            b = random_cvec(rng, m)
            u = np.linalg.qr(random_complex(rng, m, m))[0]
            for fn in (distance_det, distance_projection, distance_qr):
                v0 = fn(a, b).value
                v1 = fn(u @ a, u @ b).value
                assert abs(v0 - v1) <= 1e-9 * max(v0, v1, 1e-30)

    def test_distance_bounded_by_norm(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            m = int(rng.integers(2, 10))
            n = int(rng.integers(1, m))
            a = random_complex(rng, m, n)
            b = random_cvec(rng, m)
            nb = np.linalg.norm(b)
            for fn in (distance_det, distance_projection, distance_qr):
                assert fn(a, b).value <= nb * (1 + 1e-12)

    def test_hadamard_style_bound_on_results(self):
        # det((A|b)*(A|b)) <= det(A*A) ||b||^2, and each route's distance
        # times sqrt(det(A*A)) stays under the same bound
        rng = np.random.default_rng(23)
        for _ in range(20):
            m = int(rng.integers(2, 10))
            n = int(rng.integers(1, m))
            a = random_complex(rng, m, n)
            b = random_cvec(rng, m)
            ld_a, ld_ab = gram_logdets(a, b)
            assert not ld_a.is_zero and not ld_ab.is_zero
            bound = ld_a.log_mag + 2 * math.log(np.linalg.norm(b)) + 1e-9
            assert ld_ab.log_mag <= bound
            for fn in (distance_det, distance_projection, distance_qr):
                assert ld_a.log_mag + 2 * math.log(fn(a, b).value) <= bound

    def test_each_route_factors_once(self, monkeypatch, tmp_path):
        import gramdist.cli
        import gramdist.distance

        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for mod in (gramdist.distance, gramdist.cli):
            for name in ("householder_qr", "det_lu"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
        rng = np.random.default_rng(43)
        a = random_complex(rng, 9, 4)
        b = random_cvec(rng, 9)
        for fn, expected in (
            (distance_det, ["householder_qr"] * 2),
            (distance_qr, ["householder_qr"]),
            (distance_projection, []),
        ):
            calls.clear()
            fn(a, b)
            assert calls == expected, fn.__name__

        def cell(z):
            z = complex(z)
            return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"

        (tmp_path / "a.csv").write_text(
            "c1,c2,c3,c4\n" + "".join(",".join(map(cell, row)) + "\n" for row in a)
        )
        (tmp_path / "b.csv").write_text("v\n" + "".join(cell(z) + "\n" for z in b))
        calls.clear()
        argv = ["dist", "--matrix", str(tmp_path / "a.csv"), "--vector", str(tmp_path / "b.csv")]
        assert gramdist.cli.main(argv) == 0
        assert calls == ["householder_qr"] * 3

    def test_gram_logdets_square_matrix_augments_to_zero(self):
        rng = np.random.default_rng(29)
        a = random_complex(rng, 3, 3)
        b = random_cvec(rng, 3)
        ld_a, ld_ab = gram_logdets(a, b)
        assert not ld_a.is_zero
        assert ld_ab.is_zero


class TestOrthogonalMinorVector:
    def test_two_by_one(self):
        b = orthogonal_minor_vector([[1.0], [0.0]])
        # orthogonality plus unit magnitude pin the vector up to sign
        assert abs(b[0]) <= 1e-15
        assert abs(abs(b[1]) - 1.0) <= 1e-15
        a = np.array([[1.0], [0.0]])
        assert np.linalg.norm(a.T @ b) <= 1e-14

    def test_cross_product_case(self):
        b = orthogonal_minor_vector([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(b, [0.0, 0.0, 1.0], atol=1e-15)

    def test_real_input_gives_real_output(self):
        b = orthogonal_minor_vector([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert b.dtype == np.float64

    def test_orthogonality_random_complex(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            a = random_complex(rng, 4, 3)
            b = orthogonal_minor_vector(a)
            lhs = np.linalg.norm(a.conj().T @ b)
            assert lhs <= 1e-10 * np.linalg.norm(a) * np.linalg.norm(b)

    def test_norm_squared_equals_minor_sum(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            a = random_complex(rng, 5, 4)
            b = orthogonal_minor_vector(a)
            s = minor_sum(a)
            assert abs(np.linalg.norm(b) ** 2 - s) <= 1e-10 * s

    def test_wrong_shape(self):
        with pytest.raises(ShapeError):
            orthogonal_minor_vector(np.eye(3))

    def test_overflowing_minor(self):
        # one minor is diag(1e120)^3 = 1e360, beyond the double range
        a = np.zeros((4, 3))
        a[0, 0] = a[1, 1] = a[2, 2] = 1.0e120
        a[3, :] = 1.0
        with pytest.raises(OverflowError):
            orthogonal_minor_vector(a)


class TestMinorSum:
    def test_unit_fixture(self):
        assert abs(minor_sum([[1.0], [0.0]]) - 1.0) <= 1e-15

    def test_one_by_one_minors(self):
        z1, z2 = 1.5 - 2.0j, -0.25 + 1.0j
        s = minor_sum([[z1], [z2]])
        assert abs(s - (abs(z1) ** 2 + abs(z2) ** 2)) <= 1e-14

    def test_matches_gram_determinant(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            a = random_complex(rng, n + 1, n)
            s = minor_sum(a)
            _, ld_ab = gram_logdets(a[:, : n - 1], a[:, n - 1]) if n > 1 else (None, None)
            # direct Gram determinant via the public pair helper on (A minus
            # last column, last column) equals det(A* A)
            g = math.exp(ld_ab.log_mag) if n > 1 else float(np.vdot(a[:, 0], a[:, 0]).real)
            assert abs(s - g) <= 1e-9 * max(s, g)

    def test_huge_minors_at_the_double_edge(self):
        # the surviving minor is 1e150, its square 1e300: close to the top of
        # the double range but representable; the log-domain accumulation
        # must deliver it exactly
        a = np.array([[1.0e75, 0.0], [0.0, 1.0e75], [0.0, 0.0]])
        s = minor_sum(a)
        assert abs(s - 1.0e300) <= 1e-12 * 1.0e300

    def test_result_beyond_double_range_overflows(self):
        # minors of 1e160 square to 1e320: the sum cannot fit a double, and
        # that must surface as OverflowError rather than inf
        a = np.array([[1.0e160, 0.0], [0.0, 1.0e160], [0.0, 0.0]])
        with pytest.raises(OverflowError):
            minor_sum(a)

    def test_wrong_shape(self):
        with pytest.raises(ShapeError):
            minor_sum(np.ones((4, 2)))
