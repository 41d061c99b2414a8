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
    gram_logdet,
    gram_logdets,
    householder_qr,
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


class TestOperandsAreOnlyRead:
    """augment, gram_logdets and distance_projection validate without a copy:
    they neither mutate their operands nor keep them."""

    @pytest.mark.parametrize("complex_input", [False, True])
    def test_caller_may_mutate_after_the_call(self, complex_input):
        rng = np.random.default_rng(101)
        a = random_complex(rng, 7, 3) if complex_input else rng.uniform(-1, 1, (7, 3))
        b = random_cvec(rng, 7) if complex_input else rng.uniform(-1, 1, 7)
        a0, b0 = a.copy(), b.copy()
        aug = augment(a, b)
        lds = gram_logdets(a, b)
        proj = distance_projection(a, b)
        np.testing.assert_array_equal(a, a0)
        np.testing.assert_array_equal(b, b0)
        assert a.flags.writeable and b.flags.writeable
        assert not aug.flags.writeable
        assert not np.shares_memory(aug, a) and not np.shares_memory(aug, b)
        a[:] = 0.0
        b[:] = 1.0
        np.testing.assert_array_equal(aug, np.column_stack([a0, b0]))
        assert gram_logdets(a0, b0) == lds
        assert distance_projection(a0, b0) == proj
        assert gram_logdets(a, b)[0].is_zero

    def test_validation_is_kept(self):
        good_a, good_b = np.eye(3)[:, :2], np.ones(3)
        for fn in (augment, gram_logdets, distance_projection):
            with pytest.raises(ValueError, match="finite"):
                fn(np.array([[1.0, np.nan], [0.0, 1.0], [0.0, 0.0]]), good_b)
            with pytest.raises(ValueError, match="finite"):
                fn(good_a, np.array([1.0, np.inf, 0.0]))
            for bad_a, bad_b in ((np.ones(3), good_b), (np.zeros((0, 2)), good_b),
                                 (good_a, np.ones((3, 1))), (good_a, np.zeros(0))):
                with pytest.raises(ShapeError):
                    fn(bad_a, bad_b)
            with pytest.raises(DimensionMismatch):
                fn(good_a, np.ones(4))
        out = augment([[1, 2], [3, 4], [5, 6]], [1, 0, 0])
        assert out.dtype == np.float64
        assert augment(np.ones((3, 2), np.int64), [1j, 0, 0]).dtype == np.complex128


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

    def test_b_in_span_of_full_rank_a_needs_no_svd(self, monkeypatch):
        # full rank of A settles the distance as |r[n, n]| however dependent
        # (A|b) is, and the rank of A is certified without an SVD
        rng = np.random.default_rng(13)
        a = random_complex(rng, 30, 5)
        b = a @ random_cvec(rng, 5)
        svd = np.linalg.svd
        calls = []
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1) or svd(*args, **kw))
        assert distance_qr(a, b).value <= 1e-13 * np.linalg.norm(b)
        assert calls == []

    def test_rank_deficient_a_runs_one_svd(self, monkeypatch):
        # the failed certificate is followed by one SVD, which both counts
        # the rank and gives U
        rng = np.random.default_rng(17)
        a = random_complex(rng, 9, 4)
        a[:, 3] = a[:, 1] * (0.5 - 2j)
        b = random_cvec(rng, 9)
        svd = np.linalg.svd
        calls = []
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1) or svd(*args, **kw))
        value = distance_qr(a, b).value
        assert len(calls) == 1
        assert abs(value - span_distance(a, b)) <= 1e-10 * np.linalg.norm(b)

    def test_full_rank_found_by_the_svd_keeps_the_coordinate(self, monkeypatch):
        # where the certificate fails but the SVD counts full rank, U[:, n:]
        # is empty and the value is |r[n, n]| to the bit
        import gramdist.distance as dist

        rng = np.random.default_rng(19)
        a = random_complex(rng, 12, 5)
        b = random_cvec(rng, 12)
        certified = distance_qr(a, b).value
        monkeypatch.setattr(dist, "_certifies_full_rank", lambda r, tol: False)
        assert distance_qr(a, b).value == certified

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
                calls.append((name, np.shape(args[0])))
                return fn(*args, **kwargs)
            return wrapper

        for mod in (gramdist.distance, gramdist.cli):
            for name in ("householder_qr", "det_lu"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
        rng = np.random.default_rng(43)
        a = random_complex(rng, 9, 4)
        b = random_cvec(rng, 9)
        # the determinant route factors the tall (b|A) and the 5 x 4 block
        # of its factor, never the 9 x 4 A itself
        tall, small = ("householder_qr", (9, 5)), ("householder_qr", (5, 4))
        for fn, expected in (
            (distance_det, [tall, small]),
            (distance_qr, [tall]),
            (distance_projection, []),
        ):
            calls.clear()
            fn(a, b)
            assert calls == expected, fn.__name__
        square = random_complex(rng, 4, 4)
        calls.clear()
        distance_det(square, b[:4])
        assert calls == [("householder_qr", (4, 4))]

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
        assert calls == [tall, small, tall]

    def test_gram_logdets_square_matrix_augments_to_zero(self):
        rng = np.random.default_rng(29)
        a = random_complex(rng, 3, 3)
        b = random_cvec(rng, 3)
        ld_a, ld_ab = gram_logdets(a, b)
        assert not ld_a.is_zero
        assert ld_ab.is_zero


class TestGramLogdets:
    """A's Gram determinant read off the (n+1) x n block R[:, 1:] of the
    factor of (b|A), against A's own factor and against LU."""

    @staticmethod
    def draw(rng, m, n, complex_input):
        if complex_input:
            return random_complex(rng, m, n), random_cvec(rng, m)
        return rng.uniform(-1, 1, (m, n)), rng.uniform(-1, 1, m)

    @staticmethod
    def direct_logdet(a):
        return gram_logdet(householder_qr(a), a.shape[0]).log_mag

    @pytest.mark.parametrize("complex_input", [False, True])
    @pytest.mark.parametrize("shape", [(2, 1), (6, 3), (30, 5), (200, 20)])
    def test_agrees_with_the_direct_factor(self, shape, complex_input):
        rng = np.random.default_rng(47)
        for _ in range(5):
            a, b = self.draw(rng, *shape, complex_input)
            ld_a, ld_ab = gram_logdets(a, b)
            assert abs(ld_a.log_mag - self.direct_logdet(a)) <= 1e-12
            assert abs(ld_ab.log_mag - self.direct_logdet(augment(a, b))) <= 1e-12

    @pytest.mark.parametrize("complex_input", [False, True])
    def test_square_augmented_matrix(self, complex_input):
        # m = n + 1: (b|A) is square, with Gram determinant |det(b|A)|^2
        rng = np.random.default_rng(53)
        for n in (1, 3, 6):
            a, b = self.draw(rng, n + 1, n, complex_input)
            ld_a, ld_ab = gram_logdets(a, b)
            assert abs(ld_ab.log_mag - 2.0 * np.linalg.slogdet(augment(a, b))[1]) <= 1e-12
            assert abs(ld_a.log_mag - self.direct_logdet(a)) <= 1e-12
            qr = distance_qr(a, b).value
            assert abs(distance_det(a, b).value - qr) <= 1e-12 * qr

    @pytest.mark.parametrize("complex_input", [False, True])
    def test_zero_vector(self, complex_input):
        rng = np.random.default_rng(59)
        for m, n in ((6, 5), (30, 5)):
            a, _ = self.draw(rng, m, n, complex_input)
            ld_a, ld_ab = gram_logdets(a, np.zeros(m))
            assert ld_ab.is_zero
            assert abs(ld_a.log_mag - self.direct_logdet(a)) <= 1e-12
            assert distance_det(a, np.zeros(m)).value == 0.0

    @pytest.mark.parametrize("complex_input", [False, True])
    def test_vector_in_the_span(self, complex_input):
        rng = np.random.default_rng(61)
        for m, n in ((6, 5), (30, 5)):
            a, _ = self.draw(rng, m, n, complex_input)
            b = a @ self.draw(rng, n, 1, complex_input)[1]
            ld_a, ld_ab = gram_logdets(a, b)
            assert ld_ab.is_zero and not ld_a.is_zero
            assert distance_det(a, b).value == 0.0

    @pytest.mark.parametrize("complex_input", [False, True])
    def test_rank_deficient_tall_matrix_raises(self, complex_input):
        rng = np.random.default_rng(67)
        for m, n in ((7, 5), (30, 5), (60, 20), (200, 20)):
            a, b = self.draw(rng, m, n, complex_input)
            zero, dup, scaled = a.copy(), a.copy(), a.copy()
            zero[:, n // 2] = 0.0
            dup[:, -1] = dup[:, 0]
            scaled[:, 1] = (3.0 - 2.0j if complex_input else -3.0) * scaled[:, 0]
            for bad in (zero, dup, scaled):
                assert gram_logdets(bad, b)[0].is_zero
                with pytest.raises(RankDeficient):
                    distance_det(bad, b)


class TestCertificateReuse:
    """gram_logdets decides A's rank again only when (b|A) falls short of
    full rank: a full count for (b|A) already gives A's."""

    @staticmethod
    def count_certificates(monkeypatch):
        import gramdist.qr

        calls = []
        certify = gramdist.qr._certifies_full_rank
        monkeypatch.setattr(gramdist.qr, "_certifies_full_rank",
                            lambda a, tol: calls.append(a.shape) or certify(a, tol))
        return calls

    def test_full_rank_runs_one_certificate(self, monkeypatch):
        rng = np.random.default_rng(71)
        a, b = random_complex(rng, 60, 20), random_cvec(rng, 60)
        calls = self.count_certificates(monkeypatch)
        assert distance_det(a, b).value > 0.0
        assert calls == [(21, 21)]

    def test_vector_in_the_span_decides_a_on_its_own_factor(self, monkeypatch):
        rng = np.random.default_rng(73)
        a = random_complex(rng, 60, 20)
        b = a @ random_cvec(rng, 20)
        calls = self.count_certificates(monkeypatch)
        ld_a, ld_ab = gram_logdets(a, b)
        assert ld_ab.is_zero and not ld_a.is_zero and math.isfinite(ld_a.log_mag)
        assert distance_det(a, b).value == 0.0
        assert (20, 20) in calls

    def test_same_pair_as_deciding_each_rank_on_its_own_factor(self):
        # near-dependent last column, the gap spread over four decades
        # around A's rank tolerance; b's scale moves the tolerance of (b|A)
        rng = np.random.default_rng(97)
        outcomes = set()
        for t in range(500):
            m = int(rng.integers(6, 16))
            n = int(rng.integers(2, min(m - 1, 6) + 1))
            complex_input = t % 2 == 1
            a = random_complex(rng, m, n) if complex_input else rng.uniform(-1, 1, (m, n))
            b = random_cvec(rng, m) if complex_input else rng.uniform(-1, 1, m)
            b = b * 10.0 ** rng.uniform(-1.0, 1.0)
            noise = random_cvec(rng, m) if complex_input else rng.uniform(-1, 1, m)
            tol = m * np.finfo(float).eps * np.linalg.norm(a[:, 0])
            gap = tol * 10.0 ** rng.uniform(-2.0, 2.0)
            a[:, -1] = a[:, 0] + gap * noise / np.linalg.norm(noise)
            r = householder_qr(np.column_stack([b, a]))
            expected = (gram_logdet(householder_qr(r[:, 1:]), m), gram_logdet(r, m))
            assert gram_logdets(a, b) == expected, t
            outcomes.add(expected[0].is_zero)
        assert outcomes == {False, True}


class TestLayout:
    """The routes read only values: row-major, column-major and strided
    copies of (A, b) give the same bits."""

    @pytest.mark.parametrize("complex_input", [False, True])
    @pytest.mark.parametrize("shape", [(40, 6), (9, 8), (200, 20)])
    def test_each_route_is_bit_identical(self, shape, complex_input):
        rng = np.random.default_rng(5)

        def draw(size):
            x = rng.standard_normal(size)
            return x + 1j * rng.standard_normal(size) if complex_input else x

        m, n = shape
        a, b = draw(shape), draw(m)
        big_a = np.zeros((2 * m, 2 * n), a.dtype)
        big_a[::2, ::2] = a
        big_b = np.zeros(2 * m, b.dtype)
        big_b[::2] = b
        copies = [(np.ascontiguousarray(a), b), (np.asfortranarray(a), b),
                  (big_a[::2, ::2], big_b[::2])]
        for fn in (distance_det, distance_projection, distance_qr):
            values = [fn(x, y).value for x, y in copies]
            assert values[1:] == values[:-1], (fn.__name__, values)


class TestScaledInputs:
    """Column norms whose squares overflow: the rank tolerance is taken on
    the scaled-down matrix, so both factor routes scale with the input."""

    @pytest.mark.parametrize("complex_input", [False, True])
    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_factor_routes_scale_with_the_input(self, scale, complex_input):
        rng = np.random.default_rng(71)
        a = random_complex(rng, 30, 5) if complex_input else rng.uniform(-1, 1, (30, 5))
        b = random_cvec(rng, 30) if complex_input else rng.uniform(-1, 1, 30)
        ref = scale * distance_qr(a, b).value
        # the squares overflow on the way: the Gram matrix of the
        # certificate holds inf, and the SVD settles the rank
        with np.errstate(over="ignore", invalid="ignore"):
            det = distance_det(a * scale, b * scale).value
            qr = distance_qr(a * scale, b * scale).value
        assert abs(qr - ref) <= 1e-13 * ref
        # the log magnitudes are near 2 (n + 1) ln(scale), about 8300 at
        # 1e300, and round relative to that
        assert abs(det - ref) <= 1e-11 * ref


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
