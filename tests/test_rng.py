"""The deterministic counter generator: stream stability, ranges, and the
seed-derivation scheme."""

import numpy as np

from gramdist.rng import MASK64, SplitMix64, derive_seed, mix64

# pinned outputs: any change to the mixing constants or the stepping breaks
# reproducibility of every recorded verification run
PINNED_U64 = (
    13679457532755275413,
    2949826092126892291,
    5139283748462763858,
    6349198060258255764,
)


class TestStreams:
    def test_pinned_sequence_for_seed_42(self):
        g = SplitMix64(42)
        assert tuple(g.next_u64() for _ in range(4)) == PINNED_U64

    def test_mix64_pins(self):
        assert mix64(0) == 0
        assert mix64(42) == 12058926934050108962

    def test_derive_seed_pin(self):
        assert derive_seed(42, 3, 7) == 459017331986223281

    def test_same_seed_same_stream(self):
        a = SplitMix64(987654321)
        b = SplitMix64(987654321)
        assert [a.next_u64() for _ in range(32)] == [b.next_u64() for _ in range(32)]

    def test_derive_is_order_sensitive(self):
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)

    def test_outputs_fit_64_bits(self):
        g = SplitMix64((1 << 64) - 1)
        for _ in range(64):
            assert 0 <= g.next_u64() <= MASK64


class TestDraws:
    def test_uniform_range(self):
        g = SplitMix64(7)
        xs = [g.uniform() for _ in range(2000)]
        assert all(-1.0 <= x <= 1.0 for x in xs)
        assert min(xs) < -0.9 and max(xs) > 0.9

    def test_randint_inclusive_bounds(self):
        g = SplitMix64(11)
        xs = [g.randint(2, 5) for _ in range(400)]
        assert set(xs) == {2, 3, 4, 5}

    def test_complex_disc(self):
        g = SplitMix64(13)
        zs = [g.complex_disc() for _ in range(500)]
        assert all(abs(z) <= 1.0 for z in zs)

    def test_matrix_shapes_and_dtypes(self):
        g = SplitMix64(17)
        a = g.real_matrix(3, 4)
        assert a.shape == (3, 4) and a.dtype == np.float64
        c = g.complex_matrix(2, 5)
        assert c.shape == (2, 5) and c.dtype == np.complex128
        v = g.real_vector(6)
        assert v.shape == (6,)
        w = g.complex_vector(4)
        assert w.shape == (4,)

    def test_row_major_fill(self):
        # the matrix must consume the stream row by row
        g1 = SplitMix64(19)
        a = g1.real_matrix(2, 3)
        g2 = SplitMix64(19)
        flat = [g2.uniform() for _ in range(6)]
        np.testing.assert_array_equal(a.ravel(order="C"), flat)

    def test_permutation_is_a_permutation(self):
        g = SplitMix64(23)
        p = g.permutation(9)
        assert sorted(p.tolist()) == list(range(9))


def scalar_real(g, n):
    return np.array([g.uniform() for _ in range(n)], np.float64)


def scalar_complex(g, n):
    return np.array([g.complex_disc() for _ in range(n)], np.complex128)


LENGTHS = (*range(65), 132)
SEEDS = tuple(derive_seed(2014, i) for i in range(6)) + (0, MASK64)


class TestBatchedDraws:
    """The array draws are computed in batches from the counter; the scalar
    methods define the stream, so both must agree bit for bit and leave the
    generator in the same state."""

    def assert_same_draws(self, a, b, x, y):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()
        assert a._state == b._state
        assert a.next_u64() == b.next_u64()

    def test_real_vector_matches_scalar_stream(self):
        for seed in SEEDS:
            for n in LENGTHS:
                a, b = SplitMix64(seed), SplitMix64(seed)
                self.assert_same_draws(a, b, a.real_vector(n), scalar_real(b, n))

    def test_complex_vector_matches_scalar_stream(self):
        for seed in SEEDS:
            for n in LENGTHS:
                a, b = SplitMix64(seed), SplitMix64(seed)
                self.assert_same_draws(a, b, a.complex_vector(n), scalar_complex(b, n))

    def test_interleaved_vector_scalar_vector(self):
        for seed in SEEDS:
            for n in (1, 7, 40):
                a, b = SplitMix64(seed), SplitMix64(seed)
                batched = [
                    a.complex_vector(n).tobytes(),
                    a.uniform(),
                    a.real_vector(n).tobytes(),
                    a.complex_disc(),
                    a.randint(0, 9),
                    a.complex_vector(n + 3).tobytes(),
                ]
                scalar = [
                    scalar_complex(b, n).tobytes(),
                    b.uniform(),
                    scalar_real(b, n).tobytes(),
                    b.complex_disc(),
                    b.randint(0, 9),
                    scalar_complex(b, n + 3).tobytes(),
                ]
                assert batched == scalar
                assert a._state == b._state

    def test_short_first_batch_refills(self, monkeypatch):
        # seeds whose first batch of candidate pairs accepts fewer than n
        # draws must go round the refill loop and still match the scalars
        batches = []
        uniforms = SplitMix64._uniforms

        def counted(self, k):
            batches.append(k)
            return uniforms(self, k)

        monkeypatch.setattr(SplitMix64, "_uniforms", counted)
        refilled = 0
        for n in (1, 2, 5, 12, 64):
            for i in range(400):
                seed = derive_seed(1, n, i)
                a, b = SplitMix64(seed), SplitMix64(seed)
                batches.clear()
                self.assert_same_draws(a, b, a.complex_vector(n), scalar_complex(b, n))
                refilled += len(batches) > 1
        assert refilled >= 20

    def test_block_boundaries_match_scalar_stream(self):
        # the array draws come from a block of _BLOCK_SIZE uniforms computed
        # ahead of the counter: a draw that ends at, crosses or exceeds the
        # block's end takes the same values as the scalars
        for seed in SEEDS:
            for n in (511, 512, 513, 2000):
                a, b = SplitMix64(seed), SplitMix64(seed)
                self.assert_same_draws(a, b, a.real_vector(n), scalar_real(b, n))
                a, b = SplitMix64(seed), SplitMix64(seed)
                self.assert_same_draws(a, b, a.complex_vector(n), scalar_complex(b, n))

    def test_small_draws_across_block_ends(self):
        # runs of small array draws adding up past several block ends, with
        # scalar draws and complex rewinds between them
        for seed in SEEDS:
            a, b = SplitMix64(seed), SplitMix64(seed)
            batched, scalar = [], []
            for i in range(120):
                n = 1 + (7 * i) % 23
                if i % 3 == 0:
                    batched.append(a.complex_vector(n).tobytes())
                    scalar.append(scalar_complex(b, n).tobytes())
                else:
                    batched.append(a.real_vector(n).tobytes())
                    scalar.append(scalar_real(b, n).tobytes())
                if i % 5 == 0:
                    batched.append((a.uniform(), a.randint(0, 9), a.complex_disc()))
                    scalar.append((b.uniform(), b.randint(0, 9), b.complex_disc()))
                assert a._state == b._state
            assert batched == scalar
            assert a.next_u64() == b.next_u64()

    def test_drawn_arrays_are_not_the_block(self):
        # every array draw is a copy: writing into one changes no later draw
        for seed in SEEDS:
            a, b = SplitMix64(seed), SplitMix64(seed)
            for n in (3, 40, 600):
                for draw, scalar in ((a.real_vector, scalar_real), (a.complex_vector, scalar_complex)):
                    v = draw(n)
                    assert not np.shares_memory(v, a._block)
                    v[:] = 0.0
                    scalar(b, n)
            self.assert_same_draws(a, b, a.complex_vector(30), scalar_complex(b, 30))
