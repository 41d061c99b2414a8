"""Deterministic counter-based random generator for reproducible verification.

The generator is splitmix-style: the state advances by a fixed odd constant
and each output is the finalizer mix of the new state.  Streams are derived
from a (seed, path...) tuple via ``derive_seed``, so any trial of any suite
can be regenerated in isolation, in any language that reproduces the two
64-bit mixing constants below.

Conventions (fixed so instances are portable):

* real entries are uniform on [-1, 1], taken from the top 53 bits;
* complex entries are rejection-sampled from the closed unit disc
  (draw re, im uniform on [-1, 1], accept when re^2 + im^2 <= 1);
* matrices fill row by row.

The scalar methods (``next_u64``, ``uniform``, ``complex_disc``, ``randint``)
define the stream.  From state s, the i-th next output (counting from 1) is
mix64(s + i * gamma): every value depends only on the counter, so the array
draws can compute the stream ahead of the scalar ones.  A generator keeps a
block of the next _BLOCK_SIZE uniforms, formed in one array pass from the
counter and the module's step table (1.._BLOCK_SIZE) * gamma, and serves
each array draw from it as a copy; a draw that runs past the block's end
refills it from the current counter, and a longer draw is computed on its
own.  The scalar draws and the rewind of ``complex_vector`` move the block
position with the counter.  The array draws return exactly what the scalar
draws would and leave the counter where those would, so instances do not
depend on which methods drew them.  A verify suite takes its trials'
generators from :func:`_streams`, which computes their first blocks in one
array pass per chunk of _CHUNK trials: the blocks their own first draws
would compute.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import islice

import numpy as np

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_GAMMA_U64 = np.uint64(_GAMMA)
_MIX1_U64 = np.uint64(_MIX1)
_MIX2_U64 = np.uint64(_MIX2)
_SHIFT11, _SHIFT27, _SHIFT30, _SHIFT31 = (np.uint64(k) for k in (11, 27, 30, 31))

# The uniforms a generator computes ahead of its counter in one pass, and
# the counter steps to them: gamma, 2 gamma, ..., _BLOCK_SIZE gamma.
_BLOCK_SIZE = 512

# The generators whose first blocks :func:`_streams` computes in one pass:
# 64 blocks of 512 uniforms are 256 KiB.
_CHUNK = 64


def _steps(k: int) -> np.ndarray:
    steps = np.arange(1, k + 1, dtype=np.uint64)
    steps *= _GAMMA_U64
    return steps


_BLOCK_STEPS = _steps(_BLOCK_SIZE)
_NO_BLOCK = np.empty(0)


def mix64(z: int) -> int:
    """The splitmix64 finalizer: a bijective avalanche mix of 64 bits."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *path: int) -> int:
    """Fold path components into a seed: state = mix64(state ^ mix64(p))."""
    state = mix64(seed & MASK64)
    for p in path:
        state = mix64(state ^ mix64(p & MASK64))
    return state


def _unit(state: int | np.ndarray, steps: np.ndarray) -> np.ndarray:
    """The uniforms on [-1, 1] at the counters state + steps, in one array
    pass: the top 53 bits of mix64 of each.  A column of states gives one
    row per state."""
    z = steps + np.uint64(state)
    z ^= z >> _SHIFT30
    z *= _MIX1_U64
    z ^= z >> _SHIFT27
    z *= _MIX2_U64
    z ^= z >> _SHIFT31
    u = (z >> _SHIFT11).astype(np.float64)
    u *= 2.0**-52
    u -= 1.0
    return u


class SplitMix64:
    """state += gamma; output = mix64(state)."""

    __slots__ = ("_state", "_block", "_pos")

    def __init__(self, seed: int):
        self._state = seed & MASK64
        # _block[i] is the uniform at counter base + (i + 1) gamma, and the
        # counter is base + _pos gamma; the first draw fills the block
        self._block = _NO_BLOCK
        self._pos = _BLOCK_SIZE

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & MASK64
        self._pos += 1
        return mix64(self._state)

    def uniform(self) -> float:
        """Uniform double on [-1, 1]."""
        return (self.next_u64() >> 11) * 2.0**-52 - 1.0

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer on [lo, hi] inclusive (modulo fold; the bias is
        negligible for the desk-scale ranges used here)."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)

    def complex_disc(self) -> complex:
        """Uniform complex on the closed unit disc, by rejection."""
        while True:
            re = self.uniform()
            im = self.uniform()
            if re * re + im * im <= 1.0:
                return complex(re, im)

    def _uniforms(self, k: int) -> np.ndarray:
        """The next k values of ``uniform``, as a new array: a copy of the
        block, refilled first where the draw runs past its end, and for
        k > _BLOCK_SIZE computed on their own from the counter."""
        if k > _BLOCK_SIZE:
            u = _unit(self._state, _steps(k))
        else:
            if self._pos + k > _BLOCK_SIZE:
                self._block = _unit(self._state, _BLOCK_STEPS)
                self._pos = 0
            u = self._block[self._pos:self._pos + k].copy()
        self._pos += k
        self._state = (self._state + k * _GAMMA) & MASK64
        return u

    def real_vector(self, n: int) -> np.ndarray:
        return self._uniforms(n)

    def complex_vector(self, n: int) -> np.ndarray:
        """n draws of ``complex_disc``: candidate pairs come in batches and
        are accepted in order; the counter ends just past the last pair
        taken, so the stream continues as the scalar draws would."""
        out = np.empty(n, np.complex128)
        done = 0
        while done < n:
            need = n - done
            z = self._uniforms(2 * (need + need // 2 + 1)).view(np.complex128)
            taken = (z.real * z.real + z.imag * z.imag <= 1.0).nonzero()[0][:need]
            out[done:done + taken.size] = z[taken]
            done += taken.size
            if done == n:
                unused = 2 * (z.size - 1 - int(taken[-1]))
                self._state = (self._state - unused * _GAMMA) & MASK64
                self._pos -= unused
        return out

    def real_matrix(self, m: int, n: int) -> np.ndarray:
        return self.real_vector(m * n).reshape(m, n)

    def complex_matrix(self, m: int, n: int) -> np.ndarray:
        return self.complex_vector(m * n).reshape(m, n)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of range(n)."""
        p = np.arange(n)
        for i in range(n - 1, 0, -1):
            j = self.randint(0, i)
            p[i], p[j] = p[j], p[i]
        return p


def _streams(seeds: Iterable[int]) -> Iterator[SplitMix64]:
    """SplitMix64(seed) for each seed in turn, lazily, with the blocks of
    each chunk of _CHUNK generators computed in one :func:`_unit` pass.

    Each generator gets _block = the uniforms after its counter and
    _pos = 0, the state a fresh generator's first array draw of at most
    _BLOCK_SIZE values reaches before it reads the block.  Scalar draws
    and longer draws move _pos with the counter, so the block stays the
    one after the seed, and each generator equals SplitMix64(seed) draw
    for draw."""
    seeds = iter(seeds)
    while chunk := [SplitMix64(seed) for seed in islice(seeds, _CHUNK)]:
        counters = np.array([g._state for g in chunk], np.uint64)
        for g, block in zip(chunk, _unit(counters[:, None], _BLOCK_STEPS)):
            g._block = block
            g._pos = 0
            yield g
