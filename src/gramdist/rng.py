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
define the stream.  The array draws compute the same values in one batch:
from state s, the i-th next output (counting from 1) is mix64(s + i * gamma),
so a whole prefix can be formed from the counter at once.  They return
exactly what the scalar draws would and leave the counter where those
would, so instances do not depend on which methods drew them.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_GAMMA_U64 = np.uint64(_GAMMA)
_MIX1_U64 = np.uint64(_MIX1)
_MIX2_U64 = np.uint64(_MIX2)
_SHIFT11, _SHIFT27, _SHIFT30, _SHIFT31 = (np.uint64(k) for k in (11, 27, 30, 31))


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


class SplitMix64:
    """state += gamma; output = mix64(state)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & MASK64
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
        """The next k values of ``uniform``, computed in one array pass from
        the counter: output i is mix64(state + i * gamma)."""
        z = np.arange(1, k + 1, dtype=np.uint64)
        z *= _GAMMA_U64
        z += np.uint64(self._state)
        z ^= z >> _SHIFT30
        z *= _MIX1_U64
        z ^= z >> _SHIFT27
        z *= _MIX2_U64
        z ^= z >> _SHIFT31
        self._state = (self._state + k * _GAMMA) & MASK64
        u = (z >> _SHIFT11).astype(np.float64)
        u *= 2.0**-52
        u -= 1.0
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
            start = self._state
            u = self._uniforms(2 * (need + need // 2 + 1))
            re, im = u[0::2], u[1::2]
            taken = np.flatnonzero(re * re + im * im <= 1.0)[:need]
            out.real[done:done + taken.size] = re[taken]
            out.imag[done:done + taken.size] = im[taken]
            done += taken.size
            if done == n:
                self._state = (start + 2 * (int(taken[-1]) + 1) * _GAMMA) & MASK64
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
