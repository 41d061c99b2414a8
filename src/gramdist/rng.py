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
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


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

    def real_vector(self, n: int) -> np.ndarray:
        return np.array([self.uniform() for _ in range(n)], np.float64)

    def complex_vector(self, n: int) -> np.ndarray:
        return np.array([self.complex_disc() for _ in range(n)], np.complex128)

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
