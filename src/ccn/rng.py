"""Counter-based pseudo-random generator (splitmix64).

Every stochastic feature in the library (init, dropout, corruption, batch
order) draws from this generator rather than numpy's, so that a given seed
produces the same bit stream on every platform and numpy version. The
generator is a pure 64-bit integer hash of seed and draw counter, which also
makes array draws vectorizable.
"""

from __future__ import annotations

import math

import numpy as np

# 0-d arrays rather than numpy scalars: arithmetic with them wraps modulo
# 2^64 without an overflow warning, on a scalar operand too, and in-place
# ops on arrays take them faster
_GOLDEN = np.array(0x9E3779B97F4A7C15, dtype=np.uint64)
_MIX1 = np.array(0xBF58476D1CE4E5B9, dtype=np.uint64)
_MIX2 = np.array(0x94D049BB133111EB, dtype=np.uint64)
_S11, _S27, _S30, _S31 = (np.array(k, dtype=np.uint64) for k in (11, 27, 30, 31))
_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


def _mix(x: np.ndarray | np.uint64) -> np.ndarray | np.uint64:
    """splitmix64 finalizer, elementwise; a uint64 array is mixed in place."""
    x ^= x >> _S30
    x *= _MIX1
    x ^= x >> _S27
    x *= _MIX2
    x ^= x >> _S31
    return x


def _hash_tag(tag) -> np.uint64:
    """FNV-1a over the repr bytes of a fork tag (int, str, or tuple of those)."""
    h = _FNV_OFFSET
    with np.errstate(over="ignore"):
        for b in repr(tag).encode("utf-8"):
            h = (h ^ np.uint64(b)) * _FNV_PRIME
    return h


class Rng:
    """Deterministic stream of draws identified by (seed, stream)."""

    def __init__(self, seed: int, stream: int | np.uint64 = 0):
        self.seed = int(seed)
        self._base = _mix(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ np.uint64(stream))
        self._counter = np.uint64(0)

    def fork(self, tag) -> "Rng":
        """Independent child stream; same (seed, tag) always yields the same child."""
        return Rng(self.seed, stream=_mix(self._base ^ _hash_tag(tag)))

    def _raw53(self, n: int) -> np.ndarray:
        """The next ``n`` draws as 53-bit integers: uniforms times 2**53."""
        x = np.arange(1, n + 1, dtype=np.uint64)
        x += self._counter
        x *= _GOLDEN
        x += self._base
        self._counter += np.uint64(n)
        x = _mix(x)
        x >>= _S11
        return x

    def uniform(self, shape=None) -> float | np.ndarray:
        """Uniform float64 draws in [0, 1)."""
        if shape is None:
            return float(self._raw53(1)[0]) * 2.0**-53
        u = self._raw53(int(np.prod(shape))).astype(np.float64) * 2.0**-53
        return u.reshape(shape)

    def uniform_at_least(self, shape, p: float) -> np.ndarray:
        """``uniform(shape) >= p`` as a boolean array, compared as integers."""
        keep = self._raw53(int(np.prod(shape))) >= np.uint64(math.ceil(p * 2.0**53))
        return keep.reshape(shape)

    def uniform_range(self, lo: float, hi: float, shape=None):
        return lo + (hi - lo) * self.uniform(shape)

    def integer(self, bound: int) -> int:
        """One integer in [0, bound). Uses rejection-free scaled draw (bound << 2^53)."""
        if bound <= 0:
            raise ValueError(f"integer bound must be positive, got {bound}")
        return int(self.uniform() * bound)

    def integers(self, bound: int, shape) -> np.ndarray:
        if bound <= 0:
            raise ValueError(f"integer bound must be positive, got {bound}")
        return (self.uniform(shape) * bound).astype(np.int64)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of range(n): swap i = n-1, ..., 1 with
        j = integer(i + 1), the j drawn in one call."""
        out = np.arange(n)
        bounds = np.arange(n, 1, -1)  # i + 1
        js = (self.uniform(bounds.shape) * bounds).astype(np.int64)
        for i, j in zip(range(n - 1, 0, -1), js.tolist()):
            out[i], out[j] = out[j], out[i]
        return out
