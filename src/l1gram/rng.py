"""Deterministic counter-based random number generation.

Every output word is ``mix64(seed + (counter + 1) * GAMMA)`` where ``mix64``
is the splitmix64 finalizer, so the stream is a pure function of
(seed, counter).  All arithmetic is 64-bit unsigned with wraparound, which
gives bit-identical streams on every platform, and any slice of the stream
can be generated independently of the rest.
"""

from __future__ import annotations

import math

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_MASK = 0xFFFFFFFFFFFFFFFF

_TWO_M53 = 2.0 ** -53
_POOL_CAP = 1 << 16  # index-pool entries shuffled at once


def mix64(z):
    """splitmix64 finalizer on uint64 scalars or arrays."""
    z = np.uint64(z) if np.isscalar(z) else z
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX_A
        z = (z ^ (z >> np.uint64(27))) * _MIX_B
        return z ^ (z >> np.uint64(31))


def _fisher_yates_prefix(words: np.ndarray, n: int) -> np.ndarray:
    """First k entries of a Fisher-Yates shuffle of range(n) per row of the
    (m, k) word array: step j swaps positions j and j + word_j % (n - j)."""
    m, k = words.shape
    out = np.empty((m, k), dtype=np.int64)
    step = max(1, _POOL_CAP // max(n, 1))
    for s in range(0, m, step):
        w = words[s:s + step]
        rows = np.arange(w.shape[0])
        pool = np.tile(np.arange(n, dtype=np.int64), (w.shape[0], 1))
        for j in range(k):
            r = j + (w[:, j] % np.uint64(n - j)).astype(np.int64)
            pool[rows, j], pool[rows, r] = pool[rows, r], pool[rows, j]
        out[s:s + step] = pool[:, :k]
    return out


class Rng:
    """Counter-based generator: same seed, same stream, any platform."""

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK
        self.counter = 0

    def __repr__(self):
        return f"Rng(seed={self.seed:#x}, counter={self.counter})"

    def u64(self, count: int) -> np.ndarray:
        """Next `count` raw 64-bit words."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        idx = np.arange(self.counter + 1, self.counter + count + 1, dtype=np.uint64)
        self.counter += count
        with np.errstate(over="ignore"):
            return mix64(np.uint64(self.seed) + idx * _GAMMA)

    def uniform(self, count: int) -> np.ndarray:
        """Uniform float64 samples in [0, 1) using the top 53 bits."""
        return (self.u64(count) >> np.uint64(11)).astype(np.float64) * _TWO_M53

    def normal(self, count: int) -> np.ndarray:
        """Standard normal samples via Box-Muller (fixed word consumption)."""
        m = (count + 1) // 2
        u1 = self.uniform(m)
        u2 = self.uniform(m)
        r = np.sqrt(-2.0 * np.log1p(-u1))  # 1 - u1 in (2^-53, 1], log is finite
        theta = (2.0 * math.pi) * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
        return z[:count]

    def rademacher(self, count: int) -> np.ndarray:
        """Samples from {-1.0, +1.0} with equal probability."""
        return 1.0 - 2.0 * (self.u64(count) >> np.uint64(63)).astype(np.float64)

    def integers(self, bound: int, count: int) -> np.ndarray:
        """Uniform integers in [0, bound).

        Uses word % bound: the modulo bias (< bound / 2^64) is negligible for
        the subset sizes used here, and integer arithmetic keeps the result
        platform-exact.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        return (self.u64(count) % np.uint64(bound)).astype(np.int64)

    def subsets(self, n: int, k: int, count: int) -> np.ndarray:
        """`count` uniform random size-k subsets of range(n), one sorted row
        each, by Fisher-Yates prefix; k words per row, drawn in one call."""
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        if count < 0:
            raise ValueError("count must be nonnegative")
        words = self.u64(count * k).reshape(count, k)
        return np.sort(_fisher_yates_prefix(words, n), axis=1)

    def subset(self, n: int, k: int) -> np.ndarray:
        """Uniform random size-k subset of range(n), sorted."""
        return self.subsets(n, k, 1)[0]

    def permutation(self, n: int) -> np.ndarray:
        """Uniform random permutation of range(n) by Fisher-Yates (n words)."""
        return _fisher_yates_prefix(self.u64(n).reshape(1, n), n)[0]

    def child(self, index: int) -> "Rng":
        """Independent generator derived by hashing (seed, index)."""
        if index < 0:
            raise ValueError("index must be nonnegative")
        with np.errstate(over="ignore"):
            key = mix64(np.uint64(self.seed) ^ mix64(np.uint64(index + 1) * _GAMMA))
        return Rng(int(key))
