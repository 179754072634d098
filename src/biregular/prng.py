"""Seeded 64-bit pseudo-random generator with a bit-exact, portable stream.

The generator is splitmix64 (Vigna's reference finalizer): state advances by
the golden-gamma constant 0x9E3779B97F4A7C15 and the output is the mixed
state. For a fixed seed the stream of ``next_u64`` values is identical on
every platform and Python version, which is what makes seeds in this package
reproducible and auditable. Bounded draws use unbiased rejection sampling and
shuffles are top-down Fisher-Yates, both defined purely in terms of the u64
stream.

State i of the stream is ``(seed & MASK64) + i * GAMMA`` mod 2^64 and output
i is that state mixed, so any stretch of outputs can be computed without
the ones before it. ``stream_u64`` returns such a stretch as one numpy
block; ``SplitMix64`` stays the one-word-at-a-time reference it must match.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """splitmix64 stream seeded with a 64-bit integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GAMMA) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) without modulo bias, for
        1 <= bound <= 2^64."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound > 1 << 64:
            # accept_max would be negative and reject every word.
            raise ValueError("bound must be at most 2^64")
        top = accept_max(bound)
        while True:
            v = self.next_u64()
            if v <= top:
                return v % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by this stream."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def accept_max(bound: int) -> int:
    """Largest 64-bit word that ``below(bound)`` accepts.

    Larger words are rejected because they would bias ``v % bound``. A
    power-of-two bound rejects nothing, and its value MASK64 still fits a
    uint64 array, unlike the exclusive limit 2^64.
    """
    return MASK64 - (1 << 64) % bound


def stream_u64(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs start+1 .. start+count of ``SplitMix64(seed)`` as a uint64 array.

    Output 1 is the first ``next_u64()``. The mix runs in place on the one
    array: numpy's uint64 array arithmetic wraps mod 2^64 exactly as the
    masked scalar steps do, and raises no overflow warning.
    """
    z = np.arange(start + 1, start + 1 + count, dtype=np.uint64)
    z *= GAMMA
    z += seed & MASK64
    z ^= z >> 30
    z *= _MIX1
    z ^= z >> 27
    z *= _MIX2
    z ^= z >> 31
    return z


def derive_seed(master: int, *indices: int) -> int:
    """Deterministic sub-seed for (master, index...) tuples.

    Folds each index into a fresh splitmix64 step so per-trial seeds are
    decorrelated but fully reproducible from the master seed.
    """
    out = SplitMix64(master).next_u64()
    for value in indices:
        out = SplitMix64(out ^ (value & MASK64)).next_u64()
    return out
