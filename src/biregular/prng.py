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
block. ``accepted_rows``, the one bounded reader, reads one stretch for each
of several (seed, position) pairs as one 2-D block; a pair whose stretch
holds a word that ``below`` would reject reads on past that word. It returns
the accepted words unreduced, so that a caller may reduce only the draws it
uses (the sampler reduces the rest of an attempt's draws only once the
attempt has passed its checkpoint); ``below_rows`` is its draws reduced.
``SplitMix64`` stays the one-word-at-a-time reference they match.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParam, check_int

MASK64 = (1 << 64) - 1

GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """splitmix64 stream seeded with a 64-bit integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = check_int(seed, "seed") & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GAMMA) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) without modulo bias, for
        1 <= bound <= 2^64."""
        bound = check_int(bound, "bound")
        if not 1 <= bound <= 1 << 64:
            # Above 2^64, accept_max would be negative and reject every word.
            raise InvalidParam("bound must be in [1, 2^64]")
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


def accept_max(bound):
    """Largest 64-bit word that ``below(bound)`` accepts, elementwise for a
    uint64 array of bounds (2^64 mod bound is taken within 64 bits).

    Larger words are rejected because they would bias ``v % bound``. A
    power-of-two bound rejects nothing, and its value MASK64 still fits a
    uint64 array, unlike the exclusive limit 2^64.
    """
    return MASK64 - (MASK64 % bound + 1) % bound


def stream_u64(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs start+1 .. start+count of ``SplitMix64(seed)`` as a uint64 array.

    Output 1 is the first ``next_u64()``.
    """
    z = np.arange(start + 1, start + 1 + count, dtype=np.uint64)
    z *= GAMMA
    z += check_int(seed, "seed") & MASK64
    return _mixed(z)


def _mixed(z):
    """The outputs of the uint64 array of states ``z``, mixed in place.

    numpy's uint64 array arithmetic wraps mod 2^64 exactly as the masked
    scalar steps do, and raises no overflow warning.
    """
    z ^= z >> 30
    z *= _MIX1
    z ^= z >> 27
    z *= _MIX2
    z ^= z >> 31
    return z


def accepted_rows(seeds, starts, bounds, rows: int):
    """The words behind ``below_rows(seeds, starts, bounds, rows)``, before
    each is reduced mod its bound: the same (len(seeds) * rows, len(bounds))
    uint64 layout, and the list of stream positions after each pair's draws.

    One 2-D block holds the next rows * len(bounds) words of every pair. A
    word that ``below`` would reject (fewer than one in 2^64 / bound) cuts
    its pair's block, and that pair reads on from one word past the cut, at
    the same bound.
    """
    bounds = np.asarray(bounds, dtype=np.uint64)
    width = bounds.size
    count = rows * width
    tops = accept_max(bounds)
    seeds = [check_int(seed, "seed") for seed in seeds]
    # State start + t of a seed is its state at ``start`` plus t * GAMMA.
    at = [(seed + start * GAMMA) & MASK64 for seed, start in zip(seeds, starts)]
    steps = np.arange(1, count + 1, dtype=np.uint64)
    steps *= GAMMA
    words = _mixed(steps + np.array(at, np.uint64)[:, None])
    rejected = words.reshape(len(seeds), rows, width) > tops
    ends = [start + count for start in starts]
    for r in np.flatnonzero(rejected.any(axis=(1, 2))):
        cut = int(rejected[r].argmax())
        done, ends[r], rounds = cut, starts[r] + cut + 1, 2 * (cut // width + 1)
        while done < count:
            # Whole rounds from the one holding the next draw (its first
            # ``skip`` words are drawn); after a cut, about twice what it
            # drew, so that frequent rejections cost linear work.
            skip = done % width
            rounds = min(rounds, rows - done // width)
            block = stream_u64(seeds[r], ends[r] - skip, rounds * width)
            over = np.flatnonzero(block.reshape(rounds, width) > tops)
            over = over[over >= skip]
            cut = int(over[0]) if over.size else block.size
            words[r, done : done + cut - skip] = block[skip:cut]
            done += cut - skip
            ends[r] += cut - skip + (cut < block.size)
            rounds = 2 * (cut // width + 1)
    return words.reshape(len(seeds) * rows, width), ends


def below_rows(seeds, starts, bounds, rows: int):
    """``rows`` rounds of ``[below(b) for b in bounds]``, b in [1, 2^64),
    for each (seed, start) pair, drawn after word ``start`` of
    ``SplitMix64(seed)``: a (len(seeds) * rows, len(bounds)) uint64 array
    whose rows r * rows .. (r + 1) * rows - 1 are pair r's, and the list of
    stream positions after each pair's draws. These are the words of
    ``accepted_rows``, reduced whole.
    """
    words, ends = accepted_rows(seeds, starts, bounds, rows)
    return words % np.asarray(bounds, dtype=np.uint64), ends


def derive_seed(master: int, *indices: int) -> int:
    """Deterministic sub-seed for (master, index...) tuples.

    Folds each index into a fresh splitmix64 step so per-trial seeds are
    decorrelated but fully reproducible from the master seed.
    """
    out = SplitMix64(master).next_u64()
    for value in indices:
        out = SplitMix64(out ^ check_int(value, "seed index")).next_u64()
    return out
