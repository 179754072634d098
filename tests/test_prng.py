"""The PRNG stream is pinned bit-exactly: these values must never change."""

import warnings

import numpy as np
import pytest

from biregular import prng
from biregular.errors import InvalidParam
from biregular.prng import (
    MASK64,
    SplitMix64,
    accept_max,
    below_rows,
    below_rows_each,
    derive_seed,
    shuffled_rows,
    stream_u64,
)

from testutil import record_calls


def test_splitmix64_reference_vectors():
    # First outputs for seed 0 from the reference splitmix64 implementation.
    g = SplitMix64(0)
    assert g.next_u64() == 0xE220A8397B1DCDAF
    assert g.next_u64() == 0x6E789E6AA1B965F4
    assert g.next_u64() == 0x06C45D188009454F
    assert g.next_u64() == 0xF88BB8A8724C81EC


def test_stream_u64_matches_scalar_stream():
    # Seed 0 reference vectors, start offsets, a seed above 2^64 (masked)
    # and seeds near 2^64 whose state wraps within the first words.
    assert stream_u64(0, 0, 4).tolist() == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
    ]
    for seed in (0, 42, (1 << 64) + 5, MASK64, MASK64 - 0x9E3779B97F4A7C15):
        g = SplitMix64(seed)
        words = [g.next_u64() for _ in range(300)]
        for start, count in ((0, 300), (1, 7), (37, 200), (299, 1), (5, 0)):
            block = stream_u64(seed, start, count)
            assert block.dtype == np.uint64 and block.shape == (count,)
            assert block.tolist() == words[start : start + count]


def test_stream_u64_raises_no_numpy_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stream_u64(MASK64, 10**6, 1000)
        stream_u64((1 << 64) + 5, 0, 1000)


def test_streams_are_deterministic():
    a = SplitMix64(123456789)
    b = SplitMix64(123456789)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_outputs_stay_in_64_bits():
    g = SplitMix64((1 << 64) + 5)  # seed is masked
    for _ in range(100):
        assert 0 <= g.next_u64() <= MASK64


def test_below_bounds_and_coverage():
    g = SplitMix64(7)
    draws = [g.below(10) for _ in range(2000)]
    assert set(draws) == set(range(10))
    # A bound that is no integer, or below 1, is refused: 2.5 drew floats.
    for bound in (0, 2.5, "3", None):
        with pytest.raises(InvalidParam):
            g.below(bound)


def test_below_takes_bounds_up_to_2_64():
    # Bound 2^64 accepts every word as it is. A larger bound has no
    # unbiased draw from one word, so it raises instead of rejecting forever.
    word = SplitMix64(1).next_u64()
    assert SplitMix64(1).below(1 << 64) == word
    with pytest.raises(InvalidParam):
        SplitMix64(1).below((1 << 64) + 1)


def test_accept_max_rejects_only_the_biased_tail():
    # 2^64 = 3 * 6148914691236517205 + 1: bound 3 rejects one word, and a
    # power-of-two bound rejects none.
    assert accept_max(3) == MASK64 - 1
    assert accept_max(10) == MASK64 - 6
    for bound in (1, 2, 1 << 20, 1 << 63):
        assert accept_max(bound) == MASK64
    # Elementwise on a uint64 array, as the block readers take it.
    bounds = [1, 3, 10, 2**31 - 1, 1 << 63, (1 << 63) + 1, MASK64]
    tops = accept_max(np.array(bounds, dtype=np.uint64))
    assert tops.tolist() == [accept_max(b) for b in bounds]


def test_shuffle_is_deterministic_permutation():
    g1 = SplitMix64(42)
    g2 = SplitMix64(42)
    items1 = list(range(20))
    items2 = list(range(20))
    g1.shuffle(items1)
    g2.shuffle(items2)
    assert items1 == items2
    assert sorted(items1) == list(range(20))
    assert items1 != list(range(20))


def test_derive_seed_varies_with_indices():
    seeds = {derive_seed(5, i, j) for i in range(10) for j in range(10)}
    assert len(seeds) == 100
    assert derive_seed(5, 3, 4) == derive_seed(5, 3, 4)


def test_seeds_must_be_integers():
    # Every seed is read where it enters the stream: InvalidParam, not a
    # bare TypeError from the masking.
    calls = (
        lambda: SplitMix64(1.5),
        lambda: stream_u64(1.5, 0, 4),
        lambda: below_rows(1.5, 0, (3,), 2),
        lambda: below_rows_each([5, 1.5], [0, 0], (3,), 2),
        lambda: derive_seed(1.5, 1),
        lambda: derive_seed(1, 2.5),
    )
    for call in calls:
        with pytest.raises(InvalidParam, match="must be an integer"):
            call()
    assert derive_seed(np.uint64(5), np.int64(3)) == derive_seed(5, 3)


def _scalar_at(seed, start):
    rng = SplitMix64(seed)
    for _ in range(start):
        rng.next_u64()
    return rng


# None keeps the real acceptance limit; s rejects one word in 2^s.
@pytest.mark.parametrize("shift", [None, 8, 1])
def test_block_readers_match_scalar_draws(monkeypatch, shift):
    if shift is not None:
        monkeypatch.setattr(
            prng, "accept_max", lambda bound: MASK64 - (MASK64 >> shift)
        )
    bounds_cases = ((), (7,), (10, 3, 2**31 - 1), tuple(range(12, 1, -1)),
                    (MASK64, 1, 3))
    items_cases = ([], [4], list(range(10)), [0, 0, 1, 1, 2, 2, 3, 3])
    # The multi-seed readers serve every (seed, start) pair in one call.
    pairs = [(seed, start) for seed in (0, 5, MASK64) for start in (0, 3)]
    seeds, starts = zip(*pairs)
    for rows in (0, 1, 9):
        # Each reader's draws, and the word after them, are the scalar
        # generator's; the multi-seed readers stack pair r's rows at r.
        for bounds in bounds_cases:
            each, ends = below_rows_each(seeds, starts, bounds, rows)
            assert each.shape == (len(pairs) * rows, len(bounds))
            for r, (seed, start) in enumerate(pairs):
                rng = _scalar_at(seed, start)
                want = [[rng.below(b) for b in bounds] for _ in range(rows)]
                got, end = below_rows(seed, start, bounds, rows)
                assert got.shape == (rows, len(bounds))
                assert got.tolist() == want, (seed, start, bounds, rows)
                assert each[r * rows : (r + 1) * rows].tolist() == want
                assert end == ends[r]
                assert stream_u64(seed, end, 1)[0] == rng.next_u64()
        for items in items_cases:
            got, ends = shuffled_rows(
                seeds, starts, np.array(items, dtype=np.int64), rows
            )
            assert got.shape == (len(pairs) * rows, len(items))
            for r, (seed, start) in enumerate(pairs):
                rng = _scalar_at(seed, start)
                want = []
                for _ in range(rows):
                    row = items.copy()
                    rng.shuffle(row)
                    want.append(row)
                here = got[r * rows : (r + 1) * rows]
                assert here.tolist() == want, (seed, start, items, rows)
                assert stream_u64(seed, ends[r], 1)[0] == rng.next_u64()


def test_below_rows_each_rereads_only_cut_seeds(monkeypatch):
    # With one word in 2^8 rejected, a few of 64 seeds' 8-word blocks hold
    # a rejected word: only those seeds reach the one-seed reader.
    top = MASK64 - (MASK64 >> 8)
    monkeypatch.setattr(prng, "accept_max", lambda bound: top)
    calls = record_calls(monkeypatch, prng, "below_rows")
    seeds = list(range(64))
    below_rows_each(seeds, [1] * 64, (5, 6), 4)
    cut = [s for s in seeds if (stream_u64(s, 1, 8) > top).any()]
    assert [args[0] for args, _ in calls] == cut
    assert 0 < len(cut) < 64
