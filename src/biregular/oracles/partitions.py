"""Set-partition enumeration used by the brute-force partition oracles.

Partitions are enumerated as restricted growth strings: assignment a with
a[0] = 0 and a[i] <= 1 + max(a[:i]), in lexicographic order. A running
prefix maximum finds the position to increment without rescanning a, and
the last position runs through its range in one inner loop. Bell numbers
explode (Bell(12) is already 4.2 million), so callers guard their input
sizes; the helper here enforces a hard ceiling of 12 items.
"""

from __future__ import annotations

from typing import Iterator

from ..errors import TooLarge

PARTITION_GUARD = 12


def iter_partition_assignments(n: int) -> Iterator[list[int]]:
    """Yield every restricted growth string of length n.

    The yielded list is reused between iterations; copy it if you keep it.
    """
    if n > PARTITION_GUARD:
        raise TooLarge(f"partition enumeration guarded at {PARTITION_GUARD}")
    if n <= 1:
        yield [0] * n
        return
    a = [0] * n
    top = [0] * (n - 1)  # top[i] = max(a[:i + 1])
    while True:
        for last in range(top[-1] + 2):
            a[-1] = last
            yield a
        j = n - 2
        while j > 0 and a[j] > top[j - 1]:
            j -= 1
        if j == 0:
            return
        a[j] += 1
        a[j + 1 :] = [0] * (n - 1 - j)
        top[j:] = [max(top[j - 1], a[j])] * (n - 1 - j)


def blocks_from_assignment(items, assignment) -> tuple[tuple, ...]:
    """Group items by their assignment label, blocks ordered by first label."""
    count = max(assignment) + 1 if assignment else 0
    blocks = [[] for _ in range(count)]
    for item, label in zip(items, assignment):
        blocks[label].append(item)
    return tuple(tuple(b) for b in blocks)
