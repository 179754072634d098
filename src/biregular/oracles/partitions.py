"""Set-partition enumeration used by the brute-force partition oracles.

Partitions are enumerated as restricted growth strings: assignment a with
a[0] = 0 and a[i] <= 1 + max(a[:i]). Bell numbers explode (Bell(12) is
already 4.2 million), so callers guard their input sizes; the helper here
enforces a hard ceiling of 12 items.
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
    if n == 0:
        yield []
        return
    a = [0] * n
    while True:
        yield a
        j = n - 1
        while j > 0:
            if a[j] < max(a[:j]) + 1:
                break
            j -= 1
        if j == 0:
            return
        a[j] += 1
        for i in range(j + 1, n):
            a[i] = 0


def blocks_from_assignment(items, assignment) -> tuple[tuple, ...]:
    """Group items by their assignment label, blocks ordered by first label."""
    count = max(assignment) + 1 if assignment else 0
    blocks = [[] for _ in range(count)]
    for item, label in zip(items, assignment):
        blocks[label].append(item)
    return tuple(tuple(b) for b in blocks)
