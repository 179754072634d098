"""Set-partition enumeration and the partition brute forces for tree and
rigid packing: test references, which the package does not use.

Partitions are restricted growth strings: assignment a with a[0] = 0 and
a[i] <= 1 + max(a[:i]). ``partition_blocks`` yields them as int8 tables,
one string per row, grown a column at a time: each row's children take
the labels 0..max+1 in increasing order, so the rows come out in
lexicographic order. That order is part of every witness: the tree brute
force reports the first partition reaching the minimum and the sufficient
check the first violating one. Bell numbers explode (Bell(12) is already
4.2 million), so a table past ``_BLOCK_ROWS`` rows is split and each part
grown on its own, and enumeration has a hard ceiling of 12 items.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import Iterator

import numpy as np

from biregular.errors import TooLarge, check_k
from biregular.graphs import BipartiteGraph, flat_adjacency, flat_edges, flat_vertex
from biregular.oracles import OracleResult

PARTITION_GUARD = 12
PARTITION_SUFFICIENT_GUARD = 9
_BLOCK_ROWS = 1 << 11


# A removed set and a partition of the rest violating some bound.
PartitionWitness = namedtuple("PartitionWitness", "removed blocks")


def partition_blocks(m: int) -> Iterator[np.ndarray]:
    """Yield int8 tables whose rows, in order, are every restricted growth
    string of length m in lexicographic order."""
    if m > PARTITION_GUARD:
        raise TooLarge(f"partition enumeration guarded at {PARTITION_GUARD}")
    table = np.zeros((1, min(m, 1)), dtype=np.int8)
    yield from _grow(table, m)


def _grow(table, m):
    while table.shape[1] < m:
        if len(table) > _BLOCK_ROWS:
            for start in range(0, len(table), _BLOCK_ROWS):
                yield from _grow(table[start : start + _BLOCK_ROWS], m)
            return
        children = table.max(axis=1).astype(np.intp) + 2
        parent = np.repeat(np.arange(len(table)), children)
        first = np.repeat(np.cumsum(children) - children, children)
        labels = (np.arange(len(parent)) - first).astype(np.int8)
        table = np.column_stack((table[parent], labels))
    yield table


def iter_partition_assignments_reference(n: int, prefix=()):
    """Restricted growth strings of length n, depth first: each position
    takes the labels 0..max(prefix)+1 in increasing order.

    The row order ``partition_blocks`` must keep, its tables joined. Yields
    fresh lists.
    """
    if len(prefix) == n:
        yield list(prefix)
        return
    for label in range(max(prefix, default=-1) + 2):
        yield from iter_partition_assignments_reference(n, prefix + (label,))


def blocks_from_assignment(items, assignment) -> tuple[tuple, ...]:
    """Group items by their assignment label, blocks ordered by first label."""
    blocks = [[] for _ in range(max(assignment) + 1)]
    for item, label in zip(items, assignment):
        blocks[label].append(item)
    return tuple(tuple(b) for b in blocks)


def _crossings(table, edges):
    """Per row of ``table``, the edges whose ends carry different labels."""
    count = np.zeros(len(table), dtype=np.intp)
    for u, v in edges:
        count += table[:, u] != table[:, v]
    return count


def tree_packing_partition_bruteforce(g: BipartiteGraph, k: int) -> OracleResult:
    """Partition characterization of tau by full enumeration (n <= 12).

    Returns min over partitions with t >= 2 of floor(e(pi) / (t - 1)); when
    that value is below k the witness is a violating partition, the first
    one reaching the minimum.
    """
    k = check_k(k)
    n = g.n
    if n > PARTITION_GUARD:
        raise TooLarge(f"partition brute force guarded at {PARTITION_GUARD}")
    edges = flat_edges(g)
    best = best_row = None
    for table in partition_blocks(n):
        parts = table.max(axis=1).astype(np.intp)  # t - 1
        values = _crossings(table, edges) // np.maximum(parts, 1)
        # The one-block row is not ranged over; n >= 2 leaves others.
        values[parts == 0] = len(edges) + 1
        i = int(np.argmin(values))
        if best is None or values[i] < best:
            best, best_row = int(values[i]), table[i]
    witness = None
    if best < k:
        verts = [flat_vertex(g, fid) for fid in range(n)]
        witness = PartitionWitness(
            removed=(), blocks=blocks_from_assignment(verts, best_row.tolist())
        )
    return OracleResult(best, witness)


def _outside_z(edges, adj, z_set, rest):
    """Edges of g - Z as index pairs into ``rest``, and each rest vertex's
    number of Z-neighbors: the inputs of the partition inequality that
    depend only on Z."""
    index_of = {v: i for i, v in enumerate(rest)}
    live = [
        (index_of[u], index_of[v])
        for u, v in edges
        if u not in z_set and v not in z_set
    ]
    zdeg = [sum(1 for w in adj[v] if w in z_set) for v in rest]
    return live, zdeg


def _partition_sides(k, z_size, live, zdeg, table):
    """(lhs, rhs) of the partition inequality for each row of ``table``, a
    block labelling of the rest, with ``live`` and ``zdeg`` from
    ``_outside_z``."""
    t = table.max(axis=1).astype(np.intp) + 1
    sizes = (table[:, :, None] == np.arange(table.shape[1])).sum(axis=1)
    n0 = (sizes == 1).sum(axis=1)
    alone = np.take_along_axis(sizes, table, axis=1) == 1
    nz = alone @ np.asarray(zdeg, dtype=np.intp)
    rhs = k * (3 - z_size) * (t - n0) + 2 * k * n0 - 3 * k - nz
    return _crossings(table, live), rhs


def rigid_packing_partition_bound(g: BipartiteGraph, k: int, removed, partition):
    """(lhs, rhs) of the partition inequality for k rigid-subgraph packings.

    With Z the removed set and pi a partition of the rest having n0 trivial
    and n0' nontrivial blocks:

        lhs = cross-block edges of pi in g - Z
        rhs = k (3 - |Z|) n0' + 2 k n0 - 3 k - n_Z(pi)

    where n_Z(pi) sums, over trivial blocks {v}, the number of Z-vertices
    adjacent to v. The inequality lhs >= rhs for every choice of (Z, pi) is
    sufficient for k edge-disjoint spanning rigid subgraphs. Counted in one
    scalar pass over the edges of g, for a valid (Z, pi).
    """
    z = set(removed)
    label = {v: i for i, block in enumerate(partition) for v in block}
    single = {block[0] for block in partition if len(block) == 1}
    lhs = nz = 0
    for xi, yj in g.edges:
        u, w = ("x", xi), ("y", yj)
        if u in z or w in z:
            # A Z-vertex is in no block, so only the other end can count.
            nz += (u in single) + (w in single)
        else:
            lhs += label[u] != label[w]
    n0 = len(single)
    rhs = k * (3 - len(z)) * (len(partition) - n0) + 2 * k * n0 - 3 * k - nz
    return lhs, rhs


def rigid_packing_partition_sufficient(g: BipartiteGraph, k: int) -> OracleResult:
    """Check the partition inequality over all |Z| <= 2 and all partitions.

    value 1 (all hold): the bounded check found no violation; for graphs
    within the guard this implies k edge-disjoint spanning rigid subgraphs.
    value 0: some (Z, pi) violates the inequality and is returned as the
    witness, the first partition that does for the first such Z; the
    condition is only sufficient, so this refutes nothing.
    """
    k = check_k(k)
    n = g.n
    if n > PARTITION_SUFFICIENT_GUARD:
        raise TooLarge(
            f"partition check guarded at {PARTITION_SUFFICIENT_GUARD} vertices"
        )
    edges, adj = flat_edges(g), flat_adjacency(g)
    for z_size in range(min(2, n - 1) + 1):
        for z_combo in itertools.combinations(range(n), z_size):
            z_set = set(z_combo)
            rest = [v for v in range(n) if v not in z_set]
            live, zdeg = _outside_z(edges, adj, z_set, rest)
            for table in partition_blocks(len(rest)):
                lhs, rhs = _partition_sides(k, z_size, live, zdeg, table)
                violated = np.flatnonzero(lhs < rhs)
                if violated.size:
                    verts = [flat_vertex(g, v) for v in rest]
                    row = table[violated[0]].tolist()
                    witness = PartitionWitness(
                        removed=tuple(flat_vertex(g, v) for v in z_combo),
                        blocks=blocks_from_assignment(verts, row),
                    )
                    return OracleResult(0, witness)
    return OracleResult(1, None)
