"""Spanning tree packing: exact matroid-union packing and a partition brute force.

``tree_packing_number`` grows k edge-disjoint forests with the classic
augmenting-exchange algorithm for graphic matroid union: a rejected edge
triggers a breadth-first search over "evict and relocate" moves, and a
shortest augmenting chain of moves frees a slot whenever one exists. The
graph packs k spanning trees exactly when all k forests fill to n-1 edges.
A disconnected graph needs no separate check: none of its forests spans,
so the search stops by k = 1 with tau = 0.

``tree_packing_partition_bruteforce`` evaluates the partition
characterization directly: the packing number of a connected graph equals
the minimum over all vertex partitions with t >= 2 blocks of
floor(cross_edges / (t - 1)). It enumerates every partition and is guarded
at 12 vertices; the two oracles must agree wherever both run.
"""

from __future__ import annotations

from collections import deque

from ..errors import TooLarge
from ..graphs import BipartiteGraph, flat_edges, flat_vertex
from ..properties import GraphProperty
from .partitions import (
    PARTITION_GUARD,
    blocks_from_assignment,
    iter_partition_assignments,
)
from .result import ForestPacking, OracleResult, PartitionWitness


class _ForestFamily:
    """k edge-disjoint forests over a fixed edge list, with augmentation."""

    def __init__(self, n, endpoints, k):
        self.endpoints = endpoints
        self.k = k
        self.assign = {}                       # edge id -> forest id
        self.adj = [
            [[] for _ in range(n)] for _ in range(k)
        ]                                      # forest id -> vertex -> [(nbr, eid)]

    def _forest_path(self, f, u, v):
        """Edge ids along the unique u-v path in forest f, or None."""
        prev = {u: (None, None)}
        queue = deque([u])
        while queue:
            w = queue.popleft()
            if w == v:
                path = []
                while w != u:
                    p, eid = prev[w]
                    path.append(eid)
                    w = p
                return path
            for nbr, eid in self.adj[f][w]:
                if nbr not in prev:
                    prev[nbr] = (w, eid)
                    queue.append(nbr)
        return None

    def _place(self, eid, f):
        u, v = self.endpoints[eid]
        old = self.assign.get(eid)
        if old is not None:
            self.adj[old][u] = [(w, e) for w, e in self.adj[old][u] if e != eid]
            self.adj[old][v] = [(w, e) for w, e in self.adj[old][v] if e != eid]
        self.assign[eid] = f
        self.adj[f][u].append((v, eid))
        self.adj[f][v].append((u, eid))
        return old

    def try_add(self, new_eid):
        """Augment the family with one edge; True iff it fits some forest."""
        pred = {new_eid: None}
        queue = deque([new_eid])
        while queue:
            eid = queue.popleft()
            u, v = self.endpoints[eid]
            current = self.assign.get(eid)
            for f in range(self.k):
                if f == current:
                    continue
                path = self._forest_path(f, u, v)
                if path is None:
                    # Relocation chain: each move frees the cycle that was
                    # blocking its predecessor.
                    target = f
                    moving = eid
                    while True:
                        old = self._place(moving, target)
                        parent = pred[moving]
                        if parent is None:
                            break
                        moving, target = parent, old
                    return True
                for path_eid in path:
                    if path_eid not in pred:
                        pred[path_eid] = eid
                        queue.append(path_eid)
        return False

    def forests(self):
        out = [[] for _ in range(self.k)]
        for eid, f in self.assign.items():
            out[f].append(eid)
        return out


def _pack_forests(g: BipartiteGraph, k: int):
    family = _ForestFamily(g.n, flat_edges(g), k)
    for eid in range(g.m):
        family.try_add(eid)
    return family.forests()


def tree_packing_number(
    g: BipartiteGraph, k_max: int | None = None
) -> OracleResult:
    """Packing number tau, capped at k_max when given (value = min(tau, k_max)).

    The witness holds value-many edge-disjoint spanning trees. Disconnected
    graphs report 0.
    """
    n = g.n
    cap = g.m // (n - 1)
    if k_max is not None:
        cap = min(cap, k_max)  # below 1, no round runs
    best = 0
    best_forests = ()
    for k in range(1, cap + 1):
        forests = _pack_forests(g, k)
        if any(len(f) != n - 1 for f in forests):
            break
        best = k
        best_forests = tuple(
            tuple(sorted(g.edges[eid] for eid in f)) for f in forests
        )
    return OracleResult(
        GraphProperty.TREE_PACKING, best, ForestPacking(best_forests), True
    )


def tree_packing_partition_bruteforce(g: BipartiteGraph, k: int) -> OracleResult:
    """Partition characterization of tau by full enumeration (n <= 12).

    Returns min over partitions with t >= 2 of floor(e(pi) / (t - 1)); when
    that value is below k the witness is a violating partition.
    """
    n = g.n
    if n > PARTITION_GUARD:
        raise TooLarge(f"partition brute force guarded at {PARTITION_GUARD}")
    edges = flat_edges(g)
    best = None
    best_assignment = None
    for assignment in iter_partition_assignments(n):
        t = max(assignment) + 1
        if t < 2:
            continue
        crossing = sum(1 for u, v in edges if assignment[u] != assignment[v])
        value = crossing // (t - 1)
        if best is None or value < best:
            best = value
            best_assignment = assignment.copy()
    witness = None
    if best is not None and best < k:
        verts = [flat_vertex(g, fid) for fid in range(n)]
        witness = PartitionWitness(
            removed=(), blocks=blocks_from_assignment(verts, best_assignment)
        )
    return OracleResult(GraphProperty.TREE_PACKING, best or 0, witness, True)
