"""Spanning tree packing by exact graphic matroid union.

``tree_packing_number`` grows k edge-disjoint forests with the classic
augmenting-exchange algorithm for graphic matroid union: a rejected edge
triggers a breadth-first search over "evict and relocate" moves, and a
shortest augmenting chain of moves frees a slot whenever one exists. The
graph packs k spanning trees exactly when all k forests fill to n-1 edges.

Round k's forests depend only on g and k, and a graph that packs k trees
packs fewer, so the rounds run down from the cap min(m // (n - 1), k_max)
and the first that packs settles tau. A disconnected graph needs no
separate check: none of its forests spans, so every round fails and
tau = 0.

Three facts skip searches whose answer is already known; the forests
they build are the ones the full search builds.

- Each forest keeps its components in a union-find, so "does forest f
  join u and v?" needs no search, and a path is searched only when it
  does. A forest holds one u-v path, so climbing its parent links from u
  and then from v gives the breadth-first search's path in the same
  order. The components change only in the forest that ends a chain, by
  the union of the last edge's endpoints (span invariance, Roskind and
  Tarjan 1985). Every other move puts an edge x into a forest j that
  joined x's endpoints when the search began and evicts an edge of that
  path. So each edge put into j lies in j's span, j's edge count is
  unchanged, and the shortest chain leaves j a forest: the new j has the
  same span, that is the same components. The forest that ends the
  chain gains one edge between two of its components, and the same
  count over its span plus that edge merges those two and nothing else.
  An edge with a free forest is placed with no search at all, so a
  k = 1 round is Kruskal's algorithm.
- Common-component rejection. When u and v lie in one vertex set U that
  is their component in every one of the k forests, the edge is rejected
  without a search: the search starts inside U, every forest path between
  two vertices of U stays inside U, and every edge it reaches is joined
  in all k forests, so no chain ends. The k forests already hold
  k(|U| - 1) edges inside U, the most k forests can hold there (the
  Nash-Williams count), so the rejection is a proof. The test costs
  O(k |U|) against the O(k m n) of the search it replaces.
- A round stops once settled: after k(n-1) accepted edges every forest
  is a spanning tree and rejects every later edge unchanged, so the trees
  are returned; after more than m - k(n-1) rejections, each edge being
  offered once, the family can no longer fill, so the round fails.
"""

from __future__ import annotations

from collections import deque

from ..errors import check_k
from ..graphs import BipartiteGraph, flat_edges
from .result import ForestPacking, OracleResult


class _ForestFamily:
    """k edge-disjoint forests over a fixed edge list, with augmentation."""

    def __init__(self, n, endpoints, k):
        self.endpoints = endpoints
        self.k = k
        self.assign = {}                       # edge id -> forest id
        self.up = [[None] * n for _ in range(k)]  # forest -> vertex -> (parent, eid)
        # Union-find by size with a label per vertex: a find is one lookup.
        self.comp = [list(range(n)) for _ in range(k)]   # forest -> vertex -> label
        self.members = [
            [[w] for w in range(n)] for _ in range(k)
        ]                                      # forest -> label -> vertices

    def _union(self, f, u, v):
        comp, members = self.comp[f], self.members[f]
        a, b = comp[u], comp[v]
        if len(members[a]) < len(members[b]):
            a, b = b, a
        for w in members[b]:
            comp[w] = a
        members[a] += members[b]
        members[b] = None

    def _common_component(self, u, v):
        """True iff u and v share one component in every forest."""
        first = self.members[0][self.comp[0][u]]
        for comp, members in zip(self.comp, self.members):
            label = comp[u]
            if comp[v] != label or len(members[label]) != len(first):
                return False
        return all(
            comp[w] == comp[u] for comp in self.comp[1:] for w in first
        )

    def _forest_path(self, f, u, v):
        """Edge ids on forest f's u-v path (f joins u and v), from v's end."""
        up, climb, depth = self.up[f], [], {u: 0}   # depth: ancestor -> steps from u
        while up[u] is not None:
            u, eid = up[u]
            climb.append(eid)
            depth[u] = len(climb)
        path = []
        while v not in depth:
            v, eid = up[v]
            path.append(eid)
        return path + climb[: depth[v]][::-1]

    def _place(self, eid, f):
        """Move edge eid into forest f: re-root u's tree at u, hang it on v."""
        u, v = self.endpoints[eid]
        old = self.assign.get(eid)
        if old is not None:
            up = self.up[old]
            up[u if up[u] == (v, eid) else v] = None
        self.assign[eid] = f
        up, w, link = self.up[f], u, (v, eid)
        while link is not None:
            up[w], link = link, up[w]
            if link is not None:
                w, link = link[0], (w, link[1])
        return old

    def try_add(self, new_eid):
        """Augment the family with one edge; True iff it fits some forest."""
        if self._common_component(*self.endpoints[new_eid]):
            return False
        pred = {new_eid: None}
        queue = deque([new_eid])
        while queue:
            eid = queue.popleft()
            u, v = self.endpoints[eid]
            current = self.assign.get(eid)
            others = [f for f in range(self.k) if f != current]
            free = [f for f in others if self.comp[f][u] != self.comp[f][v]]
            if free:
                # Relocation chain: each move frees the cycle that was
                # blocking its predecessor. Only the first free forest
                # changes its components.
                target = free[0]
                self._union(target, u, v)
                moving = eid
                while True:
                    old = self._place(moving, target)
                    parent = pred[moving]
                    if parent is None:
                        break
                    moving, target = parent, old
                return True
            for f in others:
                for path_eid in self._forest_path(f, u, v):
                    if path_eid not in pred:
                        pred[path_eid] = eid
                        queue.append(path_eid)
        return False

    def forests(self):
        out = [[] for _ in range(self.k)]
        for eid, f in self.assign.items():
            out[f].append(eid)
        return out


def _spanning_trees(g: BipartiteGraph, k: int):
    """k edge-disjoint spanning trees as sorted edge tuples, or None.

    Returns the trees once the family holds k(n-1) edges, and None once it
    cannot: at the first rejection past the m - k(n-1) a packing affords,
    or when the edges run out.
    """
    family = _ForestFamily(g.n, flat_edges(g), k)
    need = k * (g.n - 1)
    spare = g.m - need                         # rejections a packing affords
    for eid in range(g.m):
        if family.try_add(eid):
            need -= 1
            if need == 0:
                return tuple(
                    tuple(sorted(g.edges[e] for e in f)) for f in family.forests()
                )
        else:
            spare -= 1
            if spare < 0:
                return None
    return None


def tree_packing_number(
    g: BipartiteGraph, k_max: int | None = None
) -> OracleResult:
    """Packing number tau, capped at k_max when given (value = min(tau, k_max)).

    The witness holds value-many edge-disjoint spanning trees. Disconnected
    graphs report 0. Round k packs exactly when tau >= k, so rounds run
    down from the cap min(m // (n - 1), k_max), and the first that packs
    is the answer: a cap that packs settles tau in one round.
    A given k_max must be a positive integer (InvalidParam otherwise).
    """
    cap = g.m // (g.n - 1)
    if k_max is not None:
        cap = min(cap, check_k(k_max))
    for k in range(cap, 0, -1):
        trees = _spanning_trees(g, k)
        if trees is not None:
            return OracleResult(k, ForestPacking(trees))
    return OracleResult(0, ForestPacking(()))
