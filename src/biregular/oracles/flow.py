"""Exact edge and vertex connectivity via unit-capacity blocking flows.

Edge connectivity runs one Dinic computation from a fixed source to every
other sink; the global minimum cut must separate the source from something.
Vertex connectivity splits each vertex into an in/out pair joined by a
unit arc and minimizes flow over non-adjacent ordered-up pairs whose lower
vertex is one of v_0..v_kappa, Even's (1975) source bound: at most
delta (n - 1) + 1 flows instead of about n^2 / 2 (guarded at 512
vertices). The bound only cuts the pair order short after its first
minimum pair, so the witness is the one the all-pairs scan finds. Both
oracles return a witness extracted from the final residual graph. Flows
toward sinks that cannot improve the running minimum are cut off early;
the witness flow is recomputed uncapped.
"""

from __future__ import annotations

from collections import deque

from ..errors import TooLarge, TooSmall
from ..graphs import (
    BipartiteGraph,
    connected_components,
    flat_adjacency,
    flat_vertex,
)
from ..properties import GraphProperty
from .result import EdgeCut, OracleResult, Separator

VERTEX_CONN_GUARD = 512


class _Dinic:
    """Adjacency-array Dinic; arcs are stored in residual pairs (a, a^1)."""

    def __init__(self, n):
        self.n = n
        self.to = []
        self.cap = []
        self.adj = [[] for _ in range(n)]
        self.level = [0] * n
        self.it = [0] * n

    def add_edge(self, u, v, cap, rcap=0):
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(rcap)

    def snapshot(self):
        return self.cap.copy()

    def restore(self, caps):
        self.cap = caps.copy()

    def _bfs(self, s, t):
        self.level = [-1] * self.n
        self.level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for a in self.adj[u]:
                v = self.to[a]
                if self.cap[a] > 0 and self.level[v] < 0:
                    self.level[v] = self.level[u] + 1
                    queue.append(v)
        return self.level[t] >= 0

    def _augment_once(self, s, t):
        # Iterative advance/retreat along the level graph; all bottlenecks
        # here are 1 because every constraining arc has unit capacity.
        path = []
        u = s
        while True:
            if u == t:
                push = min(self.cap[a] for a in path)
                for a in path:
                    self.cap[a] -= push
                    self.cap[a ^ 1] += push
                return push
            advanced = False
            while self.it[u] < len(self.adj[u]):
                a = self.adj[u][self.it[u]]
                v = self.to[a]
                if self.cap[a] > 0 and self.level[v] == self.level[u] + 1:
                    path.append(a)
                    u = v
                    advanced = True
                    break
                self.it[u] += 1
            if not advanced:
                self.level[u] = -1
                if not path:
                    return 0
                a = path.pop()
                u = self.to[a ^ 1]
                self.it[u] += 1

    def max_flow(self, s, t, limit=None):
        flow = 0
        while limit is None or flow < limit:
            if not self._bfs(s, t):
                break
            self.it = [0] * self.n
            while limit is None or flow < limit:
                pushed = self._augment_once(s, t)
                if pushed == 0:
                    break
                flow += pushed
        return flow

    def residual_reachable(self, s):
        seen = [False] * self.n
        seen[s] = True
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for a in self.adj[u]:
                v = self.to[a]
                if self.cap[a] > 0 and not seen[v]:
                    seen[v] = True
                    queue.append(v)
        return seen


def edge_connectivity(g: BipartiteGraph) -> OracleResult:
    """Exact kappa' with a minimum edge cut as witness.

    Disconnected graphs (and the degenerate single vertex) report 0 with an
    empty cut.
    """
    n = g.n
    if n < 2 or len(connected_components(g)) > 1:
        return OracleResult(
            GraphProperty.EDGE_CONNECTIVITY, 0, EdgeCut(()), True
        )
    net = _Dinic(n)
    for xi, yj in g.edges:
        net.add_edge(xi, g.x_count + yj, 1, 1)
    base = net.snapshot()
    degs = [len(lst) for lst in flat_adjacency(g)]
    best = min(degs)
    best_t = None
    for t in range(1, n):
        net.restore(base)
        f = net.max_flow(0, t, limit=best)
        if f < best:
            best = f
            best_t = t
    if best_t is None:
        # Every sink saw at least min-degree flow, so the trivial cut
        # around a minimum-degree vertex is optimal.
        v = degs.index(best)
        if v < g.x_count:
            cut = tuple(e for e in g.edges if e[0] == v)
        else:
            cut = tuple(e for e in g.edges if e[1] == v - g.x_count)
    else:
        net.restore(base)
        flow = net.max_flow(0, best_t)
        reach = net.residual_reachable(0)
        cut = tuple(
            (xi, yj)
            for xi, yj in g.edges
            if reach[xi] != reach[g.x_count + yj]
        )
        assert len(cut) == flow == best
    return OracleResult(GraphProperty.EDGE_CONNECTIVITY, best, EdgeCut(cut), True)


def _vertex_cut(g: BipartiteGraph, adj, bound: int):
    """min(kappa, bound) and, when kappa < bound, a minimum separator.

    Returns ``(value, separator)`` with the separator as sorted flat ids, or
    ``None`` when no non-adjacent pair has flow below ``bound``. Sources
    stop at v_(best-1), after Even (1975): while kappa < best, a minimum
    separator S misses some v_i with i <= |S| = kappa < best, and every
    vertex across S from v_i has a higher id. The visited pairs are thus a
    prefix of the full ordered-up scan that holds its first minimum pair,
    so the witness is that scan's.
    """
    n = g.n
    if n < 3:
        raise TooSmall("vertex connectivity needs at least 3 vertices")
    if n > VERTEX_CONN_GUARD:
        raise TooLarge(f"vertex connectivity guarded at {VERTEX_CONN_GUARD}")
    if len(connected_components(g)) > 1:
        return 0, ()
    adj_sets = [set(lst) for lst in adj]
    inf = n + 1
    net = _Dinic(2 * n)
    for v in range(n):
        net.add_edge(2 * v, 2 * v + 1, 1)
    for xi, yj in g.edges:
        u, w = xi, g.x_count + yj
        net.add_edge(2 * u + 1, 2 * w, inf)
        net.add_edge(2 * w + 1, 2 * u, inf)
    base = net.snapshot()

    best = bound
    best_pair = None
    for u in range(n):
        if u >= best:
            break
        for w in range(u + 1, n):
            if w in adj_sets[u]:
                continue
            net.restore(base)
            f = net.max_flow(2 * u + 1, 2 * w, limit=best)
            if f < best:
                best = f
                best_pair = (u, w)
    if best_pair is None:
        return best, None
    u, w = best_pair
    net.restore(base)
    flow = net.max_flow(2 * u + 1, 2 * w)
    reach = net.residual_reachable(2 * u + 1)
    sep = tuple(v for v in range(n) if reach[2 * v] and not reach[2 * v + 1])
    assert len(sep) == flow == best
    return best, sep


def vertex_connectivity(g: BipartiteGraph) -> OracleResult:
    """Exact kappa with a minimum separator as witness.

    Minimizes split-network flow over non-adjacent pairs whose lower vertex
    is among v_0..v_kappa (Even's bound). Bipartite graphs on 3+ vertices
    always have a non-adjacent same-part pair, so the complete-bipartite
    convention kappa(K_{m,n}) = min(m, n) falls out of the flow itself.
    The bound only drops pairs after the first minimum one, so the
    separator is the one the all-pairs scan returns.
    """
    adj = flat_adjacency(g)
    degs = [len(lst) for lst in adj]
    low = degs.index(min(degs))
    kappa, sep = _vertex_cut(g, adj, degs[low])
    if sep is None:
        # No pair beat the minimum degree: the neighborhood of a
        # minimum-degree vertex is an optimal separator.
        sep = tuple(sorted(adj[low]))
    witness = Separator(tuple(flat_vertex(g, v) for v in sep))
    return OracleResult(GraphProperty.VERTEX_CONNECTIVITY, kappa, witness, True)
