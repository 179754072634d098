"""Exact edge and vertex connectivity via unit augmenting paths.

Each flow pushes one unit per breadth-first augmenting path (Edmonds &
Karp 1972), capped at the running minimum. Vertex flows run in a split
network: each vertex becomes an in/out pair joined by a unit arc.

Each oracle makes one decision, "connectivity >= delta", and runs at
most one scan after it. Connectivity never exceeds delta, so a passed
test settles the value at delta; otherwise one delta-capped scan finds
the value and the witness. kappa' and, for delta >= 4, kappa are decided
by a few delta-capped flows from one vertex of a part, because
bipartiteness pins where a cut below the minimum degree falls; kappa with
delta <= 3 by depth-first search (below).

- kappa' (Matula 1987). If kappa' < delta, each side A of a minimum cut
  holds a vertex with its whole neighborhood in A: otherwise the cut has
  at least |A| edges, so |A| < delta, and then it has at least
  |A| (delta - |A| + 1) >= delta edges. Such a vertex is in, or next to,
  any dominating set D, so D meets both sides, and the flow from any
  vertex of D to some other one is below delta. Without isolated
  vertices each part dominates, so flows from the first vertex of the
  smaller part to the rest of it decide kappa' >= delta; with delta = 0
  it holds anyway.
- kappa, delta >= 4 (after Esfahanian and Hakimi 1984). If kappa < delta,
  no component of G - S for a minimum separator S is a lone vertex, whose
  delta or more neighbors would all be in S; so every component holds an
  edge and a vertex of each part. Take the lowest vertex v of a part P.
  If v is outside S, some w in P lies across S from it. If v is in S, it
  has neighbors in two components (else S - v still separates). So kappa
  >= delta exactly when the flows from v to the rest of P and between
  every pair of v's neighbors all reach delta: (|P| - 1) + C(deg v, 2)
  flows, on the part where that count is smaller. Same-part pairs are
  never adjacent.

When the test holds, the witness is the trivial one at the first
minimum-degree vertex: its edges, or its neighborhood. Otherwise the one
scan below runs, so every value and witness is the one it gives:

- kappa': one flow from vertex 0 to every other sink; the global minimum
  cut must separate vertex 0 from something.
- kappa: delta-capped flows over non-adjacent ordered-up pairs whose
  lower vertex is one of v_0..v_kappa, Even's (1975) source bound: at
  most delta (n - 1) flows instead of about n^2 / 2 (guarded at 512
  vertices). The bound only cuts the pair order short after its first
  minimum pair, so the witness is the one the all-pairs scan finds.

Each witness is read from the residual-reachable set left by the last,
failed search of the flow that set the minimum; every maximum flow leaves
the same set.

A disconnected graph needs no separate check: the flow from v_0 to a vertex
outside its component is 0, and what v_0 reaches is its whole component
(both halves of each vertex in the split network), so the cut or separator
read from it is empty. With an isolated vertex the min-degree fallbacks
give the same empty witness.

min(kappa, 3) needs no flow. One lowpoint depth-first search (Tarjan 1972)
finds a cut vertex, so it tells kappa 0, 1 and at least 2 apart; for
n >= 4, kappa >= 3 holds exactly when every G - v is connected with no cut
vertex, one more search each. Graphs with more than 3(n - 1) edges are
first thinned to the union of three scan-first (breadth-first) forests,
each grown in the graph minus the earlier ones (Cheriyan, Kao and
Thurimella 1993): that union has min(kappa, 3) equal to G's and at most
3(n - 1) edges. ``vertex_connectivity`` decides kappa >= delta this way
when delta <= 3; ``is_globally_rigid`` needs no witness and runs no flow.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from math import comb

from ..errors import TooLarge, TooSmall
from ..graphs import BipartiteGraph, flat_adjacency, flat_edges, flat_vertex
from ..properties import GraphProperty
from .result import EdgeCut, OracleResult, Separator

VERTEX_CONN_GUARD = 512


class _Network:
    """Residual network; arcs are stored in residual pairs (a, a^1)."""

    def __init__(self, n):
        self.to = []
        self.cap = []
        self.adj = [[] for _ in range(n)]

    def add_edge(self, u, v, cap, rcap=0):
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(rcap)

    def flow(self, s, t, limit):
        """Push up to ``limit`` units s -> t, one per shortest residual path.

        Leaves the network unchanged. Returns ``(flow, reached)``, where
        ``reached`` marks what s reaches once a search fails (flow < limit)
        and is None when the cap stopped the flow.
        """
        cap = self.cap.copy()
        adj, to = self.adj, self.to
        flow = 0
        while flow < limit:
            via = [None] * len(adj)             # vertex -> arc it was reached by
            via[s] = -1
            queue = deque([s])
            while queue and via[t] is None:
                u = queue.popleft()
                for a in adj[u]:
                    v = to[a]
                    if cap[a] > 0 and via[v] is None:
                        via[v] = a
                        if v == t:
                            break
                        queue.append(v)
            if via[t] is None:
                return flow, [a is not None for a in via]
            v = t
            while v != s:
                a = via[v]
                cap[a] -= 1
                cap[a ^ 1] += 1
                v = to[a ^ 1]
            flow += 1
        return flow, None


def edge_connectivity(g: BipartiteGraph) -> OracleResult:
    """Exact kappa' with a minimum edge cut as witness.

    Flows capped at delta from the first vertex of the smaller part to the
    rest of it decide kappa' >= delta (Matula's dominating-set argument);
    then the cut is the trivial one at the first minimum-degree vertex.
    Otherwise one flow runs from vertex 0 to every other sink. Disconnected
    graphs report 0 with an empty cut.
    """
    n = g.n
    flat = flat_edges(g)
    net = _Network(n)
    for u, v in flat:
        net.add_edge(u, v, 1, 1)
    degs = [len(lst) for lst in g.adj_x + g.adj_y]
    best = min(degs)
    reach = None
    x = g.x_count
    part = range(x) if x <= g.y_count else range(x, n)
    if any(net.flow(part[0], t, best)[0] < best for t in part[1:]):
        for t in range(1, n):
            f, reached = net.flow(0, t, best)
            if f < best:
                best = f
                reach = reached
    if reach is None:
        # Every sink saw at least min-degree flow, so the trivial cut
        # around a minimum-degree vertex is optimal.
        low = degs.index(best)
        reach = [v == low for v in range(n)]
    cut = tuple(e for e, (u, v) in zip(g.edges, flat) if reach[u] != reach[v])
    assert len(cut) == best
    return OracleResult(GraphProperty.EDGE_CONNECTIVITY, best, EdgeCut(cut), True)


def _check_size(n):
    if n < 3:
        raise TooSmall("vertex connectivity needs at least 3 vertices")
    if n > VERTEX_CONN_GUARD:
        raise TooLarge(f"vertex connectivity guarded at {VERTEX_CONN_GUARD}")


def _split_network(g: BipartiteGraph):
    """Split network: v_in = 2v and v_out = 2v + 1 joined by a unit arc,
    each edge as uncapacitated arcs u_out -> w_in and w_out -> u_in. The
    size guards run before anything is built."""
    n = g.n
    _check_size(n)
    inf = n + 1
    net = _Network(2 * n)
    for v in range(n):
        net.add_edge(2 * v, 2 * v + 1, 1)
    for u, w in flat_edges(g):
        net.add_edge(2 * u + 1, 2 * w, inf)
        net.add_edge(2 * w + 1, 2 * u, inf)
    return net


def _kappa_at_least_delta(g: BipartiteGraph, adj, delta: int) -> bool:
    """Whether kappa >= delta, for delta >= 4, from (|P| - 1) + C(deg v, 2)
    flows: v the lowest vertex of the part P where that count is smaller
    (see the module docstring)."""
    x = g.x_count
    parts = (range(x), range(x, g.n))
    part = min(parts, key=lambda p: len(p) - 1 + comb(len(adj[p[0]]), 2))
    v = part[0]
    pairs = [*((v, w) for w in part[1:]), *combinations(adj[v], 2)]
    net = _split_network(g)
    return all(net.flow(2 * s + 1, 2 * t, delta)[0] == delta for s, t in pairs)


def _vertex_cut(g: BipartiteGraph, adj, bound: int):
    """``(kappa, separator)``, the separator as sorted flat ids, when
    kappa < bound: some non-adjacent pair then has flow below ``bound``.

    Sources stop at v_(best-1), after Even (1975): while kappa < best, a
    minimum separator S misses some v_i with i <= |S| = kappa < best, and
    every vertex across S from v_i has a higher id. The visited pairs are
    thus a prefix of the full ordered-up scan that holds its first minimum
    pair, so the witness is that scan's.
    """
    n = g.n
    net = _split_network(g)
    adj_sets = [set(lst) for lst in adj]
    best = bound
    for u in range(n):
        if u >= best:
            break
        for w in range(u + 1, n):
            if w in adj_sets[u]:
                continue
            f, reached = net.flow(2 * u + 1, 2 * w, best)
            if f < best:
                best = f
                reach = reached
    sep = tuple(v for v in range(n) if reach[2 * v] and not reach[2 * v + 1])
    assert len(sep) == best
    return best, sep


def _three_forests(adj):
    """Union of three scan-first forests, each grown in the graph minus the
    earlier ones, as sorted adjacency lists (Cheriyan, Kao and Thurimella
    1993). Each forest is breadth-first from the lowest unreached vertex,
    neighbors in list order."""
    n = len(adj)
    rest = adj
    union = [[] for _ in range(n)]
    for _ in range(3):
        seen = [False] * n
        tree = [set() for _ in range(n)]
        for root in range(n):
            if seen[root]:
                continue
            seen[root] = True
            queue = [root]
            for u in queue:
                for w in rest[u]:
                    if not seen[w]:
                        seen[w] = True
                        tree[u].add(w)
                        tree[w].add(u)
                        queue.append(w)
        rest = [[w for w in rest[v] if w not in tree[v]] for v in range(n)]
        for v in range(n):
            union[v].extend(tree[v])
    return [sorted(lst) for lst in union]


def _blocks(adj, skip):
    """0 if G - skip is disconnected, 1 if it has a cut vertex, else 2.

    One iterative lowpoint search (Tarjan 1972); ``skip`` = -1 removes
    nothing. The removed vertex counts as discovered last, so it never
    lowers a lowpoint.
    """
    n = len(adj)
    disc = [0] * n                      # discovery order from 1; 0 = unseen
    if skip >= 0:
        disc[skip] = n + 1
    root = 1 if skip == 0 else 0
    disc[root] = 1
    low = disc.copy()
    seen = 1
    cut = False
    root_children = 0
    stack = [(root, iter(adj[root]))]
    while stack:
        v, nbrs = stack[-1]
        for w in nbrs:
            if not disc[w]:
                seen += 1
                disc[w] = low[w] = seen
                stack.append((w, iter(adj[w])))
                break
            if disc[w] < low[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            if not stack:
                break
            u = stack[-1][0]
            if u == root:
                root_children += 1
            elif low[v] >= disc[u]:
                cut = True
            if low[v] < low[u]:
                low[u] = low[v]
    if seen < n - (skip >= 0):
        return 0
    return 1 if cut or root_children > 1 else 2


def _connectivity_upto3(adj) -> int:
    """min(kappa, 3) with no flow, for a bipartite graph on 3+ vertices."""
    n = len(adj)
    _check_size(n)
    if sum(map(len, adj)) > 6 * (n - 1):
        adj = _three_forests(adj)
    kappa = _blocks(adj, -1)
    if kappa < 2 or min(map(len, adj)) < 3:
        # kappa <= delta, so delta <= 2 leaves "at least 2" at exactly 2.
        return kappa
    return 3 if all(_blocks(adj, v) == 2 for v in range(n)) else 2


def vertex_connectivity(g: BipartiteGraph) -> OracleResult:
    """Exact kappa with a minimum separator as witness.

    One decision settles kappa >= delta: ``_connectivity_upto3`` by
    depth-first search when delta <= 3, ``_kappa_at_least_delta`` by flows
    from one part's lowest vertex to the rest of the part and between its
    neighbors otherwise. Then kappa = delta and the separator is the
    neighborhood of the first minimum-degree vertex. Else one delta-capped
    scan of split-network flows over non-adjacent pairs, whose lower vertex
    is among v_0..v_kappa (Even's bound), gives the value and separator;
    the bound only drops pairs after the first minimum one, so the
    separator is the one the all-pairs scan returns. Bipartite graphs on 3+
    vertices always have a non-adjacent same-part pair, so the
    complete-bipartite convention kappa(K_{m,n}) = min(m, n) falls out of
    the flows themselves.
    """
    adj = flat_adjacency(g)
    degs = [len(lst) for lst in adj]
    low = degs.index(min(degs))
    delta = degs[low]
    if delta <= 3:
        settled = _connectivity_upto3(adj) >= delta
    else:
        settled = _kappa_at_least_delta(g, adj, delta)
    if settled:
        kappa, sep = delta, tuple(sorted(adj[low]))
    else:
        kappa, sep = _vertex_cut(g, adj, delta)
    witness = Separator(tuple(flat_vertex(g, v) for v in sep))
    return OracleResult(GraphProperty.VERTEX_CONNECTIVITY, kappa, witness, True)
