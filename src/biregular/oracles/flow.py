"""Exact edge and vertex connectivity via unit augmenting paths.

Each flow pushes one unit per breadth-first augmenting path (Edmonds &
Karp 1972), capped at the running minimum. Vertex flows run in a split
network: each vertex becomes an in/out pair joined by a unit arc.

kappa' and, for delta >= 4, kappa each run one pass of flows over a few
pairs from one part, each flow capped at the running minimum, which
starts at delta. The least flow is the value. No flow between two
vertices (for kappa, two non-adjacent ones) is below the connectivity,
and each proof below exhibits, when the connectivity is below delta, a
pair whose flow is at most it: bipartiteness pins where a cut below the
minimum degree falls. Connectivity never exceeds delta, so a pass in
which no flow falls below delta settles it at delta.

- kappa' (Matula 1987). If kappa' < delta, each side A of a minimum cut
  holds a vertex with its whole neighborhood in A: otherwise the cut has
  at least |A| edges, so |A| < delta, and then it has at least
  |A| (delta - |A| + 1) >= delta edges. Such a vertex is in, or next to,
  any dominating set D, so D meets both sides, and any vertex of D has
  another across the cut, with flow at most kappa' between them.
  Without isolated vertices each part dominates, so the pairs are the
  first vertex of the smaller part and each other vertex of it; with
  delta = 0 the value is 0 anyway.
- kappa, delta >= 4 (after Esfahanian and Hakimi 1984). If kappa < delta,
  no component of G - S for a minimum separator S is a lone vertex, whose
  delta or more neighbors would all be in S; so every component holds an
  edge and a vertex of each part. Take the lowest vertex v of a part P.
  If v is outside S, some w in P lies across S from it. If v is in S, it
  has neighbors in two components (else S - v still separates). Either
  way S separates the pair, so its flow is at most kappa. The pairs are v
  with the rest of P and every two of v's neighbors: (|P| - 1) +
  C(deg v, 2) flows, on the part where that count is smaller. Same-part
  pairs are never adjacent.

The witness is read from the residual-reachable set left by the last,
failed search of the first flow that reached the minimum; every maximum
flow leaves the same set. When no flow falls below delta it is the
trivial one at the first minimum-degree vertex: its edges, or its
neighborhood.

A disconnected graph needs no separate check: the proofs hold with an
empty cut or separator, so some pair's flow is 0, and what its source
reaches is its whole component (both halves of each vertex in the split
network), so the cut or separator read from it is empty. With an isolated
vertex the min-degree fallbacks give the same empty witness.

min(kappa, 3) needs no flow. One lowpoint depth-first search (Tarjan 1972)
from vertex 0 tells kappa 0, 1 and at least 2 apart: it reaches every
vertex or not, and finds a cut vertex or none. With delta >= 3 and kappa >=
2, kappa >= 3 holds exactly when G has no separation pair, which the path
search of Hopcroft and Tarjan (1973), as corrected by Gutwenger and Mutzel
(2001), decides on the same palm tree in O(n + m): each vertex's arcs are
ordered by phi, the vertices renumbered, and the type-1 and type-2 checks
run over the stack of candidate triples. The full algorithm splits G at
each pair it finds until only triconnected components are left; this one
stops at the first, with no edge stack, split or virtual edge. That is
exact:

- The first pair found is a 2-separator of G. Every split the full
  algorithm makes is at a separation pair of the graph it splits, and
  before the first split that graph is G. In a simple graph with no
  vertex of degree below 2, every separation class of a pair {a, b} but
  the edge ab holds a vertex outside {a, b}, so a separation pair is a
  2-vertex separator.
- A pair is found when G has one. The full algorithm's output consists
  of triangles, bonds and 3-connected simple graphs, and a simple graph of
  minimum degree 3 with a 2-separator is none of these, so it splits at
  least once. Its first split comes from a multiple edge (G has none), a
  tree arc into a vertex of degree 2 (degrees change only at splits, and
  delta >= 3), or the type-1 or type-2 check, which are the two this
  search runs.
- No triple (h, v, b) with b a child c of v, which the full algorithm
  pops, meets the type-2 check. It was first pushed at c, with a the end
  of a frond from c (never c's parent) or lowpt1(w) < c (c is no cut
  vertex) for a child w of c, and merging only lowers a; so lowpt1(w) = v.
  Then lowpt2(w) >= c, as no ancestor lies between, and the type-1 check
  back from w to c (v is not the root) has already returned {v, c}.
- high(v) as the search meets it. The type-2 pop loop at v reads high(v),
  the source of the first frond into v in search order, after the search
  returns from a child w. If that frond has not been met yet, it leaves
  from the subtree of a later child of v, which is numbered below every
  vertex of w's subtree and of the earlier children's. Every triple the
  loop can reach lies above the current path's end marker, so it was
  pushed at v (b = v) or inside those earlier subtrees (h at least one of
  their vertices). The loop therefore stops at its first triple whether it
  reads that source or -1, and the search records high(v) when it first
  meets a frond into v, with no pass before it.
- The root's child is vertex 1. The search runs only on 2-connected
  graphs: ``_connectivity_upto3`` returns at a cut vertex first. So the
  root has one child, and that child's block starts at new number 1.

The searches return the separator they find: the empty one when G is
disconnected, a cut vertex, or the first separation pair.
``vertex_connectivity`` takes min(kappa, 3) and that separator this way
when delta <= 3; ``is_globally_rigid`` reads only the value.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from math import comb

from ..errors import TooLarge, TooSmall
from ..graphs import BipartiteGraph, flat_adjacency, flat_edges, flat_vertex
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


def _least_flow(net, pairs, limit):
    """The least flow over ``pairs``, each capped at the running minimum,
    which starts at ``limit``, and the residual reach of the first flow
    that set it: ``(limit, None)`` when no flow falls below ``limit``."""
    reach = None
    for s, t in pairs:
        f, reached = net.flow(s, t, limit)
        if f < limit:
            limit, reach = f, reached
    return limit, reach


def edge_connectivity(g: BipartiteGraph) -> OracleResult:
    """Exact kappa' with a minimum edge cut as witness.

    One pass of flows from the first vertex of the smaller part to the rest
    of it, capped at the running minimum that starts at delta, gives the
    value (Matula's dominating-set argument). The cut is read from the flow
    that set it, or is the trivial one at the first minimum-degree vertex
    when no flow fell below delta. Disconnected graphs report 0 with an
    empty cut.
    """
    n = g.n
    flat = flat_edges(g)
    net = _Network(n)
    for u, v in flat:
        net.add_edge(u, v, 1, 1)
    degs = [len(lst) for lst in g.adj_x + g.adj_y]
    x = g.x_count
    part = range(x) if x <= g.y_count else range(x, n)
    pairs = ((part[0], t) for t in part[1:])
    best, reach = _least_flow(net, pairs, min(degs))
    if reach is None:
        low = degs.index(best)
        reach = [v == low for v in range(n)]
    cut = tuple(e for e, (u, v) in zip(g.edges, flat) if reach[u] != reach[v])
    assert len(cut) == best
    return OracleResult(best, EdgeCut(cut))


def _split_network(g: BipartiteGraph):
    """Split network: v_in = 2v and v_out = 2v + 1 joined by a unit arc,
    each edge as uncapacitated arcs u_out -> w_in and w_out -> u_in. The
    size guard runs before anything is built."""
    n = g.n
    if n > VERTEX_CONN_GUARD:
        raise TooLarge(f"vertex connectivity guarded at {VERTEX_CONN_GUARD}")
    inf = n + 1
    net = _Network(2 * n)
    for v in range(n):
        net.add_edge(2 * v, 2 * v + 1, 1)
    for u, w in flat_edges(g):
        net.add_edge(2 * u + 1, 2 * w, inf)
        net.add_edge(2 * w + 1, 2 * u, inf)
    return net


def _palm_tree(adj):
    """One lowpoint depth-first search from vertex 0 (Tarjan 1972).

    Returns ``(order, parent, low1, low2, nd, arcs)``. ``order`` lists the
    vertices reached, in preorder; the rest are indexed by preorder number
    and hold preorder numbers. ``parent`` is the tree
    parent (-1 at the root); ``low1`` and ``low2`` are lowpt1 and lowpt2,
    the least and second least of the vertex itself and the ends of the
    fronds that leave its subtree; ``nd`` is the subtree's size. ``arcs``
    keys each vertex's arcs by phi (Hopcroft and Tarjan 1973) as
    ``phi * n + head``, unsorted: 3 lowpt1(c), plus 2 when lowpt2(c) is at
    least the tail, for a tree arc to a child c, and 3 x + 1 for a frond to
    an ancestor x.
    """
    n = len(adj)
    num = [-1] * n                      # vertex -> preorder number
    num[0] = 0
    order = [0]
    parent = [-1] * n
    low1 = [0] * n
    low2 = [0] * n
    nd = [1] * n
    arcs = [[] for _ in range(n)]
    stack = [(0, iter(adj[0]))]
    while stack:
        k, nbrs = stack[-1]
        out, p, l1, l2 = arcs[k], parent[k], low1[k], low2[k]
        for w in nbrs:
            x = num[w]
            if x < 0:
                x = len(order)
                num[w] = low1[x] = low2[x] = x
                order.append(w)
                parent[x] = k
                stack.append((x, iter(adj[w])))
                break
            # x > k is a frond from a descendant, seen from its far end.
            if x < k and x != p:
                out.append((3 * x + 1) * n + x)
                if x < l1:
                    l1, l2 = x, l1
                elif l1 < x < l2:
                    l2 = x
        else:
            stack.pop()
            if not stack:
                break
            nd[p] += nd[k]
            arcs[p].append((3 * l1 + 2 * (l2 >= p)) * n + k)
            if l1 < low1[p]:
                low2[p] = min(low1[p], l2)
                low1[p] = l1
            elif l1 == low1[p]:
                low2[p] = min(low2[p], l2)
            else:
                low2[p] = min(low2[p], l1)
        low1[k], low2[k] = l1, l2
    return order, parent, low1, low2, nd, arcs


def _separation_pair(palm):
    """A separation pair of a 2-connected graph of minimum degree 3, as
    flat ids ``(a, b)``, or None when the graph is 3-connected.

    ``palm`` is ``_palm_tree(adj)``. The path search of Hopcroft and Tarjan
    (1973), as corrected by Gutwenger and Mutzel (2001), stopped at the
    first pair it would split off (see the module docstring).
    """
    order, _, low1, low2, nd, keys = palm
    n = len(order)
    # The search visits each vertex's arcs in phi order. Renumber the
    # vertices so that they are numbered n - 1 down to 0 in the order that
    # search leaves them: a vertex's first child then holds the top block of
    # its subtree, and the root's one child is vertex 1.
    new = [0] * n                       # preorder number -> new number
    arcs = [None] * n                   # the rest are indexed by new number
    lo1 = [0] * n
    lo2 = [0] * n
    size = [0] * n
    for k in range(n):
        v = new[k]
        top = v + nd[k]
        out = []
        for key in sorted(keys[k]):
            x = key % n
            if x > k:
                top -= nd[x]
                new[x] = top
                out.append(top)
            else:
                out.append(new[x])
        arcs[v] = out
        lo1[v] = new[low1[k]]
        lo2[v] = new[low2[k]]
        size[v] = nd[k]
    pair = _path_search(arcs, lo1, lo2, size)
    if pair is None:
        return None
    at = dict(zip(new, order))
    return at[pair[0]], at[pair[1]]


def _path_search(arcs, low1, low2, nd):
    """The first type-1 or type-2 separation pair found, in new numbers.

    A triple (h, a, b) on ``tstack`` is a type-2 candidate {a, b}, a an
    ancestor of b, whose split part would hold the vertices the search has
    passed numbered from a to h. ``eos`` ends the triples of each path that
    a tree arc starts; its h = n stops every pop at it. An arc starts a
    path unless it is the first out of a vertex other than the root.
    ``high`` holds each vertex's high point, the source of the first frond
    into it, from when the search meets that frond (-1 until then).
    """
    n = len(arcs)
    eos = (n, -1, -1)
    tstack = [eos]
    down = [0] * n                      # vertex -> index of its current tree arc
    high = [-1] * n
    stack = [(0, enumerate(arcs[0]))]
    while stack:
        v, it = stack[-1]
        for i, w in it:
            if w > v:                   # tree arc
                if i or v == 0:         # starts a path
                    low = low1[w]
                    h = w + nd[w] - 1
                    if tstack[-1][1] > low:
                        while tstack[-1][1] > low:
                            y, _, b = tstack.pop()
                            h = max(h, y)
                        tstack.append((h, low, b))
                    else:
                        tstack.append((h, low, v))
                    tstack.append(eos)
                down[v] = i
                stack.append((w, enumerate(arcs[w])))
                break
            if high[w] < 0:
                high[w] = v
            if i:                       # frond that starts a path
                if tstack[-1][1] > w:
                    h = -1
                    while tstack[-1][1] > w:
                        y, _, b = tstack.pop()
                        h = max(h, y)
                    tstack.append((h, w, b))
                else:
                    tstack.append((v, w, v))
        else:
            stack.pop()
            if not stack:
                return None
            w = v
            v = stack[-1][0]
            i = down[v]
            if v and tstack[-1][1] == v:
                return v, tstack[-1][2]         # type-2 pair
            # Only low1[w] and v join w's subtree to the rest, which is
            # more than those two unless v is the root's child with no arc
            # left.
            if low2[w] >= v > low1[w] and (v != 1 or i + 1 < len(arcs[v])):
                return low1[w], v               # type-1 pair
            if i or v == 0:
                while tstack.pop()[1] >= 0:
                    pass
            hv = high[v]
            while True:
                h, a, b = tstack[-1]
                if a == v or b == v or hv <= h:
                    break
                tstack.pop()


def _connectivity_upto3(adj):
    """``(min(kappa, 3), separator)`` with no flow, for a simple graph on
    3+ vertices.

    One lowpoint search finds whether G is connected and has a cut vertex;
    with neither and delta >= 3, the separation-pair search on the same
    palm tree settles kappa >= 3. Both take O(n + m). The separator, as
    sorted flat ids, is () when G is disconnected, the cut vertex, or the
    separation pair; None when the value is 3, or 2 with delta <= 2.
    """
    n = len(adj)
    if n < 3:
        raise TooSmall("vertex connectivity needs at least 3 vertices")
    palm = _palm_tree(adj)
    order, parent, low1, _, nd, _ = palm
    if len(order) < n:
        return 0, ()
    # The root is a cut vertex when its first subtree misses a vertex, any
    # other vertex when some child's subtree has no frond above it.
    if nd[1] < n - 1:
        return 1, (0,)
    for k in range(2, n):
        if low1[k] >= parent[k] > 0:
            return 1, (order[parent[k]],)
    if min(map(len, adj)) < 3:
        # kappa <= delta, so delta <= 2 leaves "at least 2" at exactly 2.
        return 2, None
    pair = _separation_pair(palm)
    return (2, tuple(sorted(pair))) if pair else (3, None)


def vertex_connectivity(g: BipartiteGraph) -> OracleResult:
    """Exact kappa with a minimum separator as witness.

    When delta <= 3, ``_connectivity_upto3`` gives min(kappa, 3) and its
    separator by one lowpoint search and, at delta = 3, the linear-time
    separation-pair search on its palm tree. Otherwise one pass of
    split-network flows, from one part's lowest vertex to the rest of the
    part and between its neighbors, capped at the running minimum that
    starts at delta, gives kappa and reads the separator from the flow that
    set it. When kappa = delta the separator is the neighborhood of the
    first minimum-degree vertex. Bipartite graphs on 3+ vertices always
    have a non-adjacent same-part pair, so the complete-bipartite
    convention kappa(K_{m,n}) = min(m, n) falls out of the search itself.
    """
    n = g.n
    adj = flat_adjacency(g)
    degs = [len(lst) for lst in adj]
    low = degs.index(min(degs))
    delta = degs[low]
    if delta <= 3:
        kappa, sep = _connectivity_upto3(adj)
    else:
        x = g.x_count
        parts = (range(x), range(x, n))
        part = min(parts, key=lambda p: len(p) - 1 + comb(len(adj[p[0]]), 2))
        v = part[0]
        pairs = [*((v, w) for w in part[1:]), *combinations(adj[v], 2)]
        split = ((2 * s + 1, 2 * t) for s, t in pairs)
        kappa, reach = _least_flow(_split_network(g), split, delta)
        sep = reach and [
            u for u in range(n) if reach[2 * u] and not reach[2 * u + 1]
        ]
    if kappa >= delta:
        kappa, sep = delta, tuple(sorted(adj[low]))
    assert len(sep) == kappa
    witness = Separator(tuple(flat_vertex(g, v) for v in sep))
    return OracleResult(kappa, witness)
