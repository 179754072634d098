"""Planar generic rigidity oracles.

Rank of the 2-dimensional generic rigidity matroid is computed with the
(2,3) pebble game: every vertex starts with 2 pebbles, an edge is accepted
when 4 pebbles can be gathered on its endpoints (pebble searches walk the
directed graph of accepted edges and reverse the path they used), and one
pebble is consumed to orient the accepted edge. A graph on n vertices is
rigid exactly when the rank reaches 2n - 3, and the accepted edges of a
rigid graph form a spanning minimally rigid (Laman) subgraph.

Redundant rigidity reads fundamental circuits off the same game. When an
edge f = (u, v) is rejected, the failed searches left no pebble on the
vertices T reachable from u and v along accepted-edge orientations, apart
from the 3 on u and v. A vertex's 2 pebbles are free or spent on an
out-edge, and no out-edge leaves T, so T spans 2|T| - 3 accepted edges: it
is tight. A tight set holding u and v has at most 3 free pebbles, so
exactly theirs, and no out-edge, so it contains T. Hence T is the smallest
tight set holding u and v, and the circuit of f is f plus the accepted
edges inside T. A basis edge is critical exactly when no circuit covers it.

Two shortcuts skip most searches, Henneberg accepts and rigid
components. Each is exact and neither changes the accepted indices: the
game accepts exactly the greedy basis of the rigidity matroid in feed
order, which is unique, and a shortcut only accepts an edge that is
independent of the edges before it or rejects one that is dependent on
them. Write i(T) for the accepted edges inside a
vertex set T; they are (2,3)-sparse, i(T) <= 2|T| - 3 for |T| >= 2, and T
is tight when equality holds.

- Henneberg accept (Jacobs and Hendrickson 1997). An edge f = (w, x) at a
  vertex w with at most one accepted edge, and not a repeat of it, is
  independent. Every T holding w and x with |T| >= 3 has
  i(T) <= i(T - w) + 1 <= 2|T| - 4, so with f it still spans at most
  2|T| - 3; for T = {w, x}, f is the only edge. It is oriented out of w,
  which has a free pebble since out(w) <= deg(w) <= 1. The searches below
  need only that free + out = 2 at every vertex, so this is a valid game
  state, and no search runs for f. A repeated edge is searched and
  rejected as before.

The game keeps rigid components (Lee and Streinu 2008) so that most
rejections need no search. These facts make this safe:

- The reach set T of a searched rejection is tight, as above.
- Two tight sets A and B sharing at least two vertices have a tight union
  with no accepted edge between A - B and B - A. Sparsity caps the edges
  i(A & B) inside the intersection at 2|A & B| - 3, so the union spans
  i(A) + i(B) - i(A & B) >= 2|A | B| - 3 edges plus the crossing ones,
  and sparsity caps that total at 2|A | B| - 3 too. One shared vertex
  spans no edge and the bound fails: two sets sharing one vertex can turn
  about it (a hinge), so they are never merged, and components pairwise
  share at most one vertex.
- Absorption. A vertex w outside a tight set C with two accepted edges
  into C (it cannot have three, by sparsity) gives a tight union:
  i(C + w) = 2|C| - 3 + 2 = 2|C + w| - 3. The plain (rank-only) game folds
  such a w into C, then merges as above.
- A tight set stays tight, since accepted edges are never removed.

So every component is tight and an edge with both ends in one is
dependent; its search is skipped.

The redundancy game does not absorb, since w's two edges into C form no
circuit yet, and it reads coverage off its components alone: the accepted
edges that circuits cover are exactly the accepted edges inside the
components. Each reach set's edges lie in its circuit; a merge adds no
accepted edge, as none crosses from A - B to B - A; and later edges inside
a tight set are all rejected. Conversely, a rejected edge's circuit lies
in its smallest tight set, the reach set if it was searched and otherwise
inside the component that rejected it. Components are tight and share at
most one vertex, so no accepted edge lies in two, and circuits cover
sum(2|C| - 3) accepted edges. All 2n - 3 basis edges are covered once that
sum reaches 2n - 3, and the game stops there; otherwise the first critical
edge is the first accepted edge inside no component.

The orientation lives in flat per-vertex lists: ``succ[v]`` holds v's
out-edges, never more than 2, since each of v's 2 pebbles is free or spent
on one of them. A search marks the vertices it visits in one ``mark`` array
kept for the whole game, with a fresh stamp per search, records each
vertex's discoverer in ``prev``, and takes a free pebble as soon as it
discovers the vertex holding it. Which pebble a search finds changes only
the orientation, never what the game reports: the accepted indices are the
greedy basis in feed order, which is unique, and a reach set is the
smallest tight set holding u and v, fixed by the accepted edges alone. So
are the components, built from reach sets and from ``nbr[v]``, v's
accepted neighbours as a bitmask, which also serves the Henneberg test.

- The reach set is what the failed searches marked. A failing search
  marks every vertex it reaches with its stamp, and it passes through the
  banned end. In the last round before a rejection, the search from u ran
  with stamp - 1 and the search from v with stamp. A search is skipped
  only when its root holds both pebbles, and then the root has no
  out-edge and reaches only itself. Earlier rounds used smaller stamps. So
  the reach set is u, v and every vertex whose mark is at least stamp - 1,
  and no second walk is needed.

An independent randomized cross-check takes the rank of the rigidity matrix
R at random points over a large prime field; by Schwartz-Zippel it equals
the generic rank except with vanishing probability, so any disagreement
with the pebble game is treated as a bug. The rank is exact at those
points, and two facts, true over any field, save most of the elimination.
Row (u, v) of R is d = p_u - p_v in u's two columns and -d in v's.

- The ceiling: rank R <= 2n - 3 for n >= 2. R sends to zero both
  translations, (1, 0) and (0, 1) at every vertex, and the rotation
  (-y_i, x_i): row (u, v) gives -d_x y_u + d_y x_u + d_x y_v - d_y x_v =
  -d_x d_y + d_y d_x = 0. If a t_x + b t_y + c rot = 0, then c = 0 forces
  a = b = 0, and c != 0 puts every point at (-b/c, a/c). So the three are
  independent unless all points coincide, and then R = 0.
- Hub block elimination. No edge lies inside a part, so the two columns of
  a vertex h are nonzero only in h's own rows. Take h in the larger part
  (the hubs; X on a tie) and its rows r_1, r_2 at its two lowest
  neighbors, with hub blocks d_1, d_2 forming an invertible 2 x 2 matrix
  D. Each other row r_j of h, less c_1 r_1 + c_2 r_2 with
  (c_1, c_2) = d_j D^-1, is zero on h's columns; this Schur row keeps
  -d_j at its own leaf and gains c_1 d_1 and c_2 d_2 at the leaves of r_1
  and r_2, six entries at most. Now r_1 and r_2 are the only rows that
  meet h's columns, and column operations through D clear the rest of
  them, so they add exactly 2 to the rank; every such hub does so at once,
  on its own columns. So rank R = 2 (pivoted hubs) + rank of the residual:
  the Schur rows and every row of the other hubs, over the leaf columns
  and those hubs' columns.
- Private leaf elimination. A leaf holding one of a pivoted hub's two
  pivot rows is an anchor; the other leaves are private. A residual row
  is -d_j at its own leaf and otherwise lies on its hub's columns (a hub
  not pivoted) or on its hub's two anchors (a Schur row). So a private
  leaf w's columns are nonzero only in the rows whose own leaf is w, and
  no two private leaves share a row. Take w's first two residual rows,
  with blocks -d_1 and -d_2 forming an invertible D. Each other row r_j of
  w, less c_1 r_1 + c_2 r_2 with (c_1, c_2) = d_j D^-1 (the hubs' Cramer
  step), is zero on w's columns, and lies on the anchors and hubs of r_j,
  r_1 and r_2. Now r_1 and r_2 are the only rows that meet w's columns,
  column operations through D clear the rest of them, and they add
  exactly 2 to the rank. Each such leaf changes only its own rows, so all
  are pivoted at once, in any set of residual rows: its rank is 2
  (pivoted private leaves) + rank of the other rows over the columns of
  the anchors, the unpivoted hubs and the unpivoted private leaves.

By the ceiling the residual has rank at most 2n - 3 - 2 (pivoted hubs).
It is first ranked on a prefix of about 1.25 times that many rows, taken
round robin over the rows' leaves (each leaf's first row, then each
leaf's second) so the prefix spreads over the leaf columns and holds the
first two rows of most leaves. A prefix that reaches the ceiling settles
the rank, since the residual's rank lies between the prefix's and the
ceiling; otherwise all its rows are ranked. Each of the two pivots its
private leaves before the dense elimination of what is left. The points
decide only how much work is done, never the rank.

Greedy packing repeatedly extracts a spanning Laman subgraph and removes
its edges. Insertion order matters only for which basis the game picks, not
for the rank, so extraction feeds edges in a deterministic "diagonal" order
that spreads the basis across vertices; lexicographic order would hand the
first basis every edge at the lowest-numbered vertices and strand them
isolated for the next round. The order is sorted once; each round feeds
the edge ids left by the earlier ones, still in that order. A single round
(k = 1) feeds the sorted edges instead, so its subgraph is the basis
``rigidity_rank`` returns. A failed first round means g is not rigid,
which settles every k, and m // (2n-3) rounds use up all the room the edge
count leaves; any other later failure never refutes. A bipartite graph on
n <= 14 vertices has m <= n^2/4 < 2(2n-3) edges, so there greedy is always
exact.
"""

from __future__ import annotations

import numpy as np

from ..errors import TooSmall, check_k
from ..graphs import BipartiteGraph, edge_ends, flat_adjacency, flat_edges
from ..prng import below_rows
from .flow import _connectivity_upto3
from .result import LamanPacking, LamanSubgraph, OracleResult

RANK_FIELD_PRIME = 2**31 - 1


def _pull_pebble(root, banned, peb, succ, mark, prev, stamp):
    # Depth-first along accepted-edge orientations for a pebble on neither
    # root nor banned, taken when its vertex is discovered; reversing the
    # discovery path (prev) carries it back to root. The search may pass
    # through banned. A vertex is visited when its mark equals stamp.
    mark[root] = stamp
    stack = [root]
    while stack:
        w = stack.pop()
        for x in succ[w]:
            if mark[x] == stamp:
                continue
            mark[x] = stamp
            prev[x] = w
            if peb[x] and x != banned:
                peb[x] -= 1
                peb[root] += 1
                while x != root:
                    w = prev[x]
                    succ[w].remove(x)
                    succ[x].append(w)
                    x = w
                return True
            stack.append(x)
    return False


def _pebble_accepted(n, edges, circuits=False):
    """The (2,3) pebble game on flat-id edges: the indices it accepts, in
    feed order, and the rigid components (vertex bitmasks) it ends with.

    An edge at a vertex with at most one accepted edge, not a repeat, is
    accepted with no search, and an edge inside a component is rejected
    with none (see the module docstring). At a searched rejection the reach
    set, read from the failed searches' marks, becomes a component, merged
    with every component it shares two or more vertices with. Only the plain game, ``circuits`` false, absorbs:
    a vertex with two accepted edges into a component joins it, checked at
    the ends of each accepted edge and at every vertex when a component
    forms. It ends at the 2n - 3 ceiling, since no later edge can be
    accepted. The ``circuits`` game keeps the
    accepted edges inside its components exactly those a circuit covers,
    and ends once they number 2n - 3.
    """
    peb = [2] * n
    succ = [[] for _ in range(n)]
    nbr = [0] * n
    mark = [0] * n
    prev = [0] * n
    stamp = 0
    components = []
    accepted = []
    full = 2 * n - 3
    absorb = None if circuits else nbr
    for idx, (u, v) in enumerate(edges):
        ends = (1 << u) | (1 << v)
        for c in components:  # a plain loop: any() over a generator costs more
            if c & ends == ends:
                break
        else:
            c = 0
        if c:
            continue
        nu, nv = nbr[u], nbr[v]
        # Henneberg: an end with at most one accepted edge, not to the other.
        if not nu & (nu - 1) and not nu >> v & 1:
            w, x = u, v
        elif not nv & (nv - 1) and not nv >> u & 1:
            w, x = v, u
        else:
            while peb[u] + peb[v] < 4:
                stamp += 1
                if peb[u] < 2 and _pull_pebble(u, v, peb, succ, mark, prev, stamp):
                    continue
                stamp += 1
                if peb[v] < 2 and _pull_pebble(v, u, peb, succ, mark, prev, stamp):
                    continue
                break
            if peb[u] + peb[v] < 4:
                # The reach set, as the round's two failed searches marked it.
                mask = ends | sum(1 << w for w in range(n) if mark[w] >= stamp - 1)
                components = _merge_component(components, mask, absorb)
                if circuits and sum(2 * c.bit_count() - 3 for c in components) == full:
                    break
                continue
            w, x = u, v
        peb[w] -= 1
        succ[w].append(x)
        nbr[u] = nu | 1 << v
        nbr[v] = nv | 1 << u
        accepted.append(idx)
        if circuits:
            continue
        if len(accepted) == full:
            break
        for w in (u, v):  # absorption
            for c in components:
                t = nbr[w] & c
                if t & (t - 1) and not c >> w & 1:
                    components = _merge_component(components, c | 1 << w)
                    break
    return accepted, components


def _merge_component(components, mask, nbr=None):
    # Tight sets sharing two or more vertices have a tight union; sharing
    # one is not enough (a hinge), so those stay apart. Given ``nbr``, a
    # vertex with two accepted edges into the set joins it too.
    grown = True
    while grown:
        grown = False
        rest = []
        for c in components:
            common = c & mask
            if common & (common - 1):
                mask |= c
                grown = True
            else:
                rest.append(c)
        components = rest
        if nbr is not None:
            for w, into in enumerate(nbr):
                into &= mask
                if into & (into - 1) and not mask >> w & 1:
                    mask |= 1 << w
                    grown = True
    components.append(mask)
    return components


def rigidity_rank(g: BipartiteGraph) -> OracleResult:
    """Rank of the planar rigidity matroid; rigid iff rank = 2n - 3.

    Edges are fed in canonical sorted order, so the witness (a maximal
    independent edge set, a spanning Laman subgraph when rigid) is
    deterministic.
    """
    accepted = _pebble_accepted(g.n, flat_edges(g))[0]
    independent = tuple(g.edges[i] for i in accepted)
    return OracleResult(len(independent), LamanSubgraph(independent))


def rigidity_matrix_rank_modular(g: BipartiteGraph, seed: int) -> int:
    """Rigidity-matrix rank at seeded random points mod RANK_FIELD_PRIME.

    Row for edge (u, v): (p_u - p_v) in u's coordinate pair and the negation
    in v's. The 2n coordinates are ``SplitMix64(seed).below(RANK_FIELD_PRIME)``
    draws, x then y of each flat vertex in turn. Random points land outside
    the degeneracy variety except with probability O(poly(n) /
    RANK_FIELD_PRIME), so this equals the pebble-game rank for all practical
    purposes and is re-run under several seeds by the tests. The rank is the
    exact rank of that matrix over the field, computed by hub and private
    leaf block elimination and stopped at the 2n - 3 ceiling (see the
    module docstring and ``_rank_at``).
    """
    return _rank_at(g, _rank_points(g.n, seed), RANK_FIELD_PRIME)


def _rank_points(n: int, seed: int) -> np.ndarray:
    # One (x, y) round of ``below(RANK_FIELD_PRIME)`` draws per vertex.
    return below_rows((seed,), (0,), (RANK_FIELD_PRIME,) * 2, n)[0].astype(np.int64)


def _rank_at(g: BipartiteGraph, pos: np.ndarray, p: int) -> int:
    """Rank over GF(p) of g's rigidity matrix at the points ``pos`` (n x 2).

    The larger part holds the hubs (X on a tie). A hub of degree 2 or more
    whose first two rows, at its two lowest neighbors, have an invertible
    2 x 2 hub block has both its columns pivoted at once, and each of its
    other rows becomes a Schur row over three leaves. Every other hub keeps
    its rows and its two columns. The residual is ranked on a round-robin
    prefix of its rows and again in full only when the prefix falls short
    of the 2n - 3 ceiling; in each, every private leaf with an invertible
    block in its first two rows is pivoted the same way before the rest is
    eliminated (see the module docstring).
    """
    x, m = g.x_count, g.m
    if not m:
        return 0
    u, v = edge_ends(g)
    if x >= g.y_count:
        hub, leaf, leaves, first_leaf = u, v + x, g.y_count, x
    else:
        order = np.argsort(v, kind="stable")  # grouped by hub, leaves ascending
        hub, leaf, leaves, first_leaf = v[order] + x, u[order], x, 0
    d = (pos[hub] - pos[leaf]) % p  # a row is d at its hub and -d at its leaf
    leaf = leaf - first_leaf
    starts = np.r_[True, hub[1:] != hub[:-1]]
    first = np.flatnonzero(starts)  # each hub's first row
    group = np.cumsum(starts) - 1  # row -> its hub
    d1 = d[first]
    d2 = d[np.minimum(first + 1, m - 1)]  # read only at degree 2 or more
    pivoted, inv = _invertible(d1, d2, np.diff(np.r_[first, m]) >= 2, p)

    # The residual rows: all but the two pivot rows of each pivoted hub, in
    # round robin over their leaves (each leaf's first row, then each leaf's
    # second, and so on).
    rows = np.flatnonzero(~pivoted[group] | (np.arange(m) - first[group] >= 2))
    base = 2 * int(np.count_nonzero(pivoted))
    if not len(rows):
        return base
    key = leaf[rows]
    by_leaf = np.argsort(key, kind="stable")
    in_order = key[by_leaf]
    turn = np.empty_like(by_leaf)
    turn[by_leaf] = np.arange(len(rows)) - np.searchsorted(in_order, in_order)
    order = np.lexsort((key, turn))
    rows, key, turn = rows[order], key[order], turn[order]
    # Residual vertices: the leaves, then the hubs that were not pivoted.
    kept_vertex = leaves - 1 + np.cumsum(~pivoted)
    unpivoted = np.ones(kept_vertex[-1] + 1 - leaves, dtype=bool)
    # The anchors hold the pivoted hubs' pivot rows; the other leaves are
    # private. Each leaf's first and second residual rows, by position in
    # the round robin (len(rows) where there is none).
    private = np.ones(leaves, dtype=bool)
    private[leaf[first[pivoted]]] = private[leaf[first[pivoted] + 1]] = False
    lead = np.full(leaves, len(rows))
    lead[key[turn == 0]] = np.flatnonzero(turn == 0)
    second = np.full(leaves, len(rows))
    second[key[turn == 1]] = np.flatnonzero(turn == 1)

    def residual_rank(count):
        # The first count residual rows, each -d at its leaf and either d at
        # its unpivoted hub or, as a Schur row j less c1 (row 1) and c2
        # (row 2) of its hub, c1 d1 and c2 d2 at the hub's first two leaves.
        part, own, later = rows[:count], key[:count], turn[:count] >= 2
        out = np.zeros((count, kept_vertex[-1] + 1, 2), dtype=np.int64)
        at = np.arange(count)
        out[at, own] = -d[part] % p
        schur = pivoted[group[part]]
        kept = part[~schur]
        out[at[~schur], kept_vertex[group[kept]]] = d[kept]
        j = part[schur]
        h = group[j]
        c1, c2 = _cramer(d[j], d1[h], d2[h], inv[h], p)
        out[at[schur], leaf[first[h]]] = c1[:, None] * d1[h] % p
        out[at[schur], leaf[first[h] + 1]] = c2[:, None] * d2[h] % p
        # A private leaf's columns meet only its own rows, -d in each, so the
        # hubs' step pivots at once every private leaf with two rows here.
        r1, r2 = np.minimum(lead, count - 1), np.minimum(second, count - 1)
        done, inv_leaf = _invertible(
            d[part[r1]], d[part[r2]], private & (second < count), p
        )
        j = np.flatnonzero(done[own] & later)
        w = own[j]
        c1, c2 = _cramer(d[part[j]], d[part[r1[w]]], d[part[r2[w]]], inv_leaf[w], p)
        out[j] = (
            out[j]
            - c1[:, None, None] * out[r1[w]] % p
            - c2[:, None, None] * out[r2[w]] % p
        ) % p
        # What is left: the other rows, on the columns of the anchors, the
        # unpivoted hubs and the unpivoted private leaves.
        rest = out[~done[own] | later][:, np.concatenate((~done, unpivoted))]
        left = _rank_mod_p(rest.reshape(len(rest), -1), p) if len(rest) else 0
        return 2 * int(np.count_nonzero(done)) + left

    ceiling = 2 * g.n - 3 - base
    prefix = ceiling + ceiling // 4 + 1
    if len(rows) > prefix and residual_rank(prefix) == ceiling:
        return base + ceiling
    return base + residual_rank(len(rows))


def _invertible(d1, d2, eligible, p):
    # Which eligible 2 x 2 blocks, rows d1 and d2, are invertible mod p, and
    # the inverse of each such block's determinant (0 elsewhere).
    det = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) % p
    pivoted = eligible & (det != 0)
    inv = np.zeros(len(det), dtype=np.int64)
    inv[pivoted] = [pow(t, -1, p) for t in det[pivoted].tolist()]
    return pivoted, inv


def _cramer(e, d1, d2, inv, p):
    # (c1, c2) with c1 d1 + c2 d2 = e mod p, row by row, by Cramer's rule;
    # inv is the inverse of det(d1, d2).
    c1 = (e[:, 0] * d2[:, 1] - e[:, 1] * d2[:, 0]) % p * inv % p
    c2 = (d1[:, 0] * e[:, 1] - d1[:, 1] * e[:, 0]) % p * inv % p
    return c1, c2


def _rank_mod_p(mat: np.ndarray, p: int) -> int:
    # Entries stay below p and products below p**2 < 2**62, inside int64.
    # Forward elimination only: the rank does not need the rows above a
    # pivot cleared, and rows with a zero in the pivot column do not change.
    a = mat % p
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        nonzero = r + np.flatnonzero(a[r:, c])
        if not nonzero.size:
            continue
        if nonzero[0] != r:
            a[[r, nonzero[0]]] = a[[nonzero[0], r]]
        pivot = a[r, c:]  # a view: scaled in place
        pivot *= pow(int(pivot[0]), -1, p)
        pivot %= p
        below = nonzero[1:]
        a[below, c:] = (a[below, c:] - np.outer(a[below, c], pivot)) % p
        r += 1
        if r == rows:
            break
    return r


def is_redundantly_rigid(g: BipartiteGraph) -> OracleResult:
    """1 iff g is rigid and stays rigid after deleting any single edge.

    Deleting a basis edge e keeps g rigid exactly when some rejected edge f
    can replace it, i.e. when e lies in the fundamental circuit of f;
    deleting any other edge leaves the basis whole. One pebble game in
    sorted feed order, with no absorption, keeps the accepted edges inside
    its rigid components exactly those that circuits cover (see the module
    docstring), and stops once they number 2n - 3. The witness of a rigid,
    non-redundant graph is the first basis edge inside no component, which
    is the first critical edge of g.edges.
    """
    target = 2 * g.n - 3
    edges = flat_edges(g)
    accepted, components = _pebble_accepted(g.n, edges, circuits=True)
    if len(accepted) != target:
        return OracleResult(0, None)
    for i in accepted:
        ends = (1 << edges[i][0]) | (1 << edges[i][1])
        if not any(c & ends == ends for c in components):
            return OracleResult(0, g.edges[i])
    return OracleResult(1, None)


def is_globally_rigid(g: BipartiteGraph) -> OracleResult:
    """1 iff 3-connected and redundantly rigid (the planar characterization).

    Whether kappa >= 3 is decided with no flow, by one lowpoint search and
    the linear-time separation-pair search (Hopcroft and Tarjan 1973).
    """
    if g.n < 4:
        raise TooSmall("global rigidity oracle needs at least 4 vertices")
    if _connectivity_upto3(flat_adjacency(g))[0] < 3:
        return OracleResult(0, None)
    return is_redundantly_rigid(g)


def _spread_order(g: BipartiteGraph) -> list[int]:
    # Edge ids by (x + y) mod the larger part size; the sort is stable, so
    # ties stay in id order, which is (x, y) order.
    period = max(g.x_count, g.y_count)
    diagonal = [(xi + yj) % period for xi, yj in g.edges]
    return sorted(range(g.m), key=diagonal.__getitem__)


def greedy_rigid_packing(g: BipartiteGraph, k: int) -> OracleResult:
    """Try to extract k edge-disjoint spanning Laman subgraphs.

    value counts the extractions that reached full rank. ``exact`` is True
    when the answer is decisive: all k rounds succeeded, the rounds reached
    m // (2n-3) (no more edge-disjoint Laman subgraphs fit in m edges), the
    first round failed (g itself is not rigid, so the value is 0 for every
    k). Otherwise the result is inconclusive: greedy failure after a
    successful round does not refute the packing. That takes
    m >= 2(2n-3), so n >= 15.
    """
    k = check_k(k)
    target = 2 * g.n - 3
    flat = flat_edges(g)
    order = range(g.m) if k == 1 else _spread_order(g)
    extracted = []
    for _ in range(k):
        accepted = _pebble_accepted(g.n, [flat[i] for i in order])[0]
        if len(accepted) != target:
            break
        used = {order[j] for j in accepted}
        extracted.append(tuple(g.edges[i] for i in sorted(used)))
        order = [i for i in order if i not in used]
    if not extracted:
        return OracleResult(0, None)
    return OracleResult(
        len(extracted),
        LamanPacking(tuple(extracted)),
        len(extracted) == min(k, g.m // target),
    )
