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

The game keeps rigid components (Lee and Streinu 2008) so that most
rejections need no search. Three facts make this safe:

- The reach set T of a searched rejection is tight, as above.
- Two tight sets A and B sharing at least two vertices have a tight union
  with no accepted edge between A - B and B - A. Sparsity caps the edges
  i(A & B) inside the intersection at 2|A & B| - 3, so the union spans
  i(A) + i(B) - i(A & B) >= 2|A | B| - 3 edges plus the crossing ones,
  and sparsity caps that total at 2|A | B| - 3 too. One shared vertex
  spans no edge and the bound fails: two sets sharing one vertex can turn
  about it (a hinge), so they are never merged.
- A tight set stays tight, since accepted edges are never removed.

So every component is tight, an edge with both ends in one is dependent,
and skipping its search leaves the accepted indices as they were: the
greedy basis of a matroid in a fixed feed order is unique. Nor does
redundancy lose a circuit. Each accepted edge inside a component lies in
one of the reach sets that formed it, no edge is accepted inside a tight
set later, and the circuit of every reach set was covered when it was
found; the circuit of a skipped edge lies inside its component and so
covers nothing new.

An independent randomized cross-check builds the rigidity matrix at random
positions over a large prime field and row-reduces it; by Schwartz-Zippel
its rank equals the generic rank except with vanishing probability, so any
disagreement with the pebble game is treated as a bug.

Greedy packing repeatedly extracts a spanning Laman subgraph and removes
its edges. Insertion order matters only for which basis the game picks, not
for the rank, so extraction feeds edges in a deterministic "diagonal" order
that spreads the basis across vertices; lexicographic order would hand the
first basis every edge at the lowest-numbered vertices and strand them
isolated for the next round. A failed first round means g is not rigid,
which settles every k, and m // (2n-3) rounds use up all the room the edge
count leaves; any other later failure never refutes. A bipartite graph on
n <= 14 vertices has m <= n^2/4 < 2(2n-3) edges, so there greedy is always
exact.
"""

from __future__ import annotations

import numpy as np

from ..errors import TooSmall, check_k
from ..graphs import BipartiteGraph, EdgePair, flat_adjacency, flat_edges
from ..prng import SplitMix64
from ..properties import GraphProperty
from .flow import _vertex_cut
from .result import LamanPacking, LamanSubgraph, OracleResult

RANK_FIELD_PRIME = 2**31 - 1


def _pull_pebble(root, banned, peb, succ):
    # DFS along accepted-edge orientations for a pebble not on root/banned;
    # reversing the discovery path carries it back to root.
    parent = {root: None}
    stack = [root]
    while stack:
        w = stack.pop()
        if w != root and w != banned and peb[w] > 0:
            peb[w] -= 1
            peb[root] += 1
            while parent[w] is not None:
                p = parent[w]
                succ[p].remove(w)
                succ[w].add(p)
                w = p
            return True
        for nxt in succ[w]:
            if nxt not in parent:
                parent[nxt] = w
                stack.append(nxt)
    return False


def _pebble_accepted(n, edges, rejected=None):
    """Indices of flat-id edges accepted by the (2,3) pebble game, in feed order.

    Known rigid components are kept as vertex bitmasks: an edge inside one
    is rejected without a search. At a searched rejection the reach set
    becomes a component, merged with every component it shares two or
    more vertices with. ``rejected(reach, succ)``, when given, is called
    there with the reach set and the orientation the failed search left; a
    true return ends the game. Edges rejected inside a component are not
    passed to it: their circuits were covered when the component formed.
    """
    peb = [2] * n
    succ = [set() for _ in range(n)]
    components = []
    accepted = []
    for idx, (u, v) in enumerate(edges):
        ends = (1 << u) | (1 << v)
        if any(c & ends == ends for c in components):
            continue
        while peb[u] + peb[v] < 4:
            if peb[u] < 2 and _pull_pebble(u, v, peb, succ):
                continue
            if peb[v] < 2 and _pull_pebble(v, u, peb, succ):
                continue
            break
        if peb[u] + peb[v] >= 4:
            peb[u] -= 1
            succ[u].add(v)
            accepted.append(idx)
            continue
        reach = {u, v}
        stack = [u, v]
        while stack:
            for w in succ[stack.pop()]:
                if w not in reach:
                    reach.add(w)
                    stack.append(w)
        components = _merge_component(components, sum(1 << w for w in reach))
        if rejected is not None and rejected(reach, succ):
            break
    return accepted


def _merge_component(components, mask):
    # Tight sets sharing two or more vertices have a tight union; sharing
    # one is not enough (a hinge), so those stay apart.
    merged = True
    while merged:
        merged = False
        rest = []
        for c in components:
            common = c & mask
            if common & (common - 1):
                mask |= c
                merged = True
            else:
                rest.append(c)
        components = rest
    components.append(mask)
    return components


def pebble_rank_edges(g: BipartiteGraph, edges) -> tuple[int, tuple[EdgePair, ...]]:
    """Rank and accepted subset of an arbitrary edge list of g, in list order."""
    edges = list(edges)
    accepted = _pebble_accepted(g.n, flat_edges(g, edges))
    return len(accepted), tuple(edges[i] for i in accepted)


def rigidity_rank(g: BipartiteGraph) -> OracleResult:
    """Rank of the planar rigidity matroid; rigid iff rank = 2n - 3.

    Edges are fed in canonical sorted order, so the witness (a maximal
    independent edge set, a spanning Laman subgraph when rigid) is
    deterministic.
    """
    rank, independent = pebble_rank_edges(g, g.edges)
    return OracleResult(
        GraphProperty.RIGID_PACKING, rank, LamanSubgraph(independent), True
    )


def is_rigid(g: BipartiteGraph) -> bool:
    return rigidity_rank(g).value == 2 * g.n - 3


def rigidity_matrix_rank_modular(g: BipartiteGraph, seed: int) -> int:
    """Rigidity-matrix rank at seeded random points mod RANK_FIELD_PRIME.

    Row for edge (u, v): (p_u - p_v) in u's coordinate pair and the negation
    in v's. Random points land outside the degeneracy variety except with
    probability O(poly(n) / RANK_FIELD_PRIME), so this equals the pebble-game
    rank for all practical purposes and is re-run under several seeds by the
    tests.
    """
    rng = SplitMix64(seed)
    pos = np.array(
        [rng.below(RANK_FIELD_PRIME) for _ in range(2 * g.n)], dtype=np.int64
    ).reshape(g.n, 2)
    u, v = np.array(flat_edges(g), dtype=np.intp).reshape(-1, 2).T
    rows = np.arange(g.m)
    diff = (pos[u] - pos[v]) % RANK_FIELD_PRIME
    mat = np.zeros((g.m, g.n, 2), dtype=np.int64)  # [edge, vertex, coordinate]
    mat[rows, u] = diff
    mat[rows, v] = -diff % RANK_FIELD_PRIME
    return _rank_mod_p(mat.reshape(g.m, 2 * g.n), RANK_FIELD_PRIME)


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
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), p - 2, p) % p
        below = nonzero[1:]
        a[below, c:] = (a[below, c:] - np.outer(a[below, c], a[r, c:])) % p
        r += 1
        if r == rows:
            break
    return r


def is_redundantly_rigid(g: BipartiteGraph) -> OracleResult:
    """1 iff g is rigid and stays rigid after deleting any single edge.

    Deleting a basis edge e keeps g rigid exactly when some rejected edge f
    can replace it, i.e. when e lies in the fundamental circuit of f;
    deleting any other edge leaves the basis whole. One pebble game in
    sorted feed order marks the accepted edges inside the reach set of each
    searched rejection, that edge's circuit; an edge rejected inside a known
    rigid component has no new circuit to mark (see the module docstring).
    The game stops once all 2n - 3 basis edges are covered.
    The witness of a rigid, non-redundant graph is the first uncovered
    basis edge, which is the first critical edge of g.edges.
    """
    target = 2 * g.n - 3
    covered = set()

    def cover_circuit(reach, succ):
        covered.update((min(w, x), max(w, x)) for w in reach for x in succ[w])
        return len(covered) == target

    edges = flat_edges(g)
    accepted = _pebble_accepted(g.n, edges, cover_circuit)
    if len(accepted) != target:
        return OracleResult(GraphProperty.GLOBAL_RIGIDITY, 0, None, True)
    critical = next(
        (g.edges[i] for i in accepted if edges[i] not in covered), None
    )
    return OracleResult(
        GraphProperty.GLOBAL_RIGIDITY, int(critical is None), critical, True
    )


def is_globally_rigid(g: BipartiteGraph) -> OracleResult:
    """1 iff 3-connected and redundantly rigid (the planar characterization).

    The connectivity search starts at min(delta, 3) and so only settles
    whether kappa >= 3, not kappa itself.
    """
    if g.n < 4:
        raise TooSmall("global rigidity oracle needs at least 4 vertices")
    adj = flat_adjacency(g)
    delta = min(len(lst) for lst in adj)
    kappa, _ = _vertex_cut(g, adj, min(delta, 3))
    if kappa < 3:
        return OracleResult(GraphProperty.GLOBAL_RIGIDITY, 0, None, True)
    redundant = is_redundantly_rigid(g)
    return OracleResult(
        GraphProperty.GLOBAL_RIGIDITY, redundant.value, redundant.witness, True
    )


def _spread_order(g: BipartiteGraph, edges):
    period = max(g.x_count, g.y_count)
    return sorted(edges, key=lambda e: ((e[0] + e[1]) % period, e[0], e[1]))


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
    check_k(k)
    target = 2 * g.n - 3
    if k == 1:
        res = rigidity_rank(g)
        rigid = res.value == target
        return OracleResult(
            GraphProperty.RIGID_PACKING,
            1 if rigid else 0,
            LamanPacking((res.witness.edges,)) if rigid else None,
            True,
        )
    remaining = list(g.edges)
    extracted = []
    for _ in range(k):
        rank, independent = pebble_rank_edges(g, _spread_order(g, remaining))
        if rank != target:
            break
        extracted.append(tuple(sorted(independent)))
        used = set(independent)
        remaining = [e for e in remaining if e not in used]
    if not extracted:
        return OracleResult(GraphProperty.RIGID_PACKING, 0, None, True)
    return OracleResult(
        GraphProperty.RIGID_PACKING,
        len(extracted),
        LamanPacking(tuple(extracted)),
        len(extracted) == min(k, g.m // target),
    )
