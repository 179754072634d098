"""Shared test helpers: independent oracles and small seeded corpora.

Most helpers avoid the production code paths they check: spectra come
from numpy's dense eigensolver on the full adjacency matrix, connectivity
from exhaustive enumeration, and witnesses are re-validated from first
principles. A few reuse production code on purpose, to isolate one change
against the rest: ``vertex_connectivity_reference`` runs
``flow._split_network`` and its ``_Network.flow``, and
``rigidity_matrix_rank_modular_reference`` eliminates with
``_rank_mod_p``. ``redundantly_rigid_reference`` and
``greedy_rigid_packing_reference`` rank with ``pebble_accepted_reference``,
the game with a full search at every edge, not the production game.
"""

from collections import deque
from itertools import chain, combinations, count
import os
from pathlib import Path

import numpy as np

from biregular import complete_bipartite, even_cycle, prng, random_biregular
from biregular.errors import RetriesExhausted
from biregular.graphs import BipartiteGraph, flat_adjacency, flat_edges, flat_vertex
from biregular.oracles import (
    ForestPacking,
    LamanPacking,
    OracleResult,
    flow,
)
from biregular.oracles.rigidity import RANK_FIELD_PRIME, _rank_mod_p
from biregular.prng import SplitMix64, derive_seed
from biregular.spectral import mixing_check

ROOT = Path(__file__).resolve().parents[1]
# The environment of a child Python (the CLI, a demo): src leads its path,
# as pyproject's pythonpath setting puts it on the path of pytest alone.
_CHILD_PATH = (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, _CHILD_PATH)))


def random_biregular_scalar(x, y, a, b, seed, max_retries=10000):
    """The configuration-model sampler one shuffle at a time (the reference).

    A top-down Fisher-Yates shuffle of the Y stubs per attempt, each
    position drawing splitmix64 words one at a time until one is at most
    ``prng.accept_max(i + 1)``, as ``SplitMix64.below`` does; the words come
    from ``stream_u64`` in chunks of 16384. ``random_biregular``,
    which reads the stream in blocks of attempts, must return the same
    graph, or raise RetriesExhausted where this does. Argument guards are
    left to the sampler.
    """
    x_stubs = [i for i in range(x) for _ in range(a)]
    y_base = [j for j in range(y) for _ in range(b)]
    steps = [(i, prng.accept_max(i + 1)) for i in range(len(y_base) - 1, 0, -1)]
    words = chain.from_iterable(
        prng.stream_u64(seed, start, 1 << 14).tolist()
        for start in count(0, 1 << 14)
    )
    for _ in range(max_retries):
        y_stubs = y_base.copy()
        for i, top in steps:
            word = next(words)
            while word > top:
                word = next(words)
            j = word % (i + 1)
            y_stubs[i], y_stubs[j] = y_stubs[j], y_stubs[i]
        pairs = set()
        simple = True
        for xi, yj in zip(x_stubs, y_stubs):
            if (xi, yj) in pairs:
                simple = False
                break
            pairs.add((xi, yj))
        if simple:
            return BipartiteGraph(x, y, tuple(pairs))
    raise RetriesExhausted(
        f"no simple matching in {max_retries} attempts for "
        f"(x={x}, y={y}, a={a}, b={b}, seed={seed})"
    )


def mixing_audit_scalar(g, pairs, seed, spectrum):
    """``mixing_audit`` one ``mixing_check`` per pair (the reference).

    Returns (pairs, min_slack, max_slack), or on the first violating pair
    ("violation", index, A, B, lhs, rhs).
    """
    rng = SplitMix64(seed)
    slacks = []
    for index in range(pairs):
        a_side = frozenset(
            ("x", i) for i in range(g.x_count) if rng.next_u64() & 1
        )
        b_side = frozenset(
            ("y", j) for j in range(g.y_count) if rng.next_u64() & 1
        )
        report = mixing_check(g, a_side, b_side, spectrum)
        if not report.holds:
            return ("violation", index, a_side, b_side, report.lhs, report.rhs)
        slacks.append(report.rhs - report.lhs)
    return (pairs, min(slacks), max(slacks))


def dense_sigma(g: BipartiteGraph) -> list[float]:
    """Top min(|X|,|Y|) adjacency eigenvalues via numpy's dense eigensolver."""
    adj = np.zeros((g.n, g.n))
    for xi, yj in g.edges:
        adj[xi, g.x_count + yj] = adj[g.x_count + yj, xi] = 1.0
    eigs = sorted(np.linalg.eigvalsh(adj), reverse=True)
    return [float(v) for v in eigs[: min(g.x_count, g.y_count)]]


def girth(g: BipartiteGraph) -> int:
    """Shortest cycle length by BFS from every vertex; 0 when acyclic."""
    adj = flat_adjacency(g)
    best = 0
    for root in range(g.n):
        dist = {root: 0}
        parent = {root: -1}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    cycle = dist[u] + dist[w] + 1
                    if best == 0 or cycle < best:
                        best = cycle
    return best


def _components_after_vertex_removal(adj, removed):
    n = len(adj)
    alive = [v for v in range(n) if v not in removed]
    if not alive:
        return 0
    seen = set()
    comps = 0
    for start in alive:
        if start in seen:
            continue
        comps += 1
        seen.add(start)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in removed and w not in seen:
                    seen.add(w)
                    queue.append(w)
    return comps


def edge_connectivity_bruteforce(g: BipartiteGraph) -> int:
    """Minimum cut over all vertex bipartitions containing vertex 0 (n <= 14)."""
    assert g.n <= 14
    adj = flat_adjacency(g)
    if _components_after_vertex_removal(adj, set()) > 1:
        return 0
    flat_edges = [(xi, g.x_count + yj) for xi, yj in g.edges]
    others = list(range(1, g.n))
    best = None
    for size in range(0, len(others)):
        for extra in combinations(others, size):
            side = {0, *extra}
            cut = sum(1 for u, v in flat_edges if (u in side) != (v in side))
            if best is None or cut < best:
                best = cut
    return best


def vertex_connectivity_bruteforce(g: BipartiteGraph) -> int:
    """Smallest vertex set whose removal disconnects g (n <= 14)."""
    assert g.n <= 14
    adj = flat_adjacency(g)
    if _components_after_vertex_removal(adj, set()) > 1:
        return 0
    for size in range(1, g.n - 1):
        for removed in combinations(range(g.n), size):
            if _components_after_vertex_removal(adj, set(removed)) > 1:
                return size
    return g.n - 1


def _max_flow_reach(cap, s, t):
    """Max flow s -> t over a dict of arc capacities, one BFS path per unit.

    Every arc's reverse must be a key too. Returns the flow and the set of
    nodes residual-reachable from s. Every maximum flow leaves the same
    reachable set, so a cut read from it does not depend on the flow
    algorithm.
    """
    cap = dict(cap)
    out = {}
    for a, b in cap:
        out.setdefault(a, []).append(b)

    def bfs():
        parent = {s: None}
        queue = deque([s])
        while queue:
            a = queue.popleft()
            for b in out[a]:
                if cap[(a, b)] > 0 and b not in parent:
                    parent[b] = a
                    queue.append(b)
        return parent

    flow = 0
    while True:
        parent = bfs()
        if t not in parent:
            return flow, set(parent)
        b = t
        while parent[b] is not None:
            a = parent[b]
            cap[(a, b)] -= 1
            cap[(b, a)] += 1
            b = a
        flow += 1


def edge_connectivity_reference(g: BipartiteGraph):
    """Edge cut from scanning sinks 1..n-1 out of vertex 0 (no flow cap).

    Keeps the first sink whose flow is below the running minimum, which
    starts at the minimum degree, and reads the cut from its residual-
    reachable set; with no such sink the cut is the edges at the lowest-
    numbered minimum-degree vertex. Disconnected graphs give ().
    """
    adj = flat_adjacency(g)
    if _components_after_vertex_removal(adj, set()) > 1:
        return ()
    cap = {(u, w): 1 for u in range(g.n) for w in adj[u]}
    degs = [len(lst) for lst in adj]
    low = degs.index(min(degs))
    best, reach = degs[low], None
    for t in range(1, g.n):
        flow, reached = _max_flow_reach(cap, 0, t)
        if flow < best:
            best, reach = flow, reached
    flat = [(xi, g.x_count + yj) for xi, yj in g.edges]
    if reach is None:
        return tuple(e for e, uv in zip(g.edges, flat) if low in uv)
    return tuple(
        e for e, (u, v) in zip(g.edges, flat) if (u in reach) != (v in reach)
    )


def vertex_connectivity_reference(g: BipartiteGraph, bound=None):
    """min(kappa, bound) and a flat-id separator of that size, from one scan
    of split-network flows over the non-adjacent pairs (u, w), u < w, in
    order (the reference).

    Each flow is capped at the running minimum, which starts at min(delta,
    bound), and the first pair below it gives the separator. With no such
    pair the separator is the neighborhood of the lowest-numbered
    minimum-degree vertex, or None when bound < delta. Sources stop at
    v_(best-1), after Even (1975): while kappa < best, a minimum separator
    misses some v_i with i <= kappa, and every vertex across it from v_i
    has a higher id.

    The flows are the production ones, ``flow._split_network`` and its
    ``_Network.flow``. Code that runs none of them checks them:
    ``vertex_connectivity_bruteforce``, ``disconnects_by_vertices``,
    ``flow._connectivity_upto3`` and ``edge_connectivity_reference`` on
    ``_max_flow_reach``.
    """
    adj = flat_adjacency(g)
    degs = [len(lst) for lst in adj]
    low = degs.index(min(degs))
    best = degs[low] if bound is None else min(degs[low], bound)
    net = flow._split_network(g)
    adj_sets = [set(lst) for lst in adj]
    reach = None
    for u in range(g.n):
        if u >= best:
            break
        for w in range(u + 1, g.n):
            if w in adj_sets[u]:
                continue
            f, reached = net.flow(2 * u + 1, 2 * w, best)
            if f < best:
                best, reach = f, reached
    if reach is None:
        return best, tuple(adj[low]) if best == degs[low] else None
    sep = tuple(
        v for v in range(g.n) if reach[2 * v] and not reach[2 * v + 1]
    )
    assert len(sep) == best
    return best, sep


class ForestFamilyReference:
    """k edge-disjoint forests with the full augmenting search for every
    edge: ``packing._ForestFamily`` before it kept components."""

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


def spanning_trees_reference(g: BipartiteGraph, k: int):
    """k spanning trees as sorted edge tuples from one matroid-union round
    offering every edge to the full search, or None when it does not
    pack."""
    family = ForestFamilyReference(g.n, flat_edges(g), k)
    trees = [[] for _ in range(k)]
    for eid in range(g.m):
        family.try_add(eid)
    for eid, f in family.assign.items():
        trees[f].append(g.edges[eid])
    if any(len(t) != g.n - 1 for t in trees):
        return None
    return tuple(tuple(sorted(t)) for t in trees)


def tree_packing_number_reference(g: BipartiteGraph, k_max, rounds):
    """tau from matroid-union rounds k = 1, 2, ... up to
    min(m // (n - 1), k_max), stopping at the first that fails to pack: the
    loop ``tree_packing_number`` ran before its rounds ran down from the
    cap. ``rounds[k - 1]`` is ``spanning_trees_reference(g, k)``."""
    cap = g.m // (g.n - 1)
    if k_max is not None:
        cap = min(cap, k_max)
    best = 0
    while best < cap and rounds[best] is not None:
        best += 1
    trees = rounds[best - 1] if best else ()
    return OracleResult(best, ForestPacking(trees))


def disconnects_by_edges(g: BipartiteGraph, edges) -> bool:
    adj = [[] for _ in range(g.n)]
    removed = set(edges)
    for xi, yj in g.edges:
        if (xi, yj) not in removed:
            adj[xi].append(g.x_count + yj)
            adj[g.x_count + yj].append(xi)
    return _components_after_vertex_removal(adj, set()) > 1


def disconnects_by_vertices(g: BipartiteGraph, vertices) -> bool:
    adj = flat_adjacency(g)
    removed = {
        i if part == "x" else g.x_count + i for part, i in vertices
    }
    return _components_after_vertex_removal(adj, removed) > 1


def is_spanning_tree(g: BipartiteGraph, edges) -> bool:
    """n - 1 edges of g that connect it."""
    edges = list(edges)
    rest = set(g.edges).difference(edges)
    return len(edges) == g.n - 1 and not disconnects_by_edges(g, rest)


def rigidity_matrix_mod_p(g: BipartiteGraph, pos, p: int) -> np.ndarray:
    """The full m x 2n rigidity matrix of g at integer points pos, mod p:
    row (u, v) holds p_u - p_v in u's coordinate pair, the negation in v's."""
    u, v = np.array(flat_edges(g), dtype=np.intp).reshape(-1, 2).T
    rows = np.arange(g.m)
    diff = (pos[u] - pos[v]) % p
    mat = np.zeros((g.m, g.n, 2), dtype=np.int64)  # [edge, vertex, coordinate]
    mat[rows, u] = diff
    mat[rows, v] = -diff % p
    return mat.reshape(g.m, 2 * g.n)


def rank_points_reference(seed: int, n: int) -> list[int]:
    """The 2n point coordinates of ``rigidity_matrix_rank_modular``, one
    ``SplitMix64.below`` draw each (the reference)."""
    rng = SplitMix64(seed)
    return [rng.below(RANK_FIELD_PRIME) for _ in range(2 * n)]


def rigidity_matrix_rank_modular_reference(g: BipartiteGraph, seed: int) -> int:
    """``rigidity_matrix_rank_modular`` by forward elimination of the full
    matrix at the same seeded points (the reference)."""
    pos = np.array(rank_points_reference(seed, g.n), dtype=np.int64)
    pos = pos.reshape(g.n, 2)
    mat = rigidity_matrix_mod_p(g, pos, RANK_FIELD_PRIME)
    return _rank_mod_p(mat, RANK_FIELD_PRIME)


def modular_rank_bruteforce(g: BipartiteGraph, edges, seed=12345) -> int:
    """Rank of the rigidity matrix restricted to an edge subset, over GF(p).

    Independent of the pebble game; used to re-validate Laman witnesses.
    """
    p = 2**31 - 1
    edges = tuple(edges)
    rng = np.random.default_rng(derive_seed(seed, g.n, len(edges)))
    pos = rng.integers(1, p, size=(g.n, 2), dtype=np.int64)
    sub = BipartiteGraph(g.x_count, g.y_count, edges)
    return rank_mod_p_reference(rigidity_matrix_mod_p(sub, pos, p), p)


def _pull_pebble_reference(root, banned, peb, succ):
    # DFS along accepted-edge orientations for a pebble not on root/banned,
    # taken when its vertex is popped; reversing the discovery path carries
    # it back to root. Out-edges are sets, visits a parent dict per search.
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


def pebble_accepted_reference(n, edges):
    """The (2,3) pebble game with a full search at every edge (the reference).

    No rigid components: each rejection pays its failed pebble searches.
    Its search keeps its own set-and-dict form, apart from the production
    one, so that the comparison does not check the game against itself.
    """
    peb = [2] * n
    succ = [set() for _ in range(n)]
    accepted = []
    for idx, (u, v) in enumerate(edges):
        while peb[u] + peb[v] < 4:
            if peb[u] < 2 and _pull_pebble_reference(u, v, peb, succ):
                continue
            if peb[v] < 2 and _pull_pebble_reference(v, u, peb, succ):
                continue
            break
        if peb[u] + peb[v] >= 4:
            peb[u] -= 1
            succ[u].add(v)
            accepted.append(idx)
    return accepted


def rank_mod_p_reference(mat, p: int) -> int:
    """Rank over GF(p) by Gauss-Jordan elimination of the whole matrix."""
    a = np.asarray(mat, dtype=np.int64) % p
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        nonzero = np.flatnonzero(a[r:, c])
        if not nonzero.size:
            continue
        pivot = r + int(nonzero[0])
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % p
        r += 1
        if r == rows:
            break
    return r


def pebble_rank_reference(g: BipartiteGraph, edges):
    """Rank and accepted subset of an edge list of g, in list order, by
    ``pebble_accepted_reference``."""
    edges = list(edges)
    flat = [(xi, g.x_count + yj) for xi, yj in edges]
    accepted = pebble_accepted_reference(g.n, flat)
    return len(accepted), tuple(edges[i] for i in accepted)


def redundantly_rigid_reference(g: BipartiteGraph):
    """``is_redundantly_rigid`` by one pebble game per basis edge (slow).

    Deletes each of the 2n - 3 edges of the sorted-order basis in turn and
    re-runs the game on the rest; the first deletion that drops the rank is
    the critical-edge witness.
    """
    target = 2 * g.n - 3
    rank, basis = pebble_rank_reference(g, g.edges)
    if rank != target:
        return OracleResult(0, None)
    for edge in basis:
        rank, _ = pebble_rank_reference(g, [e for e in g.edges if e != edge])
        if rank != target:
            return OracleResult(0, edge)
    return OracleResult(1, None)


def greedy_rigid_packing_reference(g: BipartiteGraph, k: int) -> OracleResult:
    """``greedy_rigid_packing`` re-sorting the remaining edges into the
    diagonal order every round: the loop before the order was sorted once."""
    target = 2 * g.n - 3
    if k == 1:
        rank, basis = pebble_rank_reference(g, g.edges)
        rigid = rank == target
        return OracleResult(
            1 if rigid else 0,
            LamanPacking((basis,)) if rigid else None,
        )
    period = max(g.x_count, g.y_count)
    remaining = list(g.edges)
    extracted = []
    for _ in range(k):
        order = sorted(
            remaining, key=lambda e: ((e[0] + e[1]) % period, e[0], e[1])
        )
        rank, independent = pebble_rank_reference(g, order)
        if rank != target:
            break
        extracted.append(tuple(sorted(independent)))
        used = set(independent)
        remaining = [e for e in remaining if e not in used]
    if not extracted:
        return OracleResult(0, None)
    return OracleResult(
        len(extracted),
        LamanPacking(tuple(extracted)),
        len(extracted) == min(k, g.m // target),
    )


def rigid_packing_exhaustive(g: BipartiteGraph, k: int) -> int:
    """Most edge-disjoint spanning Laman subgraphs of g, at most k, by search.

    Any packing of spanning rigid subgraphs thins to spanning Laman
    subgraphs, so trying every (2n-3)-subset of the unused edges loses
    nothing. Rigidity of a subset is its GF(p) rigidity-matrix rank, not
    the pebble game. Exponential: for n <= 8.
    """
    assert g.n <= 8
    target = 2 * g.n - 3

    def search(pool, depth):
        depth = min(depth, len(pool) // target)
        best = 0
        for subset in combinations(pool, target) if depth else ():
            if modular_rank_bruteforce(g, subset) != target:
                continue
            rest = [e for e in pool if e not in subset]
            best = max(best, 1 + search(rest, depth - 1))
            if best == depth:
                break
        return best

    return search(list(g.edges), k)


DISCONNECTED = BipartiteGraph(
    4, 4, ((0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3))
)

# Two K3,3 blocks (x2..x4 x y0..y2 and x5..x7 x y3..y5) joined only through
# x0 and x1, each adjacent to y0, y1, y3 and y4: kappa = 2 < delta = 3.
TWO_K33_BLOCKS = BipartiteGraph(
    8,
    6,
    tuple((i, j) for i in range(2, 5) for j in range(3))
    + tuple((i, j) for i in range(5, 8) for j in range(3, 6))
    + tuple((i, j) for i in (0, 1) for j in (0, 1, 3, 4)),
)

# Two K4,4 blocks (x2..x5 x y0..y3 and x6..x9 x y4..y7) joined through x0,
# adjacent to y0, y1, y4, y5, and x1, adjacent to y2, y3, y6, y7: {x0, x1}
# is the only 2-separator, so kappa = 2 < delta = 4.
TWO_K44_BLOCKS = BipartiteGraph(
    10,
    8,
    tuple((i, j) for i in range(2, 6) for j in range(4))
    + tuple((i, j) for i in range(6, 10) for j in range(4, 8))
    + tuple((0, j) for j in (0, 1, 4, 5))
    + tuple((1, j) for j in (2, 3, 6, 7)),
)

# Three K4,4 blocks, A = x0..x3 x y0..y3, B = x4..x7 x y4..y7 and
# C = x8..x11 x y8..y11, with A joined to B by three edges and to C by two:
# kappa' = 2 < delta = 4, and the flows from x0 to the rest of X lower the
# minimum twice, first at x4 (3) and then at x8 (2).
THREE_K44_BLOCKS = BipartiteGraph(
    12,
    12,
    tuple(
        (i, j)
        for base in (0, 4, 8)
        for i in range(base, base + 4)
        for j in range(base, base + 4)
    )
    + ((0, 4), (1, 5), (4, 0))
    + ((2, 8), (8, 1)),
)

# K4,4 plus x4 joined to y2 and y3: rigid, kappa = 2, and (4, 2) is its
# first critical edge.
K44_PENDANT = BipartiteGraph(
    5, 4, tuple((i, j) for i in range(4) for j in range(4)) + ((4, 2), (4, 3))
)


SMALL_COMBOS = (
    (4, 4, 2, 2),
    (6, 4, 2, 3),
    (4, 6, 3, 2),
    (5, 5, 2, 2),
    (6, 6, 2, 2),
    (3, 3, 2, 2),
)


def small_corpus(seed=4242, per_combo=3):
    """Seeded random graphs with n <= 12 for brute-force comparisons."""
    out = []
    for ci, (x, y, a, b) in enumerate(SMALL_COMBOS):
        for t in range(per_combo):
            out.append(random_biregular(x, y, a, b, derive_seed(seed, ci, t)))
    return out


def partition_corpus(seed=1717):
    """Graphs for comparing the partition oracles with their references:
    ``small_corpus`` graphs with n <= 10, seeded arbitrary bipartite graphs
    with n <= 9 (some with isolated vertices), K_{a,b}, even cycles and
    ``DISCONNECTED``."""
    out = [g for g in small_corpus() if g.n <= 10]
    rng = SplitMix64(seed)
    for x, y in ((2, 3), (3, 3), (3, 4), (4, 4), (4, 5), (2, 6), (5, 4)):
        for density in (3, 5, 7):
            edges = [
                (i, j)
                for i in range(x)
                for j in range(y)
                if rng.below(8) < density
            ]
            out.append(BipartiteGraph(x, y, tuple(edges)))
    for a, b in ((1, 3), (2, 2), (2, 4), (3, 3), (3, 5), (4, 4)):
        out.append(complete_bipartite(a, b))
    out += [even_cycle(length) for length in (4, 6, 8)]
    out.append(DISCONNECTED)
    return out

MEDIUM_COMBOS = (
    (8, 8, 2, 2),
    (9, 6, 2, 3),
    (8, 6, 3, 4),
    (8, 8, 4, 4),
    (10, 8, 4, 5),
    (12, 9, 3, 4),
    (10, 4, 2, 5),
    (12, 4, 2, 6),
)


def medium_corpus(seed=777, per_combo=2):
    """Seeded random graphs with n around 12 to 21 for property tests."""
    out = []
    for ci, (x, y, a, b) in enumerate(MEDIUM_COMBOS):
        for t in range(per_combo):
            out.append(random_biregular(x, y, a, b, derive_seed(seed, ci, t)))
    return out


# (n, |S|): circulants of degree 12..18 on 32..52 vertices.
CIRCULANT_SIZES = (
    (16, 12), (18, 13), (20, 14), (21, 15), (22, 16), (24, 17), (26, 18)
)


def seeded_circulants(seed, sizes=CIRCULANT_SIZES):
    """Bipartite circulants x_i ~ y_((i + s) mod n), s in a seeded S, for
    each (n, |S|) in sizes."""
    for slot, (n, d) in enumerate(sizes):
        rng = SplitMix64(derive_seed(seed, slot))
        pool = list(range(n))
        rng.shuffle(pool)
        edges = tuple((i, (i + s) % n) for i in range(n) for s in pool[:d])
        yield BipartiteGraph(n, n, edges)


def projective_plane(q):
    """Point-line incidence graph of PG(2, q), q prime, from homogeneous
    coordinates: points and lines are (x, y, 1), (x, 1, 0) and (1, 0, 0)
    mod q, and a point lies on a line when their dot product is 0 mod q.
    It is (q + 1, q + 1)-biregular on 2(q^2 + q + 1) vertices."""
    points = [(x, y, 1) for x in range(q) for y in range(q)]
    points += [(x, 1, 0) for x in range(q)] + [(1, 0, 0)]
    edges = tuple(
        (i, j)
        for i, point in enumerate(points)
        for j, line in enumerate(points)
        if sum(s * t for s, t in zip(point, line)) % q == 0
    )
    return BipartiteGraph(len(points), len(points), edges)


def seeded_bipartite(seed, count):
    """Seeded bipartite graphs, 2..11 vertices a side, each edge kept with
    probability d/8 for d = 1..8: many have isolated vertices, some more
    than 3(n - 1) edges."""
    rng = SplitMix64(seed)
    for _ in range(count):
        x, y, d = 2 + rng.below(10), 2 + rng.below(10), 1 + rng.below(8)
        edges = [(i, j) for i in range(x) for j in range(y) if rng.below(8) < d]
        yield BipartiteGraph(x, y, tuple(edges))


def record_calls(monkeypatch, owner, name):
    """Patch ``owner.name`` to append ``(args, result)`` for each call to
    the returned list, which a test clears between counts."""
    calls = []
    run = getattr(owner, name)

    def recorded(*args):
        result = run(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(owner, name, recorded)
    return calls


def vertices(g: BipartiteGraph):
    """Every vertex of g as (part, index), in flat id order: X, then Y."""
    return [flat_vertex(g, fid) for fid in range(g.n)]
