"""Shared test helpers: independent oracles and small seeded corpora.

Everything here intentionally avoids the production code paths it checks:
spectra come from numpy's dense eigensolver on the full adjacency matrix,
connectivity from exhaustive enumeration, and witnesses are re-validated
from first principles.
"""

from collections import deque
from itertools import combinations

import numpy as np

from biregular import complete_bipartite, even_cycle, random_biregular
from biregular.errors import RetriesExhausted
from biregular.graphs import (
    BipartiteGraph,
    flat_adjacency,
    flat_edges,
    flat_index,
    flat_vertex,
)
from biregular.oracles import OracleResult, PartitionWitness, rigidity_rank
from biregular.oracles.partitions import _outside_z, blocks_from_assignment
from biregular.oracles.rigidity import _pull_pebble, pebble_rank_edges
from biregular.prng import SplitMix64, derive_seed
from biregular.properties import GraphProperty
from biregular.spectral import mixing_check


def random_biregular_scalar(x, y, a, b, seed, max_retries=10000):
    """The configuration-model sampler one shuffle at a time (the reference).

    Reads the splitmix64 stream one word per ``below`` call;
    ``random_biregular``, which reads it in blocks, must return the same
    graph, or raise RetriesExhausted where this does. Argument guards are
    left to the sampler.
    """
    rng = SplitMix64(seed)
    x_stubs = [i for i in range(x) for _ in range(a)]
    y_base = [j for j in range(y) for _ in range(b)]
    for _ in range(max_retries):
        y_stubs = y_base.copy()
        rng.shuffle(y_stubs)
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


def mixing_audit_scalar(g, pairs, seed, spectrum, tol=1e-9):
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
        report = mixing_check(g, a_side, b_side, spectrum, tol)
        if not report.holds:
            return ("violation", index, a_side, b_side, report.lhs, report.rhs)
        slacks.append(report.rhs - report.lhs)
    return (pairs, min(slacks), max(slacks))


def adjacency_matrix(g: BipartiteGraph) -> np.ndarray:
    n = g.n
    adj = np.zeros((n, n))
    for xi, yj in g.edges:
        adj[xi, g.x_count + yj] = adj[g.x_count + yj, xi] = 1.0
    return adj


def dense_sigma(g: BipartiteGraph) -> list[float]:
    """Top min(|X|,|Y|) adjacency eigenvalues via numpy's dense eigensolver."""
    eigs = sorted(np.linalg.eigvalsh(adjacency_matrix(g)), reverse=True)
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


def _components_after_edge_removal(g, removed_edges):
    n = g.n
    adj = [[] for _ in range(n)]
    removed = set(removed_edges)
    for e in g.edges:
        if e in removed:
            continue
        xi, yj = e
        adj[xi].append(g.x_count + yj)
        adj[g.x_count + yj].append(xi)
    return _components_after_vertex_removal(adj, set())


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


def _split_flow_reach(adj, s, t):
    """Max flow s_out -> t_in in the vertex-split network (2v in, 2v + 1 out).

    Returns the flow and the residual-reachable split nodes.
    """
    n = len(adj)
    cap = {}

    def arc(a, b, c):
        cap[(a, b)] = c
        cap.setdefault((b, a), 0)

    for v in range(n):
        arc(2 * v, 2 * v + 1, 1)
        for w in adj[v]:
            arc(2 * v + 1, 2 * w, n + 1)
    return _max_flow_reach(cap, 2 * s + 1, 2 * t)


def vertex_connectivity_all_pairs(g: BipartiteGraph):
    """kappa and flat-id separator from the all-pairs scan (no source bound).

    Visits every non-adjacent pair (u, w), u < w, in order and keeps the
    first pair whose flow is below the running minimum, which starts at the
    minimum degree; with no such pair the separator is the neighborhood of
    the lowest-numbered minimum-degree vertex.
    """
    adj = flat_adjacency(g)
    if _components_after_vertex_removal(adj, set()) > 1:
        return 0, ()
    degs = [len(lst) for lst in adj]
    low = degs.index(min(degs))
    best, best_pair = degs[low], None
    for u in range(g.n):
        for w in range(u + 1, g.n):
            if w in adj[u]:
                continue
            flow, _ = _split_flow_reach(adj, u, w)
            if flow < best:
                best, best_pair = flow, (u, w)
    if best_pair is None:
        return best, tuple(adj[low])
    _, reach = _split_flow_reach(adj, *best_pair)
    sep = tuple(
        v for v in range(g.n) if 2 * v in reach and 2 * v + 1 not in reach
    )
    assert len(sep) == best
    return best, sep


def disconnects_by_edges(g: BipartiteGraph, edges) -> bool:
    return _components_after_edge_removal(g, edges) > 1


def disconnects_by_vertices(g: BipartiteGraph, vertices) -> bool:
    adj = flat_adjacency(g)
    removed = {
        i if part == "x" else g.x_count + i for part, i in vertices
    }
    return _components_after_vertex_removal(adj, removed) > 1


def is_spanning_tree(g: BipartiteGraph, edges) -> bool:
    edges = list(edges)
    if len(edges) != g.n - 1:
        return False
    parent = list(range(g.n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for xi, yj in edges:
        u, v = xi, g.x_count + yj
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return len({find(v) for v in range(g.n)}) == 1


def modular_rank_bruteforce(g: BipartiteGraph, edges, seed=12345) -> int:
    """Rank of the rigidity matrix restricted to an edge subset, over GF(p).

    Independent of the pebble game; used to re-validate Laman witnesses.
    """
    p = 2**31 - 1
    rng_state = derive_seed(seed, g.n, len(list(edges)))
    rng = np.random.default_rng(rng_state)
    pos = rng.integers(1, p, size=(g.n, 2), dtype=np.int64)
    rows = []
    for xi, yj in edges:
        u, v = xi, g.x_count + yj
        row = np.zeros(2 * g.n, dtype=np.int64)
        row[2 * u] = (pos[u][0] - pos[v][0]) % p
        row[2 * u + 1] = (pos[u][1] - pos[v][1]) % p
        row[2 * v] = (-row[2 * u]) % p
        row[2 * v + 1] = (-row[2 * u + 1]) % p
        rows.append(row)
    if not rows:
        return 0
    return rank_mod_p_reference(np.array(rows), p)


def pebble_accepted_reference(n, edges):
    """The (2,3) pebble game with a full search at every edge (the reference).

    No rigid components: each rejection pays its failed pebble searches.
    """
    peb = [2] * n
    succ = [set() for _ in range(n)]
    accepted = []
    for idx, (u, v) in enumerate(edges):
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


def redundantly_rigid_reference(g: BipartiteGraph):
    """``is_redundantly_rigid`` by one pebble game per basis edge (slow).

    Deletes each of the 2n - 3 edges of the sorted-order basis in turn and
    re-runs the game on the rest; the first deletion that drops the rank is
    the critical-edge witness.
    """
    target = 2 * g.n - 3
    res = rigidity_rank(g)
    if res.value != target:
        return OracleResult(GraphProperty.GLOBAL_RIGIDITY, 0, None, True)
    for edge in res.witness.edges:
        rank, _ = pebble_rank_edges(g, [e for e in g.edges if e != edge])
        if rank != target:
            return OracleResult(GraphProperty.GLOBAL_RIGIDITY, 0, edge, True)
    return OracleResult(GraphProperty.GLOBAL_RIGIDITY, 1, None, True)


def iter_partition_assignments_reference(n: int):
    """Restricted growth strings of length n, scanning max(a[:j]) each step.

    The row order ``partition_blocks`` must keep, its tables joined. Yields
    fresh lists.
    """
    if n == 0:
        yield []
        return
    a = [0] * n
    while True:
        yield list(a)
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


def tree_packing_partition_bruteforce_reference(g: BipartiteGraph, k: int):
    """The partition brute force for tau, one Python list per partition.

    Keeps the first strict minimum as the witness, the rule
    ``tree_packing_partition_bruteforce`` must reproduce.
    """
    edges = flat_edges(g)
    best = None
    best_assignment = None
    for assignment in iter_partition_assignments_reference(g.n):
        t = max(assignment) + 1
        if t < 2:
            continue
        crossing = sum(1 for u, v in edges if assignment[u] != assignment[v])
        value = crossing // (t - 1)
        if best is None or value < best:
            best = value
            best_assignment = assignment
    witness = None
    if best is not None and best < k:
        verts = [flat_vertex(g, fid) for fid in range(g.n)]
        witness = PartitionWitness(
            removed=(), blocks=blocks_from_assignment(verts, best_assignment)
        )
    return OracleResult(GraphProperty.TREE_PACKING, best or 0, witness, True)


def partition_sides_reference(k, z_size, live, zdeg, assignment):
    """(lhs, rhs) of the rigid-packing partition inequality for one
    labelling, counted in a scalar loop."""
    t = max(assignment) + 1
    sizes = [0] * t
    for lab in assignment:
        sizes[lab] += 1
    n0 = sizes.count(1)
    nz = sum(zdeg[i] for i, lab in enumerate(assignment) if sizes[lab] == 1)
    rhs = k * (3 - z_size) * (t - n0) + 2 * k * n0 - 3 * k - nz
    lhs = sum(1 for u, v in live if assignment[u] != assignment[v])
    return lhs, rhs


def partition_bound_reference(g: BipartiteGraph, k, removed, partition):
    """(lhs, rhs) of ``rigid_packing_partition_bound`` for a valid (Z, pi)."""
    z_set = {flat_index(g, v) for v in removed}
    flat_blocks = [[flat_index(g, v) for v in block] for block in partition]
    rest = [fid for fb in flat_blocks for fid in fb]
    assignment = [li for li, fb in enumerate(flat_blocks) for _ in fb]
    live, zdeg = _outside_z(flat_edges(g), flat_adjacency(g), z_set, rest)
    return partition_sides_reference(k, len(z_set), live, zdeg, assignment)


def rigid_packing_partition_sufficient_reference(g: BipartiteGraph, k: int):
    """The first (Z, pi) violating the partition inequality, scanning Z by
    size and then lexicographically, and pi in restricted-growth order."""
    n = g.n
    edges, adj = flat_edges(g), flat_adjacency(g)
    for z_size in range(min(2, n - 1) + 1):
        for z_combo in combinations(range(n), z_size):
            z_set = set(z_combo)
            rest = [v for v in range(n) if v not in z_set]
            live, zdeg = _outside_z(edges, adj, z_set, rest)
            for assignment in iter_partition_assignments_reference(len(rest)):
                lhs, rhs = partition_sides_reference(
                    k, z_size, live, zdeg, assignment
                )
                if lhs < rhs:
                    witness = PartitionWitness(
                        removed=tuple(flat_vertex(g, v) for v in z_combo),
                        blocks=blocks_from_assignment(
                            [flat_vertex(g, v) for v in rest], assignment
                        ),
                    )
                    return OracleResult(
                        GraphProperty.RIGID_PACKING, 0, witness, True
                    )
    return OracleResult(GraphProperty.RIGID_PACKING, 1, None, True)

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
# is the only 2-separator, so kappa = 2 < delta = 4 and no pair with v_0 or
# v_1 as source reaches it; the first minimum pair has source v_2.
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
# kappa' = 2 < delta = 4, and the sink scan from x0 improves twice, first
# at x4 (3) and then at x8 (2).
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
