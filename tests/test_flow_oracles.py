"""Connectivity oracles against exhaustive enumeration and witness recheck."""

from math import comb

import pytest

from biregular import (
    BipartiteGraph,
    complete_bipartite,
    even_cycle,
    heawood,
    validate_biregular,
)
from biregular.errors import TooLarge, TooSmall
from biregular.graphs import flat_adjacency, flat_vertex
from biregular.prng import SplitMix64
from biregular.oracles import (
    EdgeCut,
    ForestPacking,
    OracleResult,
    Separator,
    edge_connectivity,
    flow,
    is_globally_rigid,
    tree_packing_number,
    vertex_connectivity,
)

from testutil import (
    DISCONNECTED,
    K44_PENDANT,
    THREE_K44_BLOCKS,
    TWO_K33_BLOCKS,
    TWO_K44_BLOCKS,
    disconnects_by_edges,
    disconnects_by_vertices,
    edge_connectivity_bruteforce,
    edge_connectivity_reference,
    medium_corpus,
    record_calls,
    seeded_bipartite,
    seeded_circulants,
    small_corpus,
    vertex_connectivity_bruteforce,
    vertex_connectivity_reference,
)


def _min_degree(g):
    return min(len(lst) for lst in g.adj_x + g.adj_y)


def _check_edge_cut(g):
    """kappa' against ``edge_connectivity_reference``: the same value, the
    same cut when kappa' is 0 or delta, and below delta value-many edges
    that disconnect g."""
    res = edge_connectivity(g)
    cut = edge_connectivity_reference(g)
    assert res.value == len(cut) <= _min_degree(g)
    if 0 < res.value < _min_degree(g):
        assert len(res.witness.edges) == res.value
        assert disconnects_by_edges(g, res.witness.edges)
    else:
        assert res.witness.edges == cut
    return res


def _check_separator(g):
    """kappa against ``vertex_connectivity_reference``: the same value, the
    same separator when kappa is 0 or delta, and below delta value-many
    vertices that disconnect g."""
    kappa, sep = vertex_connectivity_reference(g)
    res = vertex_connectivity(g)
    assert res.value == kappa
    if 0 < kappa < _min_degree(g):
        assert len(res.witness.vertices) == kappa
        assert disconnects_by_vertices(g, res.witness.vertices)
    else:
        assert res.witness.vertices == tuple(flat_vertex(g, v) for v in sep)
    return res


def test_edge_connectivity_desk_values():
    assert edge_connectivity(even_cycle(6)).value == 2
    assert edge_connectivity(complete_bipartite(3, 3)).value == 3
    assert edge_connectivity(complete_bipartite(4, 4)).value == 4
    assert edge_connectivity(heawood()).value == 3


def test_edge_connectivity_matches_bruteforce():
    for g in (even_cycle(6), complete_bipartite(3, 3), complete_bipartite(4, 4)):
        assert edge_connectivity(g).value == edge_connectivity_bruteforce(g)
    for g in small_corpus():
        assert edge_connectivity(g).value == edge_connectivity_bruteforce(g)


def test_edge_cut_witness_disconnects():
    for g in (even_cycle(6), heawood(), *small_corpus(per_combo=1)):
        res = edge_connectivity(g)
        if res.value == 0:
            continue
        assert len(res.witness.edges) == res.value
        assert disconnects_by_edges(g, res.witness.edges)


def test_edge_cut_witness_matches_reference():
    graphs = [
        *small_corpus(),
        *medium_corpus(),
        DISCONNECTED,
        even_cycle(6),
        complete_bipartite(3, 3),
        heawood(),
        TWO_K33_BLOCKS,
        THREE_K44_BLOCKS,
    ]
    for g in graphs:
        _check_edge_cut(g)
    res = edge_connectivity(THREE_K44_BLOCKS)
    assert res.value == 2
    assert res.witness.edges == ((2, 8), (8, 1))


def test_edge_connectivity_disconnected():
    res = edge_connectivity(DISCONNECTED)
    assert res.value == 0
    assert res.witness.edges == ()


def test_vertex_connectivity_desk_values():
    assert vertex_connectivity(complete_bipartite(3, 3)).value == 3
    assert vertex_connectivity(even_cycle(6)).value == 2
    assert vertex_connectivity(heawood()).value == 3
    # complete bipartite convention: kappa = min part size
    assert vertex_connectivity(complete_bipartite(1, 4)).value == 1
    assert vertex_connectivity(complete_bipartite(2, 5)).value == 2


def test_heawood_survives_all_2_subsets():
    from itertools import combinations

    g = heawood()
    for pair in combinations(range(g.n), 2):
        assert not disconnects_by_vertices(
            g, [flat_vertex(g, v) for v in pair]
        )


def test_vertex_connectivity_matches_bruteforce():
    for g in (even_cycle(6), complete_bipartite(3, 3), complete_bipartite(2, 4)):
        assert vertex_connectivity(g).value == vertex_connectivity_bruteforce(g)
    for g in small_corpus():
        assert vertex_connectivity(g).value == vertex_connectivity_bruteforce(g)


def test_separator_witness_disconnects():
    for g in (even_cycle(6), complete_bipartite(3, 3), *small_corpus(per_combo=1)):
        res = vertex_connectivity(g)
        if res.value == 0:
            continue
        assert len(res.witness.vertices) == res.value
        assert disconnects_by_vertices(g, res.witness.vertices)


def test_vertex_connectivity_disconnected_and_small():
    res = vertex_connectivity(DISCONNECTED)
    assert res.value == 0
    assert res.witness == Separator(())
    with pytest.raises(TooSmall):
        vertex_connectivity(complete_bipartite(1, 1))


def test_isolated_vertex():
    # x2 and y2 have no edges, so delta = 0: each search, not a separate
    # connectivity check, must give 0 with an empty witness.
    g = BipartiteGraph(3, 3, ((0, 0), (0, 1), (1, 0), (1, 1)))
    assert edge_connectivity(g) == OracleResult(0, EdgeCut(()))
    assert vertex_connectivity(g) == OracleResult(0, Separator(()))
    assert tree_packing_number(g) == OracleResult(0, ForestPacking(()))
    assert is_globally_rigid(g) == OracleResult(0, None)


def test_whitney_chain_on_corpus():
    for g in small_corpus(per_combo=1) + medium_corpus():
        profile = validate_biregular(g)
        kv = vertex_connectivity(g).value
        ke = edge_connectivity(g).value
        assert kv <= ke <= min(profile.a, profile.b)


def test_source_bound_matches_all_pairs_scan():
    graphs = [
        *small_corpus(),
        *medium_corpus(),
        DISCONNECTED,
        complete_bipartite(1, 4),
        complete_bipartite(2, 5),
        complete_bipartite(3, 3),
        TWO_K33_BLOCKS,
        TWO_K44_BLOCKS,
    ]
    for g in graphs:
        _check_separator(g)


def test_kappa_below_min_degree():
    g = TWO_K33_BLOCKS
    assert min(len(a) for a in g.adj_x + g.adj_y) == 3
    res = vertex_connectivity(g)
    assert res.value == 2 == vertex_connectivity_bruteforce(g)
    assert disconnects_by_vertices(g, res.witness.vertices)

    # {x0, x1} is the only 2-separator and holds x0, the lowest vertex of
    # X, so only the flows between x0's neighbors find it.
    res = vertex_connectivity(TWO_K44_BLOCKS)
    assert res.value == 2
    assert res.witness.vertices == (("x", 0), ("x", 1))


def _glued_blocks(m, shared):
    """Two K_{m,m} blocks sharing x_0..x_(shared-1) and nothing else:
    kappa = shared < delta = m."""
    a = [(i, j) for i in range(m) for j in range(m)]
    xs = [*range(shared), *range(m, 2 * m - shared)]
    b = [(i, j) for i in xs for j in range(m, 2 * m)]
    return BipartiteGraph(2 * m - shared, 2 * m, tuple(sorted(a + b)))


def _permuted(rng, x, y, edges):
    """The graph on ``edges`` with its X and its Y ids shuffled, so that the
    depth-first search starts elsewhere and meets neighbors in another
    order."""
    px, py = list(range(x)), list(range(y))
    rng.shuffle(px)
    rng.shuffle(py)
    return BipartiteGraph(x, y, tuple((px[i], py[j]) for i, j in edges))


def _dense_block(rng):
    """K_{p,q} for 3 <= p, q <= 6, less some edges whose ends keep degree 3
    or more: ``(p, q, edges)``."""
    p, q = 3 + rng.below(4), 3 + rng.below(4)
    edges = [(i, j) for i in range(p) for j in range(q)]
    rng.shuffle(edges)
    deg = [q] * p + [p] * q
    kept = []
    for i, j in edges:
        if deg[i] > 3 and deg[p + j] > 3 and rng.below(3) == 0:
            deg[i] -= 1
            deg[p + j] -= 1
        else:
            kept.append((i, j))
    return p, q, kept


def _two_sums(seed, count):
    """Two delta >= 3 blocks glued at x_0 and y_0, their edge dropped half
    the time, at x_0 and x_1, or at y_0 and y_1; ids shuffled."""
    rng = SplitMix64(seed)
    for _ in range(count):
        p1, q1, first = _dense_block(rng)
        p2, q2, second = _dense_block(rng)
        sx, sy = ((1, 1), (2, 0), (0, 2))[rng.below(3)]
        xs = [*range(sx), *range(p1, p1 + p2 - sx)]
        ys = [*range(sy), *range(q1, q1 + q2 - sy)]
        edges = {*first, *((xs[i], ys[j]) for i, j in second)}
        if sx == sy and rng.below(2):
            edges.discard((0, 0))
        yield _permuted(rng, p1 + p2 - sx, q1 + q2 - sy, sorted(edges))


def _block_rings(seed, count):
    """Rings of 3..5 K_{m,m} blocks, m = 3 or 4, each sharing one X vertex
    with the next: any two shared vertices separate G, and no cut vertex
    does. Ids shuffled."""
    rng = SplitMix64(seed)
    for _ in range(count):
        t, m = 3 + rng.below(3), 3 + rng.below(2)
        edges = []
        for i in range(t):
            own = range(t + i * (m - 2), t + (i + 1) * (m - 2))
            xs = (i, (i + 1) % t, *own)
            edges += [(a, i * m + j) for a in xs for j in range(m)]
        yield _permuted(rng, t * (m - 1), t * m, edges)


def _pendant_blocks(seed, count):
    """A K_{5,5} core with one to three K_{3,3} or K_{4,4} blocks hanging
    from two core vertices each, an X and a Y vertex or two X vertices.
    Ids shuffled."""
    rng = SplitMix64(seed)
    for _ in range(count):
        x = y = 5
        edges = {(i, j) for i in range(5) for j in range(5)}
        for _ in range(1 + rng.below(3)):
            m, a = 3 + rng.below(2), rng.below(5)
            if rng.below(2):
                sx, sy = [a, (a + 1) % 5], []
            else:
                sx, sy = [a], [rng.below(5)]
            xs = [*sx, *range(x, x + m - len(sx))]
            ys = [*sy, *range(y, y + m - len(sy))]
            x, y = x + m - len(sx), y + m - len(sy)
            edges.update((i, j) for i in xs for j in ys)
        yield _permuted(rng, x, y, sorted(edges))


def _prism(k):
    """C_k x K2 for even k: cycles u_0..u_(k-1) and w_0..w_(k-1) joined by
    the rungs u_i w_i; 3-regular and 3-connected. u_i is an X vertex for
    even i, w_i for odd i."""
    half = k // 2

    def at(ring, i):
        i %= k
        return (i + ring) % 2, ring * half + i // 2

    edges = []
    for i in range(k):
        for a, b in (
            (at(0, i), at(0, i + 1)),
            (at(1, i), at(1, i + 1)),
            (at(0, i), at(1, i)),
        ):
            edges.append((a[1], b[1]) if a[0] == 0 else (b[1], a[1]))
    return BipartiteGraph(k, k, tuple(edges))


def _prism_pair(k):
    """Two C_k x K2 prisms, each less its edge x_0 y_0 (u_0 u_1), joined by
    the edges from each one's x_0 to the other's y_0: 3-regular, kappa 2."""
    one = _prism(k).edges
    two = tuple((i + k, j + k) for i, j in one)
    edges = {*one, *two, (0, k), (k, 0)} - {(0, 0), (k, k)}
    return BipartiteGraph(2 * k, 2 * k, tuple(edges))


class _CountedList:
    """A neighbor list that counts how often it is read."""

    def __init__(self, items):
        self.items = tuple(items)
        self.reads = 0

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        self.reads += 1
        return iter(self.items)

    def __getitem__(self, i):
        self.reads += 1
        return self.items[i]


GLUED_BLOCKS = [_glued_blocks(m, t) for m in range(5, 9) for t in (1, 2, 3)]
# Two K5,5 blocks (x1..x5 x y1..y5 and x6..x10 x y6..y10) joined through x0,
# adjacent to every y, and y0, adjacent to every x: kappa = 2 < delta = 6.
# The separator {x0, y0} holds the lowest vertex of each part, and that
# vertex reaches the rest of its part with 6 paths, so only the flows
# between its neighbors find the cut.
HUB_BLOCKS = BipartiteGraph(
    11,
    11,
    tuple((0, j) for j in range(11))
    + tuple((i, 0) for i in range(1, 11))
    + tuple((i, j) for i in range(1, 6) for j in range(1, 6))
    + tuple((i, j) for i in range(6, 11) for j in range(6, 11)),
)
# K8,8 and an isolated y8: kappa 0, with more than 3(n - 1) edges.
K88_ISOLATED = BipartiteGraph(
    8, 9, tuple((i, j) for i in range(8) for j in range(8))
)


def test_connectivity_upto3_matches_flow_scan(default_corpus):
    graphs = [
        *default_corpus,
        *small_corpus(),
        *medium_corpus(),
        *seeded_circulants(31),
        *seeded_circulants(57),
        *GLUED_BLOCKS,
        *(g for g in seeded_bipartite(2024, 300) if g.n >= 3),
        K88_ISOLATED,
        DISCONNECTED,
        TWO_K33_BLOCKS,
        TWO_K44_BLOCKS,
        THREE_K44_BLOCKS,
    ]
    values = {}
    searched = {}
    for g in graphs:
        adj = flat_adjacency(g)
        value, sep = flow._connectivity_upto3(adj)
        assert value == vertex_connectivity_reference(g, 3)[0]
        if sep is not None:
            assert len(sep) == value
            assert disconnects_by_vertices(g, [flat_vertex(g, v) for v in sep])
        values[value] = values.get(value, 0) + 1
        if value >= 2 and min(map(len, adj)) >= 3:
            # The separation-pair search decided this one.
            searched[value] = searched.get(value, 0) + 1
    assert set(values) == {0, 1, 2, 3}
    assert values[0] >= 3 and values[1] >= 3
    assert searched[2] >= 3 and searched[3] >= 150


def test_separation_pair_search_matches_flow_scan():
    # Each graph has a 2-separator by construction: 2-sums and pendant
    # blocks split at both pair types, block rings at type-2 pairs, and the
    # shuffled ids vary which pair the search meets first.
    graphs = [
        *_two_sums(1901, 100),
        *_block_rings(1902, 24),
        *_pendant_blocks(1903, 30),
    ]
    for g in graphs:
        adj = flat_adjacency(g)
        assert min(map(len, adj)) >= 3
        assert flow._connectivity_upto3(adj)[0] == 2
        assert vertex_connectivity_reference(g, 3)[0] == 2
        pair = flow._separation_pair(flow._palm_tree(adj))
        assert disconnects_by_vertices(g, [flat_vertex(g, v) for v in pair])


def test_separation_pair_search_at_the_size_guard():
    # 512 vertices and a deep depth-first tree, searched without recursion.
    prism = _prism(256)
    adj = flat_adjacency(prism)
    assert prism.n == flow.VERTEX_CONN_GUARD
    assert flow._connectivity_upto3(adj)[0] == 3
    assert flow._separation_pair(flow._palm_tree(adj)) is None
    assert vertex_connectivity(prism).value == 3
    joined = _prism_pair(128)
    adj = flat_adjacency(joined)
    assert joined.n == flow.VERTEX_CONN_GUARD
    assert min(map(len, adj)) == 3
    assert flow._connectivity_upto3(adj)[0] == 2
    pair = flow._separation_pair(flow._palm_tree(adj))
    cut = [flat_vertex(joined, v) for v in pair]
    assert disconnects_by_vertices(joined, cut)


def test_three_connected_graph_gets_no_pass_per_vertex():
    # One lowpoint search reads each neighbor list once; the separation-pair
    # search works on the palm tree it left, not on G - v for each v.
    for g in (heawood(), complete_bipartite(6, 6), _prism(64)):
        adj = [_CountedList(lst) for lst in flat_adjacency(g)]
        assert flow._connectivity_upto3(adj)[0] == 3
        assert max(lst.reads for lst in adj) == 1


def test_witness_matches_flow_path_on_default_corpus(default_corpus):
    below_delta = 0
    for g in default_corpus:
        below_delta += _check_separator(g).value < _min_degree(g)
    assert below_delta >= 10


def test_witness_matches_all_pairs_on_dense_and_arbitrary_graphs():
    graphs = [
        *(g for g in seeded_bipartite(4096, 120) if g.n >= 3),
        *GLUED_BLOCKS,
        next(seeded_circulants(31)),
        K88_ISOLATED,
        DISCONNECTED,
    ]
    for g in graphs:
        _check_separator(g)


def test_flows_only_for_a_witness(monkeypatch):
    # delta <= 3 runs no flow. kappa = delta: the witness is the min-degree
    # neighbourhood.
    at_delta = [heawood(), even_cycle(16), complete_bipartite(1, 4)]
    expected = [vertex_connectivity_reference(g) for g in at_delta]
    calls = record_calls(monkeypatch, flow._Network, "flow")
    for g, (kappa, sep), delta in zip(at_delta, expected, (3, 2, 1)):
        calls.clear()
        res = vertex_connectivity(g)
        assert res.value == kappa == delta
        assert res.witness.vertices == tuple(flat_vertex(g, v) for v in sep)
        assert len(calls) == 0
    calls.clear()
    assert is_globally_rigid(complete_bipartite(6, 6)).value == 1
    assert len(calls) == 0
    # kappa < delta <= 3: the depth-first searches find the separator.
    for g, sep in ((TWO_K33_BLOCKS, (("y", 0), ("y", 1))), (DISCONNECTED, ())):
        calls.clear()
        res = vertex_connectivity(g)
        assert res.witness.vertices == sep
        assert len(calls) == 0


def test_size_guards(monkeypatch):
    # Only the flow pass is guarded. even_cycle(514) takes the depth-first
    # path (delta = 2) and the 4-regular circulant on 2 * 257 vertices the
    # flow path, which must refuse it before it builds a network;
    # is_globally_rigid runs no flow on either.
    def unbuilt(self, n):
        raise AssertionError("network built past the size guard")

    monkeypatch.setattr(flow._Network, "__init__", unbuilt)
    circulant = tuple((i, (i + s) % 257) for i in range(257) for s in range(4))
    cycle, dense = even_cycle(514), BipartiteGraph(257, 257, circulant)
    assert vertex_connectivity(cycle) == OracleResult(
        2, Separator((("y", 0), ("y", 256)))
    )
    assert is_globally_rigid(cycle).value == 0
    assert is_globally_rigid(dense).value == 1
    with pytest.raises(TooLarge):
        vertex_connectivity(dense)
    for g in (complete_bipartite(1, 1), BipartiteGraph(1, 1, ())):
        with pytest.raises(TooSmall):
            vertex_connectivity(g)
    for g in (complete_bipartite(1, 2), BipartiteGraph(1, 2, ())):
        with pytest.raises(TooSmall):
            is_globally_rigid(g)
    assert vertex_connectivity(complete_bipartite(1, 2)) == OracleResult(
        1, Separator((("x", 0),))
    )
    assert vertex_connectivity(BipartiteGraph(1, 2, ())).value == 0


def _kappa_flow_bound(g):
    """(|P| - 1) + C(deg v, 2), v the lowest vertex of the part P where
    that is smaller: the flows ``vertex_connectivity`` may run at delta >=
    4."""
    adj = flat_adjacency(g)
    x0, y0 = adj[0], adj[g.x_count]
    return min(
        g.x_count - 1 + comb(len(x0), 2), g.y_count - 1 + comb(len(y0), 2)
    )


def _delta_test_graphs(default_corpus):
    """Default corpus, circulants, glued and hub blocks, K_{m,n} with
    4 <= m <= n <= 8 and seeded bipartite graphs, for the connectivity >=
    delta tests."""
    return [
        *default_corpus,
        *seeded_circulants(31),
        *seeded_circulants(57),
        *GLUED_BLOCKS,
        HUB_BLOCKS,
        *(complete_bipartite(m, n) for m in range(4, 9) for n in range(m, 9)),
        *(g for g in seeded_bipartite(2024, 300) if g.n >= 3),
        *(g for g in seeded_bipartite(4096, 120) if g.n >= 3),
    ]


def test_kappa_delta_test_matches_flow_path(default_corpus):
    at_delta = below_delta = 0
    for g in _delta_test_graphs(default_corpus):
        delta = _min_degree(g)
        if delta < 4:
            continue
        kappa = _check_separator(g).value
        at_delta += kappa == delta
        below_delta += kappa < delta
    # The glued and hub blocks fall below delta.
    assert at_delta >= 150 and below_delta == len(GLUED_BLOCKS) + 1
    assert vertex_connectivity(HUB_BLOCKS).value == 2


def test_kappa_at_delta_runs_few_flows(default_corpus, monkeypatch):
    graphs = [
        complete_bipartite(4, 6),
        complete_bipartite(8, 8),
        *seeded_circulants(31),
        *(g for g in default_corpus if _min_degree(g) >= 4),
    ]
    calls = record_calls(monkeypatch, flow._Network, "flow")
    for g in graphs:
        adj = flat_adjacency(g)
        delta = _min_degree(g)
        calls.clear()
        res = vertex_connectivity(g)
        assert res.value == delta
        assert res.witness.vertices == tuple(
            flat_vertex(g, v) for v in adj[[len(a) for a in adj].index(delta)]
        )
        assert 0 < len(calls) <= _kappa_flow_bound(g) < delta * (g.n - 1)


def test_edge_delta_test_matches_reference(default_corpus):
    graphs = [
        *_delta_test_graphs(default_corpus),
        THREE_K44_BLOCKS,
        DISCONNECTED,
        K88_ISOLATED,
    ]
    below_delta = 0
    for g in graphs:
        below_delta += _check_edge_cut(g).value < _min_degree(g)
    assert below_delta >= 10


def test_edge_connectivity_at_delta_runs_few_flows(default_corpus, monkeypatch):
    graphs = [
        heawood(),
        complete_bipartite(1, 4),
        complete_bipartite(4, 6),
        complete_bipartite(7, 5),
        *seeded_circulants(31),
        *default_corpus,
    ]
    calls = record_calls(monkeypatch, flow._Network, "flow")
    at_delta = 0
    for g in graphs:
        calls.clear()
        if edge_connectivity(g).value != _min_degree(g):
            continue
        at_delta += 1
        assert len(calls) <= min(g.x_count, g.y_count) - 1
    assert at_delta >= 400


def test_one_pass_flow_count(default_corpus, monkeypatch):
    # Below delta as at it, each oracle runs its decision pairs once:
    # kappa at most (|P| - 1) + C(deg v, 2) flows when delta >= 4 and none
    # when delta <= 3, kappa' at most min(|X|, |Y|) - 1. Once the running
    # minimum falls below the flow of later pairs (3 or more inside a
    # block), those flows must still stop at it.
    graphs = [
        *GLUED_BLOCKS,
        HUB_BLOCKS,
        TWO_K33_BLOCKS,
        TWO_K44_BLOCKS,
        THREE_K44_BLOCKS,
        K44_PENDANT,
        *default_corpus,
    ]
    calls = record_calls(monkeypatch, flow._Network, "flow")
    lowered = 0
    for g in graphs:
        delta = _min_degree(g)
        start = len(calls)
        vertex_connectivity(g)
        bound = _kappa_flow_bound(g) if delta >= 4 else 0
        assert len(calls) - start <= bound
        before = len(calls)
        edge_connectivity(g)
        assert len(calls) - before <= min(g.x_count, g.y_count) - 1
        lowered += any(limit < delta for (*_, limit), _ in calls[start:])
    assert all(f <= limit for (*_, limit), (f, _) in calls)
    assert lowered >= 5
