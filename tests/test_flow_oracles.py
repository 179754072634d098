"""Connectivity oracles against exhaustive enumeration and witness recheck."""

import pytest

from biregular import (
    BipartiteGraph,
    GraphProperty,
    complete_bipartite,
    even_cycle,
    heawood,
    validate_biregular,
)
from biregular.errors import TooSmall
from biregular.graphs import flat_vertex
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
    THREE_K44_BLOCKS,
    TWO_K33_BLOCKS,
    TWO_K44_BLOCKS,
    disconnects_by_edges,
    disconnects_by_vertices,
    edge_connectivity_bruteforce,
    edge_connectivity_reference,
    medium_corpus,
    small_corpus,
    vertex_connectivity_all_pairs,
    vertex_connectivity_bruteforce,
)


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
        assert edge_connectivity(g).witness.edges == edge_connectivity_reference(g)
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
    assert edge_connectivity(g) == OracleResult(
        GraphProperty.EDGE_CONNECTIVITY, 0, EdgeCut(()), True
    )
    assert vertex_connectivity(g) == OracleResult(
        GraphProperty.VERTEX_CONNECTIVITY, 0, Separator(()), True
    )
    assert tree_packing_number(g) == OracleResult(
        GraphProperty.TREE_PACKING, 0, ForestPacking(()), True
    )
    assert is_globally_rigid(g) == OracleResult(
        GraphProperty.GLOBAL_RIGIDITY, 0, None, True
    )


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
        kappa, sep = vertex_connectivity_all_pairs(g)
        res = vertex_connectivity(g)
        assert res.value == kappa
        assert res.witness.vertices == tuple(flat_vertex(g, v) for v in sep)


def test_kappa_below_min_degree():
    g = TWO_K33_BLOCKS
    assert min(len(a) for a in g.adj_x + g.adj_y) == 3
    res = vertex_connectivity(g)
    assert res.value == 2 == vertex_connectivity_bruteforce(g)
    assert disconnects_by_vertices(g, res.witness.vertices)

    # x0 and x1 lie in every minimum separator, so sources v_0 and v_1
    # alone would report 3.
    res = vertex_connectivity(TWO_K44_BLOCKS)
    assert res.value == 2
    assert res.witness.vertices == (("x", 0), ("x", 1))


def test_source_bound_flow_count(monkeypatch):
    # kappa = delta: at most delta sources with fewer than n sinks each, and
    # the witness is read from the scan, so no flow runs twice. Without the
    # source bound every non-adjacent pair runs a flow (70 on Heawood, 104
    # on C16), over delta (n - 1).
    calls = 0
    run_flow = flow._Network.flow

    def counted(self, s, t, limit):
        nonlocal calls
        calls += 1
        f, reached = run_flow(self, s, t, limit)
        assert f <= limit
        return f, reached

    monkeypatch.setattr(flow._Network, "flow", counted)
    for g, delta in ((heawood(), 3), (even_cycle(16), 2)):
        calls = 0
        assert vertex_connectivity(g).value == delta
        assert calls <= delta * (g.n - 1)
    # Both scans lower the cap below the flow of later pairs (3 inside a
    # K3,3 or K4,4 block), which must still stop at the cap.
    assert vertex_connectivity(TWO_K33_BLOCKS).value == 2
    assert edge_connectivity(THREE_K44_BLOCKS).value == 2
