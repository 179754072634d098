"""Tree packing: matroid union against the partition brute force."""

import pytest

from biregular import BipartiteGraph, complete_bipartite, even_cycle
from biregular.errors import InvalidParam, TooLarge
from biregular.graphs import flat_edges
from biregular.oracles import (
    ForestPacking,
    greedy_rigid_packing,
    packing,
    tree_packing_number,
)

from partition_oracles import (
    _BLOCK_ROWS,
    PARTITION_GUARD,
    iter_partition_assignments_reference,
    partition_blocks,
    tree_packing_partition_bruteforce,
)
from testutil import (
    DISCONNECTED,
    ForestFamilyReference,
    is_spanning_tree,
    medium_corpus,
    partition_corpus,
    projective_plane,
    record_calls,
    seeded_bipartite,
    small_corpus,
    spanning_trees_reference,
    tree_packing_number_reference,
    vertices,
)


def _joined_k66_blocks(links):
    """Two K6,6 blocks joined by ``links`` edges x_i ~ y_(6+i): 74 edges or
    fewer on 24 vertices, so the edge-count cap is 3 but tau = links."""
    block = [(i, j) for i in range(6) for j in range(6)]
    other = [(i + 6, j + 6) for i, j in block]
    bridges = [(i, 6 + i) for i in range(links)]
    return BipartiteGraph(12, 12, tuple(block + other + bridges))


def test_k44_packs_two_trees():
    res = tree_packing_number(complete_bipartite(4, 4))
    assert res.value == 2
    forests = res.witness.forests
    assert len(forests) == 2
    assert all(len(f) == 7 for f in forests)
    assert all(is_spanning_tree(complete_bipartite(4, 4), f) for f in forests)
    assert not (set(forests[0]) & set(forests[1]))


def test_small_desk_values():
    assert tree_packing_number(even_cycle(6)).value == 1
    assert tree_packing_number(complete_bipartite(3, 3)).value == 1
    assert tree_packing_number(complete_bipartite(6, 6)).value == 3
    # PG(2, 7) packs as many trees as its edge count allows.
    pg7 = projective_plane(7)
    assert tree_packing_number(pg7).value == 4 == pg7.m // (pg7.n - 1)
    assert packing._spanning_trees(pg7, 4) == spanning_trees_reference(pg7, 4)


def test_k_max_caps_the_search():
    assert tree_packing_number(complete_bipartite(4, 4), k_max=1).value == 1
    assert tree_packing_number(complete_bipartite(6, 6), k_max=2).value == 2
    assert tree_packing_number(complete_bipartite(6, 6), k_max=2.0).value == 2


def test_greedy_rigid_packing_takes_integral_float_k():
    # check_k accepts an integral float for every k, so greedy packing
    # packs the same as at the int rather than failing in range(2.0).
    k1212 = complete_bipartite(12, 12)
    assert greedy_rigid_packing(k1212, 2.0) == greedy_rigid_packing(k1212, 2)
    assert greedy_rigid_packing(k1212, 2.0).value == 2


def test_disconnected_tau_zero():
    res = tree_packing_number(DISCONNECTED)
    assert res.value == 0
    assert res.witness == ForestPacking(())
    assert tree_packing_partition_bruteforce(DISCONNECTED, 1).value == 0


def test_bruteforce_desk_values():
    assert tree_packing_partition_bruteforce(even_cycle(6), 2).value == 1
    assert tree_packing_partition_bruteforce(complete_bipartite(3, 3), 2).value == 1
    assert tree_packing_partition_bruteforce(complete_bipartite(4, 4), 3).value == 2


def test_bruteforce_witness_violates_bound():
    res = tree_packing_partition_bruteforce(even_cycle(6), 2)
    assert res.value == 1 < 2
    blocks = res.witness.blocks
    t = len(blocks)
    assert t >= 2
    flat = {v: i for i, block in enumerate(blocks) for v in block}
    g = even_cycle(6)
    crossing = sum(
        1 for xi, yj in g.edges if flat[("x", xi)] != flat[("y", yj)]
    )
    assert crossing // (t - 1) < 2


def test_oracles_agree_on_small_corpus():
    for g in small_corpus():
        exact = tree_packing_number(g).value
        brute = tree_packing_partition_bruteforce(g, 4).value
        assert exact == brute


def _round_graphs(default_corpus):
    """The default corpus, both test corpora, K_{a,b} for a, b <= 8, seeded
    bipartite graphs and the joined K6,6 blocks, which miss their cap."""
    return [
        *default_corpus,
        *small_corpus(),
        *medium_corpus(),
        *(complete_bipartite(a, b) for a in range(1, 9) for b in range(1, 9)),
        *seeded_bipartite(2024, 100),
        _joined_k66_blocks(1),
        _joined_k66_blocks(2),
    ]


def test_cap_round_runs_first(monkeypatch):
    calls = record_calls(monkeypatch, packing, "_spanning_trees")
    assert tree_packing_number(complete_bipartite(6, 6)).value == 3
    assert [k for (_, k), _ in calls] == [3]
    calls.clear()
    # C6 has 6 edges on 6 vertices: cap 1 < 2 = k_max, one round.
    assert tree_packing_number(even_cycle(6), k_max=2).value == 1
    assert [k for (_, k), _ in calls] == [1]
    calls.clear()
    # The cap 3 fails to pack, then rounds run down until one packs.
    assert tree_packing_number(_joined_k66_blocks(2)).value == 2
    assert [k for (_, k), _ in calls] == [3, 2]
    calls.clear()
    assert tree_packing_number(_joined_k66_blocks(1)).value == 1
    assert [k for (_, k), _ in calls] == [3, 2, 1]


def _adjacency(up):
    """Vertex -> [(nbr, eid)] of the forest whose parent links are ``up``."""
    adj = [[] for _ in up]
    for w, link in enumerate(up):
        if link is not None:
            p, eid = link
            adj[w].append((p, eid))
            adj[p].append((w, eid))
    return adj


def _components(n, adj):
    """Vertex -> smallest vertex of its component, by breadth-first search."""
    label = [None] * n
    for s in range(n):
        if label[s] is None:
            label[s] = s
            queue = [s]
            for w in queue:
                for nbr, _ in adj[w]:
                    if label[nbr] is None:
                        label[nbr] = s
                        queue.append(nbr)
    return label


def _partition(labels):
    """Vertex -> smallest vertex sharing its label."""
    first = {}
    return [first.setdefault(c, v) for v, c in enumerate(labels)]


def test_rounds_match_references(default_corpus, monkeypatch):
    # One pass of the rounds k = 1..5 over _round_graphs. At every
    # insertion the union-find must match the forests' components, and an
    # edge rejected for a component common to all forests must be rejected
    # by the frozen full search too; each round must match the reference
    # round, and tau for each cap the bottom-up answer from those rounds.
    exchanges = {"all": 0, "default cap": 0}
    settled = searched = 0
    run = packing._ForestFamily.try_add

    def checked(self, eid):
        nonlocal settled, searched
        before = dict(self.assign)
        n = len(self.comp[0])
        common = self._common_component(*self.endpoints[eid])
        if common:
            full = ForestFamilyReference(n, self.endpoints, self.k)
            full.assign = dict(self.assign)
            full.adj = [_adjacency(up) for up in self.up]
            assert not full.try_add(eid)
        added = run(self, eid)
        assert not (common and added)
        settled += common
        searched += not (common or added)
        moved = any(self.assign[e] != f for e, f in before.items())
        exchanges["all"] += moved
        exchanges["default cap"] += moved and in_default_cap
        # Each placed edge is the parent link of one of its ends, and a
        # forest has no other link: one link per edge. A forest with a root
        # per component has no cycle.
        placed = [0] * self.k
        for e, f in self.assign.items():
            u, v = self.endpoints[e]
            assert self.up[f][u] == (v, e) or self.up[f][v] == (u, e)
            placed[f] += 1
        for f, up in enumerate(self.up):
            assert n - up.count(None) == placed[f]
            assert up.count(None) == len(set(self.comp[f]))
            assert _partition(self.comp[f]) == _components(n, _adjacency(up))
        return added

    monkeypatch.setattr(packing._ForestFamily, "try_add", checked)
    default_ids = {id(g) for g in default_corpus}
    graphs = _round_graphs(default_corpus)
    rounds = []
    for g in graphs:
        rounds.append([])
        for k in range(1, 6):
            in_default_cap = id(g) in default_ids and k == g.m // (g.n - 1)
            rounds[-1].append(spanning_trees_reference(g, k))
            assert packing._spanning_trees(g, k) == rounds[-1][-1]
    monkeypatch.undo()
    capped = 0
    for g, trees in zip(graphs, rounds):
        for k_max in (None, 1, 2, 3, 8):
            res = tree_packing_number(g, k_max)
            assert res == tree_packing_number_reference(g, k_max, trees)
        cap = g.m // (g.n - 1)
        capped += 1 < cap and res.value < cap
    # Insertions that relocate placed edges run (714 in the default
    # corpus's cap rounds), so more than direct placements is checked.
    assert exchanges["default cap"] >= 500
    assert exchanges["all"] > exchanges["default cap"]
    # Common-component rejections far outnumber searched ones.
    assert settled > 10 * searched > 0
    # Some graphs miss their cap, so the rounds below it run too.
    assert capped >= 8


def test_common_component_compares_vertex_sets():
    # Forest 0 joins x0 and y0 through y1 and x1, forest 1 through y2 and
    # x2: two components of four vertices, but not the same four. The new
    # edge x0 y0 fits once x1 y0 moves to forest 1, where x1 is alone.
    g = BipartiteGraph(
        3, 3, ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (2, 2))
    )
    eid = {e: i for i, e in enumerate(g.edges)}
    family = packing._ForestFamily(g.n, flat_edges(g), 2)
    full = ForestFamilyReference(g.n, flat_edges(g), 2)
    for f, edges in enumerate((((0, 1), (1, 1), (1, 0)), ((0, 2), (2, 2), (2, 0)))):
        for e in edges:
            family._place(eid[e], f)
            family._union(f, *family.endpoints[eid[e]])
            full._place(eid[e], f)
    assert not family._common_component(*family.endpoints[eid[(0, 0)]])
    assert family.try_add(eid[(0, 0)]) and full.try_add(eid[(0, 0)])
    assert family.assign == full.assign
    assert family.assign[eid[(1, 0)]] == 1


def _reference_placements(g, k):
    """Whether the frozen full search accepts each edge of one round."""
    full = ForestFamilyReference(g.n, flat_edges(g), k)
    return [full.try_add(eid) for eid in range(g.m)]


def test_round_stops_once_the_family_fills(monkeypatch):
    g = complete_bipartite(6, 6)
    placed = _reference_placements(g, 3)
    filling = next(i for i in range(g.m) if sum(placed[: i + 1]) == 3 * (g.n - 1))
    assert filling < g.m - 1
    calls = record_calls(monkeypatch, packing._ForestFamily, "try_add")
    assert packing._spanning_trees(g, 3) == spanning_trees_reference(g, 3)
    assert len(calls) == filling + 1


@pytest.mark.parametrize("links", [1, 2])
def test_round_stops_once_it_cannot_fill(monkeypatch, links):
    g = _joined_k66_blocks(links)
    spare = g.m - 3 * (g.n - 1)
    placed = _reference_placements(g, 3)
    failing = next(i for i in range(g.m) if placed[: i + 1].count(False) > spare)
    calls = record_calls(monkeypatch, packing._ForestFamily, "try_add")
    assert packing._spanning_trees(g, 3) is None
    assert sum(not added for _, added in calls) == spare + 1
    assert len(calls) == failing + 1


def test_path_search_count_on_default_corpus(default_corpus, monkeypatch):
    # The full search of every insertion made 69 500 path searches here.
    # Each path climbed along the parent links must be the one a
    # breadth-first search finds in the same forest, in the same order.
    calls = []
    run = packing._ForestFamily._forest_path

    def checked(self, f, u, v):
        path = run(self, f, u, v)
        full = ForestFamilyReference(len(self.up[f]), self.endpoints, 1)
        full.adj = [_adjacency(self.up[f])]
        assert path == full._forest_path(0, u, v)
        calls.append(path)
        return path

    monkeypatch.setattr(packing._ForestFamily, "_forest_path", checked)
    for g in default_corpus:
        tree_packing_number(g, k_max=8)
    assert len(calls) <= 8000
    # A one-forest round is Kruskal's algorithm: no search at all.
    calls.clear()
    for g in default_corpus:
        packing._spanning_trees(g, 1)
    assert len(calls) == 0


@pytest.mark.parametrize("k_max", [0, -3, 1.5, float("nan"), float("inf")])
def test_k_max_rejects_bad_values(k_max):
    with pytest.raises(InvalidParam):
        tree_packing_number(complete_bipartite(4, 4), k_max=k_max)


def test_forest_witnesses_revalidate_on_corpus():
    for g in small_corpus(per_combo=1):
        res = tree_packing_number(g)
        seen = set()
        for forest in res.witness.forests:
            assert is_spanning_tree(g, forest)
            assert not (seen & set(forest))
            seen.update(forest)


def test_partition_enumeration_keeps_its_order():
    # Brute-force values and witnesses are the first violating assignment,
    # so the enumeration order is part of their output. From n = 9 on the
    # tables grow past one block and are split.
    bell = (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570)
    for n in range(12):
        got = [row for t in partition_blocks(n) for row in t.tolist()]
        assert got == list(iter_partition_assignments_reference(n))
        assert len(got) == bell[n]


def test_partition_blocks_stay_bounded_at_the_guard():
    sizes = [len(t) for t in partition_blocks(PARTITION_GUARD)]
    assert sum(sizes) == 4213597  # Bell(12)
    assert max(sizes) <= (PARTITION_GUARD + 1) * _BLOCK_ROWS
    with pytest.raises(TooLarge):
        next(partition_blocks(PARTITION_GUARD + 1))


def test_bruteforce_matches_matroid_union():
    # Below k the brute force is tau, and from k on both reach k. Its
    # witness is a partition of V whose crossings // (t - 1) is its value.
    for g in partition_corpus():
        for k in (1, 2):
            brute = tree_packing_partition_bruteforce(g, k)
            assert min(brute.value, k) == tree_packing_number(g, k_max=k).value
            if brute.value >= k:
                assert brute.witness is None
                continue
            blocks = brute.witness.blocks
            label = {v: i for i, block in enumerate(blocks) for v in block}
            assert sorted(label) == sorted(vertices(g))
            assert sum(map(len, blocks)) == g.n and len(blocks) >= 2
            crossing = sum(
                label[("x", xi)] != label[("y", yj)] for xi, yj in g.edges
            )
            assert crossing // (len(blocks) - 1) == brute.value < k


@pytest.mark.parametrize("k", [0, 1.5])
def test_bruteforce_rejects_bad_k(k):
    with pytest.raises(InvalidParam):
        tree_packing_partition_bruteforce(even_cycle(6), k)


def test_partition_guard():
    with pytest.raises(TooLarge):
        tree_packing_partition_bruteforce(complete_bipartite(7, 7), 1)
