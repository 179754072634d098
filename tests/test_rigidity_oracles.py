"""Pebble game, modular rank cross-check, packings, and partition bounds."""

from itertools import combinations

import numpy as np
import pytest

from biregular import (
    BipartiteGraph,
    complete_bipartite,
    even_cycle,
    heawood,
    random_biregular,
)
from biregular.errors import InvalidParam, InvalidPartition, TooLarge, TooSmall
from biregular.graphs import flat_edges
from biregular.oracles import (
    greedy_rigid_packing,
    is_globally_rigid,
    is_redundantly_rigid,
    is_rigid,
    rigid_packing_partition_bound,
    rigid_packing_partition_sufficient,
    rigidity_matrix_rank_modular,
    rigidity_rank,
    vertex_connectivity,
)
from biregular.oracles import rigidity
from biregular.prng import SplitMix64, derive_seed

from testutil import (
    DISCONNECTED,
    K44_PENDANT,
    medium_corpus,
    modular_rank_bruteforce,
    partition_bound_reference,
    partition_corpus,
    pebble_accepted_reference,
    rank_mod_p_reference,
    redundantly_rigid_reference,
    rigid_packing_exhaustive,
    rigid_packing_partition_sufficient_reference,
    small_corpus,
)

RANK_SEEDS = (101, 202, 303)


def test_rank_desk_values():
    res = rigidity_rank(complete_bipartite(3, 3))
    assert res.value == 9 == 2 * 6 - 3
    assert len(res.witness.edges) == 9  # minimally rigid: every edge kept

    assert rigidity_rank(even_cycle(6)).value == 6
    assert rigidity_rank(complete_bipartite(6, 6)).value == 21 == 2 * 12 - 3


def test_rigidity_flags():
    assert is_rigid(complete_bipartite(3, 3))
    assert not is_rigid(even_cycle(6))
    assert is_rigid(complete_bipartite(6, 6))
    assert not is_rigid(complete_bipartite(2, 3))


def test_pebble_rank_matches_modular_rank():
    graphs = [
        complete_bipartite(3, 3),
        even_cycle(6),
        complete_bipartite(6, 6),
        heawood(),
        *small_corpus(per_combo=2),
    ]
    for g in graphs:
        rank = rigidity_rank(g).value
        for seed in RANK_SEEDS:
            assert rigidity_matrix_rank_modular(g, seed) == rank


def test_laman_witness_revalidates():
    for g in (complete_bipartite(6, 6), heawood(), complete_bipartite(4, 5)):
        res = rigidity_rank(g)
        edges = res.witness.edges
        assert len(edges) == res.value
        # independence certified by a pebble-free rank computation
        assert modular_rank_bruteforce(g, edges) == len(edges)


def test_redundant_rigidity():
    assert is_redundantly_rigid(complete_bipartite(3, 3)).value == 0
    assert is_redundantly_rigid(complete_bipartite(6, 6)).value == 1
    assert is_redundantly_rigid(even_cycle(6)).value == 0


def _first_critical_edge(g):
    """Delete every edge in turn; GF(p) rank, no pebble game."""
    target = 2 * g.n - 3
    for edge in g.edges:
        if modular_rank_bruteforce(g, g.without_edge(edge).edges) != target:
            return edge
    return None


def test_critical_edge_witness():
    k33 = complete_bipartite(3, 3)
    assert _first_critical_edge(k33) == (0, 0)
    assert is_redundantly_rigid(k33).witness == (0, 0)

    # x4 hangs on y2 and y3, so (4, 2) is critical; no K4,4 edge is.
    assert _first_critical_edge(K44_PENDANT) == (4, 2)
    res = is_redundantly_rigid(K44_PENDANT)
    assert (res.value, res.witness) == (0, (4, 2))
    assert is_globally_rigid(K44_PENDANT).value == 0

    for g in (*small_corpus(), *medium_corpus()):
        if not is_rigid(g):
            continue
        critical = _first_critical_edge(g)
        res = is_redundantly_rigid(g)
        assert (res.value, res.witness) == (int(critical is None), critical)


def _near_laman_subgraphs(count, seed):
    """Seeded subgraphs of K_{m,n}, m, n <= 7, keeping 2N-5 .. 2N of the
    edges (all of them if fewer), N = m + n."""
    rng = SplitMix64(seed)
    for _ in range(count):
        m, n = 2 + rng.below(6), 2 + rng.below(6)
        edges = list(complete_bipartite(m, n).edges)
        rng.shuffle(edges)
        keep = 2 * (m + n) - 5 + rng.below(6)
        yield BipartiteGraph(m, n, tuple(edges[:keep]))


def _seeded_circulants(seed):
    """Bipartite circulants x_i ~ y_((i + s) mod n), s in a seeded S, for
    (n, |S|) from (16, 12) to (26, 18)."""
    for slot, (n, d) in enumerate(((16, 12), (20, 15), (23, 14), (26, 18))):
        rng = SplitMix64(derive_seed(seed, slot))
        pool = list(range(n))
        rng.shuffle(pool)
        edges = tuple((i, (i + s) % n) for i in range(n) for s in pool[:d])
        yield BipartiteGraph(n, n, edges)


def test_redundant_rigidity_matches_per_edge_reference():
    graphs = [
        *_seeded_circulants(31),
        complete_bipartite(12, 12),
        complete_bipartite(12, 18),
        complete_bipartite(18, 18),
        *small_corpus(),
        *medium_corpus(),
        K44_PENDANT,
        *_near_laman_subgraphs(400, 2024),
    ]
    witnessed = redundant = 0
    for g in graphs:
        res = is_redundantly_rigid(g)
        assert res == redundantly_rigid_reference(g)
        witnessed += res.witness is not None
        redundant += res.value
    # The comparison must reach both answers of a rigid graph.
    assert witnessed >= 80
    assert redundant >= 40


def test_component_shortcut_matches_full_search():
    # Rejecting inside a known rigid component must accept exactly the
    # edges the game with a search at every edge accepts, in either feed.
    graphs = [
        *_seeded_circulants(31),
        *_seeded_circulants(57),
        complete_bipartite(12, 12),
        complete_bipartite(12, 18),
        complete_bipartite(18, 18),
        *small_corpus(),
        *medium_corpus(),
        K44_PENDANT,
        *_near_laman_subgraphs(300, 4048),
    ]
    rejected = 0
    for g in graphs:
        for order in (g.edges, rigidity._spread_order(g, g.edges)):
            edges = flat_edges(g, order)
            accepted = rigidity._pebble_accepted(g.n, edges)
            assert accepted == pebble_accepted_reference(g.n, edges)
            rejected += g.m - len(accepted)
    assert rejected >= 5000


# Two K3,4 copies, x0..x2 x y0..y3 and x2..x4 x y4..y7, hinged at x2: each
# is rigid with rank 11 but the two turn about x2, so the bridge (0, 4)
# is independent and the rank is 23 = 2 * 13 - 3.
HINGE_EDGES = (
    tuple((i, j) for i in range(3) for j in range(4))
    + tuple((i, j) for i in range(2, 5) for j in range(4, 8))
    + ((0, 4),)
)


def test_components_sharing_one_vertex_stay_apart():
    g = BipartiteGraph(5, 8, HINGE_EDGES)
    rank, independent = rigidity.pebble_rank_edges(g, HINGE_EDGES)
    assert rank == 23 == 2 * g.n - 3
    assert independent[-1] == (0, 4)
    assert rank == modular_rank_bruteforce(g, HINGE_EDGES)


def test_component_shortcut_search_count(monkeypatch):
    # K18,18 accepts 69 of 324 edges. With a search at every rejection the
    # game pulls 661 times in sorted feed, 1169 in spread feed and 631 in
    # is_redundantly_rigid; with components it pulls about 211, 167, 211.
    calls = 0
    pull = rigidity._pull_pebble

    def counted(*args):
        nonlocal calls
        calls += 1
        return pull(*args)

    monkeypatch.setattr(rigidity, "_pull_pebble", counted)
    g = complete_bipartite(18, 18)
    for order in (g.edges, rigidity._spread_order(g, g.edges)):
        calls = 0
        assert rigidity.pebble_rank_edges(g, order)[0] == 2 * g.n - 3
        assert calls <= 220
    calls = 0
    assert is_redundantly_rigid(g).value == 1
    assert calls <= 220


def test_forward_elimination_matches_gauss_jordan(monkeypatch):
    ranks = []
    rank_mod_p = rigidity._rank_mod_p

    def both(mat, p):
        ranks.append((rank_mod_p(mat, p), rank_mod_p_reference(mat, p)))
        return ranks[-1][0]

    monkeypatch.setattr(rigidity, "_rank_mod_p", both)
    graphs = [*_seeded_circulants(31), *_seeded_circulants(57)]
    graphs += [complete_bipartite(m, n) for m, n in ((2, 5), (3, 3), (6, 6), (12, 18))]
    for g in graphs:
        for seed in RANK_SEEDS:
            rigidity_matrix_rank_modular(g, seed)
    monkeypatch.undo()

    rng = np.random.default_rng(20240)
    for p in (2, 3, 7):
        for rows, cols in ((1, 1), (3, 9), (9, 3), (12, 12), (20, 7), (7, 20)):
            for _ in range(8):
                mat = rng.integers(-50, 50, size=(rows, cols))
                mat[:, rng.integers(cols)] = 0
                mat[rng.integers(rows)] = mat[rng.integers(rows)]
                ranks.append((rank_mod_p(mat, p), rank_mod_p_reference(mat, p)))
    assert all(new == old for new, old in ranks)
    # Both full and deficient ranks occur.
    assert len({new for new, _ in ranks}) >= 10


def test_global_rigidity_cutoff_matches_full_kappa():
    graphs = [
        DISCONNECTED,
        complete_bipartite(1, 4),
        complete_bipartite(2, 5),
        even_cycle(6),
        complete_bipartite(3, 3),
        complete_bipartite(4, 5),
        complete_bipartite(6, 6),
        K44_PENDANT,
        *small_corpus(),
    ]
    kappas = set()
    for g in graphs:
        kappa = vertex_connectivity(g).value
        kappas.add(kappa)
        redundant = is_redundantly_rigid(g)
        res = is_globally_rigid(g)
        if kappa >= 3:
            assert res == redundant
        else:
            assert (res.value, res.witness) == (0, None)
        assert res.value == (kappa >= 3 and redundant.value == 1)
    assert {0, 1, 2, 3, 4, 6} <= kappas


def test_global_rigidity():
    assert is_globally_rigid(complete_bipartite(6, 6)).value == 1
    assert is_globally_rigid(complete_bipartite(3, 3)).value == 0
    assert is_globally_rigid(even_cycle(6)).value == 0
    with pytest.raises(TooSmall):
        is_globally_rigid(complete_bipartite(1, 2))


def test_greedy_packing_k1():
    res = greedy_rigid_packing(complete_bipartite(6, 6), 1)
    assert res.value == 1 and res.exact
    assert len(res.witness.subgraphs[0]) == 21

    res = greedy_rigid_packing(even_cycle(6), 1)
    assert res.value == 0 and res.exact


def test_greedy_packing_k2_on_k1212():
    g = complete_bipartite(12, 12)
    res = greedy_rigid_packing(g, 2)
    assert res.value == 2 and res.exact
    first, second = res.witness.subgraphs
    assert len(first) == len(second) == 45 == 2 * 24 - 3
    assert not (set(first) & set(second))
    for sub in (first, second):
        assert modular_rank_bruteforce(g, sub) == 45
        covered = {v for e in sub for v in (("x", e[0]), ("y", e[1]))}
        assert len(covered) == 24


def test_greedy_packing_edge_count_cap_is_exact():
    # K_{4,4} has 16 edges but two spanning Laman subgraphs need 26, and a
    # random (4,4)-biregular graph on 16 vertices has 32 < 2*29: one
    # packing reaches m // (2n-3), so edge counting settles every k >= 1.
    g = random_biregular(8, 8, 4, 4, derive_seed(1, 2))
    for graph in (complete_bipartite(4, 4), g):
        assert graph.m // (2 * graph.n - 3) == 1
        for k in (2, 3):
            res = greedy_rigid_packing(graph, k)
            assert res.value == 1 and res.exact


def test_greedy_packing_matches_exhaustive_search():
    # n <= 8: at most n^2/4 < 2(2n-3) edges, so edge counting caps every
    # packing at one and the greedy answer must be exact and optimal.
    graphs = [
        complete_bipartite(m, n)
        for m in range(1, 8)
        for n in range(m, 9 - m)
        if m + n >= 2
    ]
    graphs += [g for g in small_corpus() if g.n <= 8]
    rng = SplitMix64(99)
    for _ in range(60):
        m, n = 3 + rng.below(2), 4
        edges = list(complete_bipartite(m, n).edges)
        rng.shuffle(edges)
        kept = edges[rng.below(4):]
        graphs.append(BipartiteGraph(m, n, tuple(kept)))
    capped = 0
    for g in graphs:
        for k in (2, 3):
            res = greedy_rigid_packing(g, k)
            assert res.exact
            assert res.value == rigid_packing_exhaustive(g, k)
            capped += res.value == 1
    assert capped >= 80


def test_greedy_packing_non_rigid_is_exact():
    # A failed first extraction means g itself is not rigid, so no k packs:
    # exact at every k, also beyond the n <= 8 exhaustive fallback.
    for g in (heawood(), even_cycle(10), even_cycle(6)):
        for k in (1, 2, 3):
            res = greedy_rigid_packing(g, k)
            assert (res.value, res.witness, res.exact) == (0, None, True)


def test_greedy_packing_bad_k():
    with pytest.raises(InvalidParam):
        greedy_rigid_packing(complete_bipartite(3, 3), 0)


def test_partition_bound_desk_values():
    k33 = complete_bipartite(3, 3)
    singles = [[v] for v in k33.vertices()]
    rep = rigid_packing_partition_bound(k33, 1, (), singles)
    assert (rep.lhs, rep.rhs, rep.holds) == (9, 9, True)

    two_blocks = [
        [("x", i) for i in range(3)],
        [("y", j) for j in range(3)],
    ]
    rep = rigid_packing_partition_bound(k33, 1, (), two_blocks)
    assert (rep.lhs, rep.rhs, rep.holds) == (9, 3, True)

    rep = rigid_packing_partition_bound(k33, 1, (), [list(k33.vertices())])
    assert (rep.lhs, rep.rhs, rep.holds) == (0, 0, True)


def test_partition_bound_with_removed_set():
    k33 = complete_bipartite(3, 3)
    removed = [("x", 0)]
    rest = [v for v in k33.vertices() if v != ("x", 0)]
    rep = rigid_packing_partition_bound(k33, 1, removed, [[v] for v in rest])
    # K_{2,3} remains: lhs = 6; n0 = 5, n_Z = 3 (each y sees x0)
    assert rep.lhs == 6
    assert rep.rhs == 1 * 2 * 5 - 3 - 3 + 0
    assert rep.holds


def test_partition_bound_validation():
    k33 = complete_bipartite(3, 3)
    with pytest.raises(InvalidPartition):
        rigid_packing_partition_bound(k33, 1, (), [[("x", 0)]])
    with pytest.raises(InvalidPartition):
        rigid_packing_partition_bound(
            k33, 1, [("x", 0)], [[v] for v in k33.vertices()]
        )
    with pytest.raises(InvalidPartition):
        rigid_packing_partition_bound(k33, 1, (), [list(k33.vertices()), [("x", 0)]])


def test_partition_sufficient_fires_for_k33():
    res = rigid_packing_partition_sufficient(complete_bipartite(3, 3), 1)
    assert res.value == 1
    assert is_rigid(complete_bipartite(3, 3))


def test_partition_sufficient_finds_violation_for_c6():
    res = rigid_packing_partition_sufficient(even_cycle(6), 1)
    assert res.value == 0
    rep = rigid_packing_partition_bound(
        even_cycle(6), 1, res.witness.removed, res.witness.blocks
    )
    assert not rep.holds


def test_partition_sufficient_consistent_with_pebble_game():
    graphs = [
        complete_bipartite(3, 3),
        complete_bipartite(4, 4),
        complete_bipartite(2, 3),
        complete_bipartite(3, 4),
        even_cycle(6),
        even_cycle(8),
    ]
    for g in graphs:
        res = rigid_packing_partition_sufficient(g, 1)
        if res.value == 1:
            assert is_rigid(g)


def test_partition_sufficient_matches_scalar_reference():
    for g in partition_corpus():
        if g.n > 9:
            continue
        for k in (1, 2):
            assert rigid_packing_partition_sufficient(
                g, k
            ) == rigid_packing_partition_sufficient_reference(g, k)


def test_partition_bound_matches_scalar_reference():
    # One block, singletons and two blocks, each also listed out of vertex
    # order, for every Z of size 0..2.
    for g in (complete_bipartite(3, 4), even_cycle(8), DISCONNECTED, K44_PENDANT):
        verts = list(g.vertices())
        for z_size in range(3):
            for removed in combinations(verts, z_size):
                rest = [v for v in verts if v not in removed]
                half = len(rest) // 2
                for partition in (
                    [rest],
                    [rest[::-1]],
                    [[v] for v in rest],
                    [[v] for v in reversed(rest)],
                    [rest[1::2], rest[::2]],
                    [rest[half:], rest[:half][::-1]],
                ):
                    for k in (1, 2):
                        rep = rigid_packing_partition_bound(
                            g, k, removed, partition
                        )
                        assert (rep.lhs, rep.rhs) == partition_bound_reference(
                            g, k, removed, partition
                        )
                        assert rep.holds == (rep.lhs >= rep.rhs)


def test_partition_sufficient_guards():
    with pytest.raises(TooLarge):
        rigid_packing_partition_sufficient(complete_bipartite(5, 5), 1)


def test_single_edge_is_rigid():
    k11 = BipartiteGraph(1, 1, ((0, 0),))
    assert rigidity_rank(k11).value == 1 == 2 * 2 - 3
