"""Pebble game, modular rank cross-check, packings, and partition bounds."""

from itertools import combinations

import numpy as np
import pytest

from biregular import (
    BipartiteGraph,
    complete_bipartite,
    even_cycle,
    heawood,
    prng,
    random_biregular,
)
from biregular.errors import InvalidParam, TooLarge, TooSmall
from biregular.graphs import flat_adjacency, flat_edges
from biregular.oracles import (
    greedy_rigid_packing,
    is_globally_rigid,
    is_redundantly_rigid,
    rigidity_matrix_rank_modular,
    rigidity_rank,
    vertex_connectivity,
)
from biregular.oracles import rigidity
from biregular.prng import SplitMix64, derive_seed, stream_u64

from partition_oracles import (
    _outside_z,
    _partition_sides,
    rigid_packing_partition_bound,
    rigid_packing_partition_sufficient,
)
from testutil import (
    DISCONNECTED,
    K44_PENDANT,
    TWO_K44_BLOCKS,
    greedy_rigid_packing_reference,
    medium_corpus,
    modular_rank_bruteforce,
    partition_corpus,
    pebble_accepted_reference,
    rank_mod_p_reference,
    rank_points_reference,
    record_calls,
    redundantly_rigid_reference,
    rigid_packing_exhaustive,
    rigidity_matrix_mod_p,
    rigidity_matrix_rank_modular_reference,
    seeded_circulants,
    small_corpus,
    vertices,
)

RANK_SEEDS = (101, 202, 303)
# (n, |S|) of the rigid circulants most comparisons here draw.
RIGID_CIRCULANTS = ((16, 12), (20, 15), (23, 14), (26, 18))


def test_rank_desk_values():
    res = rigidity_rank(complete_bipartite(3, 3))
    assert res.value == 9 == 2 * 6 - 3
    assert len(res.witness.edges) == 9  # minimally rigid: every edge kept

    assert rigidity_rank(even_cycle(6)).value == 6
    assert rigidity_rank(complete_bipartite(6, 6)).value == 21 == 2 * 12 - 3


def test_rigidity_flags():
    for g, rigid in (
        (complete_bipartite(3, 3), True),
        (even_cycle(6), False),
        (complete_bipartite(6, 6), True),
        (complete_bipartite(2, 3), False),
    ):
        assert (rigidity_rank(g).value == 2 * g.n - 3) == rigid


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
        if modular_rank_bruteforce(g, [e for e in g.edges if e != edge]) != target:
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
        if rigidity_rank(g).value != 2 * g.n - 3:
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


def _hinged_bodies(third):
    """K4,4 on x0..x3 x y0..y3, K4,4 on x3..x6 x y4..y7, and a third body
    on x7.. and y0, y7, y8.. (K4,4, or K3,3 when ``third`` is 3): each pair
    of bodies shares one vertex, x3, y0 or y7, a different one each."""
    ys = (0, 7, 8, 9)[:third]
    edges = sorted(
        [(i, j) for i in range(4) for j in range(4)]
        + [(i, j) for i in range(3, 7) for j in range(4, 8)]
        + [(i, j) for i in range(7, 7 + third) for j in ys]
    )
    return BipartiteGraph(7 + third, 6 + third, tuple(edges))


def test_hinged_bodies_stop_on_component_sum():
    # Three bodies hinged in a triangle are rigid: their bases number
    # 3 (2 * 8 - 3) = 2 * 21 - 3. They never merge, so the redundancy game
    # ends with three components and stops on the sum of 2|C| - 3. A K3,3
    # body is minimally rigid, so its first edge is the critical witness.
    # The per-edge reference checks both graphs too.
    g = _hinged_bodies(4)
    edges = flat_edges(g)
    accepted, components = rigidity._pebble_accepted(g.n, edges, circuits=True)
    assert len(accepted) == 2 * g.n - 3
    assert sorted(c.bit_count() for c in components) == [8, 8, 8]
    assert is_redundantly_rigid(g).value == 1
    g = _hinged_bodies(3)
    res = is_redundantly_rigid(g)
    assert (res.value, res.witness) == (0, (7, 0)) == (0, _first_critical_edge(g))


def test_redundant_rigidity_matches_per_edge_reference():
    graphs = [
        _hinged_bodies(4),
        _hinged_bodies(3),
        *seeded_circulants(31, RIGID_CIRCULANTS),
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


def _sorted_and_spread(g):
    """g's flat edge pairs in sorted order and in greedy's spread order."""
    flat = flat_edges(g)
    return flat, [flat[i] for i in rigidity._spread_order(g)]


def _feeds(g, seed):
    """Orders of g's flat edge pairs: sorted, spread, a seeded shuffle,
    every other edge then the rest, and the spread order less its first
    basis (the feed of greedy's second round) when the first round is
    full."""
    flat, spread = _sorted_and_spread(g)
    shuffled = list(flat)
    SplitMix64(seed).shuffle(shuffled)
    feeds = [flat, spread, shuffled, flat[::2] + flat[1::2]]
    first = pebble_accepted_reference(g.n, spread)
    if len(first) == 2 * g.n - 3:
        used = set(first)
        feeds.append([e for i, e in enumerate(spread) if i not in used])
    return feeds


def test_component_shortcut_matches_full_search():
    # Henneberg accepts, rejections inside a known rigid component and
    # absorption must accept exactly the edges the game with a search at
    # every edge accepts, in every feed.
    graphs = [
        *seeded_circulants(31, RIGID_CIRCULANTS),
        *seeded_circulants(57, RIGID_CIRCULANTS),
        complete_bipartite(12, 12),
        complete_bipartite(12, 18),
        complete_bipartite(18, 18),
        *small_corpus(),
        *medium_corpus(),
        K44_PENDANT,
        *_near_laman_subgraphs(300, 4048),
    ]
    rejected = later = 0
    for seed, g in enumerate(graphs):
        feeds = _feeds(g, seed)
        later += len(feeds) == 5
        for order in feeds:
            accepted = rigidity._pebble_accepted(g.n, order)[0]
            assert accepted == pebble_accepted_reference(g.n, order)
            rejected += len(order) - len(accepted)
    assert rejected >= 12000
    assert later >= 100
    # A repeated edge is rejected, though its ends have one accepted edge:
    # (0, 4) is K3,3's edge (x0, y1).
    assert rigidity._pebble_accepted(6, [(0, 4), (0, 4)])[0] == [0]


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
    flat = [(xi, 5 + yj) for xi, yj in HINGE_EDGES]
    accepted = rigidity._pebble_accepted(g.n, flat)[0]
    assert len(accepted) == 23 == 2 * g.n - 3
    assert HINGE_EDGES[accepted[-1]] == (0, 4)
    assert len(accepted) == modular_rank_bruteforce(g, HINGE_EDGES)


def test_pebble_game_accepts_the_greedy_basis():
    # No pebble code here: edge i belongs to the feed-order greedy basis of
    # the rigidity matroid exactly when it raises the GF(p) rank of the
    # edges taken before it, and the game must accept exactly those.
    graphs = [
        complete_bipartite(3, 3),
        complete_bipartite(4, 5),
        complete_bipartite(6, 6),
        heawood(),
        K44_PENDANT,
        BipartiteGraph(5, 8, HINGE_EDGES),
        *seeded_circulants(11, ((12, 5), (14, 7))),
    ]
    rejected = 0
    for g in graphs:
        flat = flat_edges(g)
        for ids in (range(g.m), rigidity._spread_order(g)):
            order = [g.edges[i] for i in ids]
            basis = []
            for i, edge in enumerate(order):
                taken = [order[j] for j in basis] + [edge]
                if modular_rank_bruteforce(g, taken) == len(taken):
                    basis.append(i)
            feed = [flat[i] for i in ids]
            assert rigidity._pebble_accepted(g.n, feed)[0] == basis
            rejected += g.m - len(basis)
    assert rejected >= 100


def test_component_shortcut_search_count(monkeypatch):
    # K18,18 accepts 69 of 324 edges. With a search at every rejection the
    # game pulls 661 times in sorted feed, 1169 in spread feed and 631 in
    # is_redundantly_rigid. With components, and the plain game stopped at
    # full rank, it pulls 208, 163, 211; with Henneberg accepts and
    # absorption too, 7, 127, 81. The total over the circulants and
    # complete graphs below moves if either shortcut is dropped.
    calls = record_calls(monkeypatch, rigidity, "_pull_pebble")
    g = complete_bipartite(18, 18)
    counts = []
    for order in _sorted_and_spread(g):
        calls.clear()
        assert len(rigidity._pebble_accepted(g.n, order)[0]) == 2 * g.n - 3
        counts.append(len(calls))
    calls.clear()
    assert is_redundantly_rigid(g).value == 1
    assert counts + [len(calls)] == [7, 127, 81]
    calls.clear()
    for g in (
        *seeded_circulants(31, RIGID_CIRCULANTS),
        complete_bipartite(12, 12),
        complete_bipartite(12, 18),
        complete_bipartite(18, 18),
    ):
        for order in _sorted_and_spread(g):
            rigidity._pebble_accepted(g.n, order)
        is_redundantly_rigid(g)
    assert len(calls) == 1426


def test_plain_game_stops_at_full_rank(monkeypatch):
    # Each acceptance spends one of the 2n pebbles, so 3 are free after the
    # (2n - 3)-th. The plain game searches no more after it, in either
    # feed; the redundancy game keeps going, since it needs the circuits.
    pull = rigidity._pull_pebble
    free = []

    def counted(root, banned, peb, *rest):
        free.append(sum(peb))
        return pull(root, banned, peb, *rest)

    monkeypatch.setattr(rigidity, "_pull_pebble", counted)
    g = complete_bipartite(18, 18)
    for order in _sorted_and_spread(g):
        free.clear()
        assert len(rigidity._pebble_accepted(g.n, order)[0]) == 2 * g.n - 3
        assert free and min(free) >= 4
    free.clear()
    assert is_redundantly_rigid(g).value == 1
    assert min(free) == 3


def test_rank_points_match_scalar_draws(monkeypatch):
    for seed in (*range(1000), -1, 2**64 - 1, 2**64 + 5):
        points = rigidity._rank_points(26, seed)
        assert points.shape == (26, 2) and points.dtype == np.int64
        assert points.ravel().tolist() == rank_points_reference(seed, 26)
    with pytest.raises(InvalidParam, match="seed must be an integer"):
        rigidity_matrix_rank_modular(complete_bipartite(3, 3), 1.5)
    # A cap of 2^63 rejects about half the words, so the block is cut at
    # every other word or so and each redraw shifts the later draws, as
    # below() redraws under the same cap; they then differ from the words.
    monkeypatch.setattr(prng, "accept_max", lambda bound: 1 << 63)
    for seed in range(50):
        points = rigidity._rank_points(26, seed).ravel().tolist()
        assert points == rank_points_reference(seed, 26)
        block = stream_u64(seed, 0, 52) % rigidity.RANK_FIELD_PRIME
        assert points != block.tolist()


def test_forward_elimination_matches_gauss_jordan(monkeypatch):
    ranks = []
    rank_mod_p = rigidity._rank_mod_p

    def both(mat, p):
        ranks.append((rank_mod_p(mat, p), rank_mod_p_reference(mat, p)))
        return ranks[-1][0]

    monkeypatch.setattr(rigidity, "_rank_mod_p", both)
    graphs = [
        *seeded_circulants(31, RIGID_CIRCULANTS),
        *seeded_circulants(57, RIGID_CIRCULANTS),
    ]
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


def test_modular_rank_matches_full_matrix(default_corpus):
    graphs = [
        *seeded_circulants(31, RIGID_CIRCULANTS),
        *seeded_circulants(57, RIGID_CIRCULANTS),
        *(complete_bipartite(m, n) for m in range(1, 9) for n in range(1, 9)),
        complete_bipartite(12, 18),
        complete_bipartite(18, 12),
        BipartiteGraph(3, 4, ()),
        *(even_cycle(length) for length in (4, 6, 8, 10)),
        heawood(),
        *(g for g in default_corpus if g.n <= 30),
    ]
    for g in graphs:
        for seed in RANK_SEEDS:
            expected = rigidity_matrix_rank_modular_reference(g, seed)
            assert rigidity_matrix_rank_modular(g, seed) == expected


def test_rank_at_small_primes_takes_every_branch(monkeypatch):
    """``_rank_at`` against Gauss-Jordan on the full matrix at points mod 5,
    7 and 11, where hub and leaf blocks are often singular. The calls into
    ``_rank_mod_p`` follow from which hubs and private leaves can pivot,
    found here from the points: a prefix of ceiling + ceiling // 4 + 1
    residual rows when the residual has more, then all of them only when
    the prefix falls short. In each, a private leaf (one that holds no
    pivoted hub's pivot row) pivots when its first two rows there have an
    invertible block, and the call gets the other rows over the other
    columns."""
    calls = record_calls(monkeypatch, rigidity, "_rank_mod_p")
    graphs = [
        *small_corpus(),
        *medium_corpus(),
        K44_PENDANT,
        TWO_K44_BLOCKS,
        *(complete_bipartite(m, n) for m, n in ((4, 1), (6, 6), (5, 8))),
        # y3 hangs off x0 after its first two neighbors: a one-row leaf.
        BipartiteGraph(
            5,
            4,
            tuple((i, j) for i in range(4) for j in range(3)) + ((0, 3), (4, 0), (4, 1)),
        ),
    ]
    branches = (
        "singular hub", "degree-1 hub", "singular leaf", "one-row leaf", "hit", "miss"
    )
    seen = dict.fromkeys(branches, 0)

    def singular(d, p):
        (a, b), (c, e) = d[:2]
        return (a * e - b * c) % p == 0

    for g in graphs:
        x_hubs = g.x_count >= g.y_count
        hubs, leaves = (g.adj_x, g.y_count) if x_hubs else (g.adj_y, g.x_count)
        hub_base, leaf_base = (0, g.x_count) if x_hubs else (g.x_count, 0)
        for p in (5, 7, 11):
            for seed in RANK_SEEDS:
                rng = SplitMix64(derive_seed(seed, p))
                pos = np.array(
                    [rng.below(p) for _ in range(2 * g.n)], dtype=np.int64
                ).reshape(g.n, 2)
                pivots = kept = 0
                anchors = set()
                # Each leaf's residual rows, hub ascending, by their d.
                residual = [[] for _ in range(leaves)]
                for h, nbrs in enumerate(hubs):
                    d = [pos[hub_base + h] - pos[leaf_base + w] for w in nbrs]
                    pivot = len(nbrs) >= 2 and not singular(d, p)
                    if pivot:
                        pivots += 1
                        anchors.update(nbrs[:2])
                    elif len(nbrs) >= 2:
                        seen["singular hub"] += 1
                    elif len(nbrs) == 1:
                        seen["degree-1 hub"] += 1
                    kept += bool(nbrs) and not pivot
                    for i, w in enumerate(nbrs):
                        if not (pivot and i < 2):
                            residual[w].append(d[i])
                order = sorted(
                    (turn, w)
                    for w, rows in enumerate(residual)
                    for turn in range(len(rows))
                )

                def leaf_step(count):
                    # Pivoted private leaves among the first count rows in
                    # round robin, and the shape of what is left.
                    taken = np.bincount([w for _, w in order[:count]], minlength=leaves)
                    done = 0
                    for w, rows in enumerate(residual):
                        if w in anchors or not taken[w]:
                            continue
                        if taken[w] == 1:
                            seen["one-row leaf"] += 1
                        elif singular(rows, p):
                            seen["singular leaf"] += 1
                        else:
                            done += 1
                    return done, (count - 2 * done, 2 * (leaves + kept - done))

                calls.clear()
                full = rank_mod_p_reference(rigidity_matrix_mod_p(g, pos, p), p)
                assert rigidity._rank_at(g, pos, p) == full
                ceiling = 2 * g.n - 3 - 2 * pivots
                prefix = ceiling + ceiling // 4 + 1
                shapes = [mat.shape for (mat, _), _ in calls]
                expected = []
                hit = False
                if len(order) > prefix:
                    done, shape = leaf_step(prefix)
                    assert shapes[:1] == [shape]
                    hit = 2 * done + calls[0][1] == ceiling
                    seen["hit" if hit else "miss"] += 1
                    expected.append(shape)
                if not hit:
                    _, shape = leaf_step(len(order))
                    expected += [shape] * bool(shape[0])
                assert shapes == expected
    assert all(seen.values()), seen


def test_rank_eliminates_leaf_columns_and_a_prefix(monkeypatch):
    """Every hub pivots on these rigid graphs, and so does every private
    leaf, each with two rows or more in the prefix. So the one call into
    ``_rank_mod_p`` gets the prefix less two rows per private leaf, over
    the 2A columns of the A anchors (the hubs' first two neighbors): 10 x 4
    on K18,18. The ceiling is met by that first prefix."""
    calls = record_calls(monkeypatch, rigidity, "_rank_mod_p")
    circulant = next(
        g for g in seeded_circulants(31, RIGID_CIRCULANTS) if len(g.adj_x[0]) == 18
    )
    for g in (complete_bipartite(18, 18), circulant):
        leaves = g.y_count  # both graphs are square, so X holds the hubs
        anchors = len({w for nbrs in g.adj_x for w in nbrs[:2]})
        ceiling = 2 * leaves - 3
        prefix = ceiling + ceiling // 4 + 1
        shape = (prefix - 2 * (leaves - anchors), 2 * anchors)
        assert anchors == 2 if g.m == 18 * 18 else 2 <= anchors <= 6
        for seed in RANK_SEEDS:
            calls.clear()
            assert rigidity_matrix_rank_modular(g, seed) == 2 * g.n - 3
            shapes = [mat.shape for (mat, _), _ in calls]
            assert shapes == [shape]
    assert shape[1] <= 12


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


def test_greedy_packing_matches_per_round_sort():
    # Sorting the diagonal order once and filtering it each round feeds
    # every round the edges that re-sorting the remainder feeds it.
    graphs = [
        complete_bipartite(12, 12),
        complete_bipartite(12, 18),
        complete_bipartite(18, 18),
        *seeded_circulants(31),
        *medium_corpus(),
    ]
    packed = 0
    for g in graphs:
        for k in range(1, 5):
            res = greedy_rigid_packing(g, k)
            assert res == greedy_rigid_packing_reference(g, k)
            packed += res.value >= 2
    # Several graphs reach a second round, so the filtered order is used.
    assert packed >= 20


def test_greedy_packing_k1_is_the_rank_basis():
    # One round feeds the sorted edges, as rigidity_rank does, so its
    # subgraph is rigidity_rank's basis, on the graphs of the test above.
    graphs = [
        complete_bipartite(12, 12),
        complete_bipartite(12, 18),
        complete_bipartite(18, 18),
        *seeded_circulants(31),
        *medium_corpus(),
    ]
    rigid = 0
    for g in graphs:
        res, rank = greedy_rigid_packing(g, 1), rigidity_rank(g)
        if res.value:
            assert res.witness.subgraphs == (rank.witness.edges,)
            rigid += 1
        else:
            assert rank.value < 2 * g.n - 3
    assert rigid >= 10


def test_greedy_packing_bad_k():
    with pytest.raises(InvalidParam):
        greedy_rigid_packing(complete_bipartite(3, 3), 0)


def test_partition_bound_desk_values():
    k33 = complete_bipartite(3, 3)
    singles = [[v] for v in vertices(k33)]
    assert rigid_packing_partition_bound(k33, 1, (), singles) == (9, 9)

    two_blocks = [
        [("x", i) for i in range(3)],
        [("y", j) for j in range(3)],
    ]
    assert rigid_packing_partition_bound(k33, 1, (), two_blocks) == (9, 3)

    one_block = [vertices(k33)]
    assert rigid_packing_partition_bound(k33, 1, (), one_block) == (0, 0)


def test_partition_bound_with_removed_set():
    k33 = complete_bipartite(3, 3)
    removed = [("x", 0)]
    rest = [v for v in vertices(k33) if v != ("x", 0)]
    lhs, rhs = rigid_packing_partition_bound(k33, 1, removed, [[v] for v in rest])
    # K_{2,3} remains: lhs = 6; n0 = 5, n_Z = 3 (each y sees x0)
    assert lhs == 6
    assert rhs == 1 * 2 * 5 - 3 - 3 + 0


def test_partition_sufficient_fires_for_k33():
    k33 = complete_bipartite(3, 3)
    assert rigid_packing_partition_sufficient(k33, 1).value == 1
    assert rigidity_rank(k33).value == 2 * k33.n - 3


def test_partition_sufficient_finds_violation_for_c6():
    res = rigid_packing_partition_sufficient(even_cycle(6), 1)
    assert res.value == 0
    lhs, rhs = rigid_packing_partition_bound(
        even_cycle(6), 1, res.witness.removed, res.witness.blocks
    )
    assert lhs < rhs


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
            assert rigidity_rank(g).value == 2 * g.n - 3


def test_partition_sufficient_against_bound_and_greedy():
    # A violating (Z, pi) splits V and violates the scalar bound too; when
    # every (Z, pi) holds, greedy extraction packs k rigid subgraphs.
    violated = held = 0
    for g in partition_corpus():
        if g.n > 9:
            continue
        for k in (1, 2):
            res = rigid_packing_partition_sufficient(g, k)
            if res.value == 0:
                removed, blocks = res.witness.removed, res.witness.blocks
                assert sorted(sum(blocks, removed)) == sorted(vertices(g))
                lhs, rhs = rigid_packing_partition_bound(g, k, removed, blocks)
                assert lhs < rhs
                violated += 1
            else:
                packing = greedy_rigid_packing(g, k)
                assert packing.exact and packing.value >= k
                held += 1
    assert (violated, held) == (66, 8)


def test_partition_bound_matches_scalar_reference():
    # The table sides on one-row tables against the scalar bound: one
    # block, singletons and two blocks, each also listed out of vertex
    # order, for every Z of size 0..2.
    for g in (complete_bipartite(3, 4), even_cycle(8), DISCONNECTED, K44_PENDANT):
        verts = vertices(g)
        fid = {v: i for i, v in enumerate(verts)}
        edges, adj = flat_edges(g), flat_adjacency(g)
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
                    order = [fid[v] for block in partition for v in block]
                    row = np.array([[i for i, b in enumerate(partition) for _ in b]])
                    z_set = {fid[v] for v in removed}
                    live, zdeg = _outside_z(edges, adj, z_set, order)
                    for k in (1, 2):
                        lhs, rhs = _partition_sides(k, z_size, live, zdeg, row)
                        assert (int(lhs[0]), int(rhs[0])) == (
                            rigid_packing_partition_bound(g, k, removed, partition)
                        )


def test_partition_sufficient_guards():
    with pytest.raises(TooLarge):
        rigid_packing_partition_sufficient(complete_bipartite(5, 5), 1)


def test_single_edge_is_rigid():
    k11 = BipartiteGraph(1, 1, ((0, 0),))
    assert rigidity_rank(k11).value == 1 == 2 * 2 - 3
