"""Tree packing: matroid union against the partition brute force."""

import pytest

from biregular import BipartiteGraph, complete_bipartite, even_cycle
from biregular.errors import InvalidParam, TooLarge
from biregular.oracles import (
    ForestPacking,
    packing,
    tree_packing_number,
    tree_packing_partition_bruteforce,
)
from biregular.oracles.partitions import (
    _BLOCK_ROWS,
    PARTITION_GUARD,
    partition_blocks,
)

from testutil import (
    is_spanning_tree,
    iter_partition_assignments_reference,
    medium_corpus,
    partition_corpus,
    small_corpus,
    tree_packing_number_reference,
    tree_packing_partition_bruteforce_reference,
)

from test_flow_oracles import DISCONNECTED, _seeded_bipartite


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


def test_k_max_caps_the_search():
    assert tree_packing_number(complete_bipartite(4, 4), k_max=1).value == 1
    assert tree_packing_number(complete_bipartite(6, 6), k_max=2).value == 2


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


def test_cap_first_matches_bottom_up_rounds(default_corpus):
    graphs = [
        *default_corpus,
        *small_corpus(),
        *medium_corpus(),
        *(complete_bipartite(a, b) for a in range(1, 9) for b in range(1, 9)),
        *_seeded_bipartite(2024, 100),
        _joined_k66_blocks(1),
        _joined_k66_blocks(2),
    ]
    capped = 0
    for g in graphs:
        for k_max in (None, 1, 2, 3, 8):
            res = tree_packing_number(g, k_max)
            assert res == tree_packing_number_reference(g, k_max)
        cap = g.m // (g.n - 1)
        capped += 1 < cap and res.value < cap
    # Some graphs miss their cap, so the rounds below it run too.
    assert capped >= 8


def test_cap_round_runs_first(monkeypatch):
    rounds = []
    run = packing._pack_forests

    def counted(g, k):
        rounds.append(k)
        return run(g, k)

    monkeypatch.setattr(packing, "_pack_forests", counted)
    assert tree_packing_number(complete_bipartite(6, 6)).value == 3
    assert rounds == [3]
    rounds.clear()
    # C6 has 6 edges on 6 vertices: cap 1 < 2 = k_max, one round.
    assert tree_packing_number(even_cycle(6), k_max=2).value == 1
    assert rounds == [1]
    rounds.clear()
    # The cap 3 fails to pack, then rounds 1 and 2 run from the bottom.
    assert tree_packing_number(_joined_k66_blocks(2)).value == 2
    assert rounds == [3, 1, 2]


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


def test_bruteforce_matches_scalar_reference():
    for g in partition_corpus():
        for k in (1, 2):
            assert tree_packing_partition_bruteforce(
                g, k
            ) == tree_packing_partition_bruteforce_reference(g, k)


@pytest.mark.parametrize("k", [0, 1.5])
def test_bruteforce_rejects_bad_k(k):
    with pytest.raises(InvalidParam):
        tree_packing_partition_bruteforce(even_cycle(6), k)


def test_partition_guard():
    with pytest.raises(TooLarge):
        tree_packing_partition_bruteforce(complete_bipartite(7, 7), 1)
