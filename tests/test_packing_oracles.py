"""Tree packing: matroid union against the partition brute force."""

import pytest

from biregular import complete_bipartite, even_cycle
from biregular.errors import InvalidParam, TooLarge
from biregular.oracles import (
    ForestPacking,
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
    partition_corpus,
    small_corpus,
    tree_packing_partition_bruteforce_reference,
)

from test_flow_oracles import DISCONNECTED


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
