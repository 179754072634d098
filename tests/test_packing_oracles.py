"""Tree packing: matroid union against the partition brute force."""

import pytest

from biregular import complete_bipartite, even_cycle
from biregular.errors import TooLarge
from biregular.oracles import (
    ForestPacking,
    iter_partition_assignments,
    tree_packing_number,
    tree_packing_partition_bruteforce,
)

from testutil import (
    is_spanning_tree,
    iter_partition_assignments_reference,
    small_corpus,
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
    # so the enumeration order is part of their output.
    bell = (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147)
    for n in range(10):
        got = [list(a) for a in iter_partition_assignments(n)]
        assert got == list(iter_partition_assignments_reference(n))
        assert len(got) == bell[n]


def test_partition_guard():
    with pytest.raises(TooLarge):
        tree_packing_partition_bruteforce(complete_bipartite(7, 7), 1)
