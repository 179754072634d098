#!/usr/bin/env python3
"""Every certificate has an exact combinatorial oracle behind it.

Connectivity comes from unit augmenting-path flows: a few flows inside
one part settle "at least the minimum degree", and the full scans run
only below it (vertex connectivity up to 3 comes from depth-first search,
with flows only for a separator). Tree packing comes from graphic matroid
union, rigidity from the (2,3) pebble game, and all of them return
witnesses you can re-check by hand.
"""

from biregular import complete_bipartite, even_cycle, heawood
from biregular.oracles import (
    edge_connectivity,
    greedy_rigid_packing,
    is_globally_rigid,
    is_redundantly_rigid,
    rigidity_matrix_rank_modular,
    rigidity_rank,
    tree_packing_number,
    vertex_connectivity,
)

hw = heawood()
res = edge_connectivity(hw)
print(f"Heawood: kappa' = {res.value}, min cut = {res.witness.edges}")
res = vertex_connectivity(hw)
print(f"Heawood: kappa  = {res.value}, separator = {res.witness.vertices}")

k44 = complete_bipartite(4, 4)
res = tree_packing_number(k44)
print(f"\nK_{{4,4}}: tau = {res.value} edge-disjoint spanning trees")
for i, tree in enumerate(res.witness.forests):
    print(f"  tree {i}: {tree}")

k66 = complete_bipartite(6, 6)
rank = rigidity_rank(k66)
print(f"\nK_{{6,6}}: rigidity rank {rank.value} = 2n-3 = {2*k66.n-3} -> rigid")
print(f"  modular rank cross-check (seed 1): {rigidity_matrix_rank_modular(k66, 1)}")
print(f"  redundantly rigid: {bool(is_redundantly_rigid(k66).value)}")
print(f"  globally rigid:    {bool(is_globally_rigid(k66).value)}")

packing = greedy_rigid_packing(complete_bipartite(12, 12), 2)
sizes = [len(s) for s in packing.witness.subgraphs]
print(f"\nK_{{12,12}}: greedy extracted {packing.value} disjoint spanning "
      f"Laman subgraphs of sizes {sizes}")

c6 = even_cycle(6)
print(f"\n6-cycle rigidity rank: {rigidity_rank(c6).value} < {2*c6.n-3} -> not rigid")
