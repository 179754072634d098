"""Exact combinatorial oracles that ground-truth every certified property."""

from .flow import edge_connectivity, vertex_connectivity
from .packing import tree_packing_number, tree_packing_partition_bruteforce
from .partitions import iter_partition_assignments
from .result import (
    EdgeCut,
    ForestPacking,
    LamanPacking,
    LamanSubgraph,
    OracleResult,
    PartitionWitness,
    Separator,
)
from .rigidity import (
    PartitionBoundReport,
    greedy_rigid_packing,
    is_globally_rigid,
    is_redundantly_rigid,
    is_rigid,
    rigid_packing_partition_bound,
    rigid_packing_partition_sufficient,
    rigidity_matrix_rank_modular,
    rigidity_rank,
)

__all__ = [
    "EdgeCut",
    "ForestPacking",
    "LamanPacking",
    "LamanSubgraph",
    "OracleResult",
    "PartitionBoundReport",
    "PartitionWitness",
    "Separator",
    "edge_connectivity",
    "greedy_rigid_packing",
    "is_globally_rigid",
    "is_redundantly_rigid",
    "is_rigid",
    "iter_partition_assignments",
    "rigid_packing_partition_bound",
    "rigid_packing_partition_sufficient",
    "rigidity_matrix_rank_modular",
    "rigidity_rank",
    "tree_packing_number",
    "tree_packing_partition_bruteforce",
    "vertex_connectivity",
]
