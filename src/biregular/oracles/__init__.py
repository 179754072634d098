"""Exact combinatorial oracles that ground-truth every certified property."""

from .flow import edge_connectivity, vertex_connectivity
from .packing import tree_packing_number
from .result import (
    EdgeCut,
    ForestPacking,
    LamanPacking,
    LamanSubgraph,
    OracleResult,
    Separator,
)
from .rigidity import (
    greedy_rigid_packing,
    is_globally_rigid,
    is_redundantly_rigid,
    rigidity_matrix_rank_modular,
    rigidity_rank,
)

__all__ = [
    "EdgeCut",
    "ForestPacking",
    "LamanPacking",
    "LamanSubgraph",
    "OracleResult",
    "Separator",
    "edge_connectivity",
    "greedy_rigid_packing",
    "is_globally_rigid",
    "is_redundantly_rigid",
    "rigidity_matrix_rank_modular",
    "rigidity_rank",
    "tree_packing_number",
    "vertex_connectivity",
]
