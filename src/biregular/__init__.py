"""Spectral certification and exact verification for biregular bipartite graphs.

The package certifies edge connectivity, vertex connectivity, spanning tree
packing, rigid-subgraph packing, and global rigidity of (a,b)-biregular
bipartite graphs from lambda_2, the second largest adjacency eigenvalue,
and double-checks every fired certificate with exact combinatorial oracles
(augmenting-path flows, matroid union and the (2,3) pebble game).
"""

from .audit import (
    AuditConfig,
    AuditRecord,
    audit_random,
    default_config,
    generate_corpus,
    report_emit,
)
from .bbg import parse_bbg, write_bbg
from .certify import (
    Certificate,
    GraphProperty,
    Verdict,
    certify_edge_connectivity,
    certify_global_rigidity,
    certify_rigid_packing,
    certify_tree_packing,
    certify_vertex_connectivity,
    is_ramanujan,
)
from .graphs import (
    BipartiteGraph,
    BiregularProfile,
    complete_bipartite,
    cross_edges,
    even_cycle,
    heawood,
    random_biregular,
    validate_biregular,
)
from .prng import SplitMix64, derive_seed
from .spectral import (
    MixingAuditReport,
    MixingReport,
    Spectrum,
    biadjacency,
    mixing_audit,
    mixing_check,
    singular_values,
)
from . import errors, oracles

__version__ = "0.1.0"

__all__ = [
    "AuditConfig",
    "AuditRecord",
    "BipartiteGraph",
    "BiregularProfile",
    "Certificate",
    "GraphProperty",
    "MixingAuditReport",
    "MixingReport",
    "Spectrum",
    "SplitMix64",
    "Verdict",
    "audit_random",
    "biadjacency",
    "certify_edge_connectivity",
    "certify_global_rigidity",
    "certify_rigid_packing",
    "certify_tree_packing",
    "certify_vertex_connectivity",
    "complete_bipartite",
    "cross_edges",
    "default_config",
    "derive_seed",
    "errors",
    "even_cycle",
    "generate_corpus",
    "heawood",
    "is_ramanujan",
    "mixing_audit",
    "mixing_check",
    "oracles",
    "parse_bbg",
    "random_biregular",
    "report_emit",
    "singular_values",
    "validate_biregular",
    "write_bbg",
]
