"""What the exact oracles return: a value, a witness type and exactness."""

from __future__ import annotations

from dataclasses import dataclass

from ..graphs import EdgePair, Vertex


@dataclass(frozen=True)
class EdgeCut:
    """Edges whose removal disconnects the graph."""

    edges: tuple[EdgePair, ...]


@dataclass(frozen=True)
class Separator:
    """Vertices whose removal disconnects the graph."""

    vertices: tuple[Vertex, ...]


@dataclass(frozen=True)
class ForestPacking:
    """Edge-disjoint spanning forests, each a tuple of edges."""

    forests: tuple[tuple[EdgePair, ...], ...]


@dataclass(frozen=True)
class LamanSubgraph:
    """An independent edge set in the planar rigidity matroid."""

    edges: tuple[EdgePair, ...]


@dataclass(frozen=True)
class LamanPacking:
    """Edge-disjoint spanning minimally rigid subgraphs."""

    subgraphs: tuple[tuple[EdgePair, ...], ...]


@dataclass(frozen=True)
class OracleResult:
    """An oracle's value, a re-checkable witness, and whether value is exact.

    The caller knows which property it asked about, so the result does not
    name it. ``exact`` is False only for inconclusive greedy rigid-packing
    outcomes; every other oracle decides its question outright.
    """

    value: int
    witness: object | None
    exact: bool = True
