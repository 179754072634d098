"""Bipartite graph values, biregularity validation, generators, and counting.

A vertex is addressed as a ``(part, index)`` pair where ``part`` is the
string ``"x"`` or ``"y"`` and the index counts within that part, so the same
integer can name one vertex on each side. Edges are ``(x_index, y_index)``
pairs. Graph values are immutable after construction and safe to share
across concurrent readers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import index
from typing import Iterable

import numpy as np

from . import prng
from .errors import (
    DegreeEquationViolated,
    DuplicateEdge,
    EmptyGraph,
    IndexOutOfRange,
    InvalidParam,
    NotBiregular,
    PartMismatch,
    RetriesExhausted,
)
from .prng import GAMMA, SplitMix64, stream_u64

X_PART = "x"
Y_PART = "y"

Vertex = tuple[str, int]
EdgePair = tuple[int, int]


@dataclass(frozen=True)
class BipartiteGraph:
    """Simple bipartite graph with parts X and Y.

    ``edges`` is normalized to a lexicographically sorted tuple; duplicate
    pairs and out-of-range or non-integer endpoints are rejected at
    construction. Part sizes and endpoints are read with ``operator.index``,
    so numpy integers pass and floats or strings do not. Sorted adjacency
    lists are derived once and cached on the value.
    """

    x_count: int
    y_count: int
    edges: tuple[EdgePair, ...]
    adj_x: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )
    adj_y: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        x_count = check_int(self.x_count, "part size")
        y_count = check_int(self.y_count, "part size")
        if x_count < 1 or y_count < 1:
            raise InvalidParam("both parts must be nonempty")
        object.__setattr__(self, "x_count", x_count)
        object.__setattr__(self, "y_count", y_count)
        seen = set()
        normalized = []
        for e in self.edges:
            try:
                xi, yj = index(e[0]), index(e[1])
            except TypeError:
                raise IndexOutOfRange(
                    f"edge {e!r} has a non-integer endpoint"
                ) from None
            if not 0 <= xi < self.x_count:
                raise IndexOutOfRange(
                    f"x index {xi} outside [0, {self.x_count})"
                )
            if not 0 <= yj < self.y_count:
                raise IndexOutOfRange(
                    f"y index {yj} outside [0, {self.y_count})"
                )
            if (xi, yj) in seen:
                raise DuplicateEdge(f"edge ({xi}, {yj}) listed twice")
            seen.add((xi, yj))
            normalized.append((xi, yj))
        normalized.sort()
        object.__setattr__(self, "edges", tuple(normalized))
        ax = [[] for _ in range(self.x_count)]
        ay = [[] for _ in range(self.y_count)]
        for xi, yj in normalized:
            ax[xi].append(yj)
            ay[yj].append(xi)
        # Edges are sorted by x first, so every list is already in order.
        object.__setattr__(self, "adj_x", tuple(tuple(v) for v in ax))
        object.__setattr__(self, "adj_y", tuple(tuple(v) for v in ay))
        object.__setattr__(self, "_edge_set", frozenset(seen))
        # The (a, b) profile, or None when the graph has no edge or is not
        # biregular; ``validate_biregular`` then raises.
        a, b = len(ax[0]), len(ay[0])
        profile = None
        if normalized and all(len(v) == a for v in ax) and all(
            len(v) == b for v in ay
        ):
            profile = BiregularProfile(a, b)
        object.__setattr__(self, "_profile", profile)

    @property
    def n(self) -> int:
        return self.x_count + self.y_count

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, xi: int, yj: int) -> bool:
        return (xi, yj) in self._edge_set

    def vertices(self) -> tuple[Vertex, ...]:
        return tuple((X_PART, i) for i in range(self.x_count)) + tuple(
            (Y_PART, j) for j in range(self.y_count)
        )

    def without_edge(self, edge: EdgePair) -> "BipartiteGraph":
        try:
            e = (index(edge[0]), index(edge[1]))
        except TypeError:
            raise IndexOutOfRange(
                f"edge {edge!r} has a non-integer endpoint"
            ) from None
        if e not in self._edge_set:
            raise InvalidParam(f"edge {e} not present")
        return BipartiteGraph(
            self.x_count,
            self.y_count,
            tuple(f for f in self.edges if f != e),
        )


@dataclass(frozen=True)
class BiregularProfile:
    """Degrees (a, b): every X-vertex has degree a, every Y-vertex degree b."""

    a: int
    b: int


def _check_vertex(g: BipartiteGraph, v: Vertex) -> Vertex:
    part, idx = v
    if part not in (X_PART, Y_PART):
        raise InvalidParam(f"unknown part tag {part!r}")
    bound = g.x_count if part == X_PART else g.y_count
    if not 0 <= idx < bound:
        raise IndexOutOfRange(f"{part} index {idx} outside [0, {bound})")
    return (part, idx)


def validate_biregular(g: BipartiteGraph) -> BiregularProfile:
    """Check biregularity and return the (a, b) profile.

    Raises EmptyGraph for edgeless graphs and NotBiregular naming the first
    deviating vertex. The returned profile always satisfies a*|X| == b*|Y|
    because both sides count the same edges. The graph records it when it
    is built, so a check of a biregular graph costs no scan.
    """
    if g._profile is not None:
        return g._profile
    if g.m == 0:
        raise EmptyGraph("graph has no edges")
    a = len(g.adj_x[0])
    for i, nbrs in enumerate(g.adj_x):
        if len(nbrs) != a:
            raise NotBiregular((X_PART, i), a, len(nbrs))
    b = len(g.adj_y[0])
    for j, nbrs in enumerate(g.adj_y):
        if len(nbrs) != b:
            raise NotBiregular((Y_PART, j), b, len(nbrs))
    return BiregularProfile(a, b)


def complete_bipartite(m: int, n: int) -> BipartiteGraph:
    """K_{m,n} with X-side size m: profile (a, b) = (n, m)."""
    m, n = check_int(m, "part size"), check_int(n, "part size")
    return BipartiteGraph(
        m, n, tuple((i, j) for i in range(m) for j in range(n))
    )


def even_cycle(length: int) -> BipartiteGraph:
    """Cycle on ``length`` vertices, alternating x0, y0, x1, y1, ... around it."""
    length = check_int(length, "cycle length")
    if length < 4 or length % 2 != 0:
        raise InvalidParam("cycle length must be even and at least 4")
    half = length // 2
    edges = []
    for i in range(half):
        edges.append((i, i))
        edges.append((i, (i - 1) % half))
    return BipartiteGraph(half, half, tuple(edges))


def heawood() -> BipartiteGraph:
    """Point-line incidence graph of the Fano plane: 7+7 vertices, 21 edges.

    Lines are the translates of the difference set {0, 1, 3} mod 7, the
    canonical labelling used throughout the tests.
    """
    edges = []
    for j in range(7):
        for offset in (0, 1, 3):
            edges.append(((j + offset) % 7, j))
    return BipartiteGraph(7, 7, tuple(edges))


def check_int(value, what: str) -> int:
    """value read with ``operator.index``; InvalidParam naming ``what`` if
    it is not an integer (numpy integers pass, floats and strings do not)."""
    try:
        return index(value)
    except TypeError:
        raise InvalidParam(
            f"{what} must be an integer, got {value!r}"
        ) from None


def check_profile(x, y, a, b, what: str = "profile") -> tuple[int, ...]:
    """(x, y, a, b) read with ``operator.index``; InvalidParam unless each is
    at least 1, a*x = b*y (DegreeEquationViolated: both count the edges), and
    a <= y and b <= x, so that a simple (a,b)-biregular graph can exist."""
    entry = f"{what} (x={x}, y={y}, a={a}, b={b})"
    try:
        x, y, a, b = index(x), index(y), index(a), index(b)
    except TypeError:
        raise InvalidParam(f"{entry} holds a non-integer") from None
    if min(x, y, a, b) < 1:
        raise InvalidParam(f"{entry} has a size or degree below 1")
    if a * x != b * y:
        raise DegreeEquationViolated(f"{entry} violates a*x = b*y")
    if a > y or b > x:
        raise InvalidParam(
            f"{entry} has a degree above the opposite part's size"
        )
    return x, y, a, b


# Attempts per block of the batched sampler: the first block is small
# because most profiles succeed within a few attempts, later ones grow 4x
# up to a cap that keeps the block's arrays (and peak memory) small.
_FIRST_BLOCK = 16
_MAX_BLOCK = 256


def random_biregular(
    x: int, y: int, a: int, b: int, seed: int, max_retries: int = 10000
) -> BipartiteGraph:
    """Sample a simple (a,b)-biregular graph by the configuration model.

    The a*x degree stubs on the X side are matched against the b*y stubs on
    the Y side through a seeded Fisher-Yates shuffle of the Y stubs; any
    matching containing a repeated pair is rejected and the whole matching is
    resampled, up to ``max_retries`` attempts. The splitmix64 stream makes
    the result identical across platforms for fixed arguments. Dense
    profiles make rejection sampling hopeless: roughly exp((a-1)(b-1)/2)
    attempts are needed on average, and RetriesExhausted signals that.

    Attempts run in blocks of 16, 64, then 256: a block of R attempts
    reads R*(a*x - 1) words of the stream at once, attempt r taking words
    r*(a*x - 1) + 1 onward, applies every attempt's shuffle column by
    column, and returns the first attempt in which no X-vertex has two
    stubs on one Y-vertex. That is the word-for-word stream the
    one-attempt-at-a-time shuffle reads, as long as no bounded draw
    rejects a word. From the first attempt whose draws reject one
    (probability about 1e-17 per word), sampling continues one attempt at
    a time at the same stream position.
    """
    x, y, a, b = check_profile(x, y, a, b)
    if max_retries < 1:
        raise InvalidParam("max_retries must be positive")
    stubs = a * x
    width = stubs - 1
    bounds = np.arange(stubs, 1, -1, dtype=np.uint64)
    top = np.array([prng.accept_max(int(n)) for n in bounds], dtype=np.uint64)
    x_stubs = [i for i in range(x) for _ in range(a)]
    y_base = np.repeat(np.arange(y, dtype=np.min_scalar_type(y)), b)
    attempt, block = 0, _FIRST_BLOCK
    while attempt < max_retries:
        rows = min(block, max_retries - attempt)
        draws = stream_u64(seed, attempt * width, rows * width)
        draws = draws.reshape(rows, width)
        rejected = np.flatnonzero((draws > top).any(axis=1))
        if rejected.size:
            rows = int(rejected[0])
            draws = draws[:rows]
        # Row r, X-vertex i: the Y-ends of i's a stubs; a repeat is a clash.
        groups = _shuffled_rows(y_base, draws % bounds).reshape(rows, x, a)
        clash = np.zeros((rows, x), dtype=bool)
        for d in range(1, a):
            clash |= (groups[:, :, d:] == groups[:, :, :-d]).any(axis=2)
        simple = np.flatnonzero(~clash.any(axis=1))
        if simple.size:
            return BipartiteGraph(
                x, y, tuple(zip(x_stubs, groups[simple[0]].ravel().tolist()))
            )
        attempt += rows
        if rejected.size:
            break
        block = min(4 * block, _MAX_BLOCK)
    rng = SplitMix64(seed + attempt * width * GAMMA)
    y_list = y_base.tolist()
    for _ in range(max_retries - attempt):
        y_stubs = y_list.copy()
        rng.shuffle(y_stubs)
        pairs = set(zip(x_stubs, y_stubs))
        if len(pairs) == stubs:
            return BipartiteGraph(x, y, tuple(pairs))
    raise RetriesExhausted(
        f"no simple matching in {max_retries} attempts for "
        f"(x={x}, y={y}, a={a}, b={b}, seed={seed})"
    )


def _shuffled_rows(y_base: np.ndarray, swaps: np.ndarray) -> np.ndarray:
    """Rows of y_base after top-down Fisher-Yates, one row per row of swaps.

    Column c of ``swaps`` holds the partner j of position len(y_base)-1-c.
    The work array is position-major, so each position's column of rows is
    one contiguous slice, and the swaps of all rows at one position are
    three vectorised steps.
    """
    rows, width = swaps.shape
    perm = np.repeat(y_base, rows)
    partner = swaps.T.astype(np.intp) * rows + np.arange(rows)
    for c in range(width):
        i = width - c
        here = slice(i * rows, (i + 1) * rows)
        held = perm[here].copy()
        perm[here] = perm[partner[c]]
        perm[partner[c]] = held
    return perm.reshape(width + 1, rows).T


def flat_vertex(g: BipartiteGraph, fid: int) -> Vertex:
    if not 0 <= fid < g.n:
        raise IndexOutOfRange(f"flat id {fid} outside [0, {g.n})")
    if fid < g.x_count:
        return (X_PART, fid)
    return (Y_PART, fid - g.x_count)


def flat_edges(g: BipartiteGraph, edges=None) -> list[tuple[int, int]]:
    """Edges of g, or the given edges of g in their order, as flat-id pairs."""
    pool = g.edges if edges is None else edges
    return [(xi, g.x_count + yj) for xi, yj in pool]


def flat_adjacency(g: BipartiteGraph) -> list[list[int]]:
    """Adjacency lists over flat ids, neighbor lists sorted."""
    x = g.x_count
    return [[x + yj for yj in ys] for ys in g.adj_x] + [list(xs) for xs in g.adj_y]


def connected_components(g: BipartiteGraph) -> tuple[tuple[Vertex, ...], ...]:
    """Components as sorted vertex tuples, ordered by their smallest flat id."""
    adj = flat_adjacency(g)
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        comp = [start]
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        comps.append(tuple(flat_vertex(g, fid) for fid in sorted(comp)))
    return tuple(comps)


def is_connected(g: BipartiteGraph) -> bool:
    return len(connected_components(g)) == 1


def cut_size(g: BipartiteGraph, vertices: Iterable[Vertex]) -> int:
    """Number of edges with exactly one endpoint in the given set."""
    members = {_check_vertex(g, v) for v in vertices}
    total = 0
    for xi, yj in g.edges:
        if ((X_PART, xi) in members) != ((Y_PART, yj) in members):
            total += 1
    return total


def cross_edges(
    g: BipartiteGraph, a_side: Iterable[Vertex], b_side: Iterable[Vertex]
) -> int:
    """Exact count of edges between A (within X) and B (within Y)."""
    a_idx = set()
    for v in a_side:
        part, idx = _check_vertex(g, v)
        if part != X_PART:
            raise PartMismatch(f"{v} is not an X-vertex")
        a_idx.add(idx)
    b_idx = set()
    for v in b_side:
        part, idx = _check_vertex(g, v)
        if part != Y_PART:
            raise PartMismatch(f"{v} is not a Y-vertex")
        b_idx.add(idx)
    return sum(
        1 for i in a_idx for j in g.adj_x[i] if j in b_idx
    )
