"""Bipartite graph values, validation, generators, flat ids, edge index
arrays and e(A, B).

A vertex is addressed as a ``(part, index)`` pair where ``part`` is the
string ``"x"`` or ``"y"`` and the index counts within that part, so the same
integer can name one vertex on each side. Edges are ``(x_index, y_index)``
pairs. Graph values are immutable after construction and safe to share
across concurrent readers.

The configuration-model sampler shuffles the Y stubs of many attempts at
once, in two phases over the same draws: every attempt runs the shuffle
steps that complete the stubs of the last three X-vertices and is tested
there, and only the attempts with no clash there reduce the rest of their
draws, finish the shuffle and test the other vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import index
from typing import Iterable

import numpy as np

from .errors import (
    DegreeEquationViolated,
    DuplicateEdge,
    EmptyGraph,
    IndexOutOfRange,
    InvalidParam,
    NotBiregular,
    PartMismatch,
    RetriesExhausted,
    TooLarge,
    check_int,
)
from .prng import accepted_rows

X_PART = "x"
Y_PART = "y"

Vertex = tuple[str, int]
EdgePair = tuple[int, int]

# The most vertices a part may hold. The graph and the profile check refuse
# a larger part before anything is allocated for it.
PART_BOUND = 2**20

# The most cells x * y of a graph whose dense x-by-y arrays are built: the
# biadjacency matrix (``spectral.biadjacency``), the mixing audit's count
# matrix, and the edges of ``complete_bipartite``. Each refuses a larger
# graph before it allocates. Every graph they accept has m <= 2^24 edges.
CELL_BOUND = 2**24


def check_cells(x: int, y: int, what: str) -> None:
    """TooLarge naming ``what`` unless x * y <= CELL_BOUND."""
    if x * y > CELL_BOUND:
        raise TooLarge(
            f"{what}: {x} x {y} = {x * y} cells is above the bound {CELL_BOUND}"
        )


@dataclass(frozen=True)
class BipartiteGraph:
    """Simple bipartite graph with parts X and Y.

    ``edges`` is normalized to a lexicographically sorted tuple; entries
    that are not pairs, duplicate pairs and out-of-range or non-integer
    endpoints are rejected at construction, with the first offending edge's
    input position as the error's ``position``. Part sizes and endpoints
    are read with ``operator.index``, so numpy integers pass and floats or
    strings do not; each part holds 1 to ``PART_BOUND`` vertices. Sorted
    adjacency lists are derived once and cached on the value.
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
        if max(x_count, y_count) > PART_BOUND:
            raise InvalidParam(
                f"part size {max(x_count, y_count)} is above the bound {PART_BOUND}"
            )
        object.__setattr__(self, "x_count", x_count)
        object.__setattr__(self, "y_count", y_count)
        seen = set()
        for pos, e in enumerate(self.edges):
            try:
                xi, yj = e
            except (TypeError, ValueError):
                raise IndexOutOfRange(
                    f"edge {e!r} is not an (x, y) pair", pos
                ) from None
            try:
                xi, yj = index(xi), index(yj)
            except TypeError:
                raise IndexOutOfRange(
                    f"edge {e!r} has a non-integer endpoint", pos
                ) from None
            if not 0 <= xi < self.x_count:
                raise IndexOutOfRange(
                    f"x index {xi} outside [0, {self.x_count})", pos
                )
            if not 0 <= yj < self.y_count:
                raise IndexOutOfRange(
                    f"y index {yj} outside [0, {self.y_count})", pos
                )
            if (xi, yj) in seen:
                raise DuplicateEdge(f"edge ({xi}, {yj}) repeated", pos)
            seen.add((xi, yj))
        normalized = sorted(seen)
        object.__setattr__(self, "edges", tuple(normalized))
        ax = [[] for _ in range(self.x_count)]
        ay = [[] for _ in range(self.y_count)]
        for xi, yj in normalized:
            ax[xi].append(yj)
            ay[yj].append(xi)
        # Edges are sorted by x first, so every list is already in order.
        object.__setattr__(self, "adj_x", tuple(tuple(v) for v in ax))
        object.__setattr__(self, "adj_y", tuple(tuple(v) for v in ay))
        # The (a, b) profile, or None when the graph has no edge or a vertex
        # is off it; the first such (vertex, expected, actual), X side before
        # Y side, is kept for ``validate_biregular`` to raise.
        a, b = len(ax[0]), len(ay[0])
        off = [((X_PART, i), a, len(v)) for i, v in enumerate(ax) if len(v) != a]
        off += [((Y_PART, j), b, len(v)) for j, v in enumerate(ay) if len(v) != b]
        profile = None if off or not normalized else BiregularProfile(a, b)
        object.__setattr__(self, "_profile", profile)
        object.__setattr__(self, "_deviation", off[0] if off else None)

    @property
    def n(self) -> int:
        return self.x_count + self.y_count

    @property
    def m(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class BiregularProfile:
    """Degrees (a, b): every X-vertex has degree a, every Y-vertex degree b."""

    a: int
    b: int


def _vertex_index(g: BipartiteGraph, v: Vertex, part: str) -> int:
    """v's index; that it is a pair, its tag, an integer index in range, then
    its part are checked."""
    try:
        tag, idx = v
    except (TypeError, ValueError):
        raise InvalidParam(f"vertex {v!r} is not a (part, index) pair") from None
    if tag not in (X_PART, Y_PART):
        raise InvalidParam(f"unknown part tag {tag!r}")
    try:
        idx = index(idx)
    except TypeError:
        raise IndexOutOfRange(f"vertex {v!r} has a non-integer index") from None
    bound = g.x_count if tag == X_PART else g.y_count
    if not 0 <= idx < bound:
        raise IndexOutOfRange(f"{tag} index {idx} outside [0, {bound})")
    if tag != part:
        raise PartMismatch(f"{v} is not {'an X' if part == X_PART else 'a Y'}-vertex")
    return idx


def validate_biregular(g: BipartiteGraph) -> BiregularProfile:
    """Check biregularity and return the (a, b) profile.

    Raises EmptyGraph for edgeless graphs and NotBiregular naming the first
    deviating vertex. The returned profile always satisfies a*|X| == b*|Y|
    because both sides count the same edges. The graph records the profile
    or the deviation when it is built, so a check costs no scan.
    """
    if g._profile is not None:
        return g._profile
    if g.m == 0:
        raise EmptyGraph("graph has no edges")
    raise NotBiregular(*g._deviation)


def complete_bipartite(m: int, n: int) -> BipartiteGraph:
    """K_{m,n} with X-side size m: profile (a, b) = (n, m); TooLarge above
    CELL_BOUND edges, before any is built."""
    m, n = check_int(m, "part size"), check_int(n, "part size")
    check_cells(m, n, "complete bipartite graph")
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


def check_profile(profile, what: str = "profile") -> tuple[int, ...]:
    """The four values (x, y, a, b) read with ``operator.index``; InvalidParam
    unless each is at least 1, x and y are at most PART_BOUND, a*x = b*y
    (DegreeEquationViolated: both count the edges), and a <= y and b <= x,
    so a simple graph can exist."""
    try:
        x, y, a, b = profile
    except (TypeError, ValueError):
        raise InvalidParam(f"{what} {profile!r} does not hold four values") from None
    entry = f"{what} (x={x}, y={y}, a={a}, b={b})"
    try:
        x, y, a, b = index(x), index(y), index(a), index(b)
    except TypeError:
        raise InvalidParam(f"{entry} holds a non-integer") from None
    if min(x, y, a, b) < 1:
        raise InvalidParam(f"{entry} has a size or degree below 1")
    if max(x, y) > PART_BOUND:
        raise InvalidParam(f"{entry} has a part size above the bound {PART_BOUND}")
    if a * x != b * y:
        raise DegreeEquationViolated(f"{entry} violates a*x = b*y")
    if a > y or b > x:
        raise InvalidParam(f"{entry} has a degree above the opposite part's size")
    return x, y, a, b


# Attempts per block of the sampler: the first block is small because most
# profiles succeed within a few attempts, later ones grow 4x up to a cap
# that keeps the block's arrays (and peak memory) small. One call of the
# reader serves as many trials' blocks as fit in _CALL_ROWS rows: 64
# trials' first blocks, or 4 trials' 256-row blocks. Every row of a call is
# read and mixed, and runs the shuffle's first steps (phase one); only the
# rows that pass the checkpoint reduce the rest of their words and finish
# the shuffle (phase two).
_FIRST_BLOCK = 16
_MAX_BLOCK = 256
_CALL_ROWS = 4 * _MAX_BLOCK
# The X-vertices whose stubs phase one fixes and tests. Sampling the default
# audit's corpus (median of 5 interleaved rounds, one pinned core of a
# 2-core Xeon VM), checkpoints after 1, 2, 3, 4 and 5 vertices took 419,
# 355, 343, 351 and 358 ms, and none (every attempt shuffled whole) 477 ms.
_CHECK_VERTICES = 3
DEFAULT_MAX_RETRIES = 10000


def random_biregular(
    x: int, y: int, a: int, b: int, seed: int,
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> BipartiteGraph:
    """Sample a simple (a,b)-biregular graph by the configuration model.

    The a*x degree stubs on the X side are matched against the b*y stubs on
    the Y side through a seeded Fisher-Yates shuffle of the Y stubs; any
    matching containing a repeated pair is rejected and the whole matching is
    resampled, up to ``max_retries`` attempts. The splitmix64 stream makes
    the result identical across platforms for fixed arguments. Dense
    profiles make rejection sampling hopeless: roughly exp((a-1)(b-1)/2)
    attempts are needed on average, and RetriesExhausted signals that.

    This is ``random_biregular_trials`` on the one seed.
    """
    (g,) = random_biregular_trials(x, y, a, b, (seed,), max_retries)
    if g is None:
        raise RetriesExhausted(
            f"no simple matching in {max_retries} attempts for "
            f"(x={x}, y={y}, a={a}, b={b}, seed={seed})"
        )
    return g


def random_biregular_trials(
    x: int, y: int, a: int, b: int, seeds,
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> list[BipartiteGraph | None]:
    """``random_biregular`` for each seed: its graph, or None where it would
    raise RetriesExhausted.

    Each seed's attempts are drawn from its own stream in blocks of 16, 64,
    then 256 (``accepted_rows``), and the first attempt with no two stubs of
    one X-vertex on one Y-vertex is its graph. The top-down shuffle fixes
    positions from the end, so its first steps (phase one) complete the
    stubs of the last ``_CHECK_VERTICES`` X-vertices, all of them when x is
    at most that. Every attempt runs phase one and tests those vertices;
    only the survivors reduce the rest of their draws, finish the shuffle
    and test the other vertices (phase two). The seeds still without a
    graph move through the blocks together, as many to a call as fit in
    ``_CALL_ROWS`` rows, so one seed's graph is the same whichever seeds
    share its calls.
    """
    x, y, a, b = check_profile((x, y, a, b))
    if check_int(max_retries, "max_retries") < 1:
        raise InvalidParam("max_retries must be positive")
    seeds = [check_int(seed, "seed") for seed in seeds]
    x_stubs = [i for i in range(x) for _ in range(a)]
    y_base = np.repeat(np.arange(y, dtype=np.min_scalar_type(y)), b)
    # Step s of the shuffle swaps position m - 1 - s with its draw below
    # m - s; phase one's ``head`` steps fix the positions from ``split`` on.
    m = a * x
    bounds = np.arange(m, 1, -1, dtype=np.uint64)
    split = max(m - _CHECK_VERTICES * a, 0)
    head = min(_CHECK_VERTICES * a, m - 1)
    graphs = [None] * len(seeds)
    position = [0] * len(seeds)
    live = list(range(len(seeds)))
    attempt, block = 0, _FIRST_BLOCK
    while live and attempt < max_retries:
        rows = min(block, max_retries - attempt)
        per_call = _CALL_ROWS // rows
        calls = [live[i : i + per_call] for i in range(0, len(live), per_call)]
        live = []
        for trials in calls:
            words, ends = accepted_rows(
                [seeds[t] for t in trials], [position[t] for t in trials],
                bounds, rows,
            )
            perm = np.repeat(y_base, len(words)).reshape(m, len(words))
            _shuffle_steps(perm, words[:, :head] % bounds[:head], m - 1)
            kept = np.flatnonzero(_simple(perm[split:], a))
            # Phase two keeps only the survivors' words, and frees the block
            # before it reduces them.
            perm, words = perm.take(kept, axis=1), words[kept, head:]
            words %= bounds[head:]
            _shuffle_steps(perm, words, m - 1 - head)
            cols = np.flatnonzero(_simple(perm[:split], a))
            # Each trial's graph is its first row that passed both tests.
            owners, first = np.unique(kept[cols] // rows, return_index=True)
            found = dict(zip(owners.tolist(), cols[first].tolist()))
            for r, (t, end) in enumerate(zip(trials, ends)):
                if r in found:
                    ends_y = perm[:, found[r]].tolist()
                    graphs[t] = BipartiteGraph(x, y, tuple(zip(x_stubs, ends_y)))
                else:
                    position[t] = end
                    live.append(t)
        attempt += rows
        block = min(4 * block, _MAX_BLOCK)
    return graphs


def _shuffle_steps(perm, swaps, top: int) -> None:
    """Top-down Fisher-Yates steps on ``perm``, a C-contiguous array of
    positions by attempts: step s swaps, in each column c, position
    ``top - s`` with position ``swaps[c, s]``. The array is position-major,
    so the swaps of every attempt at one position are vectorised steps on
    one contiguous slice."""
    total = perm.shape[1]
    flat = perm.reshape(-1)
    partners = swaps.T.astype(np.intp)
    partners *= total
    partners += np.arange(total)
    for i, j in zip(range(top, 0, -1), partners):
        lo = i * total
        flat[lo : lo + total], flat[j] = flat[j], flat[lo : lo + total].copy()


def _simple(stubs, a: int):
    """For each column of ``stubs`` (whole X-vertices' Y-ends, ``a`` rows to
    a vertex), whether no vertex has two stubs on one Y-vertex."""
    groups = stubs.reshape(len(stubs) // a, a, stubs.shape[1])
    clash = np.zeros(groups[:, 0].shape, dtype=bool)
    for d in range(1, a):
        clash |= (groups[:, d:] == groups[:, :-d]).any(axis=1)
    return ~clash.any(axis=0)


def flat_vertex(g: BipartiteGraph, fid: int) -> Vertex:
    if fid < g.x_count:
        return (X_PART, fid)
    return (Y_PART, fid - g.x_count)


def flat_edges(g: BipartiteGraph) -> list[tuple[int, int]]:
    """Edges of g as flat-id pairs, in ``g.edges`` order."""
    return [(xi, g.x_count + yj) for xi, yj in g.edges]


def edge_ends(g: BipartiteGraph) -> tuple[np.ndarray, np.ndarray]:
    """X-index and Y-index arrays of g's edges, in ``g.edges`` order; empty
    for an edgeless graph, so they select nothing as a numpy index
    (``mat[()]`` would select everything)."""
    ends = np.fromiter(chain.from_iterable(g.edges), np.intp, 2 * g.m)
    return ends[0::2], ends[1::2]


def flat_adjacency(g: BipartiteGraph) -> list[list[int]]:
    """Adjacency lists over flat ids, neighbor lists sorted."""
    x = g.x_count
    return [[x + yj for yj in ys] for ys in g.adj_x] + [list(xs) for xs in g.adj_y]


def cross_edges(
    g: BipartiteGraph, a_side: Iterable[Vertex], b_side: Iterable[Vertex]
) -> int:
    """Exact count of edges between A (within X) and B (within Y)."""
    a_idx = {_vertex_index(g, v, X_PART) for v in a_side}
    b_idx = {_vertex_index(g, v, Y_PART) for v in b_side}
    return sum(1 for i in a_idx for j in g.adj_x[i] if j in b_idx)
