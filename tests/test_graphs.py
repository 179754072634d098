"""Graph values, validation, generators, and counting primitives."""

import numpy as np
import pytest

from biregular import (
    BipartiteGraph,
    complete_bipartite,
    connected_components,
    cross_edges,
    cut_size,
    even_cycle,
    heawood,
    is_connected,
    random_biregular,
    validate_biregular,
)
from biregular.errors import (
    DegreeEquationViolated,
    DuplicateEdge,
    EmptyGraph,
    IndexOutOfRange,
    InvalidParam,
    NotBiregular,
    PartMismatch,
    RetriesExhausted,
)
from biregular import graphs, prng
from biregular.audit import default_config
from biregular.graphs import flat_adjacency, flat_vertex
from biregular.prng import MASK64, SplitMix64, derive_seed

from testutil import girth, random_biregular_scalar


def test_validate_complete_bipartite_2_3():
    g = complete_bipartite(2, 3)
    profile = validate_biregular(g)
    assert (profile.a, profile.b) == (3, 2)
    assert profile.a * g.x_count == profile.b * g.y_count


def test_validate_six_cycle():
    g = even_cycle(6)
    assert g.m == 6
    profile = validate_biregular(g)
    assert (profile.a, profile.b) == (2, 2)
    assert girth(g) == 6


def test_validate_rejects_missing_edge():
    g = complete_bipartite(2, 3)
    broken = BipartiteGraph(2, 3, g.edges[:-1])
    with pytest.raises(NotBiregular):
        validate_biregular(broken)


def test_validate_rejects_empty():
    with pytest.raises(EmptyGraph):
        validate_biregular(BipartiteGraph(2, 2, ()))


def test_construction_rejects_bad_edges():
    with pytest.raises(IndexOutOfRange):
        BipartiteGraph(3, 3, ((5, 0),))
    with pytest.raises(IndexOutOfRange):
        BipartiteGraph(3, 3, ((0, -1),))
    with pytest.raises(DuplicateEdge):
        BipartiteGraph(3, 3, ((0, 0), (0, 0)))
    with pytest.raises(InvalidParam):
        BipartiteGraph(0, 3, ())


def test_construction_rejects_non_integers():
    # Floats and strings are neither truncated nor parsed; numpy integers
    # are read as the ints they hold.
    for edges in (((0.7, 1.9),), (("1", 0),), ((0, 1.0),)):
        with pytest.raises(IndexOutOfRange):
            BipartiteGraph(2, 2, edges)
    for x, y in ((2.0, 2), (2, "2")):
        with pytest.raises(InvalidParam):
            BipartiteGraph(x, y, ())
    g = BipartiteGraph(np.int64(2), np.uint8(2), ((np.int64(1), np.int32(0)),))
    assert g == BipartiteGraph(2, 2, ((1, 0),))
    assert type(g.x_count) is int and type(g.edges[0][0]) is int


def test_edges_are_normalized_sorted():
    g = BipartiteGraph(2, 2, ((1, 1), (0, 0), (1, 0)))
    assert g.edges == ((0, 0), (1, 0), (1, 1))
    assert g.adj_x == ((0,), (0, 1))
    assert g.adj_y == ((0, 1), (1,))


def test_builtin_complete_3_3():
    g = complete_bipartite(3, 3)
    assert g.m == 9
    profile = validate_biregular(g)
    assert (profile.a, profile.b) == (3, 3)


def test_builtin_rejects_bad_params():
    with pytest.raises(InvalidParam):
        even_cycle(5)
    with pytest.raises(InvalidParam):
        even_cycle(2)
    with pytest.raises(InvalidParam):
        complete_bipartite(0, 3)
    # Sizes are read with operator.index, as BipartiteGraph reads them.
    with pytest.raises(InvalidParam, match="part size must be an integer"):
        complete_bipartite(2.0, 3)
    with pytest.raises(InvalidParam, match="cycle length must be an integer"):
        even_cycle(6.0)
    assert complete_bipartite(np.int64(2), 3) == complete_bipartite(2, 3)


def test_heawood_shape():
    g = heawood()
    assert (g.x_count, g.y_count, g.m) == (7, 7, 21)
    profile = validate_biregular(g)
    assert (profile.a, profile.b) == (3, 3)
    assert girth(g) == 6


def test_random_biregular_validates():
    g = random_biregular(4, 4, 2, 2, seed=1)
    profile = validate_biregular(g)
    assert (profile.a, profile.b) == (2, 2)

    g = random_biregular(3, 2, 2, 3, seed=7)
    assert g.m == 6
    profile = validate_biregular(g)
    assert (profile.a, profile.b) == (2, 3)


def test_random_biregular_degree_equation():
    with pytest.raises(DegreeEquationViolated):
        random_biregular(2, 3, 2, 1, seed=0)


def test_random_biregular_impossible_degrees():
    with pytest.raises(InvalidParam):
        random_biregular(2, 2, 3, 3, seed=0)


def test_random_biregular_deterministic():
    a = random_biregular(6, 4, 2, 3, seed=99)
    b = random_biregular(6, 4, 2, 3, seed=99)
    assert a == b
    c = random_biregular(6, 4, 2, 3, seed=100)
    # A different seed is overwhelmingly likely to give a different matching.
    assert a != c


def test_random_biregular_retries_exhausted():
    with pytest.raises(RetriesExhausted):
        random_biregular(3, 3, 3, 3, seed=0, max_retries=1)


def _sample(sampler, *args, **kwargs):
    """The sampled graph, or the RetriesExhausted message."""
    try:
        return sampler(*args, **kwargs)
    except RetriesExhausted as exc:
        return str(exc)


# The default audit's seed and the acceptance corpus seed.
@pytest.mark.parametrize("seed", [0x5EED_B1A5, 20240808])
def test_random_biregular_matches_scalar_reference(seed):
    cfg = default_config(seed=seed)
    exhausted = 0
    for ci, (x, y, a, b) in enumerate(cfg.size_grid):
        for t in range(cfg.trials):
            args = (x, y, a, b, derive_seed(seed, ci, t))
            got = _sample(random_biregular, *args)
            assert got == _sample(random_biregular_scalar, *args), args
            exhausted += isinstance(got, str)
    # Trials that use up all 10000 attempts, all but one at (10, 10, 5, 5).
    assert exhausted == {0x5EED_B1A5: 7, 20240808: 6}[seed]


def test_random_biregular_block_boundaries():
    # Attempt budgets that end inside, at and just past the 16-, 64- and
    # 256-attempt blocks, on a profile that rarely samples a simple graph.
    for t in range(3):
        seed = derive_seed(8, t)
        for retries in (1, 2, 15, 16, 17, 80, 81, 336, 337, 600):
            args = (10, 10, 5, 5, seed)
            got = _sample(random_biregular, *args, max_retries=retries)
            ref = _sample(random_biregular_scalar, *args, max_retries=retries)
            assert got == ref, (t, retries)


def test_random_biregular_rejection_fallback(monkeypatch):
    # Lower the acceptance limit of bounded draws, for the batched sampler
    # and the scalar reference alike, so that one word in 2^s is rejected:
    # the sampler must stop its block at the first attempt that rejects a
    # word and go on one attempt at a time from the same stream position.
    # Only that path builds a SplitMix64 in graphs, so count them: at one
    # word in 256 some samples end inside a block and some fall back, at
    # one in 2 every sample falls back from its first attempt.
    fallbacks = []

    class Counting(SplitMix64):
        def __init__(self, seed):
            fallbacks.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(graphs, "SplitMix64", Counting)
    profiles = ((4, 4, 2, 2), (6, 4, 2, 3), (8, 8, 4, 4), (10, 10, 5, 5))
    counts = []
    for s in (8, 1):
        monkeypatch.setattr(
            prng, "accept_max", lambda bound, s=s: MASK64 - (MASK64 >> s)
        )
        before = len(fallbacks)
        for x, y, a, b in profiles:
            for t in range(6):
                args = (x, y, a, b, derive_seed(13, s, t))
                got = _sample(random_biregular, *args, max_retries=200)
                ref = _sample(random_biregular_scalar, *args, max_retries=200)
                assert got == ref, (s, args)
        counts.append(len(fallbacks) - before)
    assert 0 < counts[0] < 24 and counts[1] == 24


def test_random_biregular_rejects_nonpositive_retries():
    for retries in (0, -1):
        with pytest.raises(InvalidParam):
            random_biregular(4, 4, 2, 2, seed=1, max_retries=retries)


def test_degree_sums_over_seeded_corpus():
    for ci, (x, y, a, b) in enumerate(
        [(4, 4, 2, 2), (6, 4, 2, 3), (8, 6, 3, 4), (10, 8, 4, 5)]
    ):
        for t in range(3):
            g = random_biregular(x, y, a, b, derive_seed(31337, ci, t))
            assert g.m == a * x == b * y
            assert sum(len(v) for v in g.adj_x) == g.m
            assert sum(len(v) for v in g.adj_y) == g.m


def test_cut_size_examples():
    c6 = even_cycle(6)
    assert cut_size(c6, [("x", 0)]) == 2
    k33 = complete_bipartite(3, 3)
    assert cut_size(k33, [("x", i) for i in range(3)]) == 9
    # deg(x0) + deg(y0) - 2 because x0 ~ y0
    assert cut_size(k33, [("x", 0), ("y", 0)]) == 4


def test_cut_size_complement_symmetry():
    g = random_biregular(6, 4, 2, 3, seed=5)
    verts = g.vertices()
    for mask in range(0, 2 ** len(verts), 37):
        side = [v for i, v in enumerate(verts) if (mask >> i) & 1]
        rest = [v for i, v in enumerate(verts) if not (mask >> i) & 1]
        assert cut_size(g, side) == cut_size(g, rest)


def test_cross_edges_examples():
    k33 = complete_bipartite(3, 3)
    assert cross_edges(k33, [("x", 0)], [("y", 0)]) == 1
    c6 = even_cycle(6)
    assert cross_edges(c6, [("x", 0)], [("y", j) for j in range(3)]) == 2
    assert cross_edges(c6, [], [("y", 0)]) == 0


def test_cross_edges_degree_identities():
    g = random_biregular(8, 6, 3, 4, seed=11)
    ys = [("y", j) for j in range(6)]
    xs = [("x", i) for i in range(8)]
    assert cross_edges(g, [("x", 0), ("x", 3)], ys) == 2 * 3
    assert cross_edges(g, xs, [("y", 1)]) == 4


def test_cross_edges_part_mismatch():
    g = complete_bipartite(2, 2)
    with pytest.raises(PartMismatch):
        cross_edges(g, [("y", 0)], [("y", 1)])
    with pytest.raises(PartMismatch):
        cross_edges(g, [("x", 0)], [("x", 1)])


def test_components_and_flat_round_trip():
    c6 = even_cycle(6)
    assert is_connected(c6)
    # two disjoint 4-cycles
    g = BipartiteGraph(
        4, 4,
        ((0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)),
    )
    comps = connected_components(g)
    assert len(comps) == 2
    assert not is_connected(g)
    assert [flat_vertex(g, fid) for fid in range(g.n)] == list(g.vertices())
    adj = flat_adjacency(g)
    assert [len(v) for v in adj] == [2] * 8


def test_without_edge():
    k33 = complete_bipartite(3, 3)
    g = k33.without_edge((0, 0))
    assert g.m == 8 and not g.has_edge(0, 0)
    with pytest.raises(InvalidParam):
        g.without_edge((0, 0))
    # Endpoints are read as the constructor reads them: numpy integers
    # pass, and a float is refused rather than truncated to another edge.
    assert k33.without_edge((np.int64(0), np.uint8(0))) == g
    for edge in ((0.7, 1.9), (0, 1.0), ("0", 1)):
        with pytest.raises(IndexOutOfRange, match="non-integer endpoint"):
            k33.without_edge(edge)
