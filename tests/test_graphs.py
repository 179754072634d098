"""Graph values, validation, generators, and counting primitives."""

import logging
import re
import time

import numpy as np
import pytest

from biregular import (
    BipartiteGraph,
    complete_bipartite,
    cross_edges,
    even_cycle,
    heawood,
    mixing_check,
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
    TooLarge,
)
from biregular import graphs, prng
from biregular.audit import AuditConfig, default_config, generate_corpus
from biregular.graphs import (
    CELL_BOUND,
    PART_BOUND,
    check_profile,
    flat_adjacency,
    random_biregular_trials,
)
from biregular.prng import MASK64, derive_seed

from testutil import girth, random_biregular_scalar, record_calls, vertices


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


@pytest.mark.parametrize(
    "edges, vertex, expected, actual",
    [
        # Every X-vertex has degree 2; y1 is the first Y-vertex off b = 2.
        (((0, 0), (0, 1), (1, 0), (1, 2)), ("y", 1), 2, 1),
        # Both sides deviate: the X side is named first.
        (((0, 0), (0, 1), (0, 2), (1, 0)), ("x", 1), 3, 1),
    ],
)
def test_validate_names_first_deviation(edges, vertex, expected, actual):
    g = BipartiteGraph(2, 3, edges)
    for _ in range(2):
        with pytest.raises(NotBiregular) as info:
            validate_biregular(g)
        err = info.value
        assert (err.vertex, err.expected, err.actual) == (vertex, expected, actual)


def test_construction_rejects_bad_edges():
    with pytest.raises(IndexOutOfRange):
        BipartiteGraph(3, 3, ((5, 0),))
    with pytest.raises(IndexOutOfRange):
        BipartiteGraph(3, 3, ((0, -1),))
    with pytest.raises(DuplicateEdge):
        BipartiteGraph(3, 3, ((0, 0), (0, 0)))
    with pytest.raises(InvalidParam):
        BipartiteGraph(0, 3, ())


def test_bad_edge_errors_carry_input_position():
    # The first offending edge in input order, before sorting; the bbg
    # parser maps the position back to a line number.
    cases = [
        (((1, 1), (0, 2), (0, 5)), IndexOutOfRange, 2),
        (((2, 2), (0, 0), (2, 2)), DuplicateEdge, 2),
        (((1, 0), (0.5, 0)), IndexOutOfRange, 1),
        (((1, 0), (0,)), IndexOutOfRange, 1),
        (((0, 0, 0),), IndexOutOfRange, 0),
        (((1, 0), (2, 1), 2), IndexOutOfRange, 2),
    ]
    for edges, cls, position in cases:
        with pytest.raises(cls) as info:
            BipartiteGraph(3, 3, edges)
        assert info.value.position == position
    # An entry that is not a pair is refused, not cut to its first two
    # values or left to raise a bare IndexError.
    for edge in ((0,), (0, 0, 0), 2, None):
        message = f"edge {edge!r} is not an (x, y) pair"
        with pytest.raises(IndexOutOfRange, match=f"^{re.escape(message)}$"):
            BipartiteGraph(2, 2, (edge,))
    with pytest.raises(DuplicateEdge, match=r"^edge \(2, 2\) repeated$"):
        BipartiteGraph(3, 3, ((2, 2), (2, 2)))


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


def test_part_sizes_are_bounded():
    # A part above 2**20 vertices is refused by the graph and by the profile
    # check that the sampler and AuditConfig read, before any per-vertex
    # list or stub array is built; a profile at the bound passes.
    big = PART_BOUND + 1
    for x, y in ((big, 1), (1, big), (10**20, 1)):
        with pytest.raises(
            InvalidParam, match=f"part size {max(x, y)} is above the bound 1048576"
        ):
            BipartiteGraph(x, y, ())
    for profile in ((big, 1, 1, big), (1, 10**8, 10**8, 1)):
        with pytest.raises(InvalidParam, match="has a part size above the bound 1048576"):
            check_profile(profile)
    with pytest.raises(
        InvalidParam,
        match=re.escape("grid entry (x=1, y=100000000, a=100000000, b=1) has a part size"),
    ):
        AuditConfig(size_grid=((1, 10**8, 10**8, 1),))
    assert PART_BOUND == 2**20
    assert check_profile((PART_BOUND, 1, 1, PART_BOUND)) == (2**20, 1, 1, 2**20)


def test_complete_bipartite_is_bounded_before_building():
    # K(4097, 4096) would hold 16 781 312 edges, above 2**24: it is refused
    # before the first edge is built.
    assert CELL_BOUND == 2**24
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="4097 x 4096 = 16781312 cells is above"):
        complete_bipartite(4097, 4096)
    assert time.perf_counter() - start < 0.1
    assert complete_bipartite(4096, 1).m == 4096
    # 4096 x 4096 is at the bound, so passes.
    assert graphs.check_cells(4096, 4096, "a graph") is None


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
    # 256-attempt blocks, on a profile that rarely samples a simple graph
    # and on two whose trials mostly succeed within them: the one-seed
    # sampler and the batch of all seeds, whose trials leave it at
    # different blocks, both match the reference.
    mixed = 0
    for profile in ((10, 10, 5, 5), (8, 8, 4, 4), (6, 6, 3, 3)):
        seeds = [derive_seed(8, t) for t in range(5)]
        for retries in (1, 2, 15, 16, 17, 80, 81, 336, 337, 600):
            refs = [
                _sample(random_biregular_scalar, *profile, seed, max_retries=retries)
                for seed in seeds
            ]
            for seed, ref in zip(seeds, refs):
                got = _sample(random_biregular, *profile, seed, max_retries=retries)
                assert got == ref, (profile, seed, retries)
            batch = random_biregular_trials(*profile, seeds, retries)
            assert batch == [None if isinstance(r, str) else r for r in refs]
            mixed += None in batch and batch.count(None) < len(seeds)
    # Some budgets sample some seeds' graphs and skip others.
    assert mixed >= 3


def test_random_biregular_rejection_fallback(monkeypatch):
    # Lower the acceptance limit of bounded draws, for the batched sampler
    # and the scalar reference alike, so that one word in 2^s is rejected:
    # each rejected word cuts a block of draws, and the next block must
    # start one word later at the same bound, as below() redraws it. In a
    # batch, only the seeds whose blocks hold a rejected word are cut. At
    # s = 1 every block is cut, so a batch re-reads each seed alone, as the
    # one-seed sampler does; the batch is checked on the two cheap profiles.
    profiles = ((4, 4, 2, 2), (6, 4, 2, 3), (8, 8, 4, 4), (10, 10, 5, 5))
    for s, batched in ((8, profiles), (1, profiles[:2])):
        monkeypatch.setattr(
            prng, "accept_max", lambda bound, s=s: MASK64 - (MASK64 >> s)
        )
        for x, y, a, b in profiles:
            seeds = [derive_seed(13, s, t) for t in range(6)]
            refs = []
            for seed in seeds:
                args = (x, y, a, b, seed)
                got = _sample(random_biregular, *args, max_retries=200)
                refs.append(_sample(random_biregular_scalar, *args, max_retries=200))
                assert got == refs[-1], (s, args)
            if (x, y, a, b) in batched:
                batch = random_biregular_trials(x, y, a, b, seeds, 200)
                assert batch == [None if isinstance(r, str) else r for r in refs]


def _one_seed(x, y, a, b, seeds, max_retries=10000):
    """The one-seed sampler on each seed, None where it raises."""
    out = []
    for seed in seeds:
        try:
            out.append(random_biregular(x, y, a, b, seed, max_retries))
        except RetriesExhausted:
            out.append(None)
    return out


def test_random_biregular_trials_split_calls_at_1024_rows(monkeypatch):
    # 70 first blocks of 16 rows take two calls (64 trials, then 6); the
    # nine dense trials, all live through both 256-row blocks, go 4, 4 and
    # 1 to a call in each.
    calls = record_calls(monkeypatch, graphs, "shuffled_rows")
    sizes = {}
    for profile, trials, retries in (((4, 4, 2, 2), 70, 16), ((10, 10, 5, 5), 9, 600)):
        seeds = [derive_seed(43, t) for t in range(trials)]
        calls.clear()
        got = random_biregular_trials(*profile, seeds, retries)
        for (seeds_in_call, _, _, rows), _ in calls:
            assert len(seeds_in_call) * rows <= 1024
            sizes.setdefault((trials, rows), []).append(len(seeds_in_call))
        assert got == _one_seed(*profile, seeds, retries)
    assert sizes[70, 16] == [64, 6]
    assert sizes[9, 256] == [4, 4, 1, 4, 4, 1]


def test_generate_corpus_logs_skips_in_trial_order(caplog):
    # Each trial is a graph or a skip line, in trial order, as the one-seed
    # sampler decides it.
    cfg = AuditConfig(12, ((10, 10, 5, 5), (4, 4, 2, 2)), (2,), seed=7)
    want = []
    for ci, profile in enumerate(cfg.size_grid):
        seeds = [derive_seed(cfg.seed, ci, t) for t in range(cfg.trials)]
        for seed, g in zip(seeds, _one_seed(*profile, seeds)):
            want.append(("graph" if g else "skip", seed))
    got = []
    with caplog.at_level(logging.WARNING, logger="biregular.audit"):
        for _, seed, _, _ in generate_corpus(cfg):
            got += [("skip", int(r.args[-1])) for r in caplog.records]
            caplog.clear()
            got.append(("graph", seed))
        got += [("skip", int(r.args[-1])) for r in caplog.records]
    assert got == want
    assert 0 < [e for e, _ in got].count("skip") < 12


def test_random_biregular_rejects_nonpositive_retries():
    for retries in (0, -1):
        with pytest.raises(InvalidParam):
            random_biregular(4, 4, 2, 2, seed=1, max_retries=retries)
    # Non-integers are refused as InvalidParam, not a bare TypeError.
    with pytest.raises(InvalidParam, match="max_retries must be an integer"):
        random_biregular(4, 4, 2, 2, seed=1, max_retries=2.5)
    with pytest.raises(InvalidParam, match="seed must be an integer"):
        random_biregular(4, 4, 2, 2, 1.5)


def test_degree_sums_over_seeded_corpus():
    for ci, (x, y, a, b) in enumerate(
        [(4, 4, 2, 2), (6, 4, 2, 3), (8, 6, 3, 4), (10, 8, 4, 5)]
    ):
        for t in range(3):
            g = random_biregular(x, y, a, b, derive_seed(31337, ci, t))
            assert g.m == a * x == b * y
            assert sum(len(v) for v in g.adj_x) == g.m
            assert sum(len(v) for v in g.adj_y) == g.m


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


def test_cross_edges_non_integer_index():
    # A vertex index is read with operator.index, as edge endpoints are:
    # numpy integers pass, a float or a string is refused up front.
    g = complete_bipartite(2, 2)
    assert cross_edges(g, [("x", np.int64(1))], [("y", np.uint8(0))]) == 1
    for bad in (("x", 1.0), ("x", "1")):
        with pytest.raises(IndexOutOfRange, match="non-integer index"):
            cross_edges(g, [bad], [("y", 0)])
        with pytest.raises(IndexOutOfRange, match="non-integer index"):
            mixing_check(g, [bad], [("y", 0)])
    with pytest.raises(IndexOutOfRange, match="non-integer index"):
        cross_edges(g, [("x", 0)], [("y", 1.0)])


@pytest.mark.parametrize("check", [cross_edges, mixing_check])
@pytest.mark.parametrize(
    "a_side, b_side, error, message",
    [
        ([("z", 0)], [("y", 0)], InvalidParam, "unknown part tag 'z'"),
        ([("x", 0)], [("z", 0)], InvalidParam, "unknown part tag 'z'"),
        ([("x", 9)], [("y", 0)], IndexOutOfRange, "x index 9 outside [0, 3)"),
        ([("x", 0)], [("y", -1)], IndexOutOfRange, "y index -1 outside [0, 3)"),
        (
            [("x", 1.5)], [("y", 0)], IndexOutOfRange,
            "vertex ('x', 1.5) has a non-integer index",
        ),
        ([("y", 0)], [("y", 1)], PartMismatch, "('y', 0) is not an X-vertex"),
        ([("x", 0)], [("x", 1)], PartMismatch, "('x', 1) is not a Y-vertex"),
        # The tag, the integer and the range are checked before the part.
        ([("y", 9)], [("y", 0)], IndexOutOfRange, "y index 9 outside [0, 3)"),
        (
            [("x", 0)], [("x", 1.5)], IndexOutOfRange,
            "vertex ('x', 1.5) has a non-integer index",
        ),
        # A vertex that is not a pair is refused before its tag is read.
        (
            [("x",)], [("y", 0)], InvalidParam,
            "vertex ('x',) is not a (part, index) pair",
        ),
        (
            [("x", 0, 1)], [("y", 0)], InvalidParam,
            "vertex ('x', 0, 1) is not a (part, index) pair",
        ),
        ([("x", 0)], [5], InvalidParam, "vertex 5 is not a (part, index) pair"),
        ([None], [("y", 0)], InvalidParam, "vertex None is not a (part, index) pair"),
    ],
)
def test_vertex_faults_name_the_first_rule_broken(
    check, a_side, b_side, error, message
):
    with pytest.raises(InvalidParam) as info:
        check(complete_bipartite(3, 3), a_side, b_side)
    assert type(info.value) is error
    assert str(info.value) == message


def test_components_and_flat_round_trip():
    # two disjoint 4-cycles
    g = BipartiteGraph(
        4, 4,
        ((0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)),
    )
    assert vertices(g) == [("x", i) for i in range(4)] + [("y", j) for j in range(4)]
    adj = flat_adjacency(g)
    assert [len(v) for v in adj] == [2] * 8
