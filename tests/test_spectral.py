"""Spectra against a dense full-adjacency eigensolver, plus mixing checks."""

import math

import numpy as np
import pytest

from biregular import (
    BipartiteGraph,
    biadjacency,
    complete_bipartite,
    even_cycle,
    heawood,
    mixing_check,
    random_biregular,
    singular_values,
    validate_biregular,
)
from biregular.errors import ConvergenceFailure, InvalidParam, NotBiregular
from biregular.graphs import flat_adjacency
from biregular.prng import derive_seed

from testutil import (
    _components_after_vertex_removal,
    dense_sigma,
    medium_corpus,
    small_corpus,
)

DENSE_MATCH_TOL = 1e-12


def test_biadjacency_matches_edge_loop():
    # Any edge set has a biadjacency matrix, biregular or not.
    lopsided = BipartiteGraph(3, 2, ((0, 0), (0, 1), (2, 1)))
    for g in small_corpus() + medium_corpus() + [heawood(), lopsided]:
        want = np.zeros((g.x_count, g.y_count))
        for xi, yj in g.edges:
            want[xi, yj] = 1.0
        got = biadjacency(g)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_biadjacency_of_edgeless_graph_is_zero():
    # An empty index tuple would select, and fill, every entry.
    got = biadjacency(BipartiteGraph(2, 3, ()))
    assert got.shape == (2, 3) and not got.any()


def test_k33_spectrum():
    s = singular_values(complete_bipartite(3, 3))
    assert s.sigma == pytest.approx((3.0, 0.0, 0.0), abs=1e-9)
    assert s.lambda2 == pytest.approx(0.0, abs=1e-9)
    assert s.gap == pytest.approx(3.0, abs=1e-9)


def test_c6_spectrum():
    s = singular_values(even_cycle(6))
    assert s.sigma == pytest.approx((2.0, 1.0, 1.0), abs=1e-9)
    assert s.lambda2 == pytest.approx(1.0, abs=1e-9)
    assert s.gap == pytest.approx(1.0, abs=1e-9)


def test_heawood_spectrum():
    s = singular_values(heawood())
    root2 = math.sqrt(2.0)
    assert s.sigma[0] == pytest.approx(3.0, abs=1e-9)
    for v in s.sigma[1:]:
        assert v == pytest.approx(root2, abs=1e-9)
    assert s.lambda2 == pytest.approx(root2, abs=1e-9)
    assert s.gap == pytest.approx(3.0 - root2, abs=1e-9)


def test_desk_spectra_match_dense_oracle():
    desk = (
        complete_bipartite(3, 3),
        complete_bipartite(12, 18),
        even_cycle(6),
        heawood(),
    )
    for g in desk:
        want = dense_sigma(g)
        got = singular_values(g).sigma
        assert max(abs(w - v) for w, v in zip(want, got)) < DENSE_MATCH_TOL


def test_random_corpus_against_dense_oracle():
    for g in small_corpus() + medium_corpus():
        want = dense_sigma(g)
        got = singular_values(g).sigma
        assert max(abs(w - v) for w, v in zip(want, got)) < DENSE_MATCH_TOL


def test_sigma1_and_trace_invariants():
    for g in small_corpus() + medium_corpus():
        profile = validate_biregular(g)
        s = singular_values(g)
        assert abs(s.sigma[0] - math.sqrt(profile.a * profile.b)) < 1e-9
        assert abs(sum(v * v for v in s.sigma) - g.m) < 1e-9 * g.m


def test_single_column_graph_lambda2_zero():
    g = complete_bipartite(1, 3)  # sigma has a single entry
    s = singular_values(g)
    assert len(s.sigma) == 1
    assert s.lambda2 == 0.0


def test_disconnected_multiplicity_counts_components():
    # disjoint unions of even cycles: multiplicity of sqrt(ab) = #components
    g = BipartiteGraph(
        4, 4,
        ((0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)),
    )
    s = singular_values(g)
    mult = sum(1 for v in s.sigma if abs(v - 2.0) < 1e-6)
    assert mult == _components_after_vertex_removal(flat_adjacency(g), set()) == 2

    g2 = random_biregular(8, 8, 2, 2, seed=derive_seed(5, 0))
    mult2 = sum(1 for v in singular_values(g2).sigma if abs(v - 2.0) < 1e-6)
    assert mult2 == _components_after_vertex_removal(flat_adjacency(g2), set())


def test_svd_failure_raises_convergence_failure(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(ConvergenceFailure):
        singular_values(heawood())


def test_spectrum_requires_biregular():
    with pytest.raises(NotBiregular):
        singular_values(BipartiteGraph(2, 2, ((0, 0), (0, 1), (1, 0))))


def test_mixing_k33_full_b_side():
    g = complete_bipartite(3, 3)
    rep = mixing_check(g, [("x", 0)], [("y", j) for j in range(3)])
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)
    assert rep.holds


def test_mixing_c6_single_pair():
    g = even_cycle(6)
    rep = mixing_check(g, [("x", 0)], [("y", 0)])
    expected_lhs = 1.0 / 3.0 if (0, 0) in g.edges else 2.0 / 3.0
    assert rep.lhs == pytest.approx(expected_lhs, abs=1e-9)
    assert rep.rhs == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert rep.holds
    # the non-adjacent case, via a y-vertex x0 does not touch
    missing = next(j for j in range(3) if (0, j) not in g.edges)
    rep2 = mixing_check(g, [("x", 0)], [("y", missing)])
    assert rep2.lhs == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert rep2.holds


def test_mixing_empty_side():
    g = heawood()
    rep = mixing_check(g, [], [("y", 0)])
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.holds


def test_mixing_needs_three_vertices():
    with pytest.raises(InvalidParam):
        mixing_check(complete_bipartite(1, 1), [], [])


def test_mixing_holds_on_random_pairs():
    from biregular.prng import SplitMix64

    for g in small_corpus(per_combo=2) + medium_corpus(per_combo=1):
        s = singular_values(g)
        rng = SplitMix64(2024)
        for _ in range(100):
            a_side = [
                ("x", i) for i in range(g.x_count) if rng.next_u64() & 1
            ]
            b_side = [
                ("y", j) for j in range(g.y_count) if rng.next_u64() & 1
            ]
            assert mixing_check(g, a_side, b_side, s).holds
