"""Audit harness: determinism, soundness wiring, report formats."""

import sys
from dataclasses import replace

import pytest

from biregular import (
    AuditConfig,
    BipartiteGraph,
    GraphProperty,
    audit_random,
    complete_bipartite,
    heawood,
    mixing_audit,
    parse_report_json,
    random_biregular,
    report_emit,
    singular_values,
)
from biregular.audit import PROPERTIES, AuditRecord, CSV_HEADER
from biregular.errors import (
    AuditUnsound,
    InvalidParam,
    MixingViolation,
    NotBiregular,
)
from biregular.prng import derive_seed
from biregular.spectral import Spectrum

from testutil import (
    medium_corpus,
    mixing_audit_scalar,
    record_calls,
    small_corpus,
)

SMALL_CFG = AuditConfig(
    trials=3,
    size_grid=((6, 4, 2, 3), (8, 8, 4, 4)),
    k_grid=(2, 3),
    properties=(
        GraphProperty.EDGE_CONNECTIVITY,
        GraphProperty.TREE_PACKING,
        GraphProperty.VERTEX_CONNECTIVITY,
    ),
    seed=99,
)


def test_audit_is_deterministic():
    rec1 = audit_random(SMALL_CFG)
    rec2 = audit_random(SMALL_CFG)
    assert rec1 == rec2
    assert report_emit(rec1, "csv") == report_emit(rec2, "csv")


def test_audit_records_shape():
    records = audit_random(SMALL_CFG)
    # 6 graphs x 3 properties x 2 k values
    assert len(records) == 6 * 3 * 2
    assert all(r.sound for r in records)
    keys = [(r.graph_id, r.property, r.k) for r in records]
    assert keys == sorted(keys)


def test_config_validation():
    with pytest.raises(InvalidParam):
        AuditConfig(0, ((4, 4, 2, 2),), (2,), (GraphProperty.EDGE_CONNECTIVITY,), 1)
    with pytest.raises(InvalidParam):
        AuditConfig(1, ((4, 5, 2, 2),), (2,), (GraphProperty.EDGE_CONNECTIVITY,), 1)
    with pytest.raises(InvalidParam):
        AuditConfig(1, ((4, 4, 2, 2),), (0,), (GraphProperty.EDGE_CONNECTIVITY,), 1)
    with pytest.raises(InvalidParam):
        AuditConfig(1, ((4, 4, 2, 2),), (2,), (GraphProperty.RAMANUJAN,), 1)
    with pytest.raises(InvalidParam):
        AuditConfig(1, ((4, 4, 2, 2),), (2,), (), 1)
    # A repeated k or property would emit the same record more than once.
    edge = GraphProperty.EDGE_CONNECTIVITY
    with pytest.raises(InvalidParam, match="k grid repeats a value"):
        AuditConfig(1, ((6, 6, 3, 3),), (2, 3, 2), (edge,), 5)
    with pytest.raises(InvalidParam, match="property set repeats a property"):
        AuditConfig(1, ((6, 6, 3, 3),), (2,), (edge, edge), 5)
    # Non-integers are refused at construction, not mid-run by a TypeError.
    with pytest.raises(InvalidParam, match="trials must be an integer"):
        AuditConfig(1.5, ((4, 4, 2, 2),), (2,), (edge,), 1)
    with pytest.raises(InvalidParam, match="seed must be an integer"):
        AuditConfig(1, ((4, 4, 2, 2),), (2,), (edge,), 1.5)
    with pytest.raises(
        InvalidParam,
        match=r"^grid entry \(x=4\.0, y=4, a=2, b=2\) holds a non-integer$",
    ):
        AuditConfig(1, ((4.0, 4, 2, 2),), (2,), (edge,), 1)


def test_config_rejects_k_grid_entries_up_front():
    # Each entry goes through check_k at construction, so a fractional k
    # cannot reach the certifiers mid-run.
    props = (GraphProperty.EDGE_CONNECTIVITY,)
    for grid in ((1.5,), (0,), (2, 1.5), (2, -1)):
        with pytest.raises(InvalidParam, match="k must be a positive integer"):
            AuditConfig(1, ((4, 4, 2, 2),), grid, props, 1)
    with pytest.raises(InvalidParam, match="k grid must be nonempty"):
        AuditConfig(1, ((4, 4, 2, 2),), (), props, 1)


def test_config_rejects_impossible_profiles_before_sampling(monkeypatch):
    # A size or degree below 1, or a degree above the opposite part's size
    # (a > y, and so b > x), has no simple graph: the config refuses it
    # before any profile is sampled.
    import biregular.audit as audit_mod

    calls = record_calls(monkeypatch, audit_mod, "random_biregular")
    props = (GraphProperty.EDGE_CONNECTIVITY,)
    for bad in ((0, 0, 1, 1), (-2, -2, 1, 1), (4, 4, 0, 0), (4, 2, 3, 6)):
        with pytest.raises(InvalidParam, match="grid entry"):
            audit_random(AuditConfig(2, ((4, 4, 2, 2), bad), (2,), props, 1))
    assert calls == []


def test_unsound_oracle_aborts(monkeypatch):
    import biregular.audit as audit_mod

    # a lying oracle: smaller than any certified k can be
    monkeypatch.setattr(
        audit_mod, "edge_connectivity", lambda g: type(
            "R", (), {"value": 0}
        )()
    )
    cfg = AuditConfig(
        trials=2,
        size_grid=((6, 6, 3, 3),),
        k_grid=(2,),
        properties=(GraphProperty.EDGE_CONNECTIVITY,),
        seed=5,
    )
    with pytest.raises(AuditUnsound) as err:
        audit_random(cfg)
    assert err.value.seed is not None
    assert err.value.record.verdict == "certified"


def test_property_table_covers_every_property():
    assert set(PROPERTIES) == set(GraphProperty)


def test_rigidity_oracles_run_only_behind_fired_certificates(monkeypatch):
    import biregular.audit as audit_mod

    monkeypatch.setattr(
        audit_mod, "random_biregular", lambda *args: complete_bipartite(6, 6)
    )
    cfg = AuditConfig(
        trials=1,
        size_grid=((6, 6, 6, 6),),
        k_grid=(1, 2),
        properties=(GraphProperty.RIGID_PACKING, GraphProperty.GLOBAL_RIGIDITY),
        seed=1,
    )
    got = {
        (r.property, r.k): (r.verdict, r.oracle) for r in audit_random(cfg)
    }
    assert got == {
        ("rigid-packing", 1): ("certified", 1),
        # the k = 2 hypothesis needs a, b >= 12
        ("rigid-packing", 2): ("not-fired", None),
        ("global-rigidity", 1): ("certified", 1),
    }


def test_report_emit_empty_and_single():
    assert report_emit([], "csv") == CSV_HEADER + "\n"
    rec = AuditRecord(
        graph_id="g", a=2, b=2, x=3, y=3, lambda2=1.0, property="edge-conn",
        k=2, threshold=1.5, verdict="certified", oracle=2, sound=True,
    )
    lines = report_emit([rec], "csv").splitlines()
    assert len(lines) == 2
    assert lines[1] == "g,2,2,3,3,1,edge-conn,2,1.5,certified,2,true"


def test_report_none_fields():
    rec = AuditRecord(
        graph_id="g", a=2, b=2, x=3, y=3, lambda2=1.0, property="stp",
        k=9, threshold=None, verdict="not-fired", oracle=None, sound=True,
    )
    line = report_emit([rec], "csv").splitlines()[1]
    assert line == "g,2,2,3,3,1,stp,9,,not-fired,,true"
    assert parse_report_json(report_emit([rec], "json")) == [rec]


def test_json_round_trip():
    records = audit_random(SMALL_CFG)
    assert parse_report_json(report_emit(records, "json")) == records


def test_report_rejects_unknown_format():
    with pytest.raises(InvalidParam):
        report_emit([], "xml")


def test_audit_200_record_campaign():
    cfg = AuditConfig(
        trials=100,
        size_grid=((6, 6, 3, 3),),
        k_grid=(2, 3),
        properties=(GraphProperty.EDGE_CONNECTIVITY,),
        seed=42,
    )
    records = audit_random(cfg)
    assert len(records) == 200
    assert all(r.sound for r in records)


def test_audit_forced_six_cycle_grid():
    # the only simple (2,2)-biregular graph on 3+3 is the 6-cycle
    cfg = AuditConfig(
        trials=5,
        size_grid=((3, 3, 2, 2),),
        k_grid=(2,),
        properties=(GraphProperty.EDGE_CONNECTIVITY,),
        seed=11,
    )
    for r in audit_random(cfg):
        assert r.lambda2 == pytest.approx(1.0, abs=1e-9)
        assert r.oracle == 2
        assert r.verdict == "certified"


def test_mixing_audit_clean_runs():
    rep = mixing_audit(complete_bipartite(3, 3), 1000, seed=1)
    assert rep.violations == 0
    assert rep.min_slack >= -1e-9
    rep = mixing_audit(heawood(), 1000, seed=2)
    assert rep.violations == 0


def test_mixing_audit_deterministic():
    a = mixing_audit(heawood(), 200, seed=42)
    b = mixing_audit(heawood(), 200, seed=42)
    assert a == b


def test_mixing_audit_flags_bad_lambda2(monkeypatch):
    # Corrupt the spectrum: a too-small lambda2 must trip the check.
    from biregular import singular_values
    from dataclasses import replace

    g = heawood()
    bad = replace(singular_values(g), lambda2=0.01)
    with pytest.raises(MixingViolation):
        mixing_audit(g, 500, seed=3, spectrum=bad)


def test_mixing_audit_validates_pairs(monkeypatch):
    # Every refusal comes before the spectrum: no SVD runs, in whichever
    # module mixing_audit looks singular_values up.
    owner = sys.modules[mixing_audit.__module__]
    calls = record_calls(monkeypatch, owner, "singular_values")
    with pytest.raises(InvalidParam):
        mixing_audit(heawood(), 0, seed=1)
    with pytest.raises(InvalidParam, match="at least 3 vertices"):
        mixing_audit(complete_bipartite(1, 1), 10, seed=1)
    lopsided = BipartiteGraph(2, 2, ((0, 0), (0, 1), (1, 0)))
    with pytest.raises(NotBiregular):
        mixing_audit(lopsided, 10, seed=1)
    assert calls == []
    with pytest.raises(NotBiregular):
        mixing_audit(lopsided, 10, seed=1, spectrum=singular_values(heawood()))


def _sparse_graphs():
    # n = 100..240, as in the benchmark's sparse certification inputs.
    profiles = (
        (60, 40, 2, 3), (160, 80, 2, 4), (84, 84, 3, 3), (56, 42, 3, 4)
    )
    return [
        random_biregular(*p, derive_seed(5, i)) for i, p in enumerate(profiles)
    ]


def _audit_outcome(g, pairs, seed, spectrum):
    """mixing_audit in the shape mixing_audit_scalar reports."""
    try:
        rep = mixing_audit(g, pairs, seed, spectrum)
    except MixingViolation as exc:
        return ("violation", exc.a_side, exc.b_side, exc.lhs, exc.rhs)
    assert rep.violations == 0
    return (rep.pairs, rep.min_slack, rep.max_slack)


def test_mixing_audit_matches_scalar_reference():
    # Pair counts below, at and across the chunk size; every float equal.
    graphs = small_corpus() + medium_corpus() + _sparse_graphs()
    for i, g in enumerate(graphs):
        spectrum = singular_values(g)
        for pairs in (1, 64, 65, 150) if g.n < 100 else (300,):
            seed = derive_seed(21, i, pairs)
            got = _audit_outcome(g, pairs, seed, spectrum)
            assert got == mixing_audit_scalar(g, pairs, seed, spectrum)
            assert all(type(v) is float for v in got[1:])


def test_mixing_audit_reports_first_violation():
    # lambda2 = 0 breaks the bound on almost every pair; 0.7 * lambda2 on
    # a few pairs deep into the sample, past the first chunk.
    late = 0
    for i, g in enumerate(medium_corpus() + _sparse_graphs()[:1]):
        true = singular_values(g)
        zero = Spectrum(true.sigma, true.lambda1, 0.0, gap=true.lambda1)
        for spectrum in (zero, replace(true, lambda2=0.7 * true.lambda2)):
            ref = mixing_audit_scalar(g, 400, 11, spectrum)
            if ref[0] != "violation":
                assert spectrum is not zero
                continue
            late += ref[1] >= 64
            got = _audit_outcome(g, 400, 11, spectrum)
            assert got == ref[:1] + ref[2:], i
    assert late >= 5
