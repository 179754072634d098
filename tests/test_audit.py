"""Audit harness: determinism, soundness wiring, report formats."""

import hashlib
import json
import re
import sys
from dataclasses import replace

import numpy as np
import pytest

from biregular import (
    AuditConfig,
    BipartiteGraph,
    GraphProperty,
    audit_random,
    complete_bipartite,
    heawood,
    mixing_audit,
    random_biregular,
    report_emit,
    singular_values,
    spectral,
)
from biregular.audit import PROPERTIES, AuditRecord, CSV_HEADER, default_config
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
    with pytest.raises(InvalidParam, match="^size grid must be nonempty$"):
        AuditConfig(size_grid=())
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
    for entry in ((4, 4, 2), (4, 4, 2, 2, 1), 4):
        with pytest.raises(
            InvalidParam,
            match=rf"^grid entry {re.escape(repr(entry))} does not hold four",
        ):
            AuditConfig(1, (entry,), (2,), (edge,), 1)
    # A sequence field given as one value, a string included, is refused
    # by name rather than read entry by entry or letter by letter.
    for field, value, name in (
        ("k_grid", 2, "k grid"),
        ("size_grid", 5, "size grid"),
        ("properties", 7, "property set"),
        ("properties", "edge-conn", "property set"),
    ):
        message = f"{name} must be a sequence, got {value!r}"
        with pytest.raises(InvalidParam, match=f"^{re.escape(message)}$"):
            AuditConfig(**{field: value})


def test_config_defaults_are_the_default_audit():
    assert AuditConfig() == default_config()
    assert AuditConfig(trials=2, seed=5) == default_config(2, 5)


def test_default_audit_report_bytes():
    # The default audit's CSV and JSON reports, held byte for byte across
    # changes. One lambda2 sits about 25 ulps from a 12-digit rounding
    # boundary (ROADMAP item 15), so a mismatch on another BLAS is that
    # bug, not a reason to re-pin.
    records = audit_random(default_config())
    digests = {
        fmt: hashlib.sha256(report_emit(records, fmt).encode()).hexdigest()
        for fmt in ("csv", "json")
    }
    assert digests == {
        "csv": "265ad455a1631f4a6645ed77c087ab8ba228881158fdb52486a5c8b7597b9ad4",
        "json": "9f14137f4083d807c1e5f2b7611d2eace5607ab2e07b56208a0d5af7a257bf7a",
    }


def test_config_reads_property_names_as_members():
    # A value string is read as its member, so names audit exactly as
    # members do; a name and its member together are a repeat.
    named = replace(SMALL_CFG, properties=[p.value for p in SMALL_CFG.properties])
    assert all(type(p) is GraphProperty for p in named.properties)
    assert named.properties == SMALL_CFG.properties
    assert report_emit(audit_random(named)) == report_emit(audit_random(SMALL_CFG))
    edge = GraphProperty.EDGE_CONNECTIVITY
    for props, message in (
        (("bogus",), "unknown property 'bogus'"),
        ((edge, "EDGE_CONNECTIVITY"), "unknown property 'EDGE_CONNECTIVITY'"),
        ((edge, None), "unknown property None"),
        (("ramanujan",), "no exact oracle to audit 'ramanujan'"),
        (("stp", "edge-conn", edge), "property set repeats a property"),
    ):
        with pytest.raises(InvalidParam, match=f"^{re.escape(message)}$"):
            AuditConfig(properties=props)


def test_config_rejects_k_grid_entries_up_front():
    # Each entry goes through check_k at construction, so a fractional k
    # cannot reach the certifiers mid-run.
    props = (GraphProperty.EDGE_CONNECTIVITY,)
    for grid in ((1.5,), (0,), (2, 1.5), (2, -1)):
        with pytest.raises(InvalidParam, match="k must be a positive integer"):
            AuditConfig(1, ((4, 4, 2, 2),), grid, props, 1)
    with pytest.raises(InvalidParam, match="k grid must be nonempty"):
        AuditConfig(1, ((4, 4, 2, 2),), (), props, 1)


def test_config_stores_k_grid_as_ints():
    # A k of 2.0, np.int64(2) or True is stored as the int it stands for,
    # so the records, the CSV and the JSON match those of the plain int.
    props = (GraphProperty.EDGE_CONNECTIVITY,)

    def emitted(k_grid):
        records = audit_random(AuditConfig(1, ((6, 4, 2, 3),), k_grid, props, 99))
        return report_emit(records, "csv"), report_emit(records, "json")

    for k_grid, plain in (((2.0,), (2,)), ((np.int64(2),), (2,)), ((True,), (1,))):
        assert AuditConfig(1, ((6, 4, 2, 3),), k_grid, props, 99).k_grid == plain
        assert emitted(k_grid) == emitted(plain)


def test_config_rejects_impossible_profiles_before_sampling(monkeypatch):
    # A size or degree below 1, or a degree above the opposite part's size
    # (a > y, and so b > x), has no simple graph: the config refuses it
    # before any profile is sampled.
    import biregular.audit as audit_mod

    calls = record_calls(monkeypatch, audit_mod, "random_biregular_trials")
    props = (GraphProperty.EDGE_CONNECTIVITY,)
    for bad in ((0, 0, 1, 1), (-2, -2, 1, 1), (4, 4, 0, 0), (4, 2, 3, 6)):
        with pytest.raises(InvalidParam, match="grid entry"):
            audit_random(AuditConfig(2, ((4, 4, 2, 2), bad), (2,), props, 1))
    assert calls == []
    # The spy sees the sampling of a grid that passes.
    audit_random(AuditConfig(2, ((4, 4, 2, 2),), (2,), props, 1))
    assert len(calls) == 1


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
        audit_mod,
        "random_biregular_trials",
        lambda x, y, a, b, seeds: [complete_bipartite(6, 6) for _ in seeds],
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
    assert [AuditRecord(**o) for o in json.loads(report_emit([rec], "json"))] == [rec]


def test_json_round_trip():
    records = audit_random(SMALL_CFG)
    text = report_emit(records, "json")
    assert [AuditRecord(**o) for o in json.loads(text)] == records


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
    with pytest.raises(InvalidParam, match="pairs must be an integer"):
        mixing_audit(heawood(), 1.5, seed=1)
    with pytest.raises(InvalidParam, match="at least 3 vertices"):
        mixing_audit(complete_bipartite(1, 1), 10, seed=1)
    lopsided = BipartiteGraph(2, 2, ((0, 0), (0, 1), (1, 0)))
    with pytest.raises(NotBiregular):
        mixing_audit(lopsided, 10, seed=1)
    with pytest.raises(InvalidParam, match="seed must be an integer"):
        mixing_audit(heawood(), 10, seed=1.5)
    assert calls == []
    with pytest.raises(NotBiregular):
        mixing_audit(lopsided, 10, seed=1, spectrum=singular_values(heawood()))


# The benchmark's certify_sparse profiles (x, y, a, b): n = 98..240.
CERTIFY_SPARSE_PROFILES = (
    (60, 40, 2, 3), (40, 60, 3, 2), (90, 60, 2, 3), (100, 50, 2, 4),
    (160, 80, 2, 4), (100, 40, 2, 5), (105, 30, 2, 7), (60, 60, 3, 3),
    (84, 84, 3, 3), (80, 60, 3, 4), (45, 60, 4, 3), (56, 42, 3, 4),
)


def _sparse_graphs():
    # Four of them, n = 98..240.
    profiles = [CERTIFY_SPARSE_PROFILES[k] for k in (0, 4, 8, 11)]
    return [
        random_biregular(*p, derive_seed(5, i)) for i, p in enumerate(profiles)
    ]


def _audit_outcome(g, pairs, seed, spectrum):
    """mixing_audit in the shape mixing_audit_scalar reports, less the
    index of a violating pair."""
    try:
        rep = mixing_audit(g, pairs, seed, spectrum)
    except MixingViolation as exc:
        return ("violation", exc.a_side, exc.b_side, exc.lhs, exc.rhs)
    assert rep.violations == 0
    return (rep.pairs, rep.min_slack, rep.max_slack)


def _scalar_outcome(g, pairs, seed, spectrum):
    ref = mixing_audit_scalar(g, pairs, seed, spectrum)
    return ref[:1] + ref[2:] if ref[0] == "violation" else ref


def _chunk(g):
    """Pairs per chunk of mixing_audit on g."""
    words = max(spectral._MIXING_WORDS, g.x_count * (g.y_count + 1))
    return max(1, min(spectral._MIXING_CHUNK, words // g.n))


def _buffer(g):
    """Pairs per buffer of mixing_audit on g: whole chunks, at least one."""
    c = _chunk(g)
    return c * max(1, spectral._MIXING_WORDS // c)


def test_mixing_audit_matches_scalar_reference():
    # A chunk holds c pairs: counts below, at and across it, and into a
    # third chunk; every float equal. Two graphs with n > 128 get fewer
    # than 128 pairs, one bounded by _MIXING_WORDS (n = 200, c = 81) and
    # one by its count matrix (n = 480, c = 160 * 321 // 480 = 107).
    wide = random_biregular(100, 100, 3, 3, derive_seed(5, 9))
    thin = random_biregular(160, 320, 4, 2, derive_seed(5, 10))
    assert (_chunk(wide), _chunk(thin)) == (81, 107)
    graphs = small_corpus() + medium_corpus() + _sparse_graphs() + [wide, thin]
    for i, g in enumerate(graphs):
        spectrum = singular_values(g)
        c = _chunk(g)
        for pairs in (1, c - 1, c, c + 1, 2 * c + 1):
            seed = derive_seed(21, i, pairs)
            got = _audit_outcome(g, pairs, seed, spectrum)
            assert got == mixing_audit_scalar(g, pairs, seed, spectrum)
            assert all(type(v) is float for v in got[1:])


@pytest.mark.parametrize(
    "name, value",
    # One pair per chunk; chunks bounded by the count matrix alone (4 to
    # 54 pairs here).
    [("_MIXING_CHUNK", 1), ("_MIXING_WORDS", 1)],
)
def test_mixing_audit_settings_match_scalar(monkeypatch, name, value):
    monkeypatch.setattr(spectral, name, value)
    for i, g in enumerate([heawood()] + _sparse_graphs()[:2]):
        true = singular_values(g)
        for spectrum in (true, replace(true, lambda2=0.7 * true.lambda2)):
            got = _audit_outcome(g, 150, derive_seed(23, i), spectrum)
            assert got == _scalar_outcome(g, 150, derive_seed(23, i), spectrum)


def test_mixing_audit_chunk_words_are_bounded(monkeypatch):
    # A chunk reads at most as many stream words as the larger of
    # _MIXING_WORDS and the count matrix, and at least one pair: K(2, 600)
    # gets 27 pairs per chunk, K(3, 20000) 2 and K(300, 300) 128.
    calls = record_calls(monkeypatch, spectral, "stream_u64")
    for g, c in (
        (complete_bipartite(2, 600), 27),
        (complete_bipartite(3, 20000), 2),
        (complete_bipartite(300, 300), 128),
    ):
        mixing_audit(g, 200, 7)
        sizes = [args[2] for args, _ in calls]
        assert sum(sizes) == 200 * g.n
        assert sizes[0] == c * g.n == _chunk(g) * g.n
        calls.clear()


def test_mixing_audit_reports_first_violation():
    # lambda2 = 0 breaks the bound on almost every pair; 0.7 * lambda2 on
    # a few pairs deep into the sample, past the first chunk.
    late = 0
    for i, g in enumerate(medium_corpus() + _sparse_graphs()[:1]):
        true = singular_values(g)
        c = _chunk(g)
        zero = Spectrum(true.sigma, true.lambda1, 0.0, gap=true.lambda1)
        for spectrum in (zero, replace(true, lambda2=0.7 * true.lambda2)):
            ref = mixing_audit_scalar(g, 3 * c + 1, 11, spectrum)
            if ref[0] != "violation":
                assert spectrum is not zero
                continue
            late += ref[1] >= c
            got = _audit_outcome(g, 3 * c + 1, 11, spectrum)
            assert got == ref[:1] + ref[2:], i
            # Cut after the offending pair, and after its chunk: the
            # violation then sits in the audit's last chunk.
            for pairs in (ref[1] + 1, (ref[1] // c + 1) * c):
                assert _audit_outcome(g, pairs, 11, spectrum) == got, i
    assert late >= 5


def test_mixing_audit_reports_a_violation_past_a_buffer():
    # 0.8 * lambda2 on this graph first fails at pair 18 807, in the
    # second buffer of 16 384 pairs: the first one checks clean.
    g = medium_corpus()[7]
    true = singular_values(g)
    spectrum = replace(true, lambda2=0.8 * true.lambda2)
    span = _buffer(g)
    ref = mixing_audit_scalar(g, 2 * span, 11, spectrum)
    assert ref[0] == "violation" and span < ref[1] < 2 * span
    assert _audit_outcome(g, 2 * span, 11, spectrum) == ref[:1] + ref[2:]


def test_mixing_audit_checks_a_buffer_at_once(monkeypatch):
    # 1 000 pairs span 8 to 15 chunks here, and one check covers them all.
    calls = record_calls(monkeypatch, spectral, "_mixing_sides")
    for i, profile in enumerate(CERTIFY_SPARSE_PROFILES):
        g = random_biregular(*profile, derive_seed(5, i))
        assert _buffer(g) >= 1000 > 7 * _chunk(g)
        mixing_audit(g, 1000, derive_seed(7, i))
        assert [args[3].size for args, _ in calls] == [1000]
        calls.clear()
