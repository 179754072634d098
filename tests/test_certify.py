"""Certificate thresholds: desk values, margins, hypotheses, monotonicity."""

import inspect
import json
import math
from dataclasses import asdict

import pytest

from biregular import (
    Certificate,
    MixingAuditReport,
    Verdict,
    certify_edge_connectivity,
    certify_global_rigidity,
    certify_rigid_packing,
    certify_tree_packing,
    certify_vertex_connectivity,
    complete_bipartite,
    even_cycle,
    heawood,
    is_ramanujan,
    singular_values,
    Spectrum,
)
from biregular import certify
from biregular.certify import (
    EPSILON,
    _decide,
    edge_connectivity_thresholds,
    rigid_packing_threshold,
    tree_packing_threshold,
    vertex_connectivity_threshold,
)
from biregular.errors import InvalidParam

from testutil import medium_corpus, small_corpus


def test_edge_conn_c6_k2():
    cert = certify_edge_connectivity(even_cycle(6), 2)
    assert sorted(cert.thresholds) == pytest.approx([1.25, 1.5], abs=1e-12)
    assert cert.threshold == pytest.approx(1.5, abs=1e-12)
    assert cert.strict and cert.hypothesis_ok
    assert cert.verdict is Verdict.CERTIFIED


def test_edge_conn_k33():
    cert = certify_edge_connectivity(complete_bipartite(3, 3), 3)
    assert cert.threshold == pytest.approx(2.0, abs=1e-12)
    assert sorted(cert.thresholds) == pytest.approx([1.5, 2.0], abs=1e-12)
    assert cert.verdict is Verdict.CERTIFIED

    cert4 = certify_edge_connectivity(complete_bipartite(3, 3), 4)
    assert cert4.verdict is Verdict.NOT_FIRED
    assert not cert4.hypothesis_ok
    assert cert4.threshold is None


def test_edge_conn_k1_is_connectivity():
    cert = certify_edge_connectivity(even_cycle(6), 1)
    assert cert.threshold == pytest.approx(2.0, abs=1e-12)
    assert cert.verdict is Verdict.CERTIFIED


def test_size_aware_threshold_needs_room():
    # K_{2,3}: x = 2 equals ceil((b+1)/2) = 2, so only the size-free
    # threshold applies.
    cert = certify_edge_connectivity(complete_bipartite(2, 3), 2)
    assert len(cert.thresholds) == 1


def test_vertex_conn_desk_values():
    k33 = complete_bipartite(3, 3)
    cert = certify_vertex_connectivity(k33, 3)
    assert cert.threshold == pytest.approx(3 - math.sqrt(3), abs=1e-12)
    assert cert.verdict is Verdict.CERTIFIED

    cert2 = certify_vertex_connectivity(k33, 2)
    assert cert2.threshold == pytest.approx(3 - 3 / (2 * math.sqrt(6)), abs=1e-12)
    assert cert2.verdict is Verdict.CERTIFIED

    c6 = certify_vertex_connectivity(even_cycle(6), 2)
    assert c6.threshold == pytest.approx(2 - 1 / math.sqrt(2), abs=1e-12)
    assert c6.verdict is Verdict.CERTIFIED


def test_vertex_conn_k1_not_defined():
    cert = certify_vertex_connectivity(complete_bipartite(3, 3), 1)
    assert cert.verdict is Verdict.NOT_FIRED
    assert not cert.hypothesis_ok


def test_vertex_conn_negative_threshold_never_fires():
    # a = b = k = 9 drives the formula negative even though lambda2 = 0
    cert = certify_vertex_connectivity(complete_bipartite(9, 9), 9)
    assert cert.hypothesis_ok
    assert cert.threshold < 0
    assert cert.verdict is Verdict.NOT_FIRED


def test_tree_packing_desk_values():
    cert = certify_tree_packing(complete_bipartite(4, 4), 2)
    assert cert.threshold == pytest.approx(4 - 2 / 3, abs=1e-12)
    assert cert.verdict is Verdict.CERTIFIED

    c6_1 = certify_tree_packing(even_cycle(6), 1)
    assert c6_1.threshold == pytest.approx(1.5, abs=1e-12)
    assert c6_1.verdict is Verdict.CERTIFIED

    c6_2 = certify_tree_packing(even_cycle(6), 2)
    assert c6_2.verdict is Verdict.NOT_FIRED
    assert not c6_2.hypothesis_ok


def test_rigid_packing_desk_values():
    k66 = complete_bipartite(6, 6)
    cert = certify_rigid_packing(k66, 1)
    assert cert.threshold == pytest.approx(3.0, abs=1e-12)
    assert cert.verdict is Verdict.CERTIFIED
    assert "rigid" in cert.implied
    assert "1-edge-disjoint-spanning-2-connected-subgraphs" in cert.implied

    k1212 = certify_rigid_packing(complete_bipartite(12, 12), 2)
    assert k1212.threshold == pytest.approx(9.0, abs=1e-12)
    assert k1212.verdict is Verdict.CERTIFIED
    assert "rigid" not in k1212.implied

    assert certify_rigid_packing(k66, 2).verdict is Verdict.NOT_FIRED


def test_global_rigidity_desk_values():
    cert = certify_global_rigidity(complete_bipartite(6, 6))
    assert cert.threshold == pytest.approx(1.5, abs=1e-12)
    assert cert.verdict is Verdict.CERTIFIED

    k77 = certify_global_rigidity(complete_bipartite(7, 7))
    assert k77.threshold == pytest.approx(7 - 10 / 3, abs=1e-12)
    assert k77.verdict is Verdict.CERTIFIED

    hw = certify_global_rigidity(heawood())
    assert hw.verdict is Verdict.NOT_FIRED
    assert not hw.hypothesis_ok


def test_ramanujan_desk_values():
    assert is_ramanujan(heawood()).verdict is Verdict.CERTIFIED
    assert is_ramanujan(complete_bipartite(3, 3)).verdict is Verdict.CERTIFIED
    assert is_ramanujan(even_cycle(6)).verdict is Verdict.CERTIFIED


def test_k_must_be_positive():
    # int() raises ValueError for nan, OverflowError for inf and TypeError
    # for None; each must surface as InvalidParam. Integral floats pass.
    g = complete_bipartite(3, 3)
    for fn in (
        certify_edge_connectivity,
        certify_vertex_connectivity,
        certify_tree_packing,
        certify_rigid_packing,
    ):
        for k in (0, float("nan"), float("inf"), None):
            with pytest.raises(InvalidParam, match="k must be a positive"):
                fn(g, k)
        assert fn(g, 2.0) == fn(g, 2)


def test_decide_epsilon_band():
    assert _decide(1.0, 1.0 + 2 * EPSILON) is Verdict.CERTIFIED
    assert _decide(1.0, 1.0 + EPSILON / 2) is Verdict.MARGINAL
    assert _decide(1.0, 1.0 - EPSILON / 2) is Verdict.MARGINAL
    assert _decide(1.0, 1.0 - 2 * EPSILON) is Verdict.NOT_FIRED
    assert _decide(0.5, None) is Verdict.NOT_FIRED
    assert _decide(0.0, -1.0) is Verdict.NOT_FIRED


def test_certified_reads_the_verdict():
    certs = [make() for make, _ in GOLDEN_JSON]
    certs.append(is_ramanujan(heawood(), _pinned(2 * math.sqrt(2))))
    assert {c.verdict for c in certs} == set(Verdict)
    for cert in certs:
        assert cert.certified == (cert.verdict is Verdict.CERTIFIED)


def test_fixed_values_are_not_parameters():
    # The epsilon band and the audit's zero violations are constants, not
    # settings: a caller cannot pass them.
    cert = certify_edge_connectivity(even_cycle(6), 2)
    assert cert.tol == EPSILON
    with pytest.raises(TypeError):
        Certificate(**{**asdict(cert), "tol": 1e-3})
    with pytest.raises(TypeError):
        MixingAuditReport(pairs=1, violations=1, min_slack=0.0, max_slack=0.0)
    assert MixingAuditReport(pairs=1, min_slack=0.0, max_slack=0.0).violations == 0
    assert list(inspect.signature(_decide).parameters) == ["lam2", "threshold"]


def test_certificate_serialization():
    cert = certify_edge_connectivity(even_cycle(6), 2)
    d = asdict(cert)
    assert d["property"] == "edge-conn"
    assert d["verdict"] == "certified"
    assert d["k"] == 2 and d["a"] == 2 and d["x"] == 3
    assert d["threshold"] == pytest.approx(1.5)


def _pinned(lam2):
    # Certificates read only lambda2; pinning it keeps these strings free of
    # the solver's last-bit rounding.
    return Spectrum(sigma=(), lambda1=0.0, lambda2=lam2, gap=0.0)


GOLDEN_JSON = [
    (
        lambda: certify_edge_connectivity(even_cycle(6), 2, _pinned(1.0)),
        '{"property": "edge-conn", "k": 2, "a": 2, "b": 2, "x": 3, "y": 3, '
        '"lambda2": 1.0, "threshold": 1.5, "thresholds": [1.5, 1.25], '
        '"strict": true, "hypothesis_ok": true, "verdict": "certified", '
        '"implied": [], "tol": 1e-09}',
    ),
    (
        lambda: certify_vertex_connectivity(
            complete_bipartite(3, 3), 3, _pinned(0.0)
        ),
        '{"property": "vertex-conn", "k": 3, "a": 3, "b": 3, "x": 3, "y": 3, '
        '"lambda2": 0.0, "threshold": 1.2679491924311226, '
        '"thresholds": [1.2679491924311226], "strict": false, '
        '"hypothesis_ok": true, "verdict": "certified", "implied": [], '
        '"tol": 1e-09}',
    ),
    (
        lambda: certify_tree_packing(even_cycle(6), 2, _pinned(1.0)),
        '{"property": "stp", "k": 2, "a": 2, "b": 2, "x": 3, "y": 3, '
        '"lambda2": 1.0, "threshold": null, "thresholds": [], '
        '"strict": false, "hypothesis_ok": false, "verdict": "not-fired", '
        '"implied": [], "tol": 1e-09}',
    ),
    (
        lambda: certify_rigid_packing(complete_bipartite(6, 6), 1, _pinned(0.0)),
        '{"property": "rigid-packing", "k": 1, "a": 6, "b": 6, "x": 6, '
        '"y": 6, "lambda2": 0.0, "threshold": 3.0, "thresholds": [3.0], '
        '"strict": false, "hypothesis_ok": true, "verdict": "certified", '
        '"implied": ["1-edge-disjoint-spanning-2-connected-subgraphs", '
        '"rigid"], "tol": 1e-09}',
    ),
    (
        lambda: certify_rigid_packing(complete_bipartite(6, 6), 1, _pinned(5.0)),
        '{"property": "rigid-packing", "k": 1, "a": 6, "b": 6, "x": 6, '
        '"y": 6, "lambda2": 5.0, "threshold": 3.0, "thresholds": [3.0], '
        '"strict": false, "hypothesis_ok": true, "verdict": "not-fired", '
        '"implied": [], "tol": 1e-09}',
    ),
    (
        lambda: certify_global_rigidity(complete_bipartite(7, 7), _pinned(0.0)),
        '{"property": "global-rigidity", "k": 1, "a": 7, "b": 7, "x": 7, '
        '"y": 7, "lambda2": 0.0, "threshold": 3.6666666666666665, '
        '"thresholds": [3.6666666666666665], "strict": false, '
        '"hypothesis_ok": true, "verdict": "certified", "implied": [], '
        '"tol": 1e-09}',
    ),
    (
        lambda: is_ramanujan(heawood(), _pinned(math.sqrt(2))),
        '{"property": "ramanujan", "k": 1, "a": 3, "b": 3, "x": 7, "y": 7, '
        '"lambda2": 1.4142135623730951, "threshold": 2.8284271247461903, '
        '"thresholds": [2.8284271247461903], "strict": false, '
        '"hypothesis_ok": true, "verdict": "certified", "implied": [], '
        '"tol": 1e-09}',
    ),
]


def test_certificate_json_golden():
    # Key order and values of `certify --json`, one certificate per property
    # (rigid packing twice: ``implied`` only survives a fired certificate).
    for make, want in GOLDEN_JSON:
        assert json.dumps(asdict(make())) == want


def test_certifiers_are_module_functions():
    # The benchmark tracer patches the certifiers by name and names its
    # spans from __module__ and __name__.
    for name in (
        "certify_edge_connectivity",
        "certify_vertex_connectivity",
        "certify_tree_packing",
        "certify_rigid_packing",
        "certify_global_rigidity",
        "is_ramanujan",
    ):
        fn = getattr(certify, name)
        assert inspect.isfunction(fn)
        assert (fn.__module__, fn.__name__) == ("biregular.certify", name)


def test_monotone_in_k_over_corpus():
    # Certified at k implies certified at every smaller k meeting the
    # hypothesis: all thresholds are nonincreasing in k.
    for g in small_corpus(per_combo=1) + medium_corpus(per_combo=1):
        s = singular_values(g)
        for fn, k_min in (
            (certify_edge_connectivity, 1),
            (certify_vertex_connectivity, 2),
            (certify_tree_packing, 1),
            (certify_rigid_packing, 1),
        ):
            prev_certified = False
            for k in range(8, k_min - 1, -1):
                cert = fn(g, k, s)
                if prev_certified and cert.hypothesis_ok:
                    assert cert.verdict is Verdict.CERTIFIED
                prev_certified = prev_certified or (
                    cert.verdict is Verdict.CERTIFIED
                )


def test_abstract_thresholds_never_beat_ceiling_forms():
    # The simplified gap conditions are weaker than the ceiling forms for
    # every degree pair, so anything they would certify is already covered.
    for a in range(2, 65):
        for b in range(2, 65):
            root = math.sqrt(a * b)
            for k in range(2, min(a, b) + 1):
                simple = root - 2 * (k - 1) / math.sqrt((a + 1) * (b + 1))
                ceiling = edge_connectivity_thresholds(a, b, a + b, a + b, k)[0]
                assert simple <= ceiling + 1e-12
            for k in range(1, min(a, b) // 2 + 1):
                simple = root - 2 * k / math.sqrt((a + 1) * (b + 1))
                assert simple <= tree_packing_threshold(a, b, k) + 1e-12
            for k in range(1, min(a, b) // 6 + 1):
                simple = root - (6 * k + 2 * max(a, b)) / math.sqrt(
                    (a - 1) * (b - 1)
                )
                assert simple <= rigid_packing_threshold(a, b, k) + 1e-12
            # The vertex-connectivity threshold has no ceiling: it is the
            # abstract's form itself.
            for k in range(2, min(a, b) + 1):
                mx = max(a, b)
                abstract = root - (k - 1) * mx / (2 * math.sqrt(a * b - (k - 1) * mx))
                assert abs(vertex_connectivity_threshold(a, b, k) - abstract) <= 1e-9
