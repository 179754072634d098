"""Acceptance suite: one test per criterion, printing a pass line for each.

The shared fixture builds the default seeded corpus (500+ random biregular
graphs, degrees 2..8, n <= 60) once, with spectra; oracle values are cached
on first use so every criterion sees the same ground truth. Timed criteria
wrap only their own work, not fixture construction.
"""

import math
import subprocess
import sys
import time

import pytest

from biregular import (
    Verdict,
    certify_edge_connectivity,
    certify_global_rigidity,
    certify_rigid_packing,
    certify_tree_packing,
    certify_vertex_connectivity,
    complete_bipartite,
    even_cycle,
    heawood,
    mixing_audit,
    singular_values,
    validate_biregular,
)
from biregular.audit import default_config, generate_corpus
from biregular.oracles import (
    edge_connectivity,
    greedy_rigid_packing,
    is_globally_rigid,
    is_redundantly_rigid,
    rigidity_matrix_rank_modular,
    rigidity_rank,
    tree_packing_number,
    vertex_connectivity,
)

from partition_oracles import (
    rigid_packing_partition_bound,
    rigid_packing_partition_sufficient,
    tree_packing_partition_bruteforce,
)
from testutil import CHILD_ENV, dense_sigma, vertices

TOL = 1e-9
CORPUS_SEED = 20240808


class Corpus:
    def __init__(self):
        cfg = default_config(trials=10, seed=CORPUS_SEED)
        self.entries = list(generate_corpus(cfg))
        self._kappa_e = {}
        self._kappa_v = {}
        self._tau = {}

    def kappa_e(self, gid, g):
        if gid not in self._kappa_e:
            self._kappa_e[gid] = edge_connectivity(g).value
        return self._kappa_e[gid]

    def kappa_v(self, gid, g):
        if gid not in self._kappa_v:
            self._kappa_v[gid] = vertex_connectivity(g).value
        return self._kappa_v[gid]

    def tau(self, gid, g):
        if gid not in self._tau:
            self._tau[gid] = tree_packing_number(g).value
        return self._tau[gid]


@pytest.fixture(scope="module")
def corpus():
    return Corpus()


def test_criterion_1_spectral_correctness(corpus):
    start = time.perf_counter()
    checked = 0
    for gid, _, g, spectrum in corpus.entries:
        profile = validate_biregular(g)
        assert abs(spectrum.sigma[0] - math.sqrt(profile.a * profile.b)) <= TOL
        checked += 1
    assert checked >= 500

    desk = {
        "K33": (complete_bipartite(3, 3), 0.0),
        "C6": (even_cycle(6), 1.0),
        "Heawood": (heawood(), math.sqrt(2.0)),
    }
    for name, (g, expected_lambda2) in desk.items():
        spectrum = singular_values(g)
        assert abs(spectrum.lambda2 - expected_lambda2) <= TOL, name
        oracle = dense_sigma(g)
        assert max(
            abs(w - v) for w, v in zip(oracle, spectrum.sigma)
        ) <= TOL, name
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 1 PASS: sigma1 = sqrt(ab) within 1e-9 on {checked} "
        f"corpus graphs; K33/C6/Heawood lambda2 match dense oracle "
        f"({elapsed:.2f}s < 1s)"
    )


def test_criterion_2_mixing_lemma(corpus):
    start = time.perf_counter()
    stride = max(1, len(corpus.entries) // 50)
    sample = corpus.entries[::stride][:50]
    assert len(sample) == 50
    worst = None
    for gid, seed, g, spectrum in sample:
        assert g.n <= 60
        report = mixing_audit(g, 1000, seed=seed, spectrum=spectrum)
        assert report.violations == 0
        if worst is None or report.min_slack < worst:
            worst = report.min_slack
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 2 PASS: 50 graphs x 1000 pairs, zero mixing "
        f"violations at 1e-9; min slack {worst:.3e} ({elapsed:.1f}s < 30s)"
    )


def test_criterion_3_edge_connectivity_soundness(corpus):
    assert len(corpus.entries) >= 500
    certified = confirmed = 0
    for gid, _, g, spectrum in corpus.entries:
        profile = validate_biregular(g)
        kappa = None
        for k in range(2, min(profile.a, profile.b) + 1):
            cert = certify_edge_connectivity(g, k, spectrum)
            if cert.verdict is Verdict.CERTIFIED:
                certified += 1
                if kappa is None:
                    kappa = corpus.kappa_e(gid, g)
                assert kappa >= k, (gid, k, kappa)
                confirmed += 1

    desk = certify_edge_connectivity(even_cycle(6), 2)
    assert desk.threshold == pytest.approx(1.5, abs=1e-12)
    assert desk.verdict is Verdict.CERTIFIED
    assert edge_connectivity(even_cycle(6)).value == 2
    desk = certify_edge_connectivity(complete_bipartite(3, 3), 3)
    assert desk.threshold == pytest.approx(2.0, abs=1e-12)
    assert desk.verdict is Verdict.CERTIFIED
    assert edge_connectivity(complete_bipartite(3, 3)).value == 3
    print(
        f"\nACCEPTANCE 3 PASS: {confirmed}/{certified} certified "
        f"edge-connectivity certificates confirmed by the min-cut oracle "
        f"over {len(corpus.entries)} graphs; zero violations"
    )


def test_criterion_4_vertex_connectivity_soundness(corpus):
    certified = confirmed = 0
    for gid, _, g, spectrum in corpus.entries:
        profile = validate_biregular(g)
        kappa = None
        for k in range(2, min(profile.a, profile.b) + 1):
            cert = certify_vertex_connectivity(g, k, spectrum)
            if cert.verdict is Verdict.CERTIFIED:
                certified += 1
                if kappa is None:
                    kappa = corpus.kappa_v(gid, g)
                assert kappa >= k, (gid, k, kappa)
                confirmed += 1

    desk = certify_vertex_connectivity(complete_bipartite(3, 3), 3)
    assert desk.threshold == pytest.approx(3 - math.sqrt(3), abs=1e-12)
    assert desk.threshold == pytest.approx(1.2679, abs=1e-4)
    assert desk.verdict is Verdict.CERTIFIED
    assert vertex_connectivity(complete_bipartite(3, 3)).value == 3
    print(
        f"\nACCEPTANCE 4 PASS: {confirmed}/{certified} certified "
        f"vertex-connectivity certificates confirmed by the separator oracle; "
        f"zero violations"
    )


def test_criterion_5_tree_packing_soundness(corpus):
    certified = confirmed = compared = 0
    for gid, _, g, spectrum in corpus.entries:
        profile = validate_biregular(g)
        tau = None
        for k in range(1, min(profile.a, profile.b) // 2 + 1):
            cert = certify_tree_packing(g, k, spectrum)
            assert cert.hypothesis_ok  # corpus restricted to a,b >= 2k
            if cert.verdict is Verdict.CERTIFIED:
                certified += 1
                if tau is None:
                    tau = corpus.tau(gid, g)
                assert tau >= k, (gid, k, tau)
                confirmed += 1
        if g.n <= 10:
            brute = tree_packing_partition_bruteforce(g, 8).value
            assert corpus.tau(gid, g) == brute, gid
            compared += 1
    assert compared > 0

    desk = certify_tree_packing(complete_bipartite(4, 4), 2)
    assert desk.threshold == pytest.approx(4 - 2 / 3, abs=1e-12)
    assert desk.verdict is Verdict.CERTIFIED
    assert tree_packing_number(complete_bipartite(4, 4)).value == 2
    k66 = certify_tree_packing(complete_bipartite(6, 6), 3)
    assert k66.verdict is Verdict.CERTIFIED
    assert tree_packing_number(complete_bipartite(6, 6)).value == 3
    print(
        f"\nACCEPTANCE 5 PASS: {confirmed}/{certified} certified tree-packing "
        f"certificates confirmed by matroid union; partition brute force "
        f"agreed on {compared} graphs with n <= 10"
    )


def test_criterion_6_rigidity_desk_scale():
    start = time.perf_counter()
    k66 = complete_bipartite(6, 6)

    cert = certify_rigid_packing(k66, 1)
    assert cert.threshold == pytest.approx(3.0, abs=1e-12)
    assert cert.verdict is Verdict.CERTIFIED
    rank = rigidity_rank(k66)
    assert rank.value == 21 == 2 * k66.n - 3

    cert = certify_global_rigidity(k66)
    assert cert.threshold == pytest.approx(1.5, abs=1e-12)
    assert cert.verdict is Verdict.CERTIFIED
    assert is_redundantly_rigid(k66).value == 1
    kappa = vertex_connectivity(k66).value
    assert kappa == 6 >= 3
    assert is_globally_rigid(k66).value == 1

    k1212 = complete_bipartite(12, 12)
    cert = certify_rigid_packing(k1212, 2)
    assert cert.threshold == pytest.approx(9.0, abs=1e-12)
    assert cert.verdict is Verdict.CERTIFIED
    packing = greedy_rigid_packing(k1212, 2)
    assert packing.value == 2 and packing.exact
    first, second = packing.witness.subgraphs
    assert len(first) == len(second) == 45
    assert not (set(first) & set(second))

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 6 PASS: K66 rigid-packing k=1 (threshold 3) and "
        f"global rigidity (threshold 1.5) certified and oracle-confirmed; "
        f"K1212 k=2 certified (threshold 9) with greedy extraction of two "
        f"disjoint spanning Laman subgraphs ({elapsed:.1f}s < 10s)"
    )


def test_criterion_7_oracle_cross_validation(corpus):
    ranked = 0
    for gid, seed, g, _ in corpus.entries:
        if g.n > 30:
            continue
        rank = rigidity_rank(g).value
        for s in (seed, seed + 1, seed + 2):
            assert rigidity_matrix_rank_modular(g, s) == rank, (gid, s)
        ranked += 1
    assert ranked > 0

    whitney = packing = 0
    for gid, _, g, _ in corpus.entries:
        profile = validate_biregular(g)
        kv = corpus.kappa_v(gid, g)
        ke = corpus.kappa_e(gid, g)
        assert kv <= ke <= min(profile.a, profile.b), gid
        whitney += 1
        assert corpus.tau(gid, g) >= ke // 2, gid
        packing += 1
    print(
        f"\nACCEPTANCE 7 PASS: pebble rank = modular rank (3 seeds) on "
        f"{ranked} graphs with n <= 30; kappa <= kappa' <= min(a,b) and "
        f"tau >= floor(kappa'/2) on all {whitney} graphs"
    )


def test_criterion_8_partition_machinery():
    k33 = complete_bipartite(3, 3)
    singles = [[v] for v in vertices(k33)]
    assert rigid_packing_partition_bound(k33, 1, (), singles) == (9, 9)

    small = [
        complete_bipartite(3, 3),
        complete_bipartite(4, 4),
        complete_bipartite(2, 3),
        complete_bipartite(3, 4),
        complete_bipartite(2, 4),
        even_cycle(6),
        even_cycle(8),
    ]
    fired = 0
    for g in small:
        assert g.n <= 9
        res = rigid_packing_partition_sufficient(g, 1)
        if res.value == 1:
            fired += 1
            assert rigidity_rank(g).value == 2 * g.n - 3, "claimed but not rigid"
    assert fired > 0
    print(
        f"\nACCEPTANCE 8 PASS: partition bound reproduces lhs=rhs=9 on K33 "
        f"singletons; partition-sufficient fired on {fired}/{len(small)} "
        f"small graphs, each confirmed rigid by the pebble game"
    )


def test_criterion_9_audit_determinism(tmp_path):
    args = [
        sys.executable, "-m", "biregular", "audit",
        "--seed", "20240808", "--trials", "3",
        "--grid", "6,4,2,3;8,8,4,4;12,12,2,2",
        "--k", "2", "--k", "3",
        "--properties", "edge-conn,vertex-conn,stp",
    ]
    out1, out2 = tmp_path / "audit1.csv", tmp_path / "audit2.csv"
    r1 = subprocess.run([*args, "--out", str(out1)], capture_output=True, env=CHILD_ENV)
    r2 = subprocess.run([*args, "--out", str(out2)], capture_output=True, env=CHILD_ENV)
    assert r1.returncode == 0 and r2.returncode == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    assert b1.decode().splitlines()[0] == (
        "graph_id,a,b,x,y,lambda2,property,k,threshold,verdict,oracle,sound"
    )
    print(
        f"\nACCEPTANCE 9 PASS: audit CLI emitted byte-identical CSV "
        f"({len(b1)} bytes) on repeated runs with a fixed seed"
    )
