"""The three benchmark workloads: inputs from a seed, one timed pass, output checks.

Each workload has ``build(seed)``, which makes its inputs (the part of set-up
that depends on the seed), ``warm(inputs)``, which runs the pipeline once on
a small input, and ``run_pass(inputs, ctx)``, which processes every input once
through biregular's public API and checks the outputs. A pass returns
``(attempted, failed, lines)``: graphs attempted, graphs that failed a check
or raised, and the pass's outputs as text lines, whose sha256 ``run.py``
compares across passes and, at the audit's default seed, with
``reference.json``.

Every call into the package goes through the ``biregular`` module object at
call time, so the traced run can swap in timing wrappers without a second
copy of the workload code.
"""

from __future__ import annotations

import logging
import math
import sys
import traceback

import numpy as np

import biregular as B
from tracing import GRAPH_SPAN

# certify_sparse: seeded low-degree profiles (x, y, a, b) with
# (a-1)(b-1) <= 6 and 98 <= n <= 240, so the configuration model samples
# them in a few dozen attempts. (2,2) profiles are left out: their graphs
# are unions of cycles whose repeated eigenvalues make the Jacobi cost
# depend on the seed far more than on the size.
SPARSE_PROFILES = (
    (60, 40, 2, 3),
    (40, 60, 3, 2),
    (90, 60, 2, 3),
    (100, 50, 2, 4),
    (160, 80, 2, 4),
    (100, 40, 2, 5),
    (105, 30, 2, 7),
    (60, 60, 3, 3),
    (84, 84, 3, 3),
    (80, 60, 3, 4),
    (45, 60, 4, 3),
    (56, 42, 3, 4),
)
MIXING_PAIRS = 1000
SPARSE_KS = range(1, 9)

# rigidity_dense: circulant slots (n, |S|) and complete bipartite graphs.
# Degrees of 12 and more put every rigid-packing certificate whose degree
# hypothesis holds (min(a, b) >= 6k) and the global-rigidity certificate
# within reach; the default audit never reaches them.
CIRCULANT_SLOTS = (
    (16, 12), (18, 13), (20, 14), (22, 15), (24, 16), (26, 18),
    (16, 13), (18, 12), (20, 15), (22, 14), (24, 17), (26, 16),
)
COMPLETE_PARTS = ((12, 12), (12, 18), (18, 18))
RIGID_KS = (1, 2, 3)
# A circulant is kept only when an independent SVD puts lambda2 at least
# this far below its degree, which is below every rigidity threshold for
# degrees 12..18 by at least 0.8, so all applicable certificates must fire.
CIRCULANT_LAMBDA2_SLACK = 4.0


class _Failures:
    """Counts failed graphs and prints the first few tracebacks to stderr."""

    def __init__(self, limit=5):
        self.count = 0
        self.limit = limit

    def record(self, what):
        self.count += 1
        if self.count <= self.limit:
            print(f"bench: graph failed: {what}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)


def _check_certificate(cert):
    """The verdict must follow from lambda2, the threshold and the 1e-9 band."""
    if cert.threshold is None or cert.threshold < 0.0:
        want = "not-fired"
    elif abs(cert.lambda2 - cert.threshold) < cert.tol:
        want = "marginal"
    else:
        want = "certified" if cert.lambda2 < cert.threshold else "not-fired"
    if cert.verdict.value != want:
        raise AssertionError(f"verdict {cert.verdict.value} where {want} follows: {cert}")


# --------------------------------------------------------------- audit_default


class _SkipCounter(logging.Handler):
    """Counts the audit's logged sampling skips; the audit reports them nowhere else."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if record.getMessage().startswith("skipping trial"):
            self.count += 1


class AuditDefault:
    name = "audit_default"

    def __init__(self):
        self.skips = _SkipCounter()
        logging.getLogger("biregular.audit").addHandler(self.skips)

    def build(self, seed):
        return B.default_config(seed=seed)

    def warm(self, cfg):
        small = B.AuditConfig(
            trials=1,
            size_grid=cfg.size_grid[:2],
            k_grid=cfg.k_grid,
            properties=cfg.properties,
            seed=cfg.seed,
        )
        B.report_emit(B.audit_random(small), "csv")

    def run_pass(self, cfg, ctx):
        trials = cfg.trials * len(cfg.size_grid)
        per_graph = len(cfg.properties) * len(cfg.k_grid)
        failures = _Failures()
        self.skips.count = 0
        try:
            records = B.audit_random(cfg)
            csv = B.report_emit(records, "csv")
        except Exception:
            failures.record("audit_random/report_emit raised")
            sampled = trials - self.skips.count
            return sampled, sampled, ["failed"]
        ctx.skipped += self.skips.count
        by_graph = {}
        for r in records:
            by_graph.setdefault(r.graph_id, []).append(r)
        sampled = len(by_graph)
        failed = 0
        if sampled + self.skips.count != trials:
            print(
                f"bench: {sampled} graphs + {self.skips.count} logged skips "
                f"!= {trials} trials", file=sys.stderr,
            )
            failed = sampled
        for gid, recs in by_graph.items():
            bad = len(recs) != per_graph or any(
                not r.sound
                or (r.verdict == "certified" and (r.oracle is None or r.oracle < r.k))
                for r in recs
            )
            if bad:
                print(f"bench: graph {gid} has bad records", file=sys.stderr)
                failed += 1
        return sampled, min(failed, sampled), [csv]


# -------------------------------------------------------------- certify_sparse


def _certify_all(g, spectrum):
    certs = []
    for k in SPARSE_KS:
        certs.append(B.certify_edge_connectivity(g, k, spectrum))
        certs.append(B.certify_vertex_connectivity(g, k, spectrum))
        certs.append(B.certify_tree_packing(g, k, spectrum))
        certs.append(B.certify_rigid_packing(g, k, spectrum))
    certs.append(B.certify_global_rigidity(g, spectrum))
    certs.append(B.is_ramanujan(g, spectrum))
    return certs


class CertifySparse:
    name = "certify_sparse"

    def build(self, seed):
        inputs = []
        for i, (x, y, a, b) in enumerate(SPARSE_PROFILES):
            g = B.random_biregular(x, y, a, b, B.derive_seed(seed, i))
            inputs.append((B.write_bbg(g), g, B.derive_seed(seed, i, 1)))
        return inputs

    def warm(self, inputs):
        self.run_pass(inputs[:1], Context())

    def run_pass(self, inputs, ctx):
        failures = _Failures()
        lines = []
        process = ctx.per_graph(self._graph)
        for i, (text, ref, mix_seed) in enumerate(inputs):
            try:
                out = process(text, ref, mix_seed)
            except Exception:
                failures.record(f"certify_sparse input {i}")
                lines.append(f"{i},failed")
                continue
            lines.extend(f"{i},{line}" for line in out)
        return len(inputs), failures.count, lines

    @staticmethod
    def _graph(text, ref, mix_seed):
        g = B.parse_bbg(text)
        if g != ref:
            raise AssertionError("parse_bbg does not round-trip write_bbg")
        spectrum = B.singular_values(g)
        a, b = len(g.adj_x[0]), len(g.adj_y[0])
        sigma = spectrum.sigma
        # The trace of B B^T counts the edges, and the top singular value of
        # a biregular graph is sqrt(ab).
        if abs(spectrum.lambda1 - math.sqrt(a * b)) > 1e-9 * math.sqrt(a * b):
            raise AssertionError(f"lambda1 {spectrum.lambda1} != sqrt({a * b})")
        if abs(sum(s * s for s in sigma) - g.m) > 1e-8 * g.m:
            raise AssertionError("sum of squared singular values != edge count")
        if list(sigma) != sorted(sigma, reverse=True):
            raise AssertionError("singular values not sorted descending")
        certs = _certify_all(g, spectrum)
        for cert in certs:
            _check_certificate(cert)
        report = B.mixing_audit(g, MIXING_PAIRS, mix_seed, spectrum)
        if report.pairs != MIXING_PAIRS or report.violations != 0:
            raise AssertionError(f"mixing audit reported {report}")
        out = []
        for c in certs:
            thr = "" if c.threshold is None else format(c.threshold, ".12g")
            out.append(f"{c.property.value},{c.k},{c.verdict.value},{thr}")
        return out


# -------------------------------------------------------------- rigidity_dense


def _circulant(n, shifts):
    """x_i ~ y_{(i+s) mod n} for s in shifts: an (|S|,|S|)-biregular graph."""
    return B.BipartiteGraph(
        n, n, tuple((i, (i + s) % n) for i in range(n) for s in shifts)
    )


def _applicable_certificates(a, b):
    return sum(1 for k in RIGID_KS if min(a, b) >= 6 * k) + (min(a, b) >= 6)


class RigidityDense:
    name = "rigidity_dense"

    def build(self, seed):
        inputs = []
        for slot, (n, d) in enumerate(CIRCULANT_SLOTS):
            rng = B.SplitMix64(B.derive_seed(seed, slot))
            while True:
                pool = list(range(n))
                rng.shuffle(pool)
                shifts = tuple(sorted(pool[:d]))
                g = _circulant(n, shifts)
                sv = np.linalg.svd(B.biadjacency(g), compute_uv=False)
                if sv[1] <= d - CIRCULANT_LAMBDA2_SLACK:
                    break
            name = f"C{n}:" + "-".join(map(str, shifts))
            inputs.append((name, g, _applicable_certificates(d, d), B.derive_seed(seed, slot, 1)))
        for m, n in COMPLETE_PARTS:
            g = B.complete_bipartite(m, n)
            inputs.append((f"K{m},{n}", g, _applicable_certificates(n, m), B.derive_seed(seed, m, n)))
        return inputs

    def warm(self, inputs):
        self.run_pass([inp for inp in inputs if inp[0] == "K12,12"], Context())

    def run_pass(self, inputs, ctx):
        failures = _Failures()
        lines = []
        process = ctx.per_graph(self._graph)
        for name, g, expected_fired, rank_seed in inputs:
            try:
                out = process(g, expected_fired, rank_seed)
            except Exception:
                failures.record(f"rigidity_dense input {name}")
                lines.append(f"{name},failed")
                continue
            lines.append(f"{name},{out}")
        return len(inputs), failures.count, lines

    @staticmethod
    def _graph(g, expected_fired, rank_seed):
        spectrum = B.singular_values(g)
        rank = B.oracles.rigidity_rank(g).value
        modular = B.oracles.rigidity_matrix_rank_modular(g, rank_seed)
        if rank != modular:
            raise AssertionError(f"pebble-game rank {rank} != GF(p) rank {modular}")
        fired = 0
        values = []
        for k in RIGID_KS:
            cert = B.certify_rigid_packing(g, k, spectrum)
            _check_certificate(cert)
            if cert.certified:
                fired += 1
                value = B.oracles.greedy_rigid_packing(g, k).value
                if value < k:
                    raise AssertionError(f"rigid packing {value} < certified k={k}")
                values.append(value)
        cert = B.certify_global_rigidity(g, spectrum)
        _check_certificate(cert)
        if cert.certified:
            fired += 1
            value = B.oracles.is_globally_rigid(g).value
            if value < 1:
                raise AssertionError("certified globally rigid graph is not")
            values.append(value)
        if fired != expected_fired:
            raise AssertionError(f"{fired} certificates fired, expected {expected_fired}")
        return f"rank={rank},fired={fired},values={'/'.join(map(str, values))}"


class Context:
    """What a pass reports besides its return value, and the tracer if any."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.skipped = 0

    def per_graph(self, fn):
        """fn in a per-graph span when tracing, for workloads that loop over graphs."""
        return self.tracer.wrap(GRAPH_SPAN, fn) if self.tracer else fn


WORKLOADS = {w.name: w for w in (AuditDefault, CertifySparse, RigidityDense)}
