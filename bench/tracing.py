"""Spans around calls into biregular's layers, installed from outside the package.

The traced run swaps selected functions for timing wrappers at every module
attribute that names them: the package namespace the workloads call through,
and the internal modules whose functions call each other (``audit`` calls
the sampler, the eigensolver, the certificates and the oracles;
``oracles.rigidity`` calls vertex connectivity and redundant rigidity). No
file under ``src/`` changes. A span's name is the function's module without
the package prefix plus its own name, e.g. ``oracles.flow.vertex_connectivity``,
and its layer is that name minus the last component.

Spans stay in memory as ``[name, start, end, parent, ok, result]`` lists and
are reduced to per-layer metrics when the run ends.
"""

from __future__ import annotations

import functools
import math
import statistics
from time import perf_counter

TRACED = (
    "random_biregular",
    "parse_bbg",
    "singular_values",
    "mixing_check",
    "mixing_audit",
    "certify_edge_connectivity",
    "certify_vertex_connectivity",
    "certify_tree_packing",
    "certify_rigid_packing",
    "certify_global_rigidity",
    "is_ramanujan",
    "edge_connectivity",
    "vertex_connectivity",
    "tree_packing_number",
    "rigidity_rank",
    "rigidity_matrix_rank_modular",
    "greedy_rigid_packing",
    "is_redundantly_rigid",
    "is_globally_rigid",
    "audit_random",
    "report_emit",
)

# Spans whose return value the metrics read; every other result is dropped
# as soon as the call returns.
KEEP_RESULT = ("certify.", "oracles.rigidity.greedy_rigid_packing")

LAYERS = (
    "graphs",
    "bbg",
    "spectral",
    "certify",
    "oracles.flow",
    "oracles.packing",
    "oracles.rigidity",
    "audit",
)

# Per-call timings reported as "<span>.ms" with "<span>.calls".
TIMED_SPANS = (
    "bbg.parse_bbg",
    "spectral.singular_values",
    "oracles.flow.edge_connectivity",
    "oracles.flow.vertex_connectivity",
    "oracles.packing.tree_packing_number",
    "oracles.rigidity.rigidity_rank",
    "oracles.rigidity.rigidity_matrix_rank_modular",
    "oracles.rigidity.greedy_rigid_packing",
    "oracles.rigidity.is_redundantly_rigid",
    "oracles.rigidity.is_globally_rigid",
    "audit.report_emit",
)

SAMPLER = "graphs.random_biregular"
GRAPH_SPAN = "bench.graph"
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


class Tracer:
    """Collects nested spans; ``install`` patches modules, ``uninstall`` undoes it."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._patched = []

    def wrap(self, name, fn):
        spans, open_ = self.spans, self._open
        keep = name.startswith(KEEP_RESULT)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, open_[-1] if open_ else -1, False, None]
            open_.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
                rec[4] = True
                if keep:
                    rec[5] = out
                return out
            finally:
                rec[2] = perf_counter()
                open_.pop()

        return traced

    def install(self, modules):
        wrappers = {}
        for mod in modules:
            for attr in TRACED:
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                if id(fn) not in wrappers:
                    name = fn.__module__.split(".", 1)[1] + "." + fn.__name__
                    wrappers[id(fn)] = self.wrap(name, fn)
                self._patched.append((mod, attr, fn))
                setattr(mod, attr, wrappers[id(fn)])

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()


def wrapper_overhead_s(calls: int = 20000) -> float:
    """Seconds one traced call adds over a direct call, measured here and now."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap("bench.noop", noop)
    samples = []
    for _ in range(5):
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        direct = perf_counter() - t0
        tracer.spans.clear()
        t0 = perf_counter()
        for _ in range(calls):
            traced()
        samples.append((perf_counter() - t0 - direct) / calls)
    return max(statistics.median(samples), 0.0)


def _percentile(sorted_vals, pct):
    # Nearest rank, so the reported value is one a graph actually took.
    return sorted_vals[max(0, math.ceil(pct / 100 * len(sorted_vals)) - 1)]


def graph_latencies(spans):
    """Per-graph wall times in seconds.

    Workloads that loop over graphs themselves record a ``bench.graph`` span
    per graph. Inside ``audit_random`` a graph runs from the start of its
    successful sampling call to the start of the next sampling call (or the
    end of the audit), which covers its spectrum, certificates and oracles;
    intervals opened by a skipped sampling call are not graphs.
    """
    own = [s[2] - s[1] for s in spans if s[0] == GRAPH_SPAN]
    if own:
        return own
    out = []
    for i, s in enumerate(spans):
        if s[0] != "audit.audit_random":
            continue
        samples = [t for t in spans if t[0] == SAMPLER and t[3] == i]
        bounds = [t[1] for t in samples[1:]] + [s[2]]
        out.extend(end - t[1] for t, end in zip(samples, bounds) if t[4])
    return out


def layer_metrics(spans, wall_s, passes, overhead_per_call_s):
    """Per-layer metrics from the spans of ``passes`` identical passes.

    Counts are per pass, so they repeat exactly for a seed whatever the
    machine speed; timings are means per call.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    total = {}
    calls = {}
    for s, c in zip(spans, child):
        dur = s[2] - s[1]
        total[s[0]] = total.get(s[0], 0.0) + dur
        calls[s[0]] = calls.get(s[0], 0) + 1
        layer = layer_of(s[0])
        if layer in self_by_layer:
            self_by_layer[layer] += dur - c

    def per_pass(count):
        return count / passes

    def mean_ms(name):
        return 1e3 * total.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

    m = {}
    sampled = [s for s in spans if s[0] == SAMPLER and s[4]]
    skipped = [s for s in spans if s[0] == SAMPLER and not s[4]]
    attempted = len(sampled) + len(skipped)
    m["graphs.random_biregular.ms"] = (
        1e3 * sum(s[2] - s[1] for s in sampled) / len(sampled) if sampled else 0.0,
        "ms",
    )
    m["graphs.random_biregular.calls"] = (per_pass(len(sampled)), "count")
    m["graphs.random_biregular.skipped"] = (per_pass(len(skipped)), "count")
    m["graphs.random_biregular.skipped_s"] = (
        per_pass(sum(s[2] - s[1] for s in skipped)),
        "s",
    )
    m["graphs.random_biregular.yield"] = (
        len(sampled) / attempted if attempted else 0.0,
        "ratio",
    )
    for name in TIMED_SPANS:
        m[name + ".ms"] = (mean_ms(name), "ms")
        m[name + ".calls"] = (per_pass(calls.get(name, 0)), "count")
    pairs = calls.get("spectral.mixing_check", 0)
    m["spectral.mixing_check.us_per_pair"] = (
        1e6 * total["spectral.mixing_check"] / pairs if pairs else 0.0,
        "us",
    )
    m["spectral.mixing_check.pairs"] = (per_pass(pairs), "count")

    certs = [s for s in spans if layer_of(s[0]) == "certify"]
    results = [s[5] for s in certs if s[5] is not None]
    margins = [
        abs(c.threshold - c.lambda2) for c in results if c.threshold is not None
    ]
    m["certify.ms"] = (
        1e3 * sum(s[2] - s[1] for s in certs) / len(certs) if certs else 0.0,
        "ms",
    )
    m["certify.calls"] = (per_pass(len(certs)), "count")
    m["certify.fired"] = (
        per_pass(sum(1 for c in results if c.verdict.value == "certified")),
        "count",
    )
    m["certify.marginal"] = (
        per_pass(sum(1 for c in results if c.verdict.value == "marginal")),
        "count",
    )
    m["certify.min_margin"] = (min(margins) if margins else 0.0, "1")
    greedy = [
        s[5] for s in spans
        if s[0] == "oracles.rigidity.greedy_rigid_packing" and s[5] is not None
    ]
    m["oracles.rigidity.greedy_exact_share"] = (
        sum(1 for r in greedy if r.exact) / len(greedy) if greedy else 0.0,
        "ratio",
    )

    lat = sorted(graph_latencies(spans))
    n = len(lat)
    tail_pct = next(
        (p for p in TAIL_PERCENTILES if n * (1 - p / 100) >= 10), 50.0
    )
    m["trace.graphs"] = (n, "count")
    m["trace.graph_ms_p50"] = (1e3 * _percentile(lat, 50.0) if lat else 0.0, "ms")
    m["trace.graph_ms_tail"] = (1e3 * _percentile(lat, tail_pct) if lat else 0.0, "ms")
    m["trace.graph_ms_tail_pct"] = (tail_pct, "pct")
    traced_calls = sum(1 for s in spans if s[0] != GRAPH_SPAN)
    m["trace.overhead_share"] = (traced_calls * overhead_per_call_s / wall_s, "ratio")
    for layer in LAYERS:
        m[layer + ".share"] = (self_by_layer[layer] / wall_s, "ratio")
    m["bench.share"] = (1.0 - sum(self_by_layer.values()) / wall_s, "ratio")
    return m
