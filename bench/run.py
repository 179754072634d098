"""Benchmark for biregular: one workload per run, end to end or per layer.

Usage (from the repository root):

    python3 bench/run.py --workload audit_default --seed 1 --seconds 30 --trace 0

The run imports the package from ``src/``, builds the workload's inputs
from ``--seed`` and warms up (set-up), then repeats whole passes over the
inputs until another pass would end past ``--seconds``. End-to-end times
are normalized by the speed probe in ``speed.py``. Every pass checks
its outputs; at the audit's default seed it also compares them with
``reference.json``. With ``--trace 0`` the last line of standard output is a
JSON object holding the end-to-end metrics; with ``--trace 1`` the same
passes run with spans around the calls into each layer and the JSON holds
the per-layer metrics. Earlier lines give the environment and each metric
by name and unit. ``README.md`` beside this file maps layers to metrics and
workloads.

Exits 2 without a result when ``src/biregular`` is missing.
"""

import os

# One thread everywhere: set before numpy is imported, in this process only.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe, pin_to_fastest_cpu

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("audit_default", "certify_sparse", "rigidity_dense")
DEFAULT_SEED = 0x5EED_B1A5
SETUP_REPEATS = 3

# Run in a fresh interpreter: the import part of one set-up round.
FRESH_IMPORT = """
import sys, time
sys.path[:0] = sys.argv[1:3]
from speed import SpeedProbe, pin_to_fastest_cpu
probe = SpeedProbe()
probe.start()
t0 = time.perf_counter()
import numpy, biregular
t1 = time.perf_counter()
probe.stop()
print(probe.normalized(t0, t1))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument(
        "--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED,
        help="workload seed (decimal or 0x-hex); default the audit's 0x5EED_B1A5",
    )
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def environment(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def fresh_import_s():
    """Seconds, speed-normalized, a new interpreter takes to import numpy and biregular."""
    out = subprocess.run(
        [sys.executable, "-c", FRESH_IMPORT, str(HERE), str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout)


def sha256_lines(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "biregular" / "__init__.py").is_file():
        print(f"bench: no package at {SRC / 'biregular'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    cpu = pin_to_fastest_cpu()
    # End-to-end times are rescaled by the speed probe; the traced run
    # reports raw span times and runs no probe inside them.
    probe = None if args.trace else SpeedProbe()
    if probe:
        probe.start()

    def seconds(a, b):
        return probe.normalized(a, b) if probe else b - a

    try:
        t0 = perf_counter()
        import numpy as np
        import biregular
        import biregular.audit
        import biregular.oracles.rigidity
        import tracing
        import workloads
        import_s = seconds(t0, perf_counter())

        # A set-up round is an import in a fresh interpreter plus input
        # construction and warm-up here; this process's own import happens once.
        workload = workloads.WORKLOADS[args.workload]()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            fresh = fresh_import_s()
            t0 = perf_counter()
            inputs = workload.build(args.seed)
            workload.warm(inputs)
            setup_times.append(fresh + seconds(t0, perf_counter()))
        setup_s = statistics.median(setup_times)

        reference = json.loads((HERE / "reference.json").read_text())
        expected = reference.get(args.workload, "missing") if args.seed == DEFAULT_SEED else None

        tracer = None
        if args.trace:
            overhead_per_call = tracing.wrapper_overhead_s()
            tracer = tracing.Tracer()
            tracer.install(
                [biregular, biregular.oracles, biregular.audit, biregular.oracles.rigidity]
            )
        ctx = workloads.Context(tracer)
        attempted = failed = 0
        pass_times = []
        digests = set()
        start = perf_counter()
        try:
            while True:
                t0 = perf_counter()
                a, f, lines = workload.run_pass(inputs, ctx)
                pass_times.append(perf_counter() - t0)
                digest = sha256_lines(lines)
                digests.add(digest)
                if expected is not None and digest != expected:
                    print(f"bench: output digest {digest} != reference {expected}", file=sys.stderr)
                    f = a
                elif len(digests) > 1:
                    print("bench: a pass over the same inputs changed its output", file=sys.stderr)
                    f = a
                attempted += a
                failed += f
                end = perf_counter()
                if end - start + statistics.mean(pass_times) > args.seconds:
                    break
        finally:
            if tracer:
                tracer.uninstall()
        timed_s = seconds(start, end)
    finally:
        if probe:
            probe.stop()

    run = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cpu": cpu,
        "passes": len(pass_times),
        "pass_s": pass_times,
        "wall_s": end - start,
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "timed_s": timed_s,
        "graphs_attempted": attempted,
        "graphs_failed": failed,
        "failed_share": failed / attempted,
        "sampling_skips": ctx.skipped,
        "output_sha256": sorted(digests),
        "reference_checked": expected is not None,
    }
    if probe:
        run["probe"] = {
            "samples": len(probe.durations),
            "median_ms": 1e3 * statistics.median(probe.durations),
            "slow_share": probe.slow_share(),
        }
    print("# env " + json.dumps(environment(np), sort_keys=True))
    print("# run " + json.dumps(run, sort_keys=True))
    if args.trace:
        metrics = tracing.layer_metrics(tracer.spans, timed_s, len(pass_times), overhead_per_call)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "graphs_per_s": ((attempted - failed) / timed_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
