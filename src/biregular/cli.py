"""Command-line front end.

Subcommands: gen, spectrum, certify, verify, audit, mixing-audit.
Exit codes: 0 success, 1 usage error or any other InvalidParam (an
impossible profile and a graph too small or too large for an oracle
included) or a file that cannot be read or written, 2 unsound audit, 3 a
failure: the solver did not converge, sampling ran out of retries or a
mixing check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, is_dataclass

from . import __version__
from .audit import (
    DEFAULT_SEED,
    PROPERTIES,
    AuditConfig,
    audit_random,
    report_emit,
)
from .bbg import is_int_token, parse_bbg, write_bbg
from .certify import GraphProperty
from .errors import AuditUnsound, Error, InvalidParam, UsageError, check_k
from .graphs import DEFAULT_MAX_RETRIES, complete_bipartite, even_cycle
from .graphs import heawood, random_biregular, validate_biregular
from .spectral import mixing_audit, singular_values

# Only reading --input as UTF-8 and writing --out or stdout raise OSError or
# UnicodeDecodeError: a missing file, a directory, bytes that are not UTF-8.
_USAGE_ERRORS = (InvalidParam, OSError, UnicodeDecodeError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _emit(text, out_path):
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _witness_json(witness):
    if witness is None:
        return None
    kind = type(witness).__name__
    if is_dataclass(witness):
        return {"kind": kind, **asdict(witness)}
    # is_redundantly_rigid's critical edge is a bare tuple
    return {"kind": kind, "value": repr(witness)}


def _cmd_gen(args):
    if args.kind == "complete":
        g = complete_bipartite(args.m, args.n)
    elif args.kind == "cycle":
        g = even_cycle(args.length)
    elif args.kind == "heawood":
        g = heawood()
    else:
        required = dict(x=args.x, y=args.y, a=args.a, b=args.b, seed=args.seed)
        missing = [name for name, v in required.items() if v is None]
        if missing:
            raise UsageError(
                f"gen random requires --{' --'.join(missing)}"
            )
        g = random_biregular(
            args.x, args.y, args.a, args.b, args.seed, args.max_retries
        )
    return write_bbg(g)


def _cmd_spectrum(args):
    profile = validate_biregular(args.graph)
    spectrum = singular_values(args.graph)
    payload = {
        "a": profile.a,
        "b": profile.b,
        "sigma": list(spectrum.sigma),
        "lambda2": spectrum.lambda2,
        "gap": spectrum.gap,
    }
    return json.dumps(payload) + "\n"


def _cmd_certify(args):
    prop = GraphProperty(args.property)
    cert = PROPERTIES[prop].certify(args.graph, check_k(args.k))
    if args.json:
        return json.dumps(asdict(cert)) + "\n"
    return (
        f"{prop.value} k={cert.k}: {cert.verdict.value} "
        f"(lambda2={cert.lambda2:.12g}, threshold="
        f"{'n/a' if cert.threshold is None else format(cert.threshold, '.12g')})\n"
    )


def _cmd_verify(args):
    prop = GraphProperty(args.property)
    oracle = PROPERTIES[prop].oracle
    if oracle is None:
        raise UsageError(f"no exact oracle for {prop.value!r}")
    res = oracle(args.graph, None if args.k is None else check_k(args.k))
    if args.json:
        payload = {
            "property": prop.value,
            "value": res.value,
            "exact": res.exact,
            "witness": _witness_json(res.witness),
        }
        return json.dumps(payload) + "\n"
    return f"{prop.value}: value={res.value} exact={str(res.exact).lower()}\n"


def _parse_grid(text):
    # Text work only: AuditConfig judges each entry and the grid's length.
    # A leading, trailing or doubled ';' adds no entry.
    grid = []
    for chunk in filter(str.strip, text.split(";")):
        tokens = map(str.strip, chunk.split(","))
        grid.append(tuple(int(t) if is_int_token(t) else t for t in tokens))
    return tuple(grid)


def _cmd_audit(args):
    # AuditConfig holds the defaults and judges every setting, so only the
    # settings given are passed, an empty --grid or --properties included;
    # repeated k values and properties are dropped and the rest sorted.
    given = {"trials": args.trials, "seed": args.seed}
    if args.grid is not None:
        given["size_grid"] = _parse_grid(args.grid)
    if args.k is not None:
        given["k_grid"] = tuple(sorted(set(args.k)))
    if args.properties is not None:
        names = {p.strip() for p in args.properties.split(",")}
        given["properties"] = tuple(sorted(names))
    cfg = AuditConfig(**{f: v for f, v in given.items() if v is not None})
    return report_emit(audit_random(cfg), args.format)


def _cmd_mixing_audit(args):
    report = mixing_audit(args.graph, args.pairs, args.seed)
    return json.dumps(asdict(report)) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="biregular",
        description=(
            "Certify connectivity, tree packing, and rigidity of biregular "
            "bipartite graphs from the second adjacency eigenvalue, and "
            "verify with exact oracles."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph and write it as bbg")
    p.add_argument("kind", choices=["complete", "cycle", "heawood", "random"])
    p.add_argument("--m", type=int, default=3, help="X side of K_{m,n}")
    p.add_argument("--n", type=int, default=3, help="Y side of K_{m,n}")
    p.add_argument("--length", type=int, default=6, help="cycle length")
    p.add_argument("--x", type=int)
    p.add_argument("--y", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-retries", type=int, default=DEFAULT_MAX_RETRIES)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("spectrum", help="singular values and spectral gap")
    p.add_argument("--input", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_spectrum)

    choices = [prop.value for prop in GraphProperty]
    for name, k_default, func, help_text in (
        ("certify", 1, _cmd_certify, "evaluate a spectral certificate"),
        ("verify", None, _cmd_verify, "run the exact oracle"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--property", required=True, choices=choices)
        p.add_argument("--k", type=int, default=k_default)
        p.add_argument("--input", required=True)
        p.add_argument("--json", action="store_true")
        p.add_argument("--out", default=None)
        p.set_defaults(func=func)

    p = sub.add_parser("audit", help="randomized certificate/oracle audit")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--grid", default=None, help="x,y,a,b[;x,y,a,b...]")
    p.add_argument("--k", type=int, action="append", default=None)
    p.add_argument("--properties", default=None, help="comma-separated names")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("mixing-audit", help="sampled mixing-inequality sweep")
    p.add_argument("--input", required=True)
    p.add_argument("--pairs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_mixing_audit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # The commands with --input read their graph here, before they run.
        if "input" in args:
            with open(args.input, "r", encoding="utf-8") as fh:
                args.graph = parse_bbg(fh.read())
        _emit(args.func(args), args.out)
        return 0
    except AuditUnsound as exc:
        print(f"audit unsound: {exc}", file=sys.stderr)
        return 2
    except _USAGE_ERRORS as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
