"""Command-line front end.

Subcommands: gen, spectrum, certify, verify, audit, mixing-audit.
Exit codes: 0 success, 1 usage error or any other InvalidParam (an
impossible profile included), 2 unsound audit, 3 oracle or solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, is_dataclass

from . import __version__
from .audit import (
    DEFAULT_K_GRID,
    DEFAULT_PROPERTIES,
    PROPERTIES,
    AuditConfig,
    audit_random,
    default_size_grid,
    report_emit,
)
from .bbg import is_int_token, parse_bbg, write_bbg
from .errors import AuditUnsound, Error, InvalidParam, UsageError, check_k
from .graphs import complete_bipartite, even_cycle, heawood, random_biregular
from .properties import GraphProperty
from .spectral import mixing_audit, singular_values, validate_biregular

_USAGE_ERRORS = (InvalidParam, FileNotFoundError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_graph(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_bbg(fh.read())


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
    _emit(write_bbg(g), args.out)
    return 0


def _cmd_spectrum(args):
    g = _load_graph(args.input)
    profile = validate_biregular(g)
    spectrum = singular_values(g)
    payload = {
        "a": profile.a,
        "b": profile.b,
        "sigma": list(spectrum.sigma),
        "lambda2": spectrum.lambda2,
        "gap": spectrum.gap,
    }
    _emit(json.dumps(payload) + "\n", args.out)
    return 0


def _cmd_certify(args):
    g = _load_graph(args.input)
    prop = GraphProperty(args.property)
    cert = PROPERTIES[prop].certify(g, check_k(args.k))
    if args.json:
        _emit(json.dumps(cert.to_dict()) + "\n", args.out)
    else:
        _emit(
            f"{prop.value} k={cert.k}: {cert.verdict.value} "
            f"(lambda2={cert.lambda2:.12g}, threshold="
            f"{'n/a' if cert.threshold is None else format(cert.threshold, '.12g')})\n",
            args.out,
        )
    return 0


def _cmd_verify(args):
    g = _load_graph(args.input)
    prop = GraphProperty(args.property)
    oracle = PROPERTIES[prop].oracle
    if oracle is None:
        raise UsageError(f"no exact oracle for {prop.value!r}")
    res = oracle(g, None if args.k is None else check_k(args.k))
    if args.json:
        payload = {
            "property": res.property.value,
            "value": res.value,
            "exact": res.exact,
            "witness": _witness_json(res.witness),
        }
        _emit(json.dumps(payload) + "\n", args.out)
    else:
        _emit(
            f"{prop.value}: value={res.value} exact={str(res.exact).lower()}\n",
            args.out,
        )
    return 0


def _parse_grid(text):
    grid = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 4:
            raise UsageError(f"grid entry {chunk!r} is not x,y,a,b")
        if not all(is_int_token(p) for p in parts):
            raise UsageError(f"grid entry {chunk!r} holds a non-integer")
        grid.append(tuple(int(p) for p in parts))
    if not grid:
        raise UsageError("empty grid")
    return tuple(grid)


def _cmd_audit(args):
    grid = _parse_grid(args.grid) if args.grid else default_size_grid()
    k_grid = tuple(sorted(set(args.k))) if args.k else DEFAULT_K_GRID
    if args.properties:
        props = tuple(
            sorted(
                {GraphProperty(p.strip()) for p in args.properties.split(",")},
                key=lambda p: p.value,
            )
        )
    else:
        props = DEFAULT_PROPERTIES
    cfg = AuditConfig(
        trials=args.trials,
        size_grid=grid,
        k_grid=k_grid,
        properties=props,
        seed=args.seed,
    )
    records = audit_random(cfg)
    _emit(report_emit(records, args.format), args.out)
    return 0


def _cmd_mixing_audit(args):
    g = _load_graph(args.input)
    report = mixing_audit(g, args.pairs, args.seed)
    _emit(json.dumps(asdict(report)) + "\n", args.out)
    return 0


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
    p.add_argument("--max-retries", type=int, default=10000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("spectrum", help="singular values and spectral gap")
    p.add_argument("--input", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_spectrum)

    choices = [prop.value for prop in GraphProperty]
    p = sub.add_parser("certify", help="evaluate a spectral certificate")
    p.add_argument("--property", required=True, choices=choices)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--input", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("verify", help="run the exact oracle")
    p.add_argument("--property", required=True, choices=choices)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--input", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("audit", help="randomized certificate/oracle audit")
    p.add_argument("--seed", type=int, default=0x5EED_B1A5)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--grid", default=None, help="x,y,a,b[;x,y,a,b...]")
    p.add_argument("--k", type=int, action="append", default=None)
    p.add_argument("--properties", default=None, help="comma-separated names")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("mixing-audit", help="sampled mixing-inequality sweep")
    p.add_argument("--input", required=True)
    p.add_argument("--pairs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0x5EED_B1A5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_mixing_audit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except AuditUnsound as exc:
        print(f"audit unsound: {exc}", file=sys.stderr)
        return 2
    except _USAGE_ERRORS as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
