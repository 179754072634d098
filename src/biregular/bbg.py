"""Plain-text graph serialization: the bbg format.

UTF-8, LF line endings::

    bbg 1
    parts <x_count> <y_count>
    edges <edge_count>
    e <xi> <yj>          (exactly edge_count lines, 0-based indices)

Numbers are ASCII digits with an optional leading ``-``. Whole-line
comments starting with ``#`` and blank lines are ignored anywhere; any
other unrecognized line is an error. The writer emits edges sorted
lexicographically, so write/parse round trips are exact.
"""

from __future__ import annotations

from .errors import DuplicateEdge, IndexOutOfRange, ParseError
from .graphs import BipartiteGraph


def write_bbg(g: BipartiteGraph) -> str:
    lines = [
        "bbg 1",
        f"parts {g.x_count} {g.y_count}",
        f"edges {g.m}",
    ]
    lines.extend(f"e {xi} {yj}" for xi, yj in g.edges)
    return "\n".join(lines) + "\n"


def parse_bbg(text: str) -> BipartiteGraph:
    content = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        content.append((lineno, line))

    it = iter(content)

    def expect(what):
        try:
            return next(it)
        except StopIteration:
            raise ParseError(0, f"unexpected end of input, expected {what}")

    lineno, line = expect("header 'bbg 1'")
    if line != "bbg 1":
        raise ParseError(lineno, f"expected 'bbg 1', got {line!r}")

    lineno, line = expect("'parts <x> <y>'")
    fields = line.split()
    if len(fields) != 3 or fields[0] != "parts":
        raise ParseError(lineno, f"expected 'parts <x> <y>', got {line!r}")
    x_count, y_count = _ints(lineno, fields[1:])
    if x_count < 1 or y_count < 1:
        raise ParseError(lineno, "part sizes must be positive")

    lineno, line = expect("'edges <count>'")
    fields = line.split()
    if len(fields) != 2 or fields[0] != "edges":
        raise ParseError(lineno, f"expected 'edges <count>', got {line!r}")
    (edge_count,) = _ints(lineno, fields[1:])
    if edge_count < 0:
        raise ParseError(lineno, "edge count must be nonnegative")

    edges = []
    seen = set()
    for _ in range(edge_count):
        lineno, line = expect(f"{edge_count} edge lines")
        fields = line.split()
        if len(fields) != 3 or fields[0] != "e":
            raise ParseError(lineno, f"expected 'e <xi> <yj>', got {line!r}")
        xi, yj = _ints(lineno, fields[1:])
        if not 0 <= xi < x_count:
            raise IndexOutOfRange(
                f"line {lineno}: x index {xi} outside [0, {x_count})"
            )
        if not 0 <= yj < y_count:
            raise IndexOutOfRange(
                f"line {lineno}: y index {yj} outside [0, {y_count})"
            )
        if (xi, yj) in seen:
            raise DuplicateEdge(f"line {lineno}: edge ({xi}, {yj}) repeated")
        seen.add((xi, yj))
        edges.append((xi, yj))

    leftover = next(it, None)
    if leftover is not None:
        raise ParseError(leftover[0], f"unexpected line {leftover[1]!r}")
    return BipartiteGraph(x_count, y_count, tuple(edges))


def _ints(lineno, fields):
    out = []
    for f in fields:
        if not is_int_token(f):
            raise ParseError(lineno, f"expected integer, got {f!r}")
        out.append(int(f))
    return tuple(out)


def is_int_token(text: str) -> bool:
    """True for ASCII digits with an optional leading ``-``; int() alone
    would also take '+', '_' separators and non-ASCII digits."""
    return text.isascii() and text.removeprefix("-").isdigit()
