"""Plain-text graph serialization: the bbg format.

UTF-8, LF line endings::

    bbg 1
    parts <x_count> <y_count>
    edges <edge_count>
    e <xi> <yj>          (exactly edge_count lines, 0-based indices)

Numbers are ASCII digits with an optional leading ``-``. Whole-line
comments starting with ``#`` and blank lines are ignored anywhere; any
other unrecognized line is an error; tabs, runs of spaces and CRLF
endings read as single spaces and LF. The writer emits edges sorted
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
    lines = text.split("\n")
    content = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            content.append((lineno, line))
    end = len(lines) + (lines[-1] != "")  # the line past the last one

    def at(i, what):
        """Content line i as (lineno, line); past the end, the end-of-input
        error that names ``what``."""
        if i < len(content):
            return content[i]
        raise ParseError(end, f"unexpected end of input, expected {what}")

    def header(i, shape):
        """The integers of content line i, which must read as ``shape``."""
        lineno, line = at(i, f"'{shape}'")
        fields, words = line.split(), shape.split()
        if len(fields) != len(words) or fields[0] != words[0]:
            raise ParseError(lineno, f"expected '{shape}', got {line!r}")
        return lineno, _ints(lineno, fields[1:])

    lineno, line = at(0, "header 'bbg 1'")
    if line.split() != ["bbg", "1"]:
        raise ParseError(lineno, f"expected 'bbg 1', got {line!r}")
    lineno, (x_count, y_count) = header(1, "parts <x> <y>")
    if x_count < 1 or y_count < 1:
        raise ParseError(lineno, "part sizes must be positive")
    lineno, (edge_count,) = header(2, "edges <count>")
    if edge_count < 0:
        raise ParseError(lineno, "edge count must be nonnegative")

    body = content[3 : 3 + edge_count]
    edges = []
    for lineno, line in body:
        fields = line.split()
        if len(fields) != 3 or fields[0] != "e":
            raise ParseError(lineno, f"expected 'e <xi> <yj>', got {line!r}")
        _, xs, ys = fields
        if not (is_int_token(xs) and is_int_token(ys)):
            raise _not_int(lineno, fields[1:])
        edges.append((int(xs), int(ys)))
    if len(body) < edge_count:
        at(len(content), f"{edge_count} edge lines")  # raises: the lines ran out
    if len(content) > 3 + edge_count:
        lineno, line = content[3 + edge_count]
        raise ParseError(lineno, f"unexpected line {line!r}")
    # The graph checks ranges and repeats; the parser adds the line number.
    try:
        return BipartiteGraph(x_count, y_count, tuple(edges))
    except (IndexOutOfRange, DuplicateEdge) as exc:
        raise type(exc)(
            f"line {body[exc.position][0]}: {exc}", exc.position
        ) from None


def _ints(lineno, fields):
    if not all(map(is_int_token, fields)):
        raise _not_int(lineno, fields)
    return tuple(map(int, fields))


def _not_int(lineno, fields):
    bad = next(f for f in fields if not is_int_token(f))
    return ParseError(lineno, f"expected integer, got {bad!r}")


# The longest number token: int() reads 640 digits from a string under
# every limit Python lets a user set (its string-conversion threshold), and
# a number of more digits is past every bound the program checks.
MAX_INT_TOKEN = 640


def is_int_token(text: str) -> bool:
    """True for ASCII digits with an optional leading ``-``, at most
    MAX_INT_TOKEN characters in all; int() alone would also take '+', '_'
    separators and non-ASCII digits, and raise ValueError past its digit
    limit."""
    digits = text.removeprefix("-")
    return len(text) <= MAX_INT_TOKEN and text.isascii() and digits.isdigit()
