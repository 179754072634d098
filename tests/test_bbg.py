"""bbg text format: round trips and malformed input handling."""

import re

import pytest

from biregular import complete_bipartite, heawood, parse_bbg, random_biregular, write_bbg
from biregular.bbg import is_int_token
from biregular.errors import DuplicateEdge, IndexOutOfRange, InvalidParam, ParseError
from biregular.prng import SplitMix64
from testutil import small_corpus


def test_round_trip_k23():
    g = complete_bipartite(2, 3)
    assert parse_bbg(write_bbg(g)) == g


def test_round_trip_heawood_and_random():
    for g in (heawood(), random_biregular(6, 4, 2, 3, seed=3)):
        assert parse_bbg(write_bbg(g)) == g


def test_writer_emits_sorted_edges_lf():
    g = complete_bipartite(2, 2)
    text = write_bbg(g)
    assert text == "bbg 1\nparts 2 2\nedges 4\ne 0 0\ne 0 1\ne 1 0\ne 1 1\n"


def test_comments_and_blank_lines_ignored():
    text = "# a comment\nbbg 1\n\nparts 2 2\nedges 1\n# another\ne 1 1\n"
    g = parse_bbg(text)
    assert g.edges == ((1, 1),)


def test_header_errors():
    # The header is compared by fields: a third field, a padded version or
    # a missing one is refused.
    for header in ("bbg 2", "parts 1 1", "bbg 1 x", "bbg 01", "bbg"):
        with pytest.raises(ParseError) as info:
            parse_bbg(f"{header}\nparts 1 1\nedges 0\n")
        assert str(info.value) == f"line 1: expected 'bbg 1', got {header!r}"


def test_edge_count_mismatch():
    base = "bbg 1\nparts 3 3\nedges 9\n" + "".join(
        f"e {i} {j}\n" for i in range(3) for j in range(3)
    )
    short = "\n".join(base.splitlines()[:-1]) + "\n"
    with pytest.raises(ParseError):
        parse_bbg(short)


@pytest.mark.parametrize(
    "text, line",
    [
        ("bbg 1\nparts 2 2\nedges 1\n", 4),
        ("bbg 1\nparts 2 2\nedges 1", 4),
        ("bbg 1\nparts 2 2\nedges 1\n# a comment\n\n", 6),
        ("", 1),
    ],
)
def test_truncated_input_names_the_line_past_the_end(text, line):
    with pytest.raises(
        ParseError, match=f"^line {line}: unexpected end of input, expected "
    ) as info:
        parse_bbg(text)
    assert info.value.line == line


@pytest.mark.parametrize(
    "text, message",
    [
        ("bbg 1\nparts 2\nedges 0\n", "line 2: expected 'parts <x> <y>', got 'parts 2'"),
        ("bbg 1\n# c\npart 2 2\n", "line 3: expected 'parts <x> <y>', got 'part 2 2'"),
        ("bbg 1\nparts 0 2\nedges 0\n", "line 2: part sizes must be positive"),
        ("bbg 1\nparts 2 -1\nedges 0\n", "line 2: part sizes must be positive"),
        ("bbg 1\nparts 2 2\nedge 0\n", "line 3: expected 'edges <count>', got 'edge 0'"),
        ("bbg 1\nparts 2 2\nedges 1 2\n", "line 3: expected 'edges <count>', got 'edges 1 2'"),
        ("bbg 1\nparts 2 2\nedges -1\n", "line 3: edge count must be nonnegative"),
        ("bbg 1\nparts 2 2\nedges 1\nf 0 0\n", "line 4: expected 'e <xi> <yj>', got 'f 0 0'"),
        ("bbg 1\nparts 2 2\nedges 1\n\ne 0\n", "line 5: expected 'e <xi> <yj>', got 'e 0'"),
        # Counts past sys.maxsize still read as too few lines.
        (
            f"bbg 1\nparts 1 1\nedges {2**63}\n",
            f"line 4: unexpected end of input, expected {2**63} edge lines",
        ),
        (
            f"bbg 1\nparts 1 1\nedges {2**64}\ne 0 0\n",
            f"line 5: unexpected end of input, expected {2**64} edge lines",
        ),
    ],
)
def test_malformed_lines_name_the_line_and_the_rule(text, message):
    with pytest.raises(ParseError) as info:
        parse_bbg(text)
    assert str(info.value) == message


def test_extra_edge_line_is_error():
    text = "bbg 1\nparts 2 2\nedges 1\ne 0 0\ne 1 1\n"
    with pytest.raises(ParseError):
        parse_bbg(text)


def test_index_out_of_range():
    with pytest.raises(
        IndexOutOfRange, match=re.escape("line 4: x index 5 outside [0, 3)")
    ):
        parse_bbg("bbg 1\nparts 3 3\nedges 1\ne 5 0\n")
    with pytest.raises(
        IndexOutOfRange, match=re.escape("line 5: y index 3 outside [0, 3)")
    ):
        parse_bbg("bbg 1\nparts 3 3\nedges 1\n\ne 0 3\n")


def test_part_above_the_bound():
    # Refused before the graph builds a list per vertex.
    with pytest.raises(
        InvalidParam, match=re.escape("part size 1048577 is above the bound 1048576")
    ):
        parse_bbg("bbg 1\nparts 1 1048577\nedges 0\n")


def test_duplicate_edge():
    with pytest.raises(
        DuplicateEdge, match=re.escape("line 5: edge (0, 0) repeated")
    ):
        parse_bbg("bbg 1\nparts 2 2\nedges 2\ne 0 0\ne 0 0\n")


def test_unknown_line_is_error():
    with pytest.raises(ParseError):
        parse_bbg("bbg 1\nparts 2 2\nedges 0\nweight 3\n")


def test_non_integer_field():
    with pytest.raises(ParseError, match="line 2: expected integer, got 'two'"):
        parse_bbg("bbg 1\nparts two 2\nedges 0\n")
    with pytest.raises(ParseError, match="line 4: expected integer, got 'x'"):
        parse_bbg("bbg 1\nparts 2 2\nedges 1\ne 0 x\n")
    with pytest.raises(ParseError, match="line 4: expected integer, got '0x'"):
        parse_bbg("bbg 1\nparts 2 2\nedges 1\ne 0x 0\n")


def test_integer_tokens_hold_at_most_640_characters():
    # int() reads 640 digits under every limit Python lets a user set.
    assert is_int_token("9" * 640) and is_int_token("-" + "9" * 639)
    assert not is_int_token("9" * 641) and not is_int_token("-" + "9" * 640)
    with pytest.raises(ParseError, match="^line 4: expected integer, got '9{641}'$"):
        parse_bbg("bbg 1\nparts 2 2\nedges 1\ne " + "9" * 641 + " 0\n")


def test_integers_are_ascii_digits():
    # int() would read this as a 10 x 3 graph with the edge (0, 2).
    with pytest.raises(ParseError) as info:
        parse_bbg("bbg 1\nparts 1_0 \u0663\nedges 1\ne +0 0_2\n")
    assert str(info.value) == "line 2: expected integer, got '1_0'"
    # Each bad token is named, as y or as x, and x first when both are bad.
    for field in ("+1", "0_1", "\u0661", "1.0", "-", "--1"):
        for edge in (f"0 {field}", f"{field} 0", f"{field} x"):
            with pytest.raises(ParseError) as info:
                parse_bbg(f"bbg 1\nparts 2 2\nedges 2\ne 1 1\n\ne {edge}\n")
            assert str(info.value) == f"line 6: expected integer, got {field!r}"
    with pytest.raises(IndexOutOfRange):
        parse_bbg("bbg 1\nparts 2 2\nedges 1\ne -1 0\n")


def test_edge_lines_split_on_any_whitespace():
    g = parse_bbg("bbg 1\nparts 2 3\nedges 3\ne 0 2\ne 1 0\ne 1 1\n")
    for edges in (
        "e\t0\t2\ne 1\t 0\ne  1   1\n",
        "e 0 2\r\ne 1 0\r\ne 1 1\r\n",
        "\t e 0 2 \r\n  e\t1 0\ne 1  1\t\r\n",
    ):
        assert parse_bbg(f"bbg 1\nparts 2 3\nedges 3\n{edges}") == g


def _pick(rng, options):
    return options[rng.below(len(options))]


def test_every_line_reads_with_any_spacing():
    # Each written line, the header too, is rewritten with tabs or runs of
    # spaces between its fields, leading and trailing blanks and CRLF, and
    # comments and blank lines go in between; the graph reads back as it was.
    rng = SplitMix64(35)
    for g in small_corpus():
        out = []
        for line in write_bbg(g).splitlines():
            out += [_pick(rng, ("", " \t", "# bbg 2", "\t# e 0 0"))] * rng.below(2)
            text = "".join(f + _pick(rng, ("\t", "  ", " \t ")) for f in line.split())
            out.append(_pick(rng, ("", " ", "\t")) + text + _pick(rng, ("", "\r")))
        assert parse_bbg("\n".join(out)) == g


_MUTATION_TOKENS = ("bbg", "parts", "edges", "e", "#", "-", "+1", "x", "01", "\t", "")


def _mutate(rng, lines):
    """One to three seeded edits of ``lines``: the text truncated, a line
    deleted, repeated or appended, or a field replaced or inserted, with a
    token or a number in [-1, 10^4]."""
    lines = list(lines)
    for _ in range(1 + rng.below(3)):
        i = rng.below(len(lines) + 1) if lines else 0
        op = rng.below(6)
        if op == 0:
            lines = lines[:i]
        elif i == len(lines):
            lines.append(_pick(rng, _MUTATION_TOKENS))
        elif op == 1:
            del lines[i]
        elif op == 2:
            lines.insert(i, lines[i])
        else:
            fields = lines[i].split(" ")
            value = _pick(rng, (*_MUTATION_TOKENS, str(rng.below(10**4 + 2) - 1)))
            j = rng.below(len(fields))
            if op == 3:
                fields.insert(j, value)
            else:
                fields[j] = value
            lines[i] = " ".join(fields)
    return "\n".join(lines)


def test_mutated_texts_parse_or_raise_an_input_error():
    # Whatever the edit, the reader gives a graph or one of its three input
    # errors, and nothing else escapes. Numbers stay at most 10^4: the graph
    # holds one list per vertex, so a huge part size costs its memory.
    rng = SplitMix64(2026)
    bases = [write_bbg(g).splitlines() for g in small_corpus()]
    outcomes = set()
    for _ in range(3000):
        try:
            parse_bbg(_mutate(rng, _pick(rng, bases)))
            outcomes.add("graph")
        except (ParseError, IndexOutOfRange, DuplicateEdge) as exc:
            outcomes.add(type(exc).__name__)
    assert outcomes == {"graph", "ParseError", "IndexOutOfRange", "DuplicateEdge"}
