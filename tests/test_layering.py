"""Layering rules: which code may import or name what.

The name rules read Python tokens rather than grepping text, so that
docstrings and comments may name what the code must not.
"""

import ast
import re
import tokenize

from testutil import ROOT


def _files(root, pattern="*.py"):
    return sorted(p for p in (ROOT / root).rglob(pattern) if p.is_file())


def _names(path):
    """(line, name, follows_def) for each NAME token of a Python file;
    follows_def is True where the name comes right after def or class."""
    with tokenize.open(path) as source:
        previous = None
        for tok in tokenize.generate_tokens(source.readline):
            if tok.type == tokenize.NAME:
                yield tok.start[0], tok.string, previous in ("def", "class")
                previous = tok.string
            elif tok.type not in (tokenize.NL, tokenize.COMMENT):
                previous = None


def _uses(paths, names):
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in paths
        for line, name, _ in _names(path)
        if name in names
    ]


def _grep(paths, pattern):
    rule = re.compile(pattern)
    return [
        f"{path.relative_to(ROOT)}:{number}: {line}"
        for path in paths
        if "__pycache__" not in path.parts
        for number, line in enumerate(
            path.read_text(encoding="utf-8", errors="replace").splitlines(), 1
        )
        if rule.search(line)
    ]


def test_test_modules_share_helpers_only_through_testutil():
    # No test module imports another, and only tests import the test
    # references testutil and partition_oracles.
    assert _grep(_files("tests", "*"), r"^(from|import) test_") == []
    outside = [p for root in ("src", "bench", "demos") for p in _files(root, "*")]
    assert _grep(outside, r"^\s*(from|import) (testutil|partition_oracles)\b") == []


def test_stream_layout_stays_in_prng():
    # Read the stream through prng's block readers, not GAMMA, accept_max
    # or SplitMix64.
    allowed = {ROOT / "src/biregular/prng.py", ROOT / "src/biregular/__init__.py"}
    paths = [p for p in _files("src") if p not in allowed]
    assert _uses(paths, {"GAMMA", "accept_max", "SplitMix64"}) == []


def test_audit_defaults_stay_in_audit():
    # AuditConfig holds the default trials, grid, k values and properties;
    # every other module, the CLI included, passes only what it was given.
    allowed = ROOT / "src/biregular/audit.py"
    paths = [
        p for root in ("src", "bench", "demos", "tests") for p in _files(root)
        if p != allowed
    ]
    names = {
        "DEFAULT_TRIALS", "DEFAULT_SIZE_GRID", "DEFAULT_K_GRID",
        "DEFAULT_PROPERTIES",
    }
    assert _uses(paths, names) == []


def test_io_stays_in_the_cli():
    # Under src/, only cli.py opens a file or names a standard stream: the
    # CLI reads --input and writes --out, and every other module takes and
    # returns values.
    allowed = ROOT / "src/biregular/cli.py"
    paths = [p for p in _files("src") if p != allowed]
    assert _uses(paths, {"open", "print", "stdout", "stderr", "stdin"}) == []


def test_edge_arrays_stay_in_graphs():
    # Under src/, only graphs.py builds numpy arrays from g.edges (in
    # edge_ends); the other modules read its arrays.
    allowed = ROOT / "src/biregular/graphs.py"
    paths = [p for p in _files("src") if p != allowed]
    assert _uses(paths, {"fromiter"}) == []


def test_oracles_name_no_property_or_verdict():
    # The property table in audit.py pairs each property with its oracle;
    # an oracle returns a value, a witness and exactness only.
    assert _uses(_files("src/biregular/oracles"), {"GraphProperty", "Verdict"}) == []


def test_oracles_import_nothing_they_check():
    # The oracles are the exact references that certificates and the audit
    # are checked against, so no module under oracles/ imports spectral,
    # certify, audit, bbg or cli: they read errors, graphs, prng and each
    # other. Relative and absolute imports both name the module.
    banned = {"spectral", "certify", "audit", "bbg", "cli"}
    found = []
    for path in _files("src/biregular/oracles"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [f"{node.module or ''}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [
                f"{path.relative_to(ROOT)}:{node.lineno}: {module}"
                for module in modules
                if banned & set(module.split("."))
            ]
    assert found == []


def test_every_exported_name_is_read_outside_the_tests():
    # A name in biregular.__all__ or biregular.oracles.__all__ needs a NAME
    # token in src/, bench/ or demos/ other than its own def or class line;
    # the two __init__.py files that export it do not count.
    inits = [ROOT / "src/biregular/__init__.py", ROOT / "src/biregular/oracles/__init__.py"]
    exported = set()
    for init in inits:
        for node in ast.parse(init.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported.update(ast.literal_eval(node.value))
    read = {
        name
        for root in ("src", "bench", "demos")
        for path in _files(root)
        if path not in inits
        for _, name, follows_def in _names(path)
        if not follows_def
    }
    assert sorted(exported - read) == []


def test_dataclasses_reach_json_only_through_asdict():
    # Nothing under src/ defines to_dict: a dataclass becomes a dict through
    # dataclasses.asdict alone, so its fields are its JSON keys, in order.
    defined = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in _files("src")
        for line, name, follows_def in _names(path)
        if follows_def and name == "to_dict"
    ]
    assert defined == []
