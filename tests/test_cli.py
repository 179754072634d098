"""Command-line interface: subcommands, formats, exit codes."""

import json
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

from biregular import (
    BipartiteGraph,
    GraphProperty,
    complete_bipartite,
    even_cycle,
    heawood,
    parse_bbg,
    write_bbg,
)
from biregular.cli import main

from testutil import (
    CHILD_ENV,
    DISCONNECTED,
    K44_PENDANT,
    THREE_K44_BLOCKS,
    TWO_K33_BLOCKS,
    TWO_K44_BLOCKS,
    record_calls,
    small_corpus,
)


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "biregular", *args],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        **kwargs,
    )


@pytest.fixture
def c6_file(tmp_path):
    path = tmp_path / "c6.bbg"
    path.write_text(write_bbg(even_cycle(6)))
    return str(path)


def test_gen_complete(tmp_path):
    out = tmp_path / "k33.bbg"
    res = run_cli("gen", "complete", "--m", "3", "--n", "3", "--out", str(out))
    assert res.returncode == 0
    assert parse_bbg(out.read_text()) == complete_bipartite(3, 3)


def test_gen_random_deterministic(tmp_path):
    a, b = tmp_path / "a.bbg", tmp_path / "b.bbg"
    args = ("gen", "random", "--x", "6", "--y", "4", "--a", "2", "--b", "3", "--seed", "12")
    assert run_cli(*args, "--out", str(a)).returncode == 0
    assert run_cli(*args, "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_cycle_and_heawood(tmp_path):
    from biregular import even_cycle, heawood

    out = tmp_path / "g.bbg"
    assert run_cli("gen", "cycle", "--length", "8", "--out", str(out)).returncode == 0
    assert parse_bbg(out.read_text()) == even_cycle(8)
    assert run_cli("gen", "heawood", "--out", str(out)).returncode == 0
    assert parse_bbg(out.read_text()) == heawood()


def test_gen_random_requires_params():
    res = run_cli("gen", "random", "--x", "4")
    assert res.returncode == 1


def test_gen_random_retries_exhausted_exit_3():
    res = run_cli(
        "gen", "random", "--x", "3", "--y", "3", "--a", "3", "--b", "3",
        "--seed", "0", "--max-retries", "1",
    )
    assert res.returncode == 3
    assert res.stderr.startswith("error: no simple matching")


def test_gen_random_impossible_profiles_exit_1(capsys):
    # A broken degree equation is an InvalidParam like any other impossible
    # profile, not an oracle or solver failure.
    base = ["gen", "random", "--x", "3", "--y", "3", "--seed", "1"]
    assert main([*base, "--a", "2", "--b", "3"]) == 1
    assert capsys.readouterr().err == (
        "usage error: profile (x=3, y=3, a=2, b=3) violates a*x = b*y\n"
    )
    assert main([*base, "--a", "4", "--b", "4"]) == 1
    assert capsys.readouterr().err == (
        "usage error: profile (x=3, y=3, a=4, b=4) has a degree above the "
        "opposite part's size\n"
    )


def test_gen_random_zero_retries_exit_1(capsys):
    args = ["gen", "random", "--x", "4", "--y", "4", "--a", "2", "--b", "2"]
    assert main([*args, "--seed", "1", "--max-retries", "0"]) == 1
    assert "max_retries" in capsys.readouterr().err


def test_solver_failure_exit_3(monkeypatch, capsys, c6_file):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    assert main(["spectrum", "--input", c6_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "command",
    [
        "gen heawood",
        "spectrum",
        "certify --property edge-conn --k 2 --json",
        "verify --property edge-conn --json",
        "mixing-audit",
        "audit --grid 6,6,3,3 --trials 1 --k 2 --properties edge-conn",
    ],
)
def test_out_writes_the_bytes_stdout_gets(capsys, tmp_path, c6_file, command):
    # A command's text goes to stdout, with no --out or with --out -, or
    # else to the named file and nothing to stdout; the bytes are the same.
    args = command.split()
    if args[0] not in ("gen", "audit"):
        args += ["--input", c6_file]
    out = tmp_path / "out.txt"
    assert main(args) == 0
    plain = capsys.readouterr().out
    assert main([*args, "--out", "-"]) == 0
    dash = capsys.readouterr().out
    assert main([*args, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert plain != ""
    assert plain.encode() == dash.encode() == out.read_bytes()


def test_spectrum_json(c6_file):
    res = run_cli("spectrum", "--input", c6_file)
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["a"] == 2 and payload["b"] == 2
    assert payload["sigma"] == pytest.approx([2.0, 1.0, 1.0], abs=1e-9)
    assert payload["lambda2"] == pytest.approx(1.0, abs=1e-9)
    assert payload["gap"] == pytest.approx(1.0, abs=1e-9)


def test_certify_json(c6_file):
    res = run_cli(
        "certify", "--property", "edge-conn", "--k", "2",
        "--input", c6_file, "--json",
    )
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["verdict"] == "certified"
    assert payload["threshold"] == pytest.approx(1.5)


def test_certify_plain_text(c6_file):
    res = run_cli("certify", "--property", "ramanujan", "--input", c6_file)
    assert res.returncode == 0
    assert "certified" in res.stdout


def test_verify_json(c6_file):
    res = run_cli(
        "verify", "--property", "edge-conn", "--input", c6_file, "--json"
    )
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["value"] == 2
    assert payload["exact"] is True
    assert len(payload["witness"]["edges"]) == 2


def test_verify_plain_text(capsys, c6_file):
    assert main(["verify", "--property", "edge-conn", "--input", c6_file]) == 0
    captured = capsys.readouterr()
    assert captured.out == "edge-conn: value=2 exact=true\n"
    assert captured.err == ""


def test_verify_other_properties(tmp_path, c6_file):
    k33 = tmp_path / "k33.bbg"
    k33.write_text(write_bbg(complete_bipartite(3, 3)))
    k66 = tmp_path / "k66.bbg"
    k66.write_text(write_bbg(complete_bipartite(6, 6)))
    res = run_cli("verify", "--property", "vertex-conn", "--input", c6_file, "--json")
    assert json.loads(res.stdout)["value"] == 2
    res = run_cli("verify", "--property", "stp", "--k", "3", "--input", str(k66), "--json")
    assert json.loads(res.stdout)["value"] == 3
    res = run_cli("verify", "--property", "global-rigidity", "--input", str(k66), "--json")
    assert json.loads(res.stdout)["value"] == 1
    res = run_cli("verify", "--property", "rigid-packing", "--k", "1", "--input", str(k66), "--json")
    payload = json.loads(res.stdout)
    assert payload["value"] == 1
    assert len(payload["witness"]["subgraphs"][0]) == 21
    # a critical edge is a bare tuple, not a witness dataclass
    res = run_cli("verify", "--property", "global-rigidity", "--input", str(k33), "--json")
    payload = json.loads(res.stdout)
    assert payload["value"] == 0
    assert payload["witness"] == {"kind": "tuple", "value": "(0, 0)"}


@pytest.mark.parametrize("prop", ["rigid-packing", "stp"])
@pytest.mark.parametrize("k", ["0", "-2"])
def test_verify_rejects_k_below_one(capsys, tmp_path, prop, k):
    k66 = tmp_path / "k66.bbg"
    k66.write_text(write_bbg(complete_bipartite(6, 6)))
    for command in ("verify", "certify"):
        args = [command, "--property", prop, "--k", k, "--input", str(k66)]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"usage error: k must be a positive integer, got {int(k)}\n"
        )


@pytest.mark.parametrize("prop", [prop.value for prop in GraphProperty])
def test_certify_rejects_k_below_one_for_every_property(capsys, c6_file, prop):
    args = ["certify", "--property", prop, "--k", "0", "--input", c6_file]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: k must be a positive integer, got 0\n"


def test_verify_ramanujan_has_no_oracle(c6_file):
    res = run_cli("verify", "--property", "ramanujan", "--input", c6_file)
    assert res.returncode == 1


def test_audit_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    args = (
        "audit", "--seed", "7", "--trials", "2",
        "--grid", "6,4,2,3;8,8,4,4", "--k", "2", "--k", "3",
        "--properties", "edge-conn,stp",
    )
    assert run_cli(*args, "--out", str(out1)).returncode == 0
    assert run_cli(*args, "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "graph_id,a,b,x,y,lambda2,property,k,threshold,verdict,oracle,sound"


def test_audit_json_format(tmp_path):
    out = tmp_path / "r.json"
    res = run_cli(
        "audit", "--seed", "7", "--trials", "1", "--grid", "6,4,2,3",
        "--k", "2", "--properties", "edge-conn", "--format", "json",
        "--out", str(out),
    )
    assert res.returncode == 0
    records = json.loads(out.read_text())
    assert records and records[0]["property"] == "edge-conn"


def test_audit_dedups_repeated_k_and_properties(tmp_path):
    # The CLI drops repeats before AuditConfig, which rejects them.
    once, twice = tmp_path / "once.csv", tmp_path / "twice.csv"
    args = ("audit", "--seed", "7", "--trials", "1", "--grid", "6,4,2,3")
    res = run_cli(*args, "--k", "2", "--properties", "edge-conn", "--out", str(once))
    assert res.returncode == 0
    res = run_cli(
        *args, "--k", "2", "--k", "2", "--properties", "edge-conn,edge-conn",
        "--out", str(twice),
    )
    assert res.returncode == 0
    assert once.read_bytes() == twice.read_bytes()


def test_audit_bad_grid_exit_1():
    res = run_cli("audit", "--grid", "4,5,2,2", "--trials", "1")
    assert res.returncode == 1


@pytest.mark.parametrize(
    "grid, message",
    [
        ("6,6,3", "grid entry '6,6,3' is not x,y,a,b"),
        ("6,6,3,3,1;4,4,2,2", "grid entry '6,6,3,3,1' is not x,y,a,b"),
        (";", "empty grid"),
        (" ; ;", "empty grid"),
    ],
)
def test_audit_malformed_grid_is_usage_error(capsys, grid, message):
    assert main(["audit", "--grid", grid, "--trials", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {message}\n"


def test_audit_grid_skips_empty_entries(capsys):
    # A leading, trailing or doubled ';' adds no grid entry.
    args = ["audit", "--trials", "1", "--k", "2", "--properties", "edge-conn"]
    outputs = []
    for grid in ("6,6,3,3", "6,6,3,3;", ";6,6,3,3;;"):
        assert main([*args, "--grid", grid]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0].count("\n") == 2
    assert outputs == [outputs[0]] * 3


def test_audit_unsound_exits_2(capsys, monkeypatch):
    import biregular.audit as audit_mod

    # a lying oracle, as in test_audit.py::test_unsound_oracle_aborts
    monkeypatch.setattr(
        audit_mod, "edge_connectivity", lambda g: type("R", (), {"value": 0})()
    )
    args = ["audit", "--grid", "6,6,3,3", "--trials", "1", "--k", "2"]
    assert main([*args, "--properties", "edge-conn"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("audit unsound: unsound record ")


@pytest.mark.parametrize(
    "names, bad", [("nope", "nope"), ("edge-conn,,stp", "")]
)
def test_audit_unknown_property_is_usage_error(names, bad):
    res = run_cli("audit", "--properties", names, "--trials", "1")
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == f"usage error: unknown property {bad!r}\n"
    assert "Traceback" not in res.stderr


def test_audit_impossible_grid_entry_exits_before_sampling(capsys, monkeypatch):
    import biregular.audit as audit_mod

    calls = record_calls(monkeypatch, audit_mod, "random_biregular_trials")
    assert main(["audit", "--grid", "4,4,2,2;0,0,1,1"]) == 1
    assert calls == []
    assert capsys.readouterr().err == (
        "usage error: grid entry (x=0, y=0, a=1, b=1) has a size or degree "
        "below 1\n"
    )
    # The spy sees the sampling of a grid that passes.
    assert main(["audit", "--grid", "4,4,2,2", "--trials", "1"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("entry", ["6,4,2,+3", "6,4,2,\u0663", "6,4,2,0_3"])
def test_audit_grid_integers_are_ascii_digits(capsys, entry):
    assert main(["audit", "--grid", entry, "--trials", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"usage error: grid entry {entry!r} holds a non-integer\n"
    )


def test_mixing_audit_cli(c6_file):
    res = run_cli("mixing-audit", "--input", c6_file, "--pairs", "200", "--seed", "3")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["violations"] == 0


def test_usage_errors_exit_1(tmp_path, capsys, c6_file):
    assert run_cli("certify", "--property", "nope", "--input", c6_file).returncode == 1
    # A file that cannot be read or written is a usage error on one line,
    # with no traceback: a missing file, a directory given as --input or
    # --out, and --input bytes that are not UTF-8.
    res = run_cli("spectrum", "--input", str(tmp_path / "missing.bbg"))
    assert res.returncode == 1
    assert res.stderr.startswith("usage error: ") and "Traceback" not in res.stderr
    binary = tmp_path / "binary.bbg"
    binary.write_bytes(b"\xff\xfe 2 2\n")
    # So is a part above 2**20 vertices, in a file or a sampler profile,
    # refused before anything is built for it.
    huge = tmp_path / "huge.bbg"
    huge.write_text("bbg 1\nparts 1048577 1\nedges 0\n")
    profile = "--x 1048577 --y 1 --a 1 --b 1048577 --seed 1".split()
    # And so is a graph above 2**24 cells where a command would build a
    # dense x-by-y array: the SVD's matrix, the mixing audit's count matrix
    # or the edges of a complete bipartite graph.
    matching = tmp_path / "matching.bbg"
    matching.write_text(write_bbg(BipartiteGraph(4097, 4097, [(i, i) for i in range(4097)])))
    cells = "4097 x 4097 = 16785409 cells is above the bound 16777216"
    for args, message in (
        (["spectrum", "--input", str(matching)], cells),
        (["mixing-audit", "--input", str(matching), "--pairs", "10"], cells),
        (["gen", "complete", "--m", "4097", "--n", "4096"], "16781312 cells is above"),
        (["spectrum", "--input", str(tmp_path)], "Is a directory"),
        (["spectrum", "--input", c6_file, "--out", str(tmp_path)], "Is a directory"),
        (["gen", "cycle", "--out", str(tmp_path)], "Is a directory"),
        (["spectrum", "--input", str(binary)], "can't decode byte 0xff"),
        (["spectrum", "--input", str(huge)], "part size 1048577 is above the bound 1048576"),
        (["gen", "random", *profile], "has a part size above the bound 1048576"),
    ):
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and message in err
        assert err.count("\n") == 1
    bad = tmp_path / "bad.bbg"
    bad.write_text("bogus\n")
    assert run_cli("spectrum", "--input", str(bad)).returncode == 1
    # A path on 2 + 2 vertices and an edgeless graph are bad input, not
    # oracle or solver failures.
    for g, message in (
        (BipartiteGraph(2, 2, ((0, 0), (1, 0), (1, 1))), "has degree"),
        (BipartiteGraph(2, 2, ()), "graph has no edges"),
    ):
        bad.write_text(write_bbg(g))
        for cmd in ("spectrum", "certify --property edge-conn", "mixing-audit"):
            assert main([*cmd.split(), "--input", str(bad)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error: ") and message in err
    # A graph below an oracle's least size is bad input too.
    for g, prop, message in (
        (complete_bipartite(1, 1), "vertex-conn", "vertex connectivity needs at least 3 vertices"),
        (complete_bipartite(1, 2), "global-rigidity", "global rigidity oracle needs at least 4 vertices"),
    ):
        bad.write_text(write_bbg(g))
        assert main(["verify", "--property", prop, "--input", str(bad)]) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"


def _verify_json_transcript(tmp_path, capsys):
    """Every oracle's ``verify --json`` run on a fixed set of graphs, with k
    omitted and k = 2, as one text: a header line per run giving the graph,
    property, k and exit code, then its stdout and stderr."""
    graphs = {
        "heawood": heawood(),
        "c6": even_cycle(6),
        "k33": complete_bipartite(3, 3),
        "k66": complete_bipartite(6, 6),
        "k1212": complete_bipartite(12, 12),
        "disconnected": DISCONNECTED,
        "two_k33_blocks": TWO_K33_BLOCKS,
        "two_k44_blocks": TWO_K44_BLOCKS,
        "three_k44_blocks": THREE_K44_BLOCKS,
        "k44_pendant": K44_PENDANT,
    }
    graphs.update(
        (f"small_corpus[{i}]", g) for i, g in enumerate(small_corpus())
    )
    props = [p.value for p in GraphProperty if p is not GraphProperty.RAMANUJAN]
    path = tmp_path / "g.bbg"
    parts = []
    for name, g in graphs.items():
        path.write_text(write_bbg(g))
        for prop in props:
            for k in (None, 2):
                args = ["verify", "--property", prop, "--input", str(path)]
                args += ["--json"] if k is None else ["--k", str(k), "--json"]
                code = main(args)
                captured = capsys.readouterr()
                parts.append(f"# {name} {prop} k={k} exit={code}\n")
                parts.append(captured.out + captured.err)
    return "".join(parts)


def test_verify_json_matches_golden(tmp_path, capsys):
    # Pins every oracle's value, exactness and witness bytes as the CLI
    # prints them.
    golden = Path(__file__).with_name("golden") / "verify_json.txt"
    got = _verify_json_transcript(tmp_path, capsys)
    assert got == golden.read_text(encoding="utf-8")
