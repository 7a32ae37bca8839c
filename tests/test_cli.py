import errno
import io
import json
import sys

import pytest

from pathgraph import cli
from pathgraph.cli import main
from pathgraph.generate import gen_chordal, gen_path_graph, k4_hub
from pathgraph.io import emit_edgelist, parse_edgelist, parse_graph6, realization_doc
from pathgraph.realize import (
    HostRealization,
    clique_path_tree_to_host,
    realize,
    verify_realization,
)
from pathgraph.graphs import MAX_VERTICES, Graph, graph_plus

from conftest import make_worked8
from make_certify_golden import _union

C4_TEXT = "p 4\n0 1\n1 2\n2 3\n0 3\n"


@pytest.fixture
def worked8_file(tmp_path):
    p = tmp_path / "worked8.txt"
    p.write_text(emit_edgelist(make_worked8()))
    return str(p)


@pytest.fixture
def k4hub_file(tmp_path):
    p = tmp_path / "k4hub.txt"
    p.write_text(emit_edgelist(k4_hub()))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_recognize_accept(capsys, worked8_file):
    code, out, _ = run(capsys, "recognize", worked8_file)
    assert code == 0
    assert "chordal: yes" in out
    assert "path graph: yes" in out
    assert "directed path graph: no" in out


def test_recognize_reject(capsys, k4hub_file):
    code, out, _ = run(capsys, "recognize", k4hub_file)
    assert code == 1
    assert "path graph: no" in out


def test_recognize_hole(capsys, tmp_path):
    p = tmp_path / "c4.txt"
    p.write_text(C4_TEXT)
    code, out, _ = run(capsys, "recognize", str(p))
    assert code == 1
    assert "chordal: no" in out
    assert "hole: 0 1 2 3" in out


def test_recognize_json_and_quiet(capsys, worked8_file):
    code, out, _ = run(capsys, "recognize", "--json", worked8_file)
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "chordal": True,
        "hole": None,
        "path_graph": True,
        "directed_path_graph": False,
    }
    code, out, _ = run(capsys, "recognize", "--quiet", worked8_file)
    assert (code, out) == (0, "")


def test_recognize_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(emit_edgelist(make_worked8())))
    code, out, _ = run(capsys, "recognize")
    assert code == 0


NOT_UTF8 = b"p 3\n0 1\n\xff 2\n"


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_undecodable_input_is_an_input_error(capsys, monkeypatch, tmp_path, source):
    if source == "file":
        path = tmp_path / "bad.el"
        path.write_bytes(NOT_UTF8)
        arg = str(path)
    else:
        stdin = io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8", errors="strict")
        monkeypatch.setattr("sys.stdin", stdin)
        arg = "-"
    code, out, err = run(capsys, "recognize", arg)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read ") and err.count("\n") == 1


@pytest.mark.parametrize("n", ["99999999999999999999", str(2**62)])
def test_a_header_no_list_can_hold_is_an_input_error(capsys, monkeypatch, n):
    monkeypatch.setattr("sys.stdin", io.StringIO(f"p {n}\n"))
    code, out, err = run(capsys, "recognize")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


_TOO_LARGE = f"is too large: at most {MAX_VERTICES} vertices"
_PAST = f"is past the limit of {MAX_VERTICES} vertices"


@pytest.mark.parametrize("text, message", [
    (f"p {MAX_VERTICES + 1}\n", f"line 1: vertex count {MAX_VERTICES + 1} {_TOO_LARGE}"),
    (f"0 1\n0 {MAX_VERTICES}\n", f"line 2: vertex id {MAX_VERTICES} {_PAST}"),
    ("# far\np 100000000000\n", f"line 2: vertex count 100000000000 {_TOO_LARGE}"),
    ("0 1\n0 100000000000\n", f"line 2: vertex id 100000000000 {_PAST}"),
], ids=["header", "id", "header-far", "id-far"])
@pytest.mark.parametrize("command", ["recognize", "certify"])
def test_a_vertex_count_over_the_limit_is_an_input_error(
    capsys, monkeypatch, text, message, command
):
    # a header past MAX_VERTICES, or with none an id at or past it, is
    # refused at its line before any vertex is allocated: exit 2, one line
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, command, *(["--json"] if command == "certify" else []))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_certify_documents(capsys, worked8_file, k4hub_file):
    code, out, _ = run(capsys, "certify", "--realize", worked8_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["path_graph"] is True
    assert len(doc["separators"]) == 2
    host = doc["realization"]["host"]
    g = make_worked8()
    rebuilt = HostRealization(
        host["host_n"],
        frozenset(tuple(e) for e in host["host_edges"]),
        tuple(tuple(p) for p in host["paths"]),
    )
    assert verify_realization(g, rebuilt)

    code, out, _ = run(capsys, "certify", k4hub_file)
    assert code == 1
    doc = json.loads(out)
    assert doc["separators"][0]["obstruction"]["kind"] == "full_antipodal_triangle"
    assert doc["separators"][0]["obstruction"]["witness"] == 0


def test_certify_witness_uses_input_ids(capsys, tmp_path):
    # the hub is a component of its own, analyzed in local ids 0..6
    p = tmp_path / "triangle-and-hub.txt"
    p.write_text(emit_edgelist(_union(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]), k4_hub(4))))
    code, out, _ = run(capsys, "certify", str(p), "--json")
    assert code == 1
    sep = json.loads(out)["separators"][-1]
    assert sep["refutation"]["kind"] == "FULL_ANTIPODAL_TRIPLE"
    assert sep["refutation"]["witness_class"] == sep["obstruction"]["witness"] == 3
    assert sep["refutation"]["witness_class"] in sep["q"]


def test_certify_output_is_stable(capsys, worked8_file):
    _, first, _ = run(capsys, "certify", worked8_file)
    _, second, _ = run(capsys, "certify", worked8_file)
    assert first == second


def test_realize_command(capsys, worked8_file, k4hub_file):
    code, out, _ = run(capsys, "realize", worked8_file)
    assert code == 0
    # file input carries no labels, so vertices print as ids
    assert "clique 0: 0 1 2" in out
    assert out.count("tree edge:") == 5

    code, out, _ = run(capsys, "realize", "--dot", worked8_file)
    assert code == 0
    assert out.startswith("graph cliquetree {")

    code, out, _ = run(capsys, "realize", k4hub_file)
    assert code == 1
    assert "not a path graph" in out


def test_oracle_command(capsys, worked8_file, k4hub_file, tmp_path):
    assert run(capsys, "oracle", worked8_file)[0] == 0
    code, out, _ = run(capsys, "oracle", "--json", k4hub_file)
    assert code == 1
    assert json.loads(out) == {"path_graph": False}
    p = tmp_path / "c4.txt"
    p.write_text(C4_TEXT)
    assert run(capsys, "oracle", str(p))[0] == 1


def test_oracle_guard_refusal(capsys, tmp_path):
    star = Graph.from_edges(11, [(0, i) for i in range(1, 11)])
    p = tmp_path / "star.txt"
    p.write_text(emit_edgelist(star))
    code, _, err = run(capsys, "oracle", str(p))
    assert code == 3
    assert "refused" in err


class _FailingStdout(io.StringIO):
    """A stdout whose every write fails as the given OSError."""

    def __init__(self, error):
        super().__init__()
        self.error = error

    def write(self, text):
        raise self.error


@pytest.mark.parametrize(
    "error",
    [OSError(errno.ENOSPC, "No space left on device"), BrokenPipeError(errno.EPIPE, "Broken pipe")],
    ids=["full", "broken_pipe"],
)
def test_a_failed_write_is_an_output_error_not_a_verdict(capsys, monkeypatch, worked8_file,
                                                         k4hub_file, error):
    for argv in (["realize", worked8_file], ["certify", "--json", k4hub_file]):
        monkeypatch.setattr(sys, "stdout", _FailingStdout(error))
        code, _, err = run(capsys, *argv)
        assert (code, err) == (2, f"error: cannot write output: {error}\n")
        # --quiet writes nothing, so it still reports the verdict
        assert run(capsys, *argv, "--quiet")[0] == (0 if argv[0] == "realize" else 1)


def test_gen_round_trips(capsys):
    code, out, _ = run(capsys, "gen", "--kind", "chordal", "--n", "8", "--seed", "3")
    assert code == 0
    g = parse_edgelist(out)
    assert g.edges() == gen_chordal(8, 3).edges()

    code, out, _ = run(
        capsys, "gen", "--kind", "chordal", "--n", "8", "--seed", "3",
        "--format", "graph6",
    )
    assert parse_graph6(out).edges() == gen_chordal(8, 3).edges()

    code, out, _ = run(capsys, "gen", "--kind", "k4hub", "--n", "4")
    assert parse_edgelist(out).edges() == k4_hub().edges()


@pytest.mark.parametrize("kind", ["path", "chordal", "k4hub"])
def test_gen_size_zero_is_an_input_error(capsys, kind):
    # --n goes to the generator as given, which rejects it
    code, out, err = run(capsys, "gen", "--kind", kind, "--n", "0")
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("kind", ["path", "chordal", "k4hub"])
def test_gen_past_the_vertex_limit_is_refused_up_front(capsys, kind):
    # k4hub --n t has 2t - 1 vertices, so this size is past the limit for all
    code, out, err = run(capsys, "gen", "--kind", kind, "--n", str(MAX_VERTICES + 1))
    assert code == 2
    assert out == ""
    assert "too large" in err


def test_gen_path_samples_as_many_host_nodes_as_paths(capsys):
    code, out, _ = run(capsys, "gen", "--kind", "path", "--n", "6", "--seed", "2")
    assert code == 0
    assert parse_edgelist(out).edges() == gen_path_graph(6, 6, 2)[0].edges()
    # the host size is not a setting of its own
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--kind", "path", "--n", "5", "--tree-nodes", "9"])
    assert exc.value.code == 2


def test_gen_path_includes_its_host(capsys):
    code, out, _ = run(
        capsys, "gen", "--kind", "path", "--n", "6", "--seed", "2", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    g = Graph.from_edges(doc["n"], [tuple(e) for e in doc["edges"]])
    host = HostRealization(
        doc["host"]["host_n"],
        frozenset(tuple(e) for e in doc["host"]["host_edges"]),
        tuple(tuple(p) for p in doc["host"]["paths"]),
    )
    assert verify_realization(g, host)


def test_attachedness_command(capsys, worked8_file):
    code, out, _ = run(capsys, "attachedness", "--json", worked8_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["q"] == [1, 2, 4]
    assert doc["classes"] == 3
    assert doc["antipodal_edges"] == [[0, 1], [0, 2], [1, 2]]
    assert doc["dominance_pairs"] == []

    code, out, _ = run(capsys, "attachedness", "--separator", "1", worked8_file)
    assert code == 0
    assert "separator: 1 4 6" in out
    assert "class 0: members [0] traces {1} {1,4} {4}" in out

    code, out, _ = run(capsys, "attachedness", "--dot", worked8_file)
    assert out.startswith("graph attachedness {")

    code, _, err = run(capsys, "attachedness", "--separator", "7", worked8_file)
    assert code == 2
    assert "out of range" in err


def test_attachedness_preconditions(capsys, tmp_path):
    c4 = tmp_path / "c4.txt"
    c4.write_text(C4_TEXT)
    code, _, err = run(capsys, "attachedness", str(c4))
    assert code == 2
    assert "attachedness requires a chordal graph" in err
    two = tmp_path / "two.txt"
    two.write_text("p 4\n0 1\n2 3\n")
    code, _, err = run(capsys, "attachedness", str(two))
    assert code == 2
    assert "attachedness requires a connected graph" in err
    k3 = tmp_path / "k3.txt"
    k3.write_text("p 3\n0 1\n1 2\n0 2\n")
    code, _, err = run(capsys, "attachedness", str(k3))
    assert code == 2
    assert "atom" in err


def test_obstruction_command(capsys):
    code, out, _ = run(capsys, "obstruction", "--family", "w0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == 4
    assert doc["antipodal"] == [[0, 1], [0, 2], [1, 2]]
    assert doc["dominance"] == [[0, 3], [1, 3], [2, 3]]

    code, out, _ = run(capsys, "obstruction", "--family", "df", "--size", "2", "--dot")
    assert code == 0
    assert out.count("dotted") == 4

    code, _, err = run(capsys, "obstruction", "--family", "df", "--size", "1")
    assert code == 2
    assert "error" in err


def test_obstruction_command_refuses_a_size_past_the_vertex_limit(capsys):
    code, out, err = run(capsys, "obstruction", "--family", "df", "--size", "1000000000")
    assert code == 2 and out == ""
    assert f"vertex count 2000000001 is too large: at most {MAX_VERTICES}" in err


def test_obstruction_command_prints_the_full_antipodal_triangle(capsys):
    # the kind certify --json names, e.g. on k4_hub(4)
    family = ("obstruction", "--family", "full_antipodal_triangle")
    code, out, _ = run(capsys, *family)
    assert code == 0
    assert out.splitlines() == [
        "full_antipodal_triangle size 1: 3 vertices",
        "antipodal: 0 -- 1",
        "antipodal: 0 -- 2",
        "antipodal: 1 -- 2",
    ]
    code, out, _ = run(capsys, *family, "--json")
    assert code == 0
    assert json.loads(out) == {
        "family": "full_antipodal_triangle",
        "size": 1,
        "vertices": 3,
        "antipodal": [[0, 1], [0, 2], [1, 2]],
        "dominance": [],
    }
    code, out, _ = run(capsys, *family, "--dot")
    assert code == 0
    assert out.count(" -- ") == 3 and "dotted" not in out
    code, _, err = run(capsys, *family, "--size", "2")
    assert code == 2
    assert "FULL_TRIANGLE has fixed size 1" in err


def test_gplus_flag(capsys, k4hub_file):
    code, out, _ = run(capsys, "certify", "--gplus", k4hub_file)
    assert code == 1
    doc = json.loads(out)
    assert doc["input"]["gplus"] is True
    assert doc["input"]["n"] == 14


def test_input_errors_exit_2(capsys, tmp_path):
    loop = tmp_path / "loop.txt"
    loop.write_text("0 0\n")
    code, _, err = run(capsys, "recognize", str(loop))
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "recognize", str(tmp_path / "missing.txt"))
    assert code == 2


@pytest.mark.parametrize(
    "g, oracle_text",
    [
        (parse_edgelist(C4_TEXT), "not chordal; not a path graph\n"),
        (k4_hub(4), "path graph (oracle): no\n"),
    ],
    ids=["C4", "k4_hub_4"],
)
def test_rejections_under_json_are_documents(capsys, tmp_path, g, oracle_text):
    p = tmp_path / "g.txt"
    p.write_text(emit_edgelist(g))
    code, out, _ = run(capsys, "realize", "--json", str(p))
    assert (code, json.loads(out)) == (1, {"path_graph": False})
    code, out, _ = run(capsys, "oracle", "--json", str(p))
    assert (code, json.loads(out)) == (1, {"path_graph": False})
    assert run(capsys, "realize", str(p))[:2] == (1, "not a path graph; nothing to realize\n")
    assert run(capsys, "oracle", str(p))[:2] == (1, oracle_text)


def test_reused_parser_leaks_nothing_between_calls(capsys, monkeypatch, worked8_file):
    realized = run(capsys, "certify", worked8_file, "--realize", "--json")
    plain = run(capsys, "certify", worked8_file, "--json")
    with pytest.raises(SystemExit) as exc:
        main(["certify", worked8_file, "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    again = run(capsys, "certify", worked8_file, "--json")
    assert "realization" in json.loads(realized[1])
    assert plain == again
    assert "realization" not in json.loads(plain[1])
    closed = []
    monkeypatch.setattr(cli, "graph_plus", lambda g: closed.append(g.n) or graph_plus(g))
    assert run(capsys, "recognize", worked8_file, "--gplus")[0] == 0
    assert closed == [8]
    assert run(capsys, "recognize", worked8_file)[0] == 0
    assert closed == [8]


@pytest.mark.parametrize(
    "g",
    [gen_path_graph(n, n, s)[0] for n in (20, 40) for s in range(10)]
    + [_union(gen_path_graph(20, 20, 3)[0], gen_path_graph(40, 40, 7)[0])],
)
def test_cli_realization_matches_the_library(capsys, tmp_path, g):
    p = tmp_path / "g.txt"
    p.write_text(emit_edgelist(g))
    t = realize(g)
    expected = realization_doc(t, clique_path_tree_to_host(g, t))
    code, out, _ = run(capsys, "certify", str(p), "--realize", "--json")
    assert (code, json.loads(out)["realization"]) == (0, expected)
    code, out, _ = run(capsys, "realize", str(p), "--json")
    assert (code, json.loads(out)) == (0, expected)
