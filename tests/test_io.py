import contextlib
import io
import json
import re
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import pathgraph.io as gio
from pathgraph.attach import quotient
from pathgraph.cli import main
from pathgraph.decompose import gamma_components
from pathgraph.errors import InputError
from pathgraph.generate import gen_chordal, gen_path_graph, k4_hub
from pathgraph.graphs import EdgeColoredGraph, Graph
from pathgraph.io import (
    emit_dot,
    format_traces,
    emit_edgelist,
    emit_graph6,
    emit_verdict,
    parse_edgelist,
    parse_graph,
    parse_graph6,
    realization_doc,
    separator_doc,
    verdict_document,
)
from pathgraph.obstructions import W0, build_family
from pathgraph.realize import clique_path_tree_to_host, realize
from pathgraph.recognize import recognize_directed_path_graph, recognize_path_graph

from _brute import emit_verdict_reference, parse_edgelist_reference, parse_graph6_reference
from conftest import WORKED8_EDGES
from make_certify_golden import corpus

K3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def test_parse_edgelist_basics():
    g = parse_edgelist("p 2\n0 1")
    assert (g.n, g.edges()) == (2, [(0, 1)])
    # no header: size inferred from the largest id
    g = parse_edgelist("0 1\n1 2")
    assert (g.n, g.edges()) == (3, [(0, 1), (1, 2)])
    g = parse_edgelist("# comment\n\n1 0  # trailing\n0 1\n")
    assert (g.n, g.edges()) == (2, [(0, 1)])
    g = parse_edgelist("p 5\n0 1")
    assert g.n == 5


_LONG = "1" * 5000
# Where int() reads _LONG, a text holding it is a valid graph with over 10**4999
# vertices, which Graph.from_edges would try to allocate.
_INT_LIMIT = pytest.mark.skipif(
    not 0 < sys.get_int_max_str_digits() < len(_LONG),
    reason="int() reads 5000-digit strings",
)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("0 0", "line 1"),
        ("p 3\n0 5", "line 2"),
        ("0 1\np 3", "line 2"),
        ("a b", "line 1"),
        ("-1 2", "line 1"),
        ("p x", "line 1"),
        ("0 1 2", "line 1"),
        ("", "empty"),
        # ids and counts are ASCII -?[0-9]+, not whatever int() accepts
        ("1_0 2", "line 1: non-integer vertex id"),
        ("\u0661 2", "line 1: non-integer vertex id"),
        ("+1 2", "line 1: non-integer vertex id"),
        ("0 1\n2 \uff13", "line 2: non-integer vertex id"),
        ("p 1_0", "line 1: bad vertex count"),
        ("p +3", "line 1: bad vertex count"),
        ("p \u0663", "line 1: bad vertex count"),
        ("2 -3", "line 1: negative vertex id"),
        ("p -3", "line 1: negative vertex count"),
        # well-formed, but more digits than int() reads
        pytest.param(
            _LONG + " 2", "line 1: non-integer vertex id", marks=_INT_LIMIT, id="long id"
        ),
        pytest.param(
            "p " + _LONG, "line 1: bad vertex count", marks=_INT_LIMIT, id="long count"
        ),
    ],
)
def test_parse_edgelist_errors(text, fragment):
    with pytest.raises(InputError, match=fragment):
        parse_edgelist(text)


def test_edgelist_round_trip(worked8):
    text = emit_edgelist(worked8)
    assert text.startswith("p 8\n")
    back = parse_edgelist(text)
    assert (back.n, back.edges()) == (worked8.n, worked8.edges())


def test_graph6_frozen_strings():
    assert emit_graph6(K3) == "Bw\n"
    assert emit_graph6(P3) == "Bg\n"
    assert emit_graph6(C4) == "Cl\n"
    assert parse_graph6("Bw").edges() == K3.edges()
    assert parse_graph6(">>graph6<<Bw\n").edges() == K3.edges()


def test_graph6_round_trips():
    graphs = [gen_chordal(4 + seed % 9, seed) for seed in range(40)]
    # the last size of the one-byte form and past it
    graphs += [Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)]) for n in (62, 63, 70)]
    graphs += [gen_path_graph(n, n, 1)[0] for n in (1, 2, 5, 40, 200)]
    graphs += [Graph.from_edges(n, []) for n in (0, 1, 7)] + [K3]
    for g in graphs:
        text = emit_graph6(g)
        assert parse_graph6(text) == parse_graph6_reference(text) == g


def test_graph6_errors():
    with pytest.raises(InputError):
        parse_graph6("")
    with pytest.raises(InputError):
        parse_graph6("C")  # size says 4, no edge bits
    with pytest.raises(InputError):
        parse_graph6("B" + chr(30))
    for text, message in (
        ("Bwxyz", "characters after the edge bits"),
        ("Bx", "nonzero padding bits"),
        ("Bw\nBg\n", "more than one graph"),
        ("~??Bw", "size 3 does not need the long form"),
        ("~~?????Bw", "size 3 does not need the long form"),
        ("~~" + _long_size(258047), "size 258047 does not need the long form"),
        ("~~" + _long_size(258048), "truncated edge bits"),
    ):
        with pytest.raises(InputError, match=f"graph6: {message}"):
            parse_graph6(text)
        assert _parsed(parse_graph6, text) == _parsed(parse_graph6_reference, text)


def _long_size(n):
    """The six characters of graph6's eight-byte size field after its ~~."""
    return "".join(chr((n >> k & 63) + 63) for k in (30, 24, 18, 12, 6, 0))


def test_parse_graph_dispatch():
    assert parse_graph("p 2\n0 1").n == 2
    assert parse_graph("Bw", fmt="graph6").n == 3
    with pytest.raises(InputError):
        parse_graph("p 2\n0 1", fmt="adjacency")


def test_verdict_document_atom():
    doc = verdict_document(K3, recognize_path_graph(K3))
    assert doc["chordal"] is True
    assert doc["path_graph"] is True
    assert doc["separators"] == []
    assert doc["hole"] is None
    assert doc["input"] == {"n": 3, "edges": 3, "gplus": False}


def test_verdict_document_hole():
    doc = verdict_document(C4, recognize_path_graph(C4))
    assert doc["chordal"] is False
    assert doc["hole"] == [0, 1, 2, 3]
    assert doc["path_graph"] is False


def test_verdict_document_k4hub():
    g = k4_hub()
    doc = verdict_document(g, recognize_path_graph(g))
    assert doc["path_graph"] is False
    sep = doc["separators"][0]
    assert sep["q"] == [0, 1, 2, 3]
    assert sep["classes"] == 3
    assert sep["refutation"]["kind"] == "FULL_ANTIPODAL_TRIPLE"
    obs = sep["obstruction"]
    assert obs["kind"] == "full_antipodal_triangle"
    assert obs["embedding"] == [0, 1, 2]
    # witness vertex 0 carries the display name "1"
    assert obs["witness"] == 0
    assert g.label(obs["witness"]) == "1"


def test_verdict_document_full(worked8):
    verdict = recognize_path_graph(worked8)
    directed = recognize_directed_path_graph(worked8)
    t = realize(worked8)
    host = clique_path_tree_to_host(worked8, t)
    doc = verdict_document(
        worked8, verdict, directed=directed, realization=realization_doc(t, host)
    )
    assert doc["path_graph"] is True
    assert doc["directed_path_graph"] is False
    assert doc["directed_detail"]["q"] == [1, 2, 4]
    assert doc["directed_detail"]["odd_cycle"] == [0, 1, 2]
    assert [s["q"] for s in doc["separators"]] == [[1, 2, 4], [1, 4, 6]]
    sep = doc["separators"][0]
    assert sep["coloring"] == {"0": 1, "1": 2, "2": 3}
    assert sep["upper"] == [0, 1, 2]
    assert sep["refutation"] is None
    real = doc["realization"]
    assert real["cliques"][0] == [0, 1, 2]
    assert len(real["tree_edges"]) == 5
    assert real["host"]["paths"][1] == [0, 1, 2, 3]


def test_separator_doc_maps_component_ids(k4hub):
    both = Graph.from_edges(
        15, WORKED8_EDGES + [(u + 8, v + 8) for u, v in k4hub.edges()]
    )
    verdict = recognize_path_graph(both)
    bad = verdict.reports[-1]
    doc = separator_doc(bad)
    assert doc["q"] == [8, 9, 10, 11]
    assert doc["obstruction"]["q"] == [8, 9, 10, 11]
    assert doc["obstruction"]["witness"] == 8
    assert all(
        all(v >= 8 for tr in gamma["traces"] for v in tr)
        for gamma in doc["gammas"]
    )


def test_emit_verdict_stable(worked8):
    doc = verdict_document(worked8, recognize_path_graph(worked8))
    one, two = emit_verdict(doc), emit_verdict(doc)
    assert one == two
    assert json.loads(one) == doc


def test_dot_attachedness(worked8):
    m = quotient(gamma_components(worked8, (1, 2, 4)))
    dot = emit_dot(m)
    assert dot.startswith("graph attachedness {")
    solid = [l for l in dot.splitlines() if " -- " in l and "dotted" not in l]
    dotted = [l for l in dot.splitlines() if "dotted" in l]
    assert (len(solid), len(dotted)) == (3, 0)
    assert '"0: {1,2}"' in dot


def test_dot_attachedness_names_traces_by_label():
    # k4_hub labels its hub vertices 0..3 as 1..4; the DOT labels follow the
    # graph given, with the formatter the CLI's text output uses
    g = k4_hub(4)
    m = quotient(gamma_components(g, (0, 1, 2, 3)))
    assert '"0: {0,1}"' in emit_dot(m)
    dot = emit_dot(m, g)
    assert [l for l in dot.splitlines() if "label" in l] == [
        '  k0 [label="0: {1,2}"];', '  k1 [label="1: {1,3}"];', '  k2 [label="2: {1,4}"];'
    ]
    assert format_traces(m.gammas[2].traces, g) == "{1,4}"


def test_dot_pair():
    dot = emit_dot(EdgeColoredGraph(2, frozenset({(0, 1)}), frozenset()))
    assert dot.count(" -- ") == 1
    assert "dotted" not in dot


def test_dot_pattern_and_tree(worked8):
    dot = emit_dot(build_family(W0, 1))
    solid = [l for l in dot.splitlines() if " -- " in l and "dotted" not in l]
    dotted = [l for l in dot.splitlines() if "dotted" in l]
    assert (len(solid), len(dotted)) == (3, 3)

    t = realize(worked8)
    dot = emit_dot(t, worked8)
    assert 'c0 [label="a b c"];' in dot
    assert dot.count(" -- ") == 5

    with pytest.raises(InputError):
        emit_dot(worked8)


def test_dot_labels_escape_backslashes_and_quotes():
    # each label is one DOT quoted string, read back to the label's text
    g = Graph.from_edges(3, [(0, 1), (1, 2)], labels=('a"b', "c\\", "d"))
    quoted = re.compile(r'\[label="((?:[^"\\]|\\.)*)"\];$')

    def labels(dot):
        found = [quoted.search(l) for l in dot.splitlines() if "label" in l]
        return [re.sub(r"\\(.)", r"\1", f.group(1)) for f in found]

    assert labels(emit_dot(realize(g), g)) == ['a"b c\\', "c\\ d"]
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)], labels=('x"\\', "1", "2", "3"))
    m = quotient(gamma_components(star, (0, 1)))
    assert labels(emit_dot(m, star)) == ['0: {x"\\}']


def test_realization_doc_without_host(worked8):
    doc = realization_doc(realize(worked8))
    assert "host" not in doc
    assert len(doc["cliques"]) == 6


def _cli_json(argv, text="") -> tuple[int, str]:
    """Exit code and stdout of the CLI run in-process on text as stdin."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv + ["--json"])
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def test_emit_verdict_matches_json_on_every_cli_document(monkeypatch):
    docs = []
    emit = gio.emit_verdict

    def recording(doc):
        docs.append(doc)
        return emit(doc)

    monkeypatch.setattr(gio, "emit_verdict", recording)
    for _, g, _ in corpus():
        text = emit_edgelist(g)
        for argv in (
            ["certify", "-"],
            ["certify", "-", "--realize"],
            ["recognize", "-"],
            ["realize", "-"],
            ["attachedness", "-"],
        ):
            _cli_json(argv, text)
        if g.n <= 12:
            _cli_json(["oracle", "-"], text)
    for kind in ("path", "chordal", "k4hub"):
        for n in (4, 9):
            _cli_json(["gen", "--kind", kind, "--n", str(n), "--seed", "3"])
    for family in ("w0", "w1", "f", "ftilde", "df"):
        _cli_json(["obstruction", "--family", family, "--size", "2"])
    shapes = {json.dumps(sorted(d)) for d in docs}
    assert '["path_graph"]' in shapes  # the rejection document
    assert len(shapes) >= 8
    assert [d for d in docs if emit(d) != emit_verdict_reference(d)] == []


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"a": {}, "b": [], "c": [{}, [], [[]], {"d": []}]},
        {"mixed": [True, 1, False, 0, None], "bools": [True, 1, False], "f": [0]},
        {"ints": [-1, 0, -(10**39), 10**39, 1234567890123456789012345678901234567890]},
        {"10": 1, "2": 2, "1": {"b": 0, "a": 1}, "": None, "B": 3, "a": 4},
        {"s": ['say "hi"', "back\\slash", "\x00\x1f\t\n\r\x7f", "café π \U0001f600"]},
        {"q\"\\é": [" ", "/"], "nested": [[1, [2, [3, []]]], [[{"x": [4]}]]]},
    ],
)
def test_emit_verdict_matches_json_on_hand_cases(doc):
    assert emit_verdict(doc) == emit_verdict_reference(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {"x": 1.5},
        {"x": (1, 2)},
        {"x": {1, 2}},
        {"x": [0, 1, 2.0]},
        {"x": [[0, (1,)]]},
        {1: 2},
    ],
)
def test_emit_verdict_rejects_other_types(doc):
    with pytest.raises(TypeError):
        emit_verdict(doc)


def test_json_commands_do_not_use_json_dumps(monkeypatch, worked8, k4hub):
    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(json, "dumps", refuse)
    member, other = emit_edgelist(worked8), emit_edgelist(k4hub)
    runs = [
        (["certify", "-", "--realize"], member),
        (["certify", "-"], other),
        (["recognize", "-"], member),
        (["realize", "-"], member),
        (["realize", "-"], other),
        (["oracle", "-"], member),
        (["oracle", "-"], other),
        (["attachedness", "-"], member),
        (["gen", "--kind", "path"], ""),
        (["obstruction", "--family", "w0"], ""),
    ]
    for argv, text in runs:
        code, out = _cli_json(argv, text)
        assert code in (0, 1), argv
        assert isinstance(json.loads(out), dict), argv


def _parsed(parse, text):
    """The graph parse makes of text, or the message of its InputError."""
    try:
        return parse(text)
    except InputError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "text",
    [
        "p 3\n0 1\n1 2\n",
        "p 0\n",
        "p 4\n",
        "# only a comment\n\n   \n",
        "# c\np 3 # header comment\n\n0 1 # edge\n#0 2\n",
        "0 1\r\n1 2\r\n",
        "p\t3\r\n0\t1\r\n\t2   1\t\n",
        "0 1\n1 0\n0 1\n2 1\n",
        "5 2\n2 5\n",
        "0 1\n\n\n1 2\n#\n2 0",
        "-0 1",
        "p -0",
        "p 007\n006 000",
        "0 1\np 3",
        "p 3\np 3",
        "p",
        "p 3 4",
        "p x",
        "p --1",
        "p -2",
        "0",
        "0 1 2",
        "0 1\n1 x",
        "0 --1",
        "- 1",
        "-1 2",
        "1 -2",
        "-1 x",
        "3 3",
        "-1 -1",
        "p 3\n0 3",
        "p 3\n3 0",
        "p 3\n0 0",
        "",
        "\n\n",
        "p0 1",
        "0#1",
        "0 1#2 3",
        "0 1 # caf\u00e9\n1 2",
        "0\u30001\n1\u00a02",
        "0 \u00b2",
        "p 4000001",
        "0 1\n3999999 4000000",
        "p 4000000\n0 4000000",
        # plain texts, read in bulk ("p 0\n" is above)
        "p 3\n",
        "p 3\n0 1\n1 0\n0 1\n",
        "p 3\n2 2\n",
        "p 3\n0 3\n",
        "0 1\n3999999 4000000\n",
        "p 4000001\n",
        "007 006\n",
        "p 3\n0 1\n1 2",
        "0 1\n2 1",
        "p 3\n0 1\n\n1 2\n",
        "p 3\n0 1\n1 2\n\n",
        "p 3\np 3\n",
        "0 1\n1 2 \n",
        "00000001 2\n",
        "p 4000000\n0 3999999\n",
        pytest.param(_LONG + " 2", marks=_INT_LIMIT, id="long id"),
        pytest.param("p " + _LONG, marks=_INT_LIMIT, id="long count"),
    ],
)
def test_parse_edgelist_matches_reference(text):
    assert _parsed(parse_edgelist, text) == _parsed(parse_edgelist_reference, text)


def test_plain_text_is_read_in_bulk(monkeypatch):
    # what emit_edgelist writes never reaches the line reader or the edge pass
    def refuse(*args, **kwargs):
        raise AssertionError("read one edge at a time")

    graphs = [g for _, g, _ in corpus()] + [gen_path_graph(200, 200, 1)[0]]
    texts = [emit_edgelist(g) for g in graphs]
    want = [parse_edgelist_reference(text) for text in texts]
    monkeypatch.setattr(gio, "_parse_lines", refuse)
    monkeypatch.setattr(Graph, "from_edges", staticmethod(refuse))
    assert [parse_edgelist(text) for text in texts] == want


@_INT_LIMIT
def test_overlong_id_is_an_input_error_on_the_cli():
    code, out = _cli_json(["certify"], _LONG + " 2\n")
    assert (code, out) == (2, "")


def test_isolated_vertices_allocate_nothing_per_vertex():
    # an empty graph on 200000 vertices costs its adjacency tuple (1.6 MB of
    # pointers) and a list of the same size, not a set per vertex
    tracemalloc.start()
    try:
        g = parse_edgelist("p 200000\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == 200000 and g.num_edges == 0
    assert peak < 8_000_000


def _capped(text: str) -> str:
    """text with every digit run cut to five digits, so a header 'p N'
    builds a graph of under 100000 vertices."""
    return re.sub(r"[0-9]{6,}", lambda m: m.group()[:5], text)


# Texts of the plain form, some with a header too small for their ids, a
# self-loop, or no newline after the last line.
_PLAIN_TEXT = st.tuples(
    st.one_of(st.none(), st.integers(0, 12)),
    st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=8),
    st.booleans(),
).map(
    lambda t: ("" if t[0] is None else f"p {t[0]}\n")
    + "".join(f"{u} {v}\n" for u, v in t[1])[: None if t[2] else -1]
)

_EDGELIST_TEXT = st.one_of(
    _PLAIN_TEXT,
    st.text(alphabet="0123456789p#-\t\r\n ", max_size=40),
    # non-ASCII text that int() rejects too: a letter, two spaces, a superscript
    st.text(alphabet="0123456789p#-\n \u00e9\u3000\u00a0\u00b2", max_size=40),
    st.lists(
        st.lists(
            st.sampled_from(["p", "#", "-", "0", "1", "2", "7", "12", "-1", "-0"]),
            max_size=4,
        ).flatmap(
            lambda toks: st.lists(
                st.sampled_from([" ", "\t", "  "]),
                min_size=len(toks),
                max_size=len(toks),
            ).map(lambda seps: "".join(s + t for s, t in zip(seps, toks)))
        ),
        max_size=8,
    ).flatmap(
        lambda lines: st.sampled_from(["\n", "\r\n", "\r"]).map(
            lambda eol: eol.join(lines)
        )
    ),
).map(_capped)


@settings(max_examples=400, deadline=None)
@given(_EDGELIST_TEXT)
def test_parse_edgelist_agrees_with_reference_on_drawn_text(text):
    got = _parsed(parse_edgelist, text)
    assert isinstance(got, (Graph, str))
    assert got == _parsed(parse_edgelist_reference, text)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.text(max_size=30),
        st.text(alphabet=st.characters(max_codepoint=130), max_size=30),
        st.text(alphabet="?@ABC_~\n ", max_size=12).map(lambda s: ">>graph6<<" + s),
    )
)
def test_parse_graph6_returns_a_graph_or_input_error(text):
    got = _parsed(parse_graph6, text)
    assert isinstance(got, (Graph, str))
    assert got == _parsed(parse_graph6_reference, text)
