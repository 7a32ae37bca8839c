from collections import Counter

import pytest

from pathgraph import attach, chordal, cli, coloring, recognize
from pathgraph.chordal import maximal_cliques
from pathgraph.coloring import FULL_ANTIPODAL_TRIPLE
from pathgraph.errors import GuardRefusal, InvariantError
from pathgraph.generate import gen_chordal, gen_path_graph, k4_hub
from pathgraph.graphs import Graph
from pathgraph.io import emit_edgelist
from pathgraph.obstructions import FULL_TRIANGLE
from pathgraph.oracle import oracle_clique_path_tree
from pathgraph.realize import clique_path_tree_to_host, realize
from pathgraph.recognize import (
    DIRECTED_PATH_GRAPH,
    NOT_CHORDAL,
    NOT_DIRECTED_PATH_GRAPH,
    NOT_PATH_GRAPH,
    PATH_GRAPH,
    Verdict,
    _directed_verdict,
    recognize_directed_path_graph,
    recognize_path_graph,
)

from conftest import WORKED8_EDGES, make_worked8


def shift(edges, by):
    return [(u + by, v + by) for u, v in edges]


def test_worked8_accepted(worked8):
    v = recognize_path_graph(worked8)
    assert v.status == PATH_GRAPH
    assert v.is_path_graph
    assert v.hole is None
    assert len(v.reports) == 2
    for rep in v.reports:
        assert rep.refutation is None
        assert rep.obstruction is None
        assert rep.coloring.f == {0: 1, 1: 2, 2: 3}
        assert rep.vertex_map is None
    assert [rep.q for rep in v.reports] == [(1, 2, 4), (1, 4, 6)]


def test_k4hub_rejected(k4hub):
    v = recognize_path_graph(k4hub)
    assert v.status == NOT_PATH_GRAPH
    assert not v.is_path_graph
    assert len(v.reports) == 1
    rep = v.reports[0]
    assert rep.q == (0, 1, 2, 3)
    assert rep.coloring is None
    assert rep.refutation.kind == FULL_ANTIPODAL_TRIPLE
    assert rep.refutation.witness == 0
    assert rep.obstruction.pattern.family == FULL_TRIANGLE
    assert rep.obstruction.embedding == (0, 1, 2)


def test_hole_verdict():
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    v = recognize_path_graph(c4)
    assert v.status == NOT_CHORDAL
    assert v.hole.cycle == (0, 1, 2, 3)
    assert v.reports == ()


def test_atom_has_no_reports():
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    v = recognize_path_graph(k4)
    assert v.status == PATH_GRAPH
    assert v.reports == ()


def test_disconnected_input_analyzed_per_component(worked8, k4hub):
    both = Graph.from_edges(15, WORKED8_EDGES + shift(k4hub.edges(), 8))
    v = recognize_path_graph(both)
    assert v.status == NOT_PATH_GRAPH
    assert len(v.reports) == 3
    assert [rep.q for rep in v.reports] == [(1, 2, 4), (1, 4, 6), (8, 9, 10, 11)]
    bad = v.reports[-1]
    assert bad.vertex_map == tuple(range(8, 15))
    assert bad.refutation.kind == FULL_ANTIPODAL_TRIPLE
    # local ids inside the report still address the analyzed component
    assert bad.decomposition.q == (0, 1, 2, 3)

    tri = [(15, 16), (16, 17), (15, 17)]
    ok = Graph.from_edges(18, WORKED8_EDGES + tri)
    v = recognize_path_graph(ok)
    assert v.status == PATH_GRAPH
    assert [rep.q for rep in v.reports] == [(1, 2, 4), (1, 4, 6)]


def test_recognition_matches_tree_oracle(chordal_corpus):
    agreed = 0
    for _, g in chordal_corpus:
        if len(maximal_cliques(g)) > 9:
            continue
        verdict = recognize_path_graph(g).is_path_graph
        assert verdict == (oracle_clique_path_tree(g) is not None)
        agreed += 1
    assert agreed > 250


def test_worked8_is_not_a_directed_path_graph(worked8):
    v = recognize_directed_path_graph(worked8)
    assert v.status == NOT_DIRECTED_PATH_GRAPH
    assert not v.is_directed_path_graph
    assert v.q == (1, 2, 4)
    assert v.odd_cycle == (0, 1, 2)


def test_directed_accepts_simple_graphs():
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert recognize_directed_path_graph(p4).status == DIRECTED_PATH_GRAPH
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert recognize_directed_path_graph(star).status == DIRECTED_PATH_GRAPH


def test_directed_hole_verdict():
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    v = recognize_directed_path_graph(c5)
    assert v.status == NOT_CHORDAL
    assert v.hole.cycle == (0, 1, 2, 3, 4)


def test_directed_implies_path(chordal_corpus):
    from pathgraph.attach import quotient
    from pathgraph.decompose import gamma_components

    directed = 0
    for _, g in chordal_corpus:
        v = recognize_directed_path_graph(g)
        if v.status == DIRECTED_PATH_GRAPH:
            directed += 1
            assert recognize_path_graph(g).is_path_graph
        else:
            # the reported odd cycle really is odd and antipodal
            cyc = v.odd_cycle
            assert len(cyc) % 2 == 1 and len(cyc) >= 3
            m = quotient(gamma_components(g, v.q))
            for i, a in enumerate(cyc):
                assert m.is_antipodal(a, cyc[(i + 1) % len(cyc)])
    assert directed > 200


def test_directed_verdict_from_path_reports(chordal_corpus, k4hub):
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    graphs = [g for _, g in chordal_corpus] + [k4hub, c5, make_worked8()]
    for g in graphs:
        assert _directed_verdict(recognize_path_graph(g)) == recognize_directed_path_graph(g)
    with pytest.raises(InvariantError):
        _directed_verdict(Verdict(NOT_PATH_GRAPH, None, ()))


def test_disconnected_directed(worked8):
    tri = [(8, 9), (9, 10), (8, 10)]
    g = Graph.from_edges(11, WORKED8_EDGES + tri)
    v = recognize_directed_path_graph(g)
    assert v.status == NOT_DIRECTED_PATH_GRAPH
    assert v.q == (1, 2, 4)


def _direct(call):
    return lambda g, tmp_path: lambda: call(g)


def _host_of_realized(g, tmp_path):
    t = realize(g)
    return lambda: clique_path_tree_to_host(g, t)


def _cli(command, *flags):
    def prepare(g, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(emit_edgelist(g))
        return lambda: cli.main([command, str(path), *flags, "--quiet"])

    return prepare


_P200 = Graph.from_edges(200, [(i, i + 1) for i in range(199)])
_GP100 = gen_path_graph(100, 100, 1)[0]
_GP80 = gen_path_graph(80, 80, 0)[0]
_WORKED8_TRIANGLE = Graph.from_edges(11, WORKED8_EDGES + [(8, 9), (9, 10), (8, 10)])


@pytest.mark.parametrize(
    "g, prepare, searches",
    [
        pytest.param(g, _direct(f), 1, id=f"{f.__name__}-{name}")
        for f in (recognize_directed_path_graph, recognize_path_graph)
        for name, g in (("P_200", _P200), ("gen_path_graph_100_100_1", _GP100))
    ]
    + [
        pytest.param(_GP80, _direct(realize), 1, id="realize-gen_path_graph_80_80_0"),
        pytest.param(_GP80, _host_of_realized, 1, id="host-gen_path_graph_80_80_0"),
        pytest.param(make_worked8(), _direct(oracle_clique_path_tree), 1, id="oracle-worked8"),
        pytest.param(_GP80, _cli("certify", "--realize", "--json"), 1, id="cli_certify_realize"),
        pytest.param(_GP80, _cli("certify", "--json"), 1, id="cli_certify"),
        pytest.param(_GP80, _cli("recognize"), 1, id="cli_recognize"),
        pytest.param(_GP80, _cli("realize", "--json"), 1, id="cli_realize"),
        pytest.param(make_worked8(), _cli("attachedness", "--json"), 1, id="cli_attachedness"),
        pytest.param(_WORKED8_TRIANGLE, _cli("oracle", "--json"), 1, id="cli_oracle"),
    ],
)
def test_one_search_per_public_call(monkeypatch, tmp_path, g, prepare, searches):
    # the chordal structure comes from the entry check's order, not per
    # separator, recursion node or validation; a CLI command searches once
    call = prepare(g, tmp_path)
    calls = []
    search = chordal._mcs_order

    def counted(graph):
        calls.append(graph.n)
        return search(graph)

    monkeypatch.setattr(chordal, "_mcs_order", counted)
    call()
    assert calls == [g.n] * searches


_GP80_TWICE = Graph.from_edges(160, _GP80.edges() + shift(_GP80.edges(), 80))


@pytest.mark.parametrize("g, pieces", [(_GP80, [None]), (_GP80_TWICE, [0, 80])])
@pytest.mark.parametrize("command", [("certify", "--realize", "--json"), ("realize", "--json")])
def test_cli_analyzes_each_component_once(monkeypatch, tmp_path, g, pieces, command):
    # the tree and the host come from the verdict's own reports and index;
    # a component is named by its smallest vertex, None when g is connected
    call = _cli(*command)(g, tmp_path)
    calls = []
    reports = recognize._component_reports

    def counted(sub, index, idmap):
        calls.append(None if idmap is None else idmap[0])
        return reports(sub, index, idmap)

    monkeypatch.setattr(recognize, "_component_reports", counted)
    assert call() == 0
    assert calls == pieces


@pytest.mark.parametrize("g", [_GP80, k4_hub(5)], ids=["gen_path_graph_80_80_0", "k4_hub_5"])
def test_one_skeleton_and_one_dominance_test_per_separator(monkeypatch, g):
    # the report, the coloring and the obstruction share one skeleton, and
    # quotient tests each ordered pair of parts for dominance at most once
    skeletons = []
    per_quotient: list[Counter] = []
    skeleton, quotient, dominates = coloring.skeleton, recognize.quotient, attach.dominates

    def counted_skeleton(m):
        skeletons.append(id(m))
        return skeleton(m)

    def counted_quotient(dec):
        per_quotient.append(Counter())
        return quotient(dec)

    def counted_dominates(a, b):
        per_quotient[-1][a.index, b.index] += 1
        return dominates(a, b)

    for mod in (coloring, recognize):
        monkeypatch.setattr(mod, "skeleton", counted_skeleton)
    monkeypatch.setattr(recognize, "quotient", counted_quotient)
    monkeypatch.setattr(attach, "dominates", counted_dominates)
    verdict = recognize_path_graph(g)
    assert verdict.reports
    assert len(per_quotient) == len(verdict.reports)
    assert all(max(c.values(), default=0) <= 1 for c in per_quotient)
    assert skeletons == [id(r.attachedness) for r in verdict.reports]
