import gc
import importlib
import itertools
import pkgutil
import sys
import types
from collections import Counter

import pytest

import pathgraph
from pathgraph import attach, chordal, cli, coloring, decompose, graphs, recognize
from pathgraph.chordal import (
    CliqueTree,
    clique_tree,
    is_clique_path_tree,
    is_valid_clique_tree,
    maximal_cliques,
)
from pathgraph.coloring import FULL_ANTIPODAL_TRIPLE
from pathgraph.decompose import clique_separators
from pathgraph.errors import InputError, InvariantError, PreconditionError
from pathgraph.generate import SplitMix64, gen_chordal, gen_path_graph, k4_hub
from pathgraph.graphs import Graph, _norm_edge, connected_components
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

from _brute import (
    TWO_PART_SHAPES,
    decompositions,
    induced_subgraph,
    reports_by_eager_scan,
    two_part_shape,
)
from conftest import WORKED8_EDGES, make_worked8, star
from make_certify_golden import interleaved


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
    assert bad.vertex_map is None
    assert bad.refutation.kind == FULL_ANTIPODAL_TRIPLE
    # the whole report is in input ids
    assert bad.decomposition.q == (8, 9, 10, 11)
    assert bad.refutation.witness in bad.q
    assert bad.obstruction.q == bad.q

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


def bridged_hub(g):
    """g plus a disjoint k4_hub(4) joined by the bridge (n - 1, n); for a
    path graph g, the path verdict is refuted at the last separator only."""
    hub = k4_hub(4)
    edges = [*g.edges(), *shift(hub.edges(), g.n), (g.n - 1, g.n)]
    return Graph.from_edges(g.n + hub.n, edges)


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def test_standalone_directed_verdict_skips_nothing(wider_graphs):
    # the standalone verdict passes over two-part separators; the one read
    # off the path reports sees them all, and both agree in full
    graphs = [g for _, g in wider_graphs] + [path(n) for n in (2, 3, 4, 50, 301)]
    graphs += [k4_hub(t) for t in range(3, 10)]
    graphs += [bridged_hub(gen_path_graph(n, n, 1)[0]) for n in (150, 200)]
    refuted = 0
    for g in graphs:
        want = _directed_verdict(recognize_path_graph(g))
        assert recognize_directed_path_graph(g) == want
        refuted += want.status == NOT_DIRECTED_PATH_GRAPH
    assert refuted > 40


def net_with_tail(length):
    """A triangle {0, 1, 2} with pendants 3, 4, 5 and a path from 5 through
    6..length + 5: the triangle is the one separator with three parts."""
    edges = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)]
    return Graph.from_edges(length + 6, edges + [(i, i + 1) for i in range(5, length + 5)])


@pytest.mark.parametrize(
    "g, wide", [(path(300), 0), (net_with_tail(40), 1), (star(5), 5)], ids=["P_300", "net", "K_1,5"]
)
def test_directed_verdict_builds_quotients_only_at_three_parts(monkeypatch, g, wide):
    # one quotient per separator of three or more parts, none for two
    reports = recognize_path_graph(g).reports
    built = []
    build = recognize.quotient

    def counted(dec):
        built.append(dec.q)
        return build(dec)

    monkeypatch.setattr(recognize, "quotient", counted)
    assert recognize_directed_path_graph(g).is_directed_path_graph
    assert len(built) == wide
    assert built == [rep.q for rep in reports if rep.decomposition.size > 2]


@pytest.mark.parametrize("call", [recognize_path_graph, realize], ids=["recognize", "realize"])
@pytest.mark.parametrize(
    "g, wide", [(path(300), 0), (net_with_tail(40), 1), (star(5), 5)], ids=["P_300", "net", "K_1,5"]
)
def test_path_verdict_searches_only_at_three_parts(monkeypatch, call, g, wide):
    # a two-part report is read off the parts' traces: the quotient, its
    # skeleton and the weak coloring run once per separator of three or
    # more parts, and never for two
    want = [rep.q for rep in recognize_path_graph(g).reports if rep.decomposition.size > 2]
    built = {}
    for mod, name in [(attach, "quotient"), (coloring, "skeleton"), (coloring, "_weak_coloring")]:
        seen = built[name] = []

        def counted(first, *rest, _run=getattr(mod, name), _seen=seen):
            _seen.append(first.q)
            return _run(first, *rest)

        monkeypatch.setattr(mod, name, counted)
        monkeypatch.setattr(recognize, name, counted)
    call(g)
    assert len(want) == wide
    assert built == dict.fromkeys(["quotient", "skeleton", "_weak_coloring"], want)


@pytest.mark.parametrize(
    "g, wide", [(path(300), 0), (net_with_tail(40), 1), (star(5), 5)], ids=["P_300", "net", "K_1,5"]
)
def test_directed_verdict_from_reports_colors_only_three_parts(monkeypatch, g, wide):
    # the scan of a path verdict's reports, like the standalone one, passes
    # over the two-part separators
    verdict = recognize_path_graph(g)
    colored = []
    two_color = recognize._two_color_member

    def counted(adj, *rest):
        colored.append(len(adj))
        return two_color(adj, *rest)

    monkeypatch.setattr(recognize, "_two_color_member", counted)
    assert _directed_verdict(verdict).is_directed_path_graph
    assert colored == [r.attachedness.size for r in verdict.reports if r.decomposition.size > 2]
    assert len(colored) == wide


def _general_report(dec):
    """The attachedness graph, skeleton and weak coloring or refutation of
    dec by the path that serves three or more parts."""
    m = attach.quotient(dec)
    s = coloring.skeleton(m)
    return m, s, coloring._weak_coloring(m, s)


def _same_report(rep, dec):
    m, s, res = _general_report(dec)
    assert rep.q == dec.q and rep.decomposition is dec
    assert rep.attachedness == m and rep.skeleton == s and rep.coloring == res
    # the dicts in the same order too
    assert list(rep.skeleton.member_of.items()) == list(s.member_of.items())
    assert list(rep.coloring.f.items()) == list(res.f.items())
    assert rep.refutation is None and rep.obstruction is None and rep.vertex_map is None


def test_two_part_reports_equal_the_general_ones(chordal_corpus, wider_graphs):
    graphs = [g for _, g in chordal_corpus] + [g for _, g in wider_graphs]
    graphs += [gen_path_graph(n, n, s)[0] for n in (40, 80) for s in range(10)]
    graphs += [star(n) for n in (1, 2, 3, 10)] + [path(n) for n in (2, 3, 4, 50, 301)]
    two = 0
    for g in graphs:
        for rep in recognize_path_graph(g).reports:
            if rep.decomposition.size == 2:
                _same_report(rep, rep.decomposition)
                two += 1
    assert two > 1000


def _two_parts(*traces):
    """A decomposition at Q = (0, 1, 2) with one part per set of trace masks."""
    q = (0, 1, 2)
    parts = tuple(decompose.GammaComponent(k, q=q, masks=t) for k, t in enumerate(traces))
    return decompose.Decomposition(q, parts)


@pytest.mark.parametrize(
    "traces, classes, up, antipodal, upper, f",
    [
        (((0b011,), (0b011,)), ((0, 1),), (0,), set(), (0,), {0: 1}),
        (((0b001,), (0b110,)), ((0,), (1,)), (0, 0), set(), (0, 1), {0: 1, 1: 2}),
        (((0b001, 0b011), (0b011,)), ((0,), (1,)), (2, 0), set(), (1,), {0: 1, 1: 1}),
        (((0b011,), (0b001, 0b011)), ((0,), (1,)), (0, 1), set(), (0,), {0: 1, 1: 1}),
        (((0b011,), (0b110,)), ((0,), (1,)), (0, 0), {(0, 1)}, (0, 1), {0: 1, 1: 2}),
    ],
    ids=["one-trace", "disjoint", "nested", "nested-other-way", "antipodal"],
)
def test_two_part_report_cases(monkeypatch, traces, classes, up, antipodal, upper, f):
    # the one path's report at each shape of two parts
    dec = _two_parts(*traces)
    rep = recognize._report(dec)
    m, s = rep.attachedness, rep.skeleton
    assert (m.class_members, m.up, m.antipodal, s.upper) == (classes, up, antipodal, upper)
    assert s.d_single == ((tuple(range(len(classes))),) if len(upper) == 1 else ((0,), (1,)))
    assert s.d_pair == {} and s.unassigned == ()
    assert rep.coloring.f == f and rep.coloring.num_upper == len(upper)
    _same_report(rep, dec)
    # the coloring goes through the general path's self-check
    monkeypatch.setattr(coloring, "_canonical_conditions", lambda *args: {"f": False})
    with pytest.raises(InvariantError, match=r"violates conditions \['f'\]"):
        recognize._report(dec)


def _trace_sets():
    """Every set of one or two distinct nonempty traces over Q = (0, 1, 2)."""
    masks = range(1, 8)
    return [(a,) for a in masks] + list(itertools.combinations(masks, 2))


def test_two_part_report_raises_where_the_general_path_does():
    # every pair of trace sets over a three-vertex Q: the report equals the
    # general one and has one of the five two-part shapes, or both raise
    # the same InvariantError; a part that lists one trace twice, which a
    # decomposition never builds, makes two classes that dominate each
    # other, paired with itself or, either way round, with that one trace
    raised, shapes = 0, Counter()
    listed = _trace_sets() + [(a, a) for a in range(1, 8)]
    for traces in itertools.product(listed, repeat=2):
        dec = _two_parts(*traces)
        try:
            _general_report(dec)
        except InvariantError as exc:
            with pytest.raises(InvariantError, match=str(exc)):
                recognize._report(dec)
            raised += 1
        else:
            rep = recognize._report(dec)
            _same_report(rep, dec)
            shapes[two_part_shape(rep)] += 1
    assert raised == 7 * 3 and shapes.keys() == set(TWO_PART_SHAPES)


def test_weak_coloring_refutes_no_quotient_of_two_classes(chordal_corpus, wider_graphs):
    # a full antipodal triple, a bad triple and an odd antipodal cycle each
    # name three classes or more
    small = 0
    for traces in itertools.product(_trace_sets(), repeat=3):
        try:
            m = attach.quotient(_two_parts(*traces))
        except InvariantError:
            continue
        if m.size <= 2:
            assert isinstance(coloring.weak_coloring(m), coloring.WeakColoring)
            small += 1
    # the corpus, the chains and the stars
    graphs = [g for _, g in chordal_corpus]
    graphs += [g for name, g in wider_graphs if not name.endswith("relabeled")]
    for g in graphs:
        index = chordal._index_or_hole(g)
        if isinstance(index, chordal.HoleCertificate):
            continue
        for dec in decompositions(index):
            m = attach.quotient(dec)
            if m.size <= 2:
                assert isinstance(coloring.weak_coloring(m), coloring.WeakColoring)
                small += 1
    assert small > 1000, small


def test_disconnected_directed(worked8):
    tri = [(8, 9), (9, 10), (8, 10)]
    g = Graph.from_edges(11, WORKED8_EDGES + tri)
    v = recognize_directed_path_graph(g)
    assert v.status == NOT_DIRECTED_PATH_GRAPH
    assert v.q == (1, 2, 4)


def _direct(call):
    return lambda g, tmp_path: lambda: call(g)


def _on_realized(check):
    def prepare(g, tmp_path):
        t = realize(g)
        return lambda: check(g, t)

    return prepare


def _on_rejected(check, claimed):
    """check on the tree claimed(g), which is no clique path tree of g: it
    answers False or raises the error that names why."""

    def prepare(g, tmp_path):
        t = claimed(g)

        def call():
            try:
                assert check(g, t) is False
            except (InputError, PreconditionError):
                pass

        return call

    return prepare


def _edge_moved(g):
    """realize's tree of g with a leaf clique rehung at a clique that misses
    part of its separator, whose vertices then lose their subtrees."""
    t = realize(g)
    adj = chordal._tree_adj(len(t.cliques), t.edges)
    leaf = next(i for i, nbrs in enumerate(adj) if len(nbrs) == 1)
    (up,) = adj[leaf]
    sep = set(t.cliques[leaf]).intersection(t.cliques[up])
    far = next(j for j, c in enumerate(t.cliques) if not sep.issubset(c))
    moved = t.edges - {_norm_edge(leaf, up)} | {_norm_edge(leaf, far)}
    return CliqueTree(t.cliques, moved)


def _proper_subset(g):
    """realize's tree of g with one clique short of a vertex."""
    t = realize(g)
    k = next(k for k, c in enumerate(t.cliques) if len(c) > 1)
    return CliqueTree(t.cliques[:k] + (t.cliques[k][1:],) + t.cliques[k + 1 :], t.edges)


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
_C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
_C5_CLAIMED = CliqueTree(
    ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4)), frozenset({(0, 1), (0, 2), (2, 3), (3, 4)})
)
_TREE_CHECKS = (
    ("host", clique_path_tree_to_host),
    ("is_clique_path_tree", is_clique_path_tree),
    ("is_valid_clique_tree", is_valid_clique_tree),
)


@pytest.mark.parametrize(
    "g, prepare, searches",
    [
        pytest.param(g, _direct(f), 1, id=f"{f.__name__}-{name}")
        for f in (recognize_directed_path_graph, recognize_path_graph)
        for name, g in (("P_200", _P200), ("gen_path_graph_100_100_1", _GP100))
    ]
    # a tree that carries its own cliques is checked with no search
    + [
        pytest.param(_GP80, _on_realized(f), 0, id=f"{name}-gen_path_graph_80_80_0")
        for name, f in _TREE_CHECKS
    ]
    # one that fails its proof is searched once, to name the error
    + [
        pytest.param(g, _on_rejected(f, claimed), 1, id=f"{name}-{kind}")
        for name, f in _TREE_CHECKS
        for kind, g, claimed in (
            ("C_5_claimed_tree", _C5, lambda g: _C5_CLAIMED),
            ("edge_moved", _GP80, _edge_moved),
            ("proper_subset", _GP80, _proper_subset),
        )
    ]
    + [
        pytest.param(_GP80, _direct(realize), 1, id="realize-gen_path_graph_80_80_0"),
        pytest.param(_GP80, _direct(clique_tree), 1, id="clique_tree-gen_path_graph_80_80_0"),
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
    # separator, recursion node or validation; a CLI command searches once,
    # and checking a given tree searches only to name why it is rejected
    call = prepare(g, tmp_path)
    calls = []
    search = chordal._search

    def counted(graph):
        calls.append(graph.n)
        return search(graph)

    monkeypatch.setattr(chordal, "_search", counted)
    call()
    assert calls == [g.n] * searches


@pytest.mark.parametrize(
    "g",
    [Graph.from_edges(300, [(i, i + 1) for i in range(299)])]
    + [gen_path_graph(80, 80, s)[0] for s in (0, 1)],
    ids=["P_300", "gen_path_graph_80_80_0", "gen_path_graph_80_80_1"],
)
def test_separators_never_walk_the_graph_nor_expand_parts(monkeypatch, g):
    # each separator's parts are read off the clique tree: no traversal of
    # G - Q per clique and no part's vertex set
    walk = graphs.components_without

    def guarded(*args):
        raise AssertionError("a graph was traversed")

    def refuse(part):
        raise AssertionError("a part's vertex set was expanded")

    for name, mod in list(sys.modules.items()):
        if name.startswith("pathgraph") and getattr(mod, "components_without", None) is walk:
            monkeypatch.setattr(mod, "components_without", guarded)
    monkeypatch.setattr(decompose.GammaComponent, "component", property(refuse))
    assert recognize_path_graph(g).is_path_graph
    assert recognize_directed_path_graph(g).status in (DIRECTED_PATH_GRAPH, NOT_DIRECTED_PATH_GRAPH)
    assert is_clique_path_tree(g, realize(g))
    assert clique_separators(g)


def test_reports_pin_no_closure():
    # a verdict holds data only, so the cyclic collector has few objects to
    # rescan per separator: following references from the reports, short of
    # the classes, meets no function and no closure cell
    reports = recognize_path_graph(path(300)).reports
    seen, todo, found = set(), list(reports), []
    while todo:
        obj = todo.pop()
        if isinstance(obj, type) or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (types.FunctionType, types.CellType)):
            found.append(obj)
        else:
            todo.extend(gc.get_referents(obj))
    assert len(reports) == 297 and found == []


@pytest.mark.parametrize("g", [_GP80, _P200], ids=["gen_path_graph_80_80_0", "P_200"])
def test_member_recognition_builds_no_neighbor_map_nor_trace_tuple(monkeypatch, g):
    # traces stay masks over Q and the relations are read off them: no
    # separator decodes a trace or builds a neighbor map, for a part or a class
    built = Counter()
    neighbor_map, traces = decompose._neighbor_map, decompose.GammaComponent.traces

    def counted_map(q, masks):
        built["neighbor_map"] += 1
        return neighbor_map(q, masks)

    def counted_traces(part):
        built["traces"] += 1
        return traces.fget(part)

    for mod in (decompose, attach):
        monkeypatch.setattr(mod, "_neighbor_map", counted_map)
    monkeypatch.setattr(decompose.GammaComponent, "traces", property(counted_traces))
    assert recognize_path_graph(g).is_path_graph
    assert recognize_directed_path_graph(g).status in (DIRECTED_PATH_GRAPH, NOT_DIRECTED_PATH_GRAPH)
    if g is _GP80:
        assert is_clique_path_tree(g, realize(g))
    assert built == Counter()
    # the counters see a read when there is one
    dec = recognize_path_graph(g).reports[0].decomposition
    assert dec.neighbor_map and dec.gammas[0].traces
    assert built == Counter(neighbor_map=1, traces=1)


_GP80_TWICE = Graph.from_edges(160, _GP80.edges() + shift(_GP80.edges(), 80))


@pytest.mark.parametrize("g, pieces", [(_GP80, [0]), (_GP80_TWICE, [0, 80])])
@pytest.mark.parametrize("command", [("certify", "--realize", "--json"), ("realize", "--json")])
def test_cli_analyzes_each_component_once(monkeypatch, tmp_path, g, pieces, command):
    # one pass over the separators of the whole graph, whatever the number of
    # components (named by their smallest vertices); the tree and the host
    # come from its reports and index
    assert [comp[0] for comp in connected_components(g)] == pieces
    call = _cli(*command)(g, tmp_path)
    calls = []
    scan = recognize._separators

    def counted(index):
        calls.append(len(index.order))
        return scan(index)

    monkeypatch.setattr(recognize, "_separators", counted)
    assert call() == 0
    assert calls == [g.n]


_MEMBERS_INTERLEAVED = interleaved(
    [_GP80, make_worked8(), Graph.from_edges(3, [(0, 1), (1, 2)]), Graph(1, (frozenset(),))], 0
)


@pytest.mark.parametrize(
    "prepare",
    [_direct(recognize_path_graph), _direct(realize), _cli("certify", "--realize", "--json")],
    ids=["recognize", "realize", "cli_certify_realize"],
)
def test_disconnected_input_is_never_rebuilt_per_component(tmp_path, prepare):
    # a member, so realize and --realize build a tree
    assert recognize_path_graph(_MEMBERS_INTERLEAVED).is_path_graph
    prepare(_MEMBERS_INTERLEAVED, tmp_path)()
    # and no package module can rebuild a component on its own: none defines
    # or imports induced_subgraph
    modules = [pathgraph] + [
        importlib.import_module(f"pathgraph.{info.name}")
        for info in pkgutil.iter_modules(pathgraph.__path__)
    ]
    assert not [mod.__name__ for mod in modules if hasattr(mod, "induced_subgraph")]


@pytest.mark.parametrize(
    "prepare",
    [
        _direct(recognize_path_graph),
        _direct(recognize_directed_path_graph),
        _direct(realize),
        _on_realized(clique_path_tree_to_host),
        _cli("certify", "--realize", "--json"),
    ],
    ids=["recognize", "recognize_directed", "realize", "host", "cli_certify_realize"],
)
def test_input_graph_is_never_traversed_for_its_components(monkeypatch, tmp_path, prepare):
    # the components come with the clique index from the one search; the
    # tree checks may still traverse the trees they are given
    g = _MEMBERS_INTERLEAVED
    call = prepare(g, tmp_path)
    inputs, traversed = [g], []
    read = cli._read_graph

    def reading(args):
        inputs.append(read(args))
        return inputs[-1]

    components = graphs.connected_components

    def counted(graph):
        traversed.extend(h for h in inputs if graph is h)
        return components(graph)

    monkeypatch.setattr(cli, "_read_graph", reading)
    for name, mod in list(sys.modules.items()):
        if name.startswith("pathgraph") and (
            getattr(mod, "connected_components", None) is components
        ):
            monkeypatch.setattr(mod, "connected_components", counted)
    call()
    assert traversed == []


def _seeded_union(seed):
    """Two to four chordal pieces, some of them non-members, ids interleaved."""
    rng = SplitMix64(seed)
    pieces = []
    for _ in range(2 + rng.randrange(3)):
        kind = rng.randrange(5)
        if kind == 0:
            pieces.append(k4_hub(4))
        elif kind == 1:
            pieces.append(gen_chordal(3 + rng.randrange(10), seed))
        else:
            size = 1 + rng.randrange(12)
            pieces.append(gen_path_graph(size, size, seed)[0])
    return interleaved(pieces, seed)


def _index_components(g):
    """CliqueIndex.components rebuilt from connected_components and the
    canonical clique list: each clique goes to the component of its first
    vertex."""
    comps = connected_components(g)
    cliques = maximal_cliques(g)
    return tuple(
        (comp, tuple(i for i, c in enumerate(cliques) if c[0] in comp)) for comp in comps
    )


def test_index_components_match_a_traversal():
    cases = [Graph(0, ()), Graph.from_edges(4, []), Graph.from_edges(5, [(1, 3)])]
    cases += [_seeded_union(seed) for seed in range(40)]
    for g in cases:
        assert chordal._index_or_hole(g).components == _index_components(g)


def _per_component(g):
    """Status and (q, refutation kind, witness) per separator, from
    recognize_path_graph on each component's induced subgraph, mapped back to
    input ids, up to the first refuted component."""
    seps = []
    for comp in connected_components(g):
        sub, idmap = induced_subgraph(g, comp)
        v = recognize_path_graph(sub)
        for r in v.reports:
            ref = r.refutation
            witness = None if ref is None or ref.witness is None else idmap[ref.witness]
            seps.append((tuple(idmap[x] for x in r.q), ref and ref.kind, witness))
        if not v.is_path_graph:
            return v.status, seps
    return PATH_GRAPH, seps


def test_disconnected_matches_per_component_recognition():
    members = 0
    for seed in range(60):
        g = _seeded_union(seed)
        v = recognize_path_graph(g)
        seps = [
            (r.q, r.refutation and r.refutation.kind, r.refutation and r.refutation.witness)
            for r in v.reports
        ]
        assert (v.status, seps) == _per_component(g), seed
        assert all(r.decomposition.q == r.q for r in v.reports)
        if v.is_path_graph:
            members += 1
            assert is_clique_path_tree(g, realize(g))
    assert 20 <= members < 60


_STAR40 = Graph.from_edges(41, [(0, i) for i in range(1, 41)])


@pytest.mark.parametrize(
    "g, nested",
    [(_GP80, False), (gen_path_graph(80, 80, 1)[0], True), (k4_hub(5), True), (_STAR40, False)],
    ids=["gen_path_graph_80_80_0", "gen_path_graph_80_80_1", "k4_hub_5", "star_1_40"],
)
def test_one_skeleton_and_one_dominance_test_per_separator(monkeypatch, g, nested):
    # each separator gets one quotient, and its report, coloring and
    # obstruction share one skeleton; quotient tests trace nesting at most
    # once per ordered pair of distinct class representatives, and only on
    # pairs that share a Q vertex; gen_path_graph(80, 80, 0) has two parts
    # at every separator, and the star's parts all share one trace, so they
    # form one class: in neither is nesting tested at three parts or more
    skeletons = []
    per_quotient: list[tuple[int, Counter]] = []  # (id of the decomposition, tests)
    skeleton, quotient, nests = coloring.skeleton, recognize.quotient, attach._nests

    def counted_skeleton(m):
        skeletons.append(id(m))
        return skeleton(m)

    def counted_quotient(dec):
        per_quotient.append((id(dec), Counter()))
        return quotient(dec)

    def counted_nests(u, masks):
        per_quotient[-1][1][u, tuple(masks)] += 1
        return nests(u, masks)

    for mod in (coloring, recognize):
        monkeypatch.setattr(mod, "skeleton", counted_skeleton)
    monkeypatch.setattr(recognize, "quotient", counted_quotient)
    monkeypatch.setattr(attach, "_nests", counted_nests)
    reports = recognize_path_graph(g).reports
    assert reports
    assert sorted(i for i, _ in per_quotient) == sorted(id(r.decomposition) for r in reports)
    tests_of = dict(per_quotient)
    for r in reports:
        nest = tests_of[id(r.decomposition)]
        # a test is keyed by one class's trace union and another's trace
        # masks; count the ordered pairs of distinct representatives that
        # share a Q vertex under each key
        m = r.attachedness
        pairs = Counter(
            (m.masks[a], m.gammas[b].masks)
            for a, b in itertools.permutations(range(m.size), 2)
            if m.masks[a] & m.masks[b]
        )
        assert all(count <= pairs[key] for key, count in nest.items())
    wide = [tests_of[id(r.decomposition)] for r in reports if r.decomposition.size > 2]
    assert any(wide) == nested
    assert sorted(skeletons) == sorted(id(r.attachedness) for r in reports)


def _report_fields(rep):
    """A report as plain data, field by field: its parts, its classes and
    their relations, its skeleton and its coloring or refutation, with the
    dicts in order too."""
    dec, m, s, c = rep.decomposition, rep.attachedness, rep.skeleton, rep.coloring
    parts = [(gm.index, gm.relevant_cliques, gm.smallest, gm.masks) for gm in dec.gammas]
    classes = (m.q, [gm.index for gm in m.gammas], m.class_members, m.antipodal, m.up, m.masks)
    f = None if c is None else list(c.f.items())
    return (rep.q, dec.q, parts, classes, s, list(s.member_of.items()), c, f,
            rep.refutation, rep.obstruction, rep.vertex_map)


def test_one_scan_matches_the_eager_reference(chordal_corpus, wider_graphs):
    # the scan that reports only three or more parts, its two-part reports
    # built on read, gives the status and the reports of the scan that built
    # every report as it went; a non-member's last report is the refuted one
    graphs = [g for _, g in chordal_corpus] + [g for _, g in wider_graphs]
    graphs += [gen_path_graph(n, n, s)[0] for n in (40, 80) for s in range(10)]
    graphs += [path(n) for n in (1, 2, 3, 4, 50, 301)] + [star(n) for n in (1, 2, 3, 10)]
    graphs += [k4_hub(t) for t in range(3, 10)]
    graphs += [bridged_hub(gen_path_graph(n, n, 1)[0]) for n in (150, 200)]
    graphs += [_seeded_union(seed) for seed in range(20)] + [_MEMBERS_INTERLEAVED]
    refuted = 0
    for g in graphs:
        verdict = recognize_path_graph(g)
        index = chordal._index_or_hole(g)
        if isinstance(index, chordal.HoleCertificate):
            assert verdict.status == NOT_CHORDAL and verdict.reports == ()
            continue
        want = list(reports_by_eager_scan(index))
        wanted = NOT_PATH_GRAPH if want and want[-1].refutation else PATH_GRAPH
        assert verdict.status == wanted
        assert list(map(_report_fields, verdict.reports)) == list(map(_report_fields, want))
        if verdict.status == NOT_PATH_GRAPH:
            assert verdict.reports[-1].refutation is not None
            assert all(r.refutation is None for r in verdict.reports[:-1])
            refuted += 1
    assert refuted > 40


_NEAR_MISS = bridged_hub(gen_path_graph(150, 150, 1)[0])


@pytest.mark.parametrize("g", [path(300), _NEAR_MISS], ids=["P_300", "bridged_near_miss"])
def test_two_part_reports_are_built_once_on_first_read(monkeypatch, tmp_path, g):
    # the verdicts and CLI recognize build no two-part report; the first read
    # of reports builds each once, on the verdict's own index and its one
    # tour, and a second read returns the same tuple
    built, tours = [], []
    report, tour = recognize._report, chordal._Tour

    def counted(dec):
        built.append(dec)
        return report(dec)

    def counted_tour(index):
        tours.append(index)
        return tour(index)

    monkeypatch.setattr(recognize, "_report", counted)
    monkeypatch.setattr(chordal, "_Tour", counted_tour)
    status = 0 if g is not _NEAR_MISS else 1
    for flags in ((), ("--json",)):
        assert _cli("recognize", *flags)(g, tmp_path)() == status
    assert recognize_directed_path_graph(g).status in (DIRECTED_PATH_GRAPH, NOT_DIRECTED_PATH_GRAPH)
    assert all(dec.size > 2 for dec in built)
    built.clear()
    tours.clear()
    verdict = recognize_path_graph(g)
    wide = [r.decomposition for r in verdict._wide.values()]
    assert built == wide and len(tours) == 1
    reports = verdict.reports
    two = [r.decomposition for r in reports if r.decomposition.size == 2]
    assert built == wide + two and two
    assert verdict.reports is reports and built == wide + two and len(tours) == 1
    # the reports stay out of the hash, so a verdict with reports hashes too
    assert hash(verdict) == hash(recognize_path_graph(g))
