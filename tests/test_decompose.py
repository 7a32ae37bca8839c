from collections import Counter
from functools import cached_property

import pytest

import _brute
from _brute import induced_subgraph
from pathgraph import chordal, cli, decompose, recognize
from pathgraph.chordal import HoleCertificate, _index_or_hole
from pathgraph.decompose import _decomposition, _separators, clique_separators, gamma_components
from pathgraph.errors import InputError, PreconditionError
from pathgraph.generate import gen_path_graph, k4_hub
from pathgraph.graphs import Graph, components_without
from pathgraph.io import emit_edgelist
from pathgraph.recognize import recognize_directed_path_graph, recognize_path_graph

from conftest import star
from make_certify_golden import interleaved


def test_worked8_separators(worked8):
    assert clique_separators(worked8) == [(1, 2, 4), (1, 4, 6)]


def test_worked8_parts_and_traces(worked8):
    dec = gamma_components(worked8, (1, 2, 4))
    assert [gm.component for gm in dec.gammas] == [(0,), (3,), (5, 6, 7)]
    assert [gm.traces for gm in dec.gammas] == [
        (((1, 2),)), (((2, 4),)), ((1,), (1, 4), (4,)),
    ]
    assert dec.neighbor_map == {1: (0, 2), 2: (0, 1), 4: (1, 2)}

    dec2 = gamma_components(worked8, (1, 4, 6))
    assert [gm.component for gm in dec2.gammas] == [(0, 2, 3), (5,), (7,)]
    assert [gm.traces for gm in dec2.gammas] == [
        ((1,), (1, 4), (4,)), (((1, 6),)), (((4, 6),)),
    ]


def test_part_vertices_include_separator(worked8):
    dec = gamma_components(worked8, (1, 2, 4))
    for gm in dec.gammas:
        part = set(gm.component) | set(dec.q)
        assert set((1, 2, 4)) <= part
        assert set(gm.component) == part - {1, 2, 4}


def test_relevant_cliques_meet_both_sides(chordal_corpus):
    for _, g in chordal_corpus[:100]:
        for q in clique_separators(g):
            dec = gamma_components(g, q)
            for gm in dec.gammas:
                assert gm.relevant_cliques, "a part always touches the separator"
                for k in gm.relevant_cliques:
                    assert set(k) & set(q)
                    assert set(k) != set(q)
                for t in gm.traces:
                    # a clique holding all of Q equals Q, so traces are proper
                    assert t and set(t) < set(q)


def test_k4hub_single_separator(k4hub):
    assert clique_separators(k4hub) == [(0, 1, 2, 3)]
    dec = gamma_components(k4hub, (0, 1, 2, 3))
    assert [gm.traces for gm in dec.gammas] == [(((0, 1),)), (((0, 2),)), (((0, 3),))]


def test_atom_has_no_separators():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert clique_separators(g) == []


def test_preconditions():
    disconnected = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(PreconditionError):
        clique_separators(disconnected)
    hole = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(PreconditionError):
        clique_separators(hole)
    triangle = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    with pytest.raises(PreconditionError):
        gamma_components(triangle, (0, 1))  # not maximal
    with pytest.raises(PreconditionError):
        gamma_components(triangle, (0, 1, 2, 3))  # not a clique
    with pytest.raises(PreconditionError):
        gamma_components(triangle, (2, 3))  # does not separate


@pytest.mark.parametrize("bad", [True, 1.0], ids=["bool", "float"])
def test_gamma_components_rejects_bool_and_float_ids(bad):
    # (1, 2) is a maximal clique separator of P_4, and True == 1.0 == 1
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert gamma_components(p4, (1, 2)).q == (1, 2)
    with pytest.raises(InputError, match="not an int"):
        gamma_components(p4, (bad, 2))


def test_gamma_components_rejects_a_separator_that_is_no_vertex_list():
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(InputError, match="expected separator vertex ids, got NoneType"):
        gamma_components(p4, None)


def test_traces_are_deduplicated():
    # the part {3,4,5} carries cliques {0,3,4} and {0,4,5}, both tracing {0}
    g = Graph.from_edges(
        7,
        [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (0, 4), (4, 5), (0, 5), (0, 6)],
    )
    q = (0, 1, 2)
    assert q in clique_separators(g)
    dec = gamma_components(g, q)
    part = next(gm for gm in dec.gammas if 3 in gm.component)
    assert part.relevant_cliques == ((0, 3, 4), (0, 4, 5))
    assert part.traces == ((0,),)


def test_components_partition_the_rest(chordal_corpus):
    for _, g in chordal_corpus[:80]:
        for q in clique_separators(g):
            dec = gamma_components(g, q)
            seen = sorted(v for gm in dec.gammas for v in gm.component)
            assert seen == [v for v in range(g.n) if v not in set(q)]


def test_relevant_cliques_match_induced_parts(chordal_corpus):
    # the index-derived relevant cliques equal those of the rebuilt part G[C + Q]
    checked = 0
    for _, g in chordal_corpus:
        for q in clique_separators(g):
            for gm in gamma_components(g, q).gammas:
                sub, idmap = induced_subgraph(g, set(gm.component) | set(q))
                order = _brute.mcs_order_by_scan(sub)[::-1]
                want = []
                for c in _brute.maximal_cliques_by_containment(sub, order):
                    k = tuple(idmap[v] for v in c)
                    if set(k) & set(q) and k != q:
                        want.append(k)
                assert gm.relevant_cliques == tuple(sorted(want))
                checked += 1
    assert checked > 400


def test_tree_parts_match_traversal_reference(mixed_graphs):
    # separator order, part order, vertices, relevant cliques, traces and
    # neighbor map all agree with one traversal of G - Q per clique
    assert parts_match_traversal(mixed_graphs) > 1000


def test_tree_parts_match_traversal_reference_on_wider_graphs(wider_graphs):
    # longer chains and larger stars, and ids past 64 that are not Q positions
    assert parts_match_traversal(wider_graphs) > 2500


def parts_match_traversal(graphs):
    """Check every decomposition in graphs against the traversal reference;
    the number of separators checked."""
    separators = 0
    for name, g in graphs:
        index = _index_or_hole(g)
        if isinstance(index, HoleCertificate):
            continue
        got = list(_brute.decompositions(index))
        want = list(_brute.decompositions_by_traversal(g, index))
        assert [dec.q for dec in got] == [q for q, _, _ in want], name
        for dec, (_, parts, nmap) in zip(got, want):
            assert [gm.index for gm in dec.gammas] == list(range(len(parts)))
            assert [
                (gm.component, gm.relevant_cliques, gm.traces) for gm in dec.gammas
            ] == parts, name
            assert [gm.smallest for gm in dec.gammas] == [c[0] for c, _, _ in parts]
            assert dec.neighbor_map == nmap
            separators += 1
    return separators


def test_wide_decompositions_are_the_wide_separators(wider_graphs):
    # the tour's part counts pick out the separators of three or more parts,
    # whose decompositions are those of the full scan, in the same order
    wide = 0
    for name, g in wider_graphs:
        index = _index_or_hole(g)
        if isinstance(index, HoleCertificate):
            continue
        want = [parts(dec) for dec in _brute.decompositions(index) if dec.size > 2]
        got = [
            parts(_decomposition(index, qi))
            for qi in _separators(index)
            if index.tour.parts[qi] > 2
        ]
        assert got == want, name
        wide += len(got)
    assert wide > 500


def parts(dec):
    return dec.q, [(gm.component, gm.relevant_cliques, gm.smallest, gm.masks) for gm in dec.gammas]


def test_tour_counts_the_parts_of_every_clique(chordal_corpus, wider_graphs):
    # G - Q has one part per clique tree edge whose separator lies in Q; a
    # traversal of G - Q per clique counts them too
    cliques = 0
    for name, g in [*chordal_corpus, *wider_graphs]:
        index = _index_or_hole(g)
        if isinstance(index, HoleCertificate) or len(index.components) > 1:
            continue
        want = [len(components_without(g, q)) for q in index.cliques]
        assert index.tour.parts == want, name
        cliques += len(want)
    assert cliques > 3000, cliques


def _path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def test_tour_part_counts_match_the_intersection_reference(
    chordal_corpus, wider_graphs, mixed_graphs
):
    # the walk down each separator's subtree against one intersection of its
    # vertices' occurrences: hubs, whose walk looks up the rarest vertex,
    # stars centred first and last, a long spine, disconnected mixes with
    # components of one and two cliques beside larger ones, isolated vertices
    spine, leaves = 2000, 8
    caterpillar = Graph.from_edges(spine * (1 + leaves), [
        *((i, i + 1) for i in range(spine - 1)),
        *((i, spine + i * leaves + j) for i in range(spine) for j in range(leaves)),
    ])
    pieces = [k4_hub(6), star(30), _path(3), Graph.from_edges(50, []), _path(2)]
    graphs = [g for _, g in [*chordal_corpus, *wider_graphs, *mixed_graphs]]
    graphs += [
        Graph.from_edges(801, [(0, i) for i in range(1, 801)]),
        Graph.from_edges(801, [(800, i) for i in range(800)]),
        *(k4_hub(t) for t in (*range(3, 10), 200)),
        caterpillar,
        interleaved([*pieces, gen_path_graph(40, 40, 2)[0]], 7),
        interleaved(pieces, 8),
        Graph.from_edges(20000, []),
    ]
    toured = 0
    for i, g in enumerate(graphs):
        index = _index_or_hole(g)
        if isinstance(index, HoleCertificate):
            continue
        assert index.tour.parts == _brute.parts_by_intersection(index), i
        toured += 1
    assert toured > 1200, toured


def _table_builds(monkeypatch):
    """Count the builds of every tour's range-minimum table."""
    builds = []
    table = chordal._Tour.__dict__["_table"].func

    def counted(tour):
        builds.append(tour)
        return table(tour)

    prop = cached_property(counted)
    prop.__set_name__(chordal._Tour, "_table")
    monkeypatch.setattr(chordal._Tour, "_table", prop)
    return builds


def test_verdicts_that_decompose_nothing_build_no_range_minima(monkeypatch):
    # P_300's separators all have two parts: neither verdict decomposes one,
    # so neither builds nor keeps the table
    builds, indexes = _table_builds(monkeypatch), []
    index_or_hole = recognize._index_or_hole

    def kept(g):
        indexes.append(index_or_hole(g))
        return indexes[-1]

    monkeypatch.setattr(recognize, "_index_or_hole", kept)
    g = _path(300)
    verdict = recognize_path_graph(g)
    assert recognize_directed_path_graph(g).is_directed_path_graph
    assert len(indexes) == 2 and indexes[0] is verdict._index
    for index in indexes:
        assert index.tour.parts.count(2) == 297
        assert "_table" not in vars(index.tour)
    assert builds == []
    # the first read of the reports decomposes, and builds the table then
    assert len(verdict.reports) == 297
    assert builds == [verdict._index.tour]


def test_one_decomposition_builds_the_range_minima_once(monkeypatch):
    # the first decomposition that asks for a range minimum builds the
    # table; every later one reads it
    builds = _table_builds(monkeypatch)
    index = _index_or_hole(gen_path_graph(80, 80, 3)[0])
    separators = list(_separators(index))
    assert len(separators) > 5 and builds == []
    for qi in separators:
        _decomposition(index, qi)
        assert builds in ([], [index.tour])
    assert builds == [index.tour]


def test_a_clique_with_many_children_outside_q_leaves_them_one_range(monkeypatch):
    # a broom: Q = (1, 2) meets three cliques, and (2, 3) has 600 children
    # that miss Q, which lie in one preorder range below it; the range
    # minima asked for number at most the cliques that meet Q, plus two
    g = Graph.from_edges(604, [(0, 1), (1, 2), (2, 3), *((3, 4 + i) for i in range(600))])
    index = _index_or_hole(g)
    near = {z for v in (1, 2) for z in index.occurrences[v]}
    assert len(near) == 3
    assert index.parent.count(index.cliques.index((2, 3))) == 600
    calls = []
    least = chordal._Tour.least
    monkeypatch.setattr(
        chordal._Tour, "least", lambda t, a, b: calls.append((a, b)) or least(t, a, b)
    )
    dec = _decomposition(index, index.cliques.index((1, 2)))
    assert len(calls) <= len(near) + 2
    parts = [(gm.smallest, gm.component) for gm in dec.gammas]
    assert parts == [(0, (0,)), (3, tuple(range(3, 604)))]


@pytest.mark.parametrize("g", [_path(60), star(40), gen_path_graph(80, 80, 3)[0]],
                         ids=["path", "star", "gen_path_graph(80,80,3)"])
def test_range_minima_match_a_scan_of_every_range(g):
    index = _index_or_hole(g)
    tour, c = index.tour, len(index.cliques)
    firsts = [index.cliques[x][0] for x in tour.nodes]
    for a in range(c):
        for b in range(a + 1, c + 1):
            assert tour.least(a, b) == min(firsts[a:b]), (a, b)


def test_components_too_small_to_separate_are_passed_over(monkeypatch):
    # Q and two parts take three cliques: isolated vertices and edges have
    # no separator, so no clique of theirs is tried and no tour is built;
    # P_4 has three cliques and one separator of two parts
    calls, tours = Counter(), Counter()
    decomposition, tour = decompose._decomposition, chordal._Tour

    def counted(index, qi):
        calls[index.cliques[qi]] += 1
        return decomposition(index, qi)

    def counted_tour(index):
        tours["built"] += 1
        return tour(index)

    for mod in (decompose, recognize):
        monkeypatch.setattr(mod, "_decomposition", counted)
    monkeypatch.setattr(chordal, "_Tour", counted_tour)
    small = Graph.from_edges(60, [(i, i + 1) for i in range(40, 60, 2)])
    assert recognize_path_graph(small).reports == ()
    assert recognize_directed_path_graph(small).is_directed_path_graph
    assert calls == tours == Counter()

    # the path verdict's scan reads the part counts of P_4's cliques off
    # its index's one tour, and its one two-part separator is decomposed on
    # the first read of the reports; the directed scan, on an index and tour
    # of its own, decomposes no two-part separator
    g = Graph.from_edges(64, [*small.edges(), (60, 61), (61, 62), (62, 63)])
    verdict = recognize_path_graph(g)
    assert calls == Counter() and tours == Counter(built=1)
    assert [rep.q for rep in verdict.reports] == [(61, 62)]
    assert calls == Counter({(61, 62): 1}) and tours == Counter(built=1)
    assert recognize_directed_path_graph(g).is_directed_path_graph
    assert calls == Counter({(61, 62): 1}) and tours == Counter(built=2)


_GP80_1 = gen_path_graph(80, 80, 1)[0]


def _count_decompositions(monkeypatch):
    calls = []
    decomposition = decompose._decomposition

    def counted(index, qi):
        calls.append(qi)
        return decomposition(index, qi)

    for mod in (decompose, cli):
        monkeypatch.setattr(mod, "_decomposition", counted)
    return calls


def test_separators_are_listed_without_decomposing(monkeypatch):
    calls = _count_decompositions(monkeypatch)
    seps = clique_separators(_GP80_1)
    assert len(seps) == 9 and calls == []


def test_cli_attachedness_decomposes_only_the_separator_it_prints(monkeypatch, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(emit_edgelist(_GP80_1))
    calls = _count_decompositions(monkeypatch)
    assert cli.main(["attachedness", "--separator", "3", "--quiet", str(path)]) == 0
    assert len(calls) == 1
    index = _index_or_hole(_GP80_1)
    assert index.cliques[calls[0]] == clique_separators(_GP80_1)[3]
