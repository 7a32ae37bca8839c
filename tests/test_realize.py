import copy
import dataclasses
import pickle
import random
from collections import Counter
from functools import reduce
from operator import or_

import pytest

import _brute
from make_certify_golden import _path, corpus
from pathgraph import chordal, decompose, oracle, recognize
from pathgraph.chordal import (
    CliqueTree,
    HoleCertificate,
    _decided,
    _proven_occurrences,
    _index_or_hole,
    _tree_adj,
    is_clique_path_tree,
)
from pathgraph.errors import InputError, PreconditionError
from pathgraph.generate import gen_chordal, gen_path_graph
from pathgraph.graphs import Graph
from pathgraph.realize import (
    HostRealization,
    _tree_from,
    clique_path_tree_to_host,
    realize,
    verify_realization,
)
from pathgraph.recognize import recognize_path_graph

from conftest import WORKED8_EDGES


def test_worked8_realization(worked8):
    tree = realize(worked8)
    assert is_clique_path_tree(worked8, tree)
    host = clique_path_tree_to_host(worked8, tree)
    assert host.host_n == 6
    assert host.paths == (
        (0,),
        (0, 1, 2, 3),
        (0, 1, 4),
        (4,),
        (4, 1, 2, 5),
        (3,),
        (3, 2, 5),
        (5,),
    )
    assert verify_realization(worked8, host)


def test_rejected_graphs_raise(k4hub):
    with pytest.raises(PreconditionError):
        realize(k4hub)
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(PreconditionError):
        realize(c4)


def test_atom_realization():
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    tree = realize(k4)
    assert tree.cliques == ((0, 1, 2, 3),)
    host = clique_path_tree_to_host(k4, tree)
    assert host.paths == ((0,), (0,), (0,), (0,))


def test_tiny_graphs():
    one = Graph.from_edges(1, [])
    assert clique_path_tree_to_host(one, realize(one)).paths == ((0,),)
    two = Graph.from_edges(2, [])
    host = clique_path_tree_to_host(two, realize(two))
    assert host.paths == ((0,), (1,))
    assert verify_realization(two, host)


def test_disconnected_realization(worked8):
    g = Graph.from_edges(11, WORKED8_EDGES + [(8, 9), (9, 10), (8, 10)])
    tree = realize(g)
    assert is_clique_path_tree(g, tree)
    host = clique_path_tree_to_host(g, tree)
    assert verify_realization(g, host)
    assert len(host.paths) == 11


def test_realization_on_corpus(chordal_corpus):
    realized = 0
    for _, g in chordal_corpus:
        if not recognize_path_graph(g).is_path_graph:
            continue
        tree = realize(g)
        assert is_clique_path_tree(g, tree)
        host = clique_path_tree_to_host(g, tree)
        assert verify_realization(g, host)
        realized += 1
    assert realized > 250


def test_host_paths_match_the_stepping_walk(mixed_graphs):
    cases = [(name, g) for name, g, _ in corpus()]
    cases += [(f"gen_path_graph({n},{n},1)", gen_path_graph(n, n, 1)[0]) for n in (200, 400, 800, 1600)]
    cases += [(f"P_{n}", _path(n)) for n in range(2, 61)]
    cases += [(name, g) for name, g in mixed_graphs if name.startswith("union-")]
    members = unions = 0
    for name, g in cases:
        if not recognize_path_graph(g).is_path_graph:
            continue
        tree = realize(g)
        occurrences = _decided(g, tree, "test", path=True, canonical=True)
        want = _brute.host_paths_by_steps(occurrences, tree)
        assert clique_path_tree_to_host(g, tree) == want, name
        members += 1
        unions += name.startswith("union-")
    assert members > 300 and unions > 10


def test_realized_trees_carry_the_occurrences_their_proof_reads(mixed_graphs):
    # realize's tree keeps its graph, by identity, and occurrences equal to
    # those the tree's own proof reads off it, on the suite's corpora
    graphs = [g for _, g in mixed_graphs]
    graphs += [gen_path_graph(n, n, 1)[0] for n in (200, 400, 800, 1600)]
    graphs += [g for _, g, _ in corpus()]
    members = 0
    for g in graphs:
        try:
            t = realize(g)
        except PreconditionError:
            continue
        proven, occurrences = t._proof
        assert proven is g
        assert list(map(list, occurrences)) == _proven_occurrences(g, t, path=True)
        members += 1
    assert members > 500


def test_any_other_tree_gets_the_full_proof(monkeypatch):
    # the carried proof holds only for realize's tree with the very graph it
    # was built from; an equal copy, a replaced, copied or unpickled tree or
    # an equal graph is proven again, and a bad replaced edge set gets the
    # proof's error
    g = gen_path_graph(40, 40, 1)[0]
    t = realize(g)
    proofs = []
    real = chordal._proven_occurrences

    def counted(*args):
        proofs.append(args)
        return real(*args)

    monkeypatch.setattr(chordal, "_proven_occurrences", counted)
    host = clique_path_tree_to_host(g, t)
    assert proofs == []
    rebuilt = CliqueTree(t.cliques, t.edges)
    assert rebuilt == t and hash(rebuilt) == hash(t) and repr(rebuilt) == repr(t)
    same = Graph(g.n, g.adj, g.labels)
    assert same == g and same is not g
    copies = [dataclasses.replace(t), copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))]
    assert all(u == t and u._proof is None for u in copies)
    for h, u in [(same, t), (g, rebuilt), *((g, u) for u in copies)]:
        proofs.clear()
        assert clique_path_tree_to_host(h, u) == host
        assert len(proofs) == 1
    bad = dataclasses.replace(t, edges=t.edges - {min(t.edges)})
    assert bad._proof is None
    with pytest.raises(PreconditionError, match="requires a clique path tree"):
        clique_path_tree_to_host(g, bad)
    with pytest.raises(InputError, match="canonical"):
        clique_path_tree_to_host(Graph.from_edges(g.n + 1, g.edges()), t)


def test_host_requires_a_path_tree(k4hub):
    from pathgraph.chordal import clique_tree

    t = clique_tree(k4hub)
    with pytest.raises(PreconditionError):
        clique_path_tree_to_host(k4hub, t)


@pytest.mark.parametrize("bad", [True, 1.0], ids=["bool", "float"])
def test_clique_path_tree_to_host_rejects_bool_and_float_edges(bad):
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(InputError, match="not a pair of ints"):
        clique_path_tree_to_host(p3, CliqueTree(((0, 1), (1, 2)), frozenset({(0, bad)})))


@pytest.mark.parametrize("bad", [True, 1.0], ids=["bool", "float"])
def test_clique_path_tree_to_host_rejects_bool_and_float_clique_ids(bad):
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(InputError, match="canonical maximal clique list"):
        clique_path_tree_to_host(p3, CliqueTree(((0, bad), (bad, 2)), frozenset({(0, 1)})))


@pytest.mark.parametrize("bad", [True, 1.0], ids=["bool", "float"])
def test_verify_realization_rejects_bool_and_float_nodes(bad):
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    edges, paths = frozenset({(0, 1)}), ((0,), (0, 1), (1,))
    assert verify_realization(p3, HostRealization(2, edges, paths))
    assert not verify_realization(p3, HostRealization(2, edges, ((0,), (0, bad), (1,))))
    assert not verify_realization(p3, HostRealization(2, frozenset({(0, bad)}), paths))


def test_verify_realization_rejects_bad_hosts():
    k2 = Graph.from_edges(2, [(0, 1)])
    good = HostRealization(1, frozenset(), ((0,), (0,)))
    assert verify_realization(k2, good)
    # intersecting paths with no edge in the graph
    e2 = Graph.from_edges(2, [])
    assert not verify_realization(e2, good)
    # disjoint paths across an edge
    apart = HostRealization(2, frozenset({(0, 1)}), ((0,), (1,)))
    assert not verify_realization(k2, apart)
    # not a path of the host tree
    jump = HostRealization(3, frozenset({(0, 1), (1, 2)}), ((0, 2), (2,)))
    assert not verify_realization(k2, jump)
    # repeated node
    loop = HostRealization(2, frozenset({(0, 1)}), ((0, 1, 0), (0,)))
    assert not verify_realization(k2, loop)
    # wrong path count
    assert not verify_realization(k2, HostRealization(1, frozenset(), ((0,),)))
    # host with a cycle
    triangle = HostRealization(3, frozenset({(0, 1), (1, 2), (0, 2)}), ((0, 1, 2), (2,)))
    assert not verify_realization(k2, triangle)
    # path nodes outside the host
    assert not verify_realization(k2, HostRealization(1, frozenset(), ((5,), (5,))))
    # host edge out of range
    assert not verify_realization(k2, HostRealization(2, frozenset({(0, 7)}), ((0,), (0,))))
    # empty path
    e1 = Graph.from_edges(1, [])
    assert not verify_realization(e1, HostRealization(1, frozenset(), ((),)))
    # a negative node count, and no edge set
    e0 = Graph.from_edges(0, [])
    assert not verify_realization(e0, HostRealization(-1, frozenset(), ()))
    assert not verify_realization(k2, HostRealization(1, None, ((0,), (0,))))
    # no host, a host that is a str, and a graph argument that is no Graph
    assert not verify_realization(k2, None) and not verify_realization(k2, "x")
    with pytest.raises(InputError, match="expected a Graph, got NoneType"):
        verify_realization(None, good)


@pytest.fixture
def no_oracle(monkeypatch):
    """Fail on any use of the exhaustive tree sweep, by whatever route."""

    def refuse(*args):
        raise AssertionError("realize used the exhaustive oracle")

    monkeypatch.setattr(oracle, "oracle_clique_path_tree", refuse)
    monkeypatch.setattr(oracle, "_first_path_tree", refuse)


@pytest.mark.parametrize(
    "args",
    # (40,40,3) is the smallest input that once failed outright, (10,8,26)
    # on 8 vertices the smallest that once needed the oracle
    [(n, n, s) for n in (40, 80) for s in range(40)] + [(10, 8, 26)],
    ids=lambda a: "gen_path_graph(%d,%d,%d)" % a,
)
def test_realize_is_total_without_the_oracle(no_oracle, args):
    g, _ = gen_path_graph(*args)
    assert verify_realization(g, clique_path_tree_to_host(g, realize(g)))


def test_long_path_realizes_at_the_default_recursion_limit(no_oracle):
    g = Graph.from_edges(1200, [(i, i + 1) for i in range(1199)])
    host = clique_path_tree_to_host(g, realize(g))
    assert host.host_n == 1199
    assert verify_realization(g, host)


def _mutated(host, rng):
    """host with one vertex's path moved: shortened, extended along the tree,
    shifted by one node, or replaced by a single node."""
    adj = {x: set() for x in range(host.host_n)}
    for a, b in host.host_edges:
        adj[a].add(b)
        adj[b].add(a)
    paths = list(host.paths)
    u = rng.randrange(len(paths))
    p = list(paths[u])
    kind = rng.randrange(4)
    if kind == 0 and len(p) > 1:
        p = p[1:] if rng.randrange(2) else p[:-1]
    elif kind in (1, 2):
        if rng.randrange(2):
            p.reverse()
        grow = sorted(adj[p[-1]] - set(p))
        if grow:
            p.append(rng.choice(grow))
            if kind == 2 and len(p) > 1:
                p = p[1:]
    else:
        p = [rng.randrange(host.host_n)]
    paths[u] = tuple(p)
    return HostRealization(host.host_n, host.host_edges, tuple(paths))


def test_verify_realization_matches_pairwise_reference():
    rng = random.Random(2024)
    verdicts = []
    for seed in range(150):
        g, host = gen_path_graph(rng.randrange(2, 25), rng.randrange(1, 25), seed)
        for h in [host] + [_mutated(host, rng) for _ in range(6)]:
            want = _brute.realization_by_pairs(g, h)
            assert verify_realization(g, h) == want
            verdicts.append(want)
    assert verdicts.count(True) > 200 and verdicts.count(False) > 200


def test_parts_of_g_minus_h_are_placed_by_relevant_cliques_and_traces(
    mixed_graphs, wider_graphs
):
    # realize hangs the parts of G - H for H, a relevant clique of a part D
    # of G - K, that separates. Read off the traversal reference: K's part
    # of G - H, the one holding K - H, is the one K is a relevant clique
    # of; every other part lies inside D when its traces meet H - K, and
    # outside D otherwise
    triples = 0
    for name, g in [*mixed_graphs, *wider_graphs]:
        index = _index_or_hole(g)
        if isinstance(index, HoleCertificate):
            continue
        at = {}  # q -> its parts, vertex -> part, relevant clique -> part, neighbor map
        for q, parts, nmap in _brute.decompositions_by_traversal(g, index):
            part_of = {v: i for i, (c, _, _) in enumerate(parts) for v in c}
            rel_of = {r: i for i, (_, rel, _) in enumerate(parts) for r in rel}
            at[q] = parts, part_of, rel_of, nmap
        for k, (parts, _, _, _) in at.items():
            for d, rel, _ in parts:
                for h in filter(at.__contains__, rel):
                    h_parts, part_of, rel_of, nmap = at[h]
                    held = rel_of[k]
                    assert {part_of[v] for v in k if v not in h} == {held}, name
                    touching = {part_of[v] for v in d if v not in h} - {held}
                    meeting = set().union(*(nmap[v] for v in h if v not in k)) - {held}
                    assert touching == meeting, name
                    assert all(set(d).issuperset(h_parts[i][0]) for i in touching), name
                    triples += 1
    assert triples > 150000


def _assert_boundary_edge_facts(index, qi):
    """At a two-part separator Q, each part's traces have a union that is one
    of them, and that union is the separator of the part's boundary edge:
    of the two tree edges whose separator lies in Q, the one that leaves the
    part's region toward Q."""
    q, parent, seps = index.cliques[qi], index.parent, index.seps
    cut = {(z, parent[z]) for z in range(len(parent)) if parent[z] >= 0 and seps[z] <= set(q)}
    assert len(cut) == 2
    adj = _tree_adj(len(parent), {(z, p) for z, p in enumerate(parent) if p >= 0} - cut)
    for gm in decompose._decomposition(index, qi).gammas:
        union = reduce(or_, gm.masks)
        assert union in gm.masks
        region = _region(adj, index.cliques.index(gm.relevant_cliques[0]))
        leaving = [e for e in cut if (e[0] in region) != (e[1] in region)]
        (z, p), *_ = sorted(leaving, key=lambda e: qi not in e)
        assert seps[z] == {v for i, v in enumerate(q) if union >> i & 1}
        assert set(index.cliques[z if z in region else p]) & set(q) == seps[z]


def _region(adj, x):
    """The nodes reachable from x in a forest given by its adjacency lists."""
    seen, todo = {x}, [x]
    while todo:
        for y in adj[todo.pop()]:
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


def test_realize_assembles_the_tree_of_every_separator_report(mixed_graphs):
    cases = [(name, g) for name, g, _ in corpus()]
    cases += [(f"gen_path_graph({n},{n},{s})", gen_path_graph(n, n, s)[0])
              for n in (10, 40, 80) for s in range(10)]
    cases += [(f"gen_chordal({4 + s % 40},{s})", gen_chordal(4 + s % 40, s)) for s in range(200)]
    cases += [(name, g) for name, g in mixed_graphs if name.startswith("union-")]
    cases += [(f"P_{n}", _path(n)) for n in range(2, 61)]
    # realize reads a two-part separator off the clique forest by _PAIR_RANK,
    # tree_by_reports off the general report: every shape of two parts is
    # compared
    members, shapes = 0, Counter()
    for name, g in cases:
        verdict = recognize_path_graph(g)
        if not verdict.is_path_graph:
            continue
        assert realize(g).edges == _brute.tree_by_reports(verdict), name
        for qi in verdict._found:
            if isinstance(qi, int):
                _assert_boundary_edge_facts(verdict._index, qi)
        shapes.update(
            _brute.two_part_shape(r) for r in verdict.reports if r.decomposition.size == 2
        )
        members += 1
    assert members > 500 and shapes.total() > 2500
    assert shapes.keys() == set(_brute.TWO_PART_SHAPES), shapes


@pytest.fixture
def decomposed(monkeypatch):
    """The clique index of each separator decomposed from here on, by
    whatever module calls the decomposition."""
    seen = []
    real = decompose._decomposition

    def counted(index, qi):
        seen.append(qi)
        return real(index, qi)

    monkeypatch.setattr(decompose, "_decomposition", counted)
    monkeypatch.setattr(recognize, "_decomposition", counted)
    return seen


@pytest.mark.parametrize(
    "g", [_path(500), gen_path_graph(80, 80, 0)[0]], ids=["P_500", "gen_path_graph(80,80,0)"]
)
def test_two_part_separators_are_realized_without_a_decomposition(decomposed, g):
    verdict = recognize_path_graph(g)
    assert verdict._found and all(isinstance(r, int) for r in verdict._found)
    tree = _tree_from(g, verdict)
    assert decomposed == [] and "reports" not in verdict.__dict__
    assert is_clique_path_tree(g, tree)


def test_realize_decomposes_only_the_separators_of_three_or_more_parts(decomposed):
    g = gen_path_graph(80, 80, 1)[0]
    verdict = recognize_path_graph(g)
    parts = verdict._index.tour.parts
    wide = [qi for qi, k in enumerate(parts) if k > 2]
    assert wide and any(k == 2 for k in parts)
    assert sorted(decomposed) == wide
    _tree_from(g, verdict)
    assert sorted(decomposed) == wide and "reports" not in verdict.__dict__
