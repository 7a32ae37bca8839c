import importlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import _brute
from _brute import induced_subgraph
from pathgraph import chordal
from pathgraph.chordal import (
    CliqueTree,
    EliminationOrder,
    HoleCertificate,
    _index_or_hole,
    _relabelled_components,
    clique_tree,
    is_chordal,
    is_clique_path_tree,
    is_valid_clique_tree,
    maximal_cliques,
    peo_or_hole,
)
from pathgraph.errors import InputError, PathgraphError, PreconditionError
from pathgraph.generate import gen_chordal, gen_path_graph
from pathgraph.graphs import Graph, connected_components


@st.composite
def small_graphs(draw, max_n=7):
    n = draw(st.integers(2, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return Graph.from_edges(n, edges)


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_chordality_matches_simplicial_elimination(g):
    assert is_chordal(g) == _brute.chordal_by_elimination(g)


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_result_is_peo_or_valid_hole(g):
    _assert_peo_or_valid_hole(g, peo_or_hole(g))


def _assert_peo_or_valid_hole(g, res):
    if isinstance(res, EliminationOrder):
        order = res.order
        assert sorted(order) == list(range(g.n))
        pos = {v: i for i, v in enumerate(order)}
        for v in order:
            later = [u for u in g.adj[v] if pos[u] > pos[v]]
            for a, b in itertools.combinations(later, 2):
                assert g.has_edge(a, b)
    else:
        cyc = res.cycle
        k = len(cyc)
        assert k >= 4 and len(set(cyc)) == k
        for i in range(k):
            assert g.has_edge(cyc[i], cyc[(i + 1) % k])
        for i in range(k):
            for j in range(i + 2, k):
                if (i, j) != (0, k - 1):
                    assert not g.has_edge(cyc[i], cyc[j])
        # canonical form: smallest vertex first, smaller second element
        assert cyc[0] == min(cyc)
        assert cyc[1] <= cyc[-1]


def test_every_graph_on_six_vertices_gets_an_order_or_a_hole():
    # the hole comes from the search's own violation on every labeled graph
    # up to 6 vertices, with no other scan behind it
    holes = 0
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph.from_edges(n, [e for k, e in enumerate(pairs) if bits >> k & 1])
            res = peo_or_hole(g)
            _assert_peo_or_valid_hole(g, res)
            hole = isinstance(res, HoleCertificate)
            assert hole != _brute.chordal_by_elimination(g)
            holes += hole
    assert holes == 14819


def test_cycle_holes_come_out_canonical():
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert peo_or_hole(c4) == HoleCertificate((0, 1, 2, 3))
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert peo_or_hole(c5).cycle == (0, 1, 2, 3, 4)


def test_worked8_maximal_cliques(worked8):
    assert maximal_cliques(worked8) == [
        (0, 1, 2), (1, 2, 4), (1, 4, 6), (1, 5, 6), (2, 3, 4), (4, 6, 7),
    ]


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_maximal_cliques_match_enumeration(g):
    if not is_chordal(g):
        with pytest.raises(PreconditionError):
            maximal_cliques(g)
        return
    assert maximal_cliques(g) == _brute.maximal_cliques_by_enumeration(g)


def test_clique_tree_is_valid_on_corpus(chordal_corpus):
    for _, g in chordal_corpus[:150]:
        t = clique_tree(g)
        assert is_valid_clique_tree(g, t)


def test_is_valid_clique_tree_rejects_wrong_trees(worked8):
    t = clique_tree(worked8)
    c = len(t.cliques)
    # not a tree: drop an edge
    some = next(iter(t.edges))
    assert not is_valid_clique_tree(worked8, CliqueTree(t.cliques, t.edges - {some}))
    # tree on the wrong clique list
    assert not is_valid_clique_tree(worked8, CliqueTree(t.cliques[:-1], t.edges))
    # spanning tree without the induced-subtree property: a path in clique order
    chain = frozenset((i, i + 1) for i in range(c - 1))
    assert not is_valid_clique_tree(worked8, CliqueTree(t.cliques, chain))


def test_clique_tree_requires_connected():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(PreconditionError):
        clique_tree(g)


def test_k4hub_clique_tree_is_not_a_path_tree(k4hub):
    # the hub vertex sits in all four cliques, forcing a degree-3 star
    t = clique_tree(k4hub)
    assert is_valid_clique_tree(k4hub, t)
    assert not is_clique_path_tree(k4hub, t)


def test_is_clique_path_tree_accepts_worked8_tree(worked8):
    from pathgraph.oracle import oracle_clique_path_tree

    t = oracle_clique_path_tree(worked8)
    assert t is not None
    assert is_clique_path_tree(worked8, t)


def test_is_clique_path_tree_wants_canonical_cliques(worked8):
    t = clique_tree(worked8)
    with pytest.raises(InputError):
        is_clique_path_tree(worked8, CliqueTree(t.cliques[::-1], t.edges))


_P3 = Graph.from_edges(3, [(0, 1), (1, 2)])


@pytest.mark.parametrize("bad", [True, 1.0], ids=["bool", "float"])
def test_is_clique_path_tree_rejects_bool_and_float_edges(bad):
    # True == 1.0 == 1 and all three hash alike, so only the type tells them apart
    with pytest.raises(InputError, match="not a pair of ints"):
        is_clique_path_tree(_P3, CliqueTree(((0, 1), (1, 2)), frozenset({(0, bad)})))


@pytest.mark.parametrize("bad", [True, 1.0], ids=["bool", "float"])
def test_is_valid_clique_tree_rejects_bool_and_float_edges(bad):
    with pytest.raises(InputError, match="not a pair of ints"):
        is_valid_clique_tree(_P3, CliqueTree(((0, 1), (1, 2)), frozenset({(0, bad)})))


@pytest.mark.parametrize("bad", [True, 1.0], ids=["bool", "float"])
def test_is_clique_path_tree_rejects_bool_and_float_clique_ids(bad):
    # the cliques equal P_3's canonical ones under ==, but 1 is not an int
    with pytest.raises(InputError, match="canonical maximal clique list"):
        is_clique_path_tree(_P3, CliqueTree(((0, bad), (bad, 2)), frozenset({(0, 1)})))


@pytest.mark.parametrize("bad", [True, 1.0], ids=["bool", "float"])
def test_is_valid_clique_tree_rejects_bool_and_float_clique_ids(bad):
    assert not is_valid_clique_tree(_P3, CliqueTree(((0, bad), (bad, 2)), frozenset({(0, 1)})))


def test_tree_checks_reject_out_of_range_edges():
    from pathgraph.realize import HostRealization, clique_path_tree_to_host, verify_realization

    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    cliques = tuple(maximal_cliques(p3))
    # out of range, then not a pair of ints, then no edge set
    bad = ({(0, 5)}, {(0, -1)}, {(0, "1")}, {(0, 1.0)}, {(0,)}, {(0, 1, 1)})
    for edges in [*map(frozenset, bad), None]:
        t = CliqueTree(cliques, edges)
        for check in (is_clique_path_tree, is_valid_clique_tree, clique_path_tree_to_host):
            with pytest.raises(InputError):
                check(p3, t)
    # no clique list: not a clique tree, nor over the canonical cliques
    t = CliqueTree(None, frozenset({(0, 1)}))
    assert not is_valid_clique_tree(p3, t)
    for check in (is_clique_path_tree, clique_path_tree_to_host):
        with pytest.raises(InputError, match="canonical maximal clique list"):
            check(p3, t)
    # a malformed host is rejected, not raised on
    good = clique_path_tree_to_host(p3, CliqueTree(cliques, frozenset({(0, 1)})))
    assert verify_realization(p3, good)
    for host in (
        HostRealization(2, good.host_edges, None),
        HostRealization(2, good.host_edges, (None, (0,), (1,))),
        HostRealization(2, good.host_edges, ((0,), (0, 1.0), (1,))),
        HostRealization(2, frozenset({(0, "1")}), good.paths),
        HostRealization(2, frozenset({(0,)}), good.paths),
        HostRealization(2.0, good.host_edges, good.paths),
    ):
        assert not verify_realization(p3, host)


def test_single_clique_graph():
    g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert maximal_cliques(g) == [(0, 1, 2)]
    t = clique_tree(g)
    assert t.cliques == ((0, 1, 2),) and t.edges == frozenset()
    assert is_clique_path_tree(g, t)


def test_gen_chordal_outputs_are_chordal():
    for seed in range(60):
        g = gen_chordal(4 + seed % 9, seed)
        assert isinstance(peo_or_hole(g), EliminationOrder)


def _reference_graphs():
    """Seeded random graphs up to n=30 (mostly holes) and gen_chordal up to 80."""
    rng = random.Random(20240917)
    graphs = []
    for _ in range(200):
        n = rng.randint(2, 30)
        p = rng.choice((0.05, 0.1, 0.2, 0.4, 0.7))
        pairs = itertools.combinations(range(n), 2)
        graphs.append(Graph.from_edges(n, [e for e in pairs if rng.random() < p]))
    for n in range(4, 81, 4):
        graphs += [gen_chordal(n, seed) for seed in range(3)]
    return graphs


def test_search_and_order_check_match_scan_references():
    graphs = _reference_graphs()
    for g in graphs:
        selection, later, comp = _brute.mcs_by_buckets(g)
        assert chordal._search(g)[0] == selection == _brute.mcs_order_by_scan(g)
        peo = selection[::-1]
        pos = {v: i for i, v in enumerate(peo)}
        for v in range(g.n):
            assert len(later[v]) == len(set(later[v]))
            assert set(later[v]) == {u for u in g.adj[v] if pos[u] > pos[v]}
        assert comp == [
            next(k for k, c in enumerate(connected_components(g)) if v in c)
            for v in range(g.n)
        ]
        bad = _brute.first_peo_violation(g, peo)
        assert _brute.check_peo(g, peo, later) == bad
        res = peo_or_hole(g)
        if bad is None:
            assert res == EliminationOrder(tuple(peo))
        else:
            assert res == HoleCertificate(chordal._canonical_cycle(chordal._find_hole(g, bad)))
    results = [peo_or_hole(g) for g in graphs]
    assert any(isinstance(r, HoleCertificate) for r in results)
    assert any(isinstance(r, EliminationOrder) for r in results)


def _edited_chordal(count):
    """gen_chordal graphs with one edge dropped or one non-edge added, in turn:
    mostly holes, some still chordal."""
    rng = random.Random(20261019)
    graphs = []
    for i in range(count):
        g = gen_chordal(rng.randint(5, 60), i)
        edges = set(g.edges())
        if i % 2:
            edges.discard(rng.choice(sorted(edges)))
        else:
            u, v = sorted(rng.sample(range(g.n), 2))
            edges.add((u, v))
        graphs.append(Graph.from_edges(g.n, edges))
    return graphs


def _caterpillar(spine, leaves):
    """A path of spine vertices, each with its own leaves."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(i, spine + i * leaves + j) for i in range(spine) for j in range(leaves)]
    return Graph.from_edges(spine * (1 + leaves), edges)


def test_block_search_index_matches_edge_by_edge_reference(mixed_graphs):
    graphs = _reference_graphs() + [g for _, g in mixed_graphs] + _edited_chordal(100)
    graphs += [gen_path_graph(n, n, 1)[0] for n in (200, 400)]
    graphs += [
        Graph.from_edges(801, [(0, i) for i in range(1, 801)]),
        Graph.from_edges(801, [(800, i) for i in range(800)]),
        _caterpillar(2000, 8),
        Graph.from_edges(20000, []),
    ]
    holes = 0
    for i, g in enumerate(graphs):
        res = _index_or_hole(g)
        assert res == _brute.index_by_edge_moves(g), i
        holes += isinstance(res, HoleCertificate)
    assert 250 <= holes < len(graphs) - 100


def test_maximal_cliques_match_containment_filter():
    for g in _reference_graphs():
        index = _index_or_hole(g)
        if isinstance(index, HoleCertificate):
            continue
        want = _brute.maximal_cliques_by_containment(g, index.order)
        assert list(index.cliques) == want == maximal_cliques(g)
        for v in range(g.n):
            assert index.occurrences[v] == tuple(
                i for i, c in enumerate(want) if v in c
            )


def test_component_relabel_matches_each_piece_on_its_own():
    a, b, c = gen_chordal(12, 3), gen_chordal(9, 4), gen_chordal(7, 5)
    g = Graph.from_edges(
        a.n + b.n + c.n + 1,
        a.edges()
        + [(u + a.n, v + a.n) for u, v in b.edges()]
        + [(u + a.n + b.n + 1, v + a.n + b.n + 1) for u, v in c.edges()],
    )
    pieces = list(_relabelled_components(_index_or_hole(g)))
    assert [comp for comp, _, _ in pieces] == connected_components(g)
    assert len(pieces) == 4  # one isolated vertex
    for comp, cliques, occurrences in pieces:
        sub = induced_subgraph(g, comp)[0]
        assert list(cliques) == maximal_cliques(sub)
        own = _index_or_hole(sub)
        assert (cliques, occurrences) == (own.cliques, own.occurrences)
    ((comp, cliques, occurrences),) = _relabelled_components(_index_or_hole(a))
    whole = _index_or_hole(a)
    assert comp == tuple(range(a.n))
    assert (cliques, occurrences) == (whole.cliques, whole.occurrences)


def test_bucket_search_matches_heap_reference(mixed_graphs):
    for name, g in mixed_graphs:
        reference = _brute.mcs_by_heap(g)
        assert _brute.mcs_by_buckets(g) == reference, name
        assert chordal._search(g)[0] == reference[0], name


def test_search_tree_is_a_clique_tree_of_each_component(mixed_graphs):
    unions = 0
    for name, g in mixed_graphs:
        if not is_chordal(g):
            continue
        for comp in connected_components(g):
            sub = induced_subgraph(g, comp)[0]
            assert is_valid_clique_tree(sub, clique_tree(sub)), name
        unions += name.startswith("union-")
    assert unions == 30


def _realized_or_searched_tree(g):
    """realize's tree of a path graph, the search's clique tree of a connected
    chordal graph that is not one, else None."""
    from pathgraph.realize import realize
    from pathgraph.recognize import recognize_path_graph

    if not is_chordal(g):
        return None
    if recognize_path_graph(g).is_path_graph:
        return realize(g)
    return clique_tree(g) if len(connected_components(g)) == 1 else None


def _tree_mutations(g, t, rng):
    """(name, graph, tree) cases around a clique tree t of g: t itself and
    one each of the ways a claimed tree can go wrong."""
    cliques, edges = list(t.cliques), sorted(t.edges)
    c = len(cliques)

    def swap(k, clique):
        return CliqueTree(tuple(cliques[:k] + [clique] + cliques[k + 1 :]), t.edges)

    yield "as given", g, t
    yield "reversed", g, CliqueTree(tuple(cliques[::-1]), t.edges)
    yield "vertex in no clique", Graph.from_edges(g.n + 1, g.edges()), t
    if edges:
        e = rng.choice(edges)
        rest = t.edges - {e}
        yield "edge dropped", g, CliqueTree(t.cliques, rest)
        # reconnect the two sides of e elsewhere
        adj = chordal._tree_adj(c, rest)
        side, stack = {e[0]}, [e[0]]
        while stack:
            for y in adj[stack.pop()]:
                if y not in side:
                    side.add(y)
                    stack.append(y)
        moves = [
            tuple(sorted((i, j))) for i in sorted(side) for j in range(c) if j not in side
        ]
        moves.remove(e)
        if moves:
            yield "edge moved", g, CliqueTree(t.cliques, rest | {rng.choice(moves)})
    extra = [(i, j) for i in range(c) for j in range(i + 1, c) if (i, j) not in t.edges]
    if extra:
        yield "edge added", g, CliqueTree(t.cliques, t.edges | {rng.choice(extra)})
    big = [k for k in range(c) if len(cliques[k]) >= 2]
    if big:
        k = rng.choice(big)
        dropped = rng.choice(cliques[k])
        sub = tuple(v for v in cliques[k] if v != dropped)
        yield "proper subset", g, swap(k, sub)
        yield "clique as a list", g, swap(k, list(cliques[k]))
        grown = sorted(cliques + [sub])
        at = {cl: i for i, cl in enumerate(grown)}
        leaf = [(cliques[a], cliques[b]) for a, b in edges] + [(sub, cliques[k])]
        leaf_edges = frozenset(tuple(sorted((at[x], at[y]))) for x, y in leaf)
        yield "non-maximal leaf", g, CliqueTree(tuple(grown), leaf_edges)
    outside = [(k, v) for k in range(c) for v in range(g.n) if v not in cliques[k]]
    if outside:
        k, v = rng.choice(outside)
        yield "proper superset", g, swap(k, tuple(sorted(cliques[k] + (v,))))
    for k, cl in enumerate(cliques):
        if cl[0] in (0, 1):
            yield "bool id", g, swap(k, (bool(cl[0]),) + cl[1:])
            break


def test_separator_links_match_the_incidence_reference(mixed_graphs):
    # the search's tree, a random tree and a star over each graph's cliques
    rng = random.Random(20261020)
    hubs = 0
    for name, g in mixed_graphs:
        t = _realized_or_searched_tree(g)
        if t is None:
            continue
        c = len(t.cliques)
        trees = [
            t.edges,
            frozenset((rng.randrange(x), x) for x in range(1, c)),
            frozenset((0, x) for x in range(1, c)),
        ]
        for edges in trees:
            got = chordal._separator_links(t.cliques, edges)
            assert got == _brute.separator_links_by_incidence(t.cliques, edges), name
            hubs += bool(got[1])
    assert hubs > 0


def _outcome(check, g, tree):
    try:
        return check(g, tree)
    except PathgraphError as exc:
        return type(exc), str(exc)


def test_search_free_tree_checks_match_the_search(mixed_graphs):
    # a tree the checks accept with no search is one the search accepts, and
    # any other gets the search's own answer or error
    from pathgraph.realize import clique_path_tree_to_host

    pairs = [
        (is_valid_clique_tree, _brute.is_valid_clique_tree_by_search),
        (is_clique_path_tree, _brute.is_clique_path_tree_by_search),
        (clique_path_tree_to_host, _brute.host_by_search),
    ]
    rng = random.Random(20261018)
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    claimed = CliqueTree(
        ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4)), frozenset({(0, 1), (0, 2), (2, 3), (3, 4)})
    )
    cases = [("C_5", "claimed tree", c5, claimed)]
    for name, g in mixed_graphs:
        t = _realized_or_searched_tree(g)
        if t is not None:
            mutated = _tree_mutations(g, t, rng) if g.n <= 40 else [("as given", g, t)]
            cases += [(name, kind, h, m) for kind, h, m in mutated]
    seen = {}
    for name, kind, g, t in cases:
        for check, reference in pairs:
            got = _outcome(check, g, t)
            assert got == _outcome(reference, g, t), (name, kind, check.__name__)
            label = got[0].__name__ if isinstance(got, tuple) else type(got).__name__ + str(got)[:4]
            seen.setdefault(kind, set()).add(label)
    # both answers and every error of the search came up
    accepted = {"boolTrue", "HostRealizationHost", "boolFals", "PreconditionError"}
    assert seen["as given"] == accepted
    assert accepted <= seen["edge moved"]
    assert seen["claimed tree"] == {"PreconditionError"}
    wrong = {"boolFals", "InputError"}
    assert seen["bool id"] == wrong
    for kind in ("vertex in no clique", "proper subset", "proper superset", "clique as a list"):
        assert seen[kind] == wrong, kind
    assert seen["non-maximal leaf"] == wrong
    assert wrong <= seen["reversed"]  # a one-clique tree reversed is itself
    for kind in ("edge dropped", "edge added"):
        assert {"boolFals", "PreconditionError"} <= seen[kind], kind


def test_each_tree_check_is_one_proof(monkeypatch):
    # one tree walk and one meeting-pair count per check, and no host check
    # after the proof
    realize_mod = importlib.import_module("pathgraph.realize")  # the package binds realize()
    g, _ = gen_path_graph(40, 40, 1)
    t = realize_mod.realize(g)
    calls = {}

    def counted(name, f):
        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return f(*args)
        return wrapper

    for mod in (chordal, realize_mod):
        for name in ("_is_tree", "_meet_exactly"):
            monkeypatch.setattr(mod, name, counted(name, getattr(chordal, name)))
    monkeypatch.setattr(
        realize_mod, "verify_realization",
        counted("verify_realization", realize_mod.verify_realization),
    )
    for check in (is_valid_clique_tree, is_clique_path_tree, realize_mod.clique_path_tree_to_host):
        calls.clear()
        assert check(g, t)
        assert calls == {"_is_tree": 1, "_meet_exactly": 1}, check.__name__


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 299), st.data())
def test_separator_links_match_clique_degrees(seed, data):
    # on any tree over the cliques: a vertex's links are half its cliques'
    # degree sum inside its part of the tree, and it branches exactly when
    # one of those degrees exceeds 2
    index = _index_or_hole(gen_chordal(4 + seed % 9, seed))
    c = len(index.cliques)
    if c < 2:
        return
    seq = data.draw(st.lists(st.integers(0, c - 1), min_size=c - 2, max_size=c - 2))
    edges = frozenset(_brute.pruefer_decode_reference(seq, c))
    links, branching, sizes = chordal._separator_links(index.cliques, edges)
    degrees = _brute.clique_degrees_reference(index, edges)
    assert [2 * links[v] for v in range(len(degrees))] == [sum(d) for d in degrees]
    assert branching == {v for v, d in enumerate(degrees) if max(d) > 2}
    assert sum(sizes.values()) == sum(links.values())
    for path in (False, True):
        sizes = chordal._separator_sizes(index.cliques, index.occurrences, edges, path)
        assert (sizes is not None) == _brute.tree_by_degrees(index, edges, path)
