import pytest
from hypothesis import given, strategies as st

import pathgraph
from _brute import induced_subgraph
from pathgraph.chordal import CliqueTree
from pathgraph.errors import InputError
from pathgraph.graphs import (
    ANTIPODAL,
    DOMINANCE,
    MAX_VERTICES,
    EdgeColoredGraph,
    Graph,
    connected_components,
    graph_plus,
    is_clique,
    is_connected,
    vset,
)


def test_from_edges_basics():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (1, 2), (2, 3)])
    assert g.num_edges == 3
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(0, 3)
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.degree(1) == 2
    assert g.neighbors(2) == frozenset({1, 3})


def test_from_edges_rejects_bad_input():
    with pytest.raises(InputError):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(InputError):
        Graph.from_edges(2, [(1, 1)])
    with pytest.raises(InputError):
        Graph.from_edges(-1, [])
    with pytest.raises(InputError):
        Graph.from_edges(2, [], labels=("a",))
    # no edge list, and an edge that is not a pair
    for edges in (None, [(0, 1, 2)]):
        with pytest.raises(InputError, match="pairs"):
            Graph.from_edges(2, edges)
    # labels that are not strings: no sequence, and ints DOT could not join
    for labels in (5, [1, 2, 3]):
        with pytest.raises(InputError, match="labels must be strings"):
            Graph.from_edges(3, [(0, 1)], labels)
    # labels as a set, whose order would follow the string hash
    for labels in ({"a", "b", "c"}, frozenset("abc")):
        with pytest.raises(InputError, match="ordered sequence"):
            Graph.from_edges(3, [(0, 1)], labels)


@pytest.mark.parametrize("bad", [True, 1.0], ids=["bool", "float"])
def test_from_edges_rejects_bool_and_float_ids(bad):
    with pytest.raises(InputError, match="not an int"):
        Graph.from_edges(3, [(0, bad), (1, 2)])


@pytest.mark.parametrize("n", [2.0, True], ids=["float", "bool"])
def test_from_edges_rejects_a_vertex_count_that_is_not_an_int(n):
    with pytest.raises(InputError, match="nonnegative int"):
        Graph.from_edges(n, [(0, 1)] if n == 2 else [])


def test_from_edges_rejects_a_vertex_count_no_list_can_hold():
    # refused before anything is allocated
    with pytest.raises(InputError, match="too large"):
        Graph.from_edges(2**62, [])


def test_from_edges_refuses_one_vertex_over_the_limit():
    # refused before anything is allocated, with or without an edge at the
    # last vertex
    for edges in ([], [(0, MAX_VERTICES)]):
        with pytest.raises(InputError, match=f"too large: at most {MAX_VERTICES} vertices"):
            Graph.from_edges(MAX_VERTICES + 1, edges)
    # while a million, the count of a `p 1000000` header, still fit
    assert Graph.from_edges(1_000_000, [(0, 999_999)]).degree(999_999) == 1


@pytest.mark.parametrize("bad", [True, 1.0], ids=["bool", "float"])
def test_induced_subgraph_rejects_bool_and_float_ids(bad):
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(InputError, match="not an int"):
        induced_subgraph(g, [bad, 2])


def test_labels_default_to_vertex_ids():
    g = Graph.from_edges(2, [(0, 1)])
    assert g.label(1) == "1"
    h = Graph.from_edges(2, [(0, 1)], labels=("x", "y"))
    assert h.label(0) == "x"


def test_vset_sorts_and_dedups():
    assert vset([3, 1, 1, 2]) == (1, 2, 3)
    assert vset([]) == ()


def test_induced_subgraph_maps_ids():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    sub, idmap = induced_subgraph(g, [4, 1, 2])
    assert idmap == (1, 2, 4)
    # surviving edges: 1-2; 0-4 and 3-4 lose an endpoint
    assert sub.edges() == [(0, 1)]
    with pytest.raises(InputError):
        induced_subgraph(g, [0, 9])


@given(st.integers(0, 500))
def test_induced_subgraph_preserves_adjacency(seed):
    from pathgraph.generate import SplitMix64

    rng = SplitMix64(seed)
    n = 4 + seed % 5
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.next_u64() % 2 == 0
    ]
    g = Graph.from_edges(n, edges)
    keep = [v for v in range(n) if rng.next_u64() % 3 != 0]
    sub, idmap = induced_subgraph(g, keep)
    for a in range(sub.n):
        for b in range(sub.n):
            if a != b:
                assert sub.has_edge(a, b) == g.has_edge(idmap[a], idmap[b])


def test_connected_components_and_is_connected():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
    assert connected_components(g) == [(0, 1, 2), (3, 4), (5,)]
    assert not is_connected(g)
    assert is_connected(Graph.from_edges(1, []))
    assert is_connected(Graph.from_edges(0, []))


def test_is_clique():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert is_clique(g, [0, 1, 2])
    assert not is_clique(g, [0, 1, 3])
    assert is_clique(g, [3])


def test_graph_plus_attaches_one_pendant_per_vertex():
    g = Graph.from_edges(3, [(0, 1), (1, 2)], labels=("a", "b", "c"))
    gp = graph_plus(g)
    assert gp.n == 6
    assert gp.num_edges == g.num_edges + 3
    for i in range(3):
        assert gp.adj[3 + i] == frozenset({i})
    assert gp.label(4) == "b+"


def test_edge_colored_graph_colors():
    m = EdgeColoredGraph(3, frozenset({(0, 1)}), frozenset({(1, 2)}))
    assert m.color_of(1, 0) == ANTIPODAL
    assert m.color_of(1, 2) == DOMINANCE
    assert m.color_of(0, 2) is None
    assert m.has_edge(0, 1) and not m.has_edge(0, 2)
    assert m.edges() == [(0, 1, ANTIPODAL), (1, 2, DOMINANCE)]


def test_edge_colored_graph_rejects_bad_edges():
    with pytest.raises(InputError):
        EdgeColoredGraph(2, frozenset({(1, 0)}), frozenset())
    with pytest.raises(InputError):
        EdgeColoredGraph(2, frozenset({(0, 1)}), frozenset({(0, 1)}))
    with pytest.raises(InputError):
        EdgeColoredGraph(2, frozenset(), frozenset({(0, 5)}))


_TREE = CliqueTree(((0, 1), (1, 2)), frozenset({(0, 1)}))


@pytest.mark.parametrize(
    "name, rest",
    [
        (name, ())
        for name in (
            "recognize_path_graph", "recognize_directed_path_graph", "realize",
            "maximal_cliques", "clique_tree", "peo_or_hole", "is_chordal",
            "clique_separators", "connected_components", "graph_plus",
            "oracle_clique_path_tree",
        )
    ]
    + [("gamma_components", ((1,),))]
    + [(name, (_TREE,)) for name in
       ("clique_path_tree_to_host", "is_valid_clique_tree", "is_clique_path_tree")],
)
def test_a_graph_argument_that_is_no_graph_is_an_input_error(name, rest):
    # an edge list where a Graph belongs is refused at the boundary, not
    # met by an AttributeError deep inside
    with pytest.raises(InputError, match="expected a Graph, got list"):
        getattr(pathgraph, name)([(0, 1), (1, 2)], *rest)
