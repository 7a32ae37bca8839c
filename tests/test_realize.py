import pytest

from pathgraph.chordal import CliqueTree, is_clique_path_tree
from pathgraph.errors import PreconditionError
from pathgraph.graphs import Graph
from pathgraph.realize import (
    HostRealization,
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


def test_host_requires_a_path_tree(k4hub):
    from pathgraph.chordal import clique_tree

    t = clique_tree(k4hub)
    with pytest.raises(PreconditionError):
        clique_path_tree_to_host(k4hub, t)


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
