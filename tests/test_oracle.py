import random

import pytest

import _brute
from _brute import STRONG_COLORING_MAX_CLASSES, is_strong_coloring, oracle_strong_coloring
from pathgraph.attach import quotient
from pathgraph.chordal import _connected_index, is_clique_path_tree, maximal_cliques
from pathgraph.coloring import WeakColoring, weak_coloring
from pathgraph.decompose import clique_separators, gamma_components
from pathgraph.errors import GuardRefusal, PreconditionError
from pathgraph.generate import k4_hub
from pathgraph.graphs import Graph, graph_plus
from pathgraph.oracle import TREE_SWEEP_MAX_CLIQUES, _first_path_tree, oracle_clique_path_tree


def test_worked8_tree(worked8):
    tree = oracle_clique_path_tree(worked8)
    assert tree is not None
    assert tree.cliques == (
        (0, 1, 2), (1, 2, 4), (1, 4, 6), (1, 5, 6), (2, 3, 4), (4, 6, 7),
    )
    assert sorted(tree.edges) == [(0, 1), (1, 2), (1, 4), (2, 3), (2, 5)]
    assert is_clique_path_tree(worked8, tree)


def _mask_family(g):
    index = _connected_index(g, "test")
    masks = {sum(1 << i for i in occ) for occ in index.occurrences if len(occ) >= 2}
    return len(index.cliques), tuple(sorted(masks))


def _mask_families(chordal_corpus):
    """Every clique count and occurrence-mask family with at most 8 cliques
    in the chordal corpus, k4_hub(4..8), and seeded random families of up to
    2c masks over c = 3..7 nodes, single nodes and the empty mask included."""
    found = {_mask_family(g) for _, g in chordal_corpus}
    cases = sorted(case for case in found if case[0] <= 8)
    cases += [_mask_family(k4_hub(t)) for t in range(4, 9)]
    rng = random.Random(18)
    for c in range(3, 8):
        for _ in range(40 if c < 7 else 10):  # an exhausted c = 7 sweeps 16,807 trees
            cases.append((c, [rng.randrange(1 << c) for _ in range(rng.randrange(2 * c + 1))]))
    return cases


def test_first_path_tree_matches_the_sweep_reference(chordal_corpus):
    found = exhausted = 0
    for c, masks in _mask_families(chordal_corpus):
        tree = _first_path_tree(c, masks)
        assert tree == _brute.first_path_tree_by_sweep(c, masks), (c, masks)
        found += tree is not None
        exhausted += tree is None
    # both outcomes are exercised
    assert found > 50 and exhausted > 30


def test_k4hub_has_no_path_tree(k4hub):
    assert oracle_clique_path_tree(k4hub) is None


def test_single_clique_tree():
    k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    tree = oracle_clique_path_tree(k3)
    assert tree.cliques == ((0, 1, 2),)
    assert tree.edges == frozenset()


def test_tree_oracle_preconditions():
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(PreconditionError):
        oracle_clique_path_tree(c4)
    two = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(PreconditionError):
        oracle_clique_path_tree(two)


def test_tree_oracle_guard():
    star = Graph.from_edges(11, [(0, i) for i in range(1, 11)])
    assert len(maximal_cliques(star)) == 10 > TREE_SWEEP_MAX_CLIQUES
    with pytest.raises(GuardRefusal):
        oracle_clique_path_tree(star)
    # at the guard boundary the sweep still runs; 9 cliques through one
    # shared vertex line up along any hamiltonian path
    star9 = Graph.from_edges(10, [(0, i) for i in range(1, 10)])
    tree = oracle_clique_path_tree(star9)
    assert tree is not None
    assert is_clique_path_tree(star9, tree)


def test_oracle_trees_verify_on_corpus(chordal_corpus):
    accepted = 0
    for _, g in chordal_corpus[:150]:
        if len(maximal_cliques(g)) > TREE_SWEEP_MAX_CLIQUES:
            continue
        tree = oracle_clique_path_tree(g)
        if tree is not None:
            assert is_clique_path_tree(g, tree)
            accepted += 1
    assert accepted > 100


def test_strong_coloring_oracle_on_worked8(worked8):
    for q in clique_separators(worked8):
        dec = gamma_components(worked8, q)
        m = quotient(dec)
        f = oracle_strong_coloring(dec, m)
        assert f == {0: 1, 1: 2, 2: 3}
        assert is_strong_coloring(dec, m, f)


def test_strong_coloring_oracle_refuses_k4hub(k4hub):
    dec = gamma_components(k4hub, (0, 1, 2, 3))
    assert oracle_strong_coloring(dec, quotient(dec)) is None


def test_strong_coloring_guard():
    k9 = Graph.from_edges(9, [(i, j) for i in range(9) for j in range(i + 1, 9)])
    g = graph_plus(k9)
    dec = gamma_components(g, tuple(range(9)))
    m = quotient(dec)
    assert m.size == 9 > STRONG_COLORING_MAX_CLASSES
    with pytest.raises(GuardRefusal):
        oracle_strong_coloring(dec, m)


def test_weak_coloring_agrees_with_oracle(chordal_corpus):
    refuted = 0
    for _, g in chordal_corpus:
        for q in clique_separators(g):
            dec = gamma_components(g, q)
            m = quotient(dec)
            if m.size > STRONG_COLORING_MAX_CLASSES:
                continue
            got = weak_coloring(m)
            ref = oracle_strong_coloring(dec, m)
            assert isinstance(got, WeakColoring) == (ref is not None)
            refuted += ref is None
    assert refuted > 0
