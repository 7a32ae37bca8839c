import itertools

import pytest

from pathgraph import attach
from pathgraph.attach import (
    antipodal,
    attached,
    dominates,
    is_neighboring_set,
    quotient,
)
from pathgraph.decompose import GammaComponent, clique_separators, gamma_components
from pathgraph.errors import InvariantError
from pathgraph.generate import gen_chordal, k4_hub
from pathgraph.graphs import ANTIPODAL, Graph, vset


def gm(index, *traces):
    """Bare part carrying only traces; enough for the relation functions."""
    ts = tuple(sorted(vset(t) for t in traces))
    return GammaComponent(
        index=index, component=(), relevant_cliques=(), traces=ts
    )


def test_attached_examples():
    assert attached(gm(0, (1, 2)), gm(1, (2, 4)))
    assert not attached(gm(0, (1,)), gm(1, (2,)))
    g = gm(0, (1, 2))
    assert attached(g, g)


def test_antipodal_examples():
    assert antipodal(gm(0, (1, 2)), gm(1, (2, 4)))
    assert not antipodal(gm(0, (1,)), gm(1, (1, 2)))
    assert antipodal(gm(0, (1, 2)), gm(1, (1, 3)))
    assert not antipodal(gm(0, (1,)), gm(1, (2,)))  # not even attached


def test_dominates_examples():
    assert dominates(gm(0, (1,)), gm(1, (1, 2)))
    assert not dominates(gm(0, (1, 2)), gm(1, (2, 4)))
    # every trace fits inside the single trace of the other part
    assert dominates(gm(0, (1,), (4,)), gm(1, (1, 4)))
    assert not dominates(gm(0, (1,), (4,)), gm(1, (1, 3)))


def test_interleaved_nested_traces_are_antipodal():
    """A single trace strictly between two nested traces of the other part:
    attached, every trace pair nests, yet neither part dominates."""
    a = gm(0, (0, 3, 4), (0, 3, 4, 7, 9, 10))
    b = gm(1, (0, 3, 4, 9, 10))
    assert attached(a, b)
    assert not dominates(a, b)
    assert not dominates(b, a)
    assert antipodal(a, b)


def test_interleaved_traces_occur_and_quotient_accepts_them():
    g = gen_chordal(12, 116)
    q = (0, 3, 4, 5, 7, 9, 10)
    assert q in clique_separators(g)
    dec = gamma_components(g, q)
    assert [p.traces for p in dec.gammas] == [
        ((0, 3, 4), (0, 3, 4, 7, 9, 10)),
        ((0, 3, 4, 9, 10),),
    ]
    m = quotient(dec)
    assert m.class_members == ((0,), (1,))
    assert sorted(m.edges.antipodal) == [(0, 1)]
    assert m.dominance_order == frozenset()


def test_multi_trace_part_does_not_dominate_itself():
    a = gm(0, (0, 1), (0, 1, 2))
    assert not dominates(a, a)
    b = gm(1, (0, 1))
    assert dominates(b, b)


def test_worked8_quotient_is_an_antipodal_triangle(worked8):
    for q in clique_separators(worked8):
        m = quotient(gamma_components(worked8, q))
        assert m.class_members == ((0,), (1,), (2,))
        assert sorted(m.edges.antipodal) == [(0, 1), (0, 2), (1, 2)]
        assert m.edges.dominance == frozenset()
        assert m.dominance_order == frozenset()


def test_identical_singleton_traces_merge_into_one_class():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (0, 3), (0, 4)])
    m = quotient(gamma_components(g, (0, 1, 2)))
    assert m.size == 1
    assert m.class_members == ((0, 1),)


def test_dominance_order_and_skeleton_inputs():
    # parts {3} and {4} with traces {0} <= {0,1}
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (1, 4)])
    m = quotient(gamma_components(g, (0, 1, 2)))
    assert m.size == 2
    assert m.dominance_order == frozenset({(0, 1)})
    assert m.edges.edges() == [(0, 1, "dominance")]
    assert m.dominated_by(0, 1) and not m.dominated_by(1, 0)


def test_neighbor_map_and_neighboring_sets(worked8, k4hub):
    m = quotient(gamma_components(worked8, (1, 2, 4)))
    assert m.neighbor_map == {1: (0, 2), 2: (0, 1), 4: (1, 2)}
    assert is_neighboring_set(m, (0, 1, 2)) is None
    assert is_neighboring_set(m, (0, 1)) == 2
    assert is_neighboring_set(m, (2,)) == 1

    mk = quotient(gamma_components(k4hub, (0, 1, 2, 3)))
    assert is_neighboring_set(mk, (0, 1, 2)) == 0


def test_relations_partition_attached_pairs(chordal_corpus):
    """Trichotomy: attached pairs are antipodal or comparable, never both."""
    for _, g in chordal_corpus[:120]:
        for q in clique_separators(g):
            dec = gamma_components(g, q)
            for a, b in itertools.combinations(dec.gammas, 2):
                att = attached(a, b)
                anti = antipodal(a, b)
                comp = dominates(a, b) or dominates(b, a)
                assert att == (anti or comp)
                assert not (anti and comp)
                assert anti == antipodal(b, a)
                assert att == attached(b, a)


def test_dominance_is_transitive_on_corpus(chordal_corpus):
    for _, g in chordal_corpus[:120]:
        for q in clique_separators(g):
            gs = gamma_components(g, q).gammas
            for a, b, c in itertools.permutations(gs, 3):
                if dominates(a, b) and dominates(b, c):
                    assert dominates(a, c)


def test_dominated_part_neighbors_its_dominator_everywhere(chordal_corpus):
    """A dominated part shares every one of its trace vertices with the
    dominating part's neighborhood; antipodal pairs share their common ones."""
    for _, g in chordal_corpus[:120]:
        for q in clique_separators(g):
            dec = gamma_components(g, q)
            nm = dec.neighbor_map
            for a, b in itertools.permutations(dec.gammas, 2):
                averts = {v for t in a.traces for v in t}
                bverts = {v for t in b.traces for v in t}
                if dominates(a, b):
                    for v in averts:
                        assert {a.index, b.index} <= set(nm[v])
                if antipodal(a, b):
                    for v in averts & bverts:
                        assert {a.index, b.index} <= set(nm[v])


def test_relations_survive_relabeling(worked8):
    perm = [3, 5, 0, 7, 1, 6, 2, 4]
    edges = [(perm[u], perm[v]) for u, v in worked8.edges()]
    h = Graph.from_edges(8, edges)
    sigs = []
    for g in (worked8, h):
        sig = []
        for q in clique_separators(g):
            m = quotient(gamma_components(g, q))
            sig.append(
                (m.size, len(m.edges.antipodal), len(m.edges.dominance),
                 len(m.dominance_order))
            )
        sigs.append(sorted(sig))
    assert sigs[0] == sigs[1]


def test_quotient_strict_order_is_sane(chordal_corpus):
    for _, g in chordal_corpus[:120]:
        for q in clique_separators(g):
            m = quotient(gamma_components(g, q))
            order = m.dominance_order
            assert all((b, a) not in order for a, b in order)
            assert all(a != b for a, b in order)
            for (a, b), (c, d) in itertools.product(order, repeat=2):
                if b == c:
                    assert a == d or (a, d) in order


def test_quotient_matches_the_pairwise_relations(chordal_corpus, worked8):
    """Classes are mutual dominance, antipodal class edges are antipodal
    parts, and the order is strict dominance, for every pair of parts."""
    graphs = [g for _, g in chordal_corpus] + [k4_hub(t) for t in (4, 5, 6)] + [worked8]
    for g in graphs:
        for q in clique_separators(g):
            dec = gamma_components(g, q)
            m = quotient(dec)
            cls = {p: c for c, mem in enumerate(m.class_members) for p in mem}
            for a, b in itertools.permutations(dec.gammas, 2):
                ca, cb = cls[a.index], cls[b.index]
                ab, ba = dominates(a, b), dominates(b, a)
                assert (ca == cb) == (ab and ba)
                assert m.is_antipodal(ca, cb) == antipodal(a, b)
                assert ((ca, cb) in m.dominance_order) == (ab and not ba)


def test_quotient_rejects_non_transitive_dominance(monkeypatch):
    # the star K_{1,4} at {0, 1}: three parts {2}, {3}, {4}, all attached at 0;
    # a nesting test with 0 <= 1 <= 2 but not 0 <= 2 must not pass unseen
    star = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
    dec = gamma_components(star, (0, 1))
    assert dec.size == 3
    monkeypatch.setattr(attach, "_nests", lambda a, b: (a.index, b.index) in {(0, 1), (1, 2)})
    with pytest.raises(InvariantError, match="dominance is not transitive"):
        quotient(dec)
