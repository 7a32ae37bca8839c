import itertools

import pytest
from hypothesis import given, settings, strategies as st

import _brute
from _brute import antipodal, attached, dominates
from pathgraph import attach
from pathgraph.attach import is_neighboring_set, quotient
from pathgraph.chordal import HoleCertificate, _index_or_hole
from pathgraph.decompose import (
    Decomposition,
    GammaComponent,
    clique_separators,
    gamma_components,
)
from pathgraph.errors import InvariantError
from pathgraph.generate import gen_chordal
from pathgraph.graphs import Graph, vset

from conftest import chain, star


def gm(index, *traces):
    """Bare part carrying only traces, as masks over their union; enough for
    the relation functions."""
    q = vset(v for t in traces for v in t)
    return GammaComponent(index, q=q, masks=tuple(masks_over(q, traces)))


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


def fans(t):
    """A triangle Q = {0, 1, 2} and t parts G - Q, each a vertex x on {0, 1}
    and a vertex y on {0, x}: identical parts with the two traces {0} and
    {0, 1}."""
    edges = [(0, 1), (0, 2), (1, 2)]
    for x in range(3, 3 + 2 * t, 2):
        edges += [(x, 0), (x, 1), (x + 1, 0), (x + 1, x)]
    return Graph.from_edges(3 + 2 * t, edges)


def test_identical_multi_trace_parts_are_classes_of_their_own():
    dec = gamma_components(fans(3), (0, 1, 2))
    assert [p.traces for p in dec.gammas] == [((0,), (0, 1))] * 3
    m = quotient(dec)
    assert m.class_members == ((0,), (1,), (2,))
    assert sorted(m.edges.antipodal) == [(0, 1), (0, 2), (1, 2)]


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


def test_quotient_matches_the_pairwise_relations(mixed_graphs, worked8):
    """The quotient equals the pairwise reference, which checks member
    invariance, class antisymmetry and transitivity, and neighboring as a
    class property; classes are mutual dominance, antipodal class edges are
    antipodal parts, and the order is strict dominance, for every pair of
    parts. mixed_graphs holds the chordal corpus and k4_hub(4..7); separators
    of more than 60 parts (K_{1,200}'s) are left to the stars below, as the
    reference takes about a quarter second on each."""
    graphs = mixed_graphs + [("worked8", worked8)]
    graphs += [(f"K_1,{n}", star(n)) for n in range(2, 31)]
    graphs += [(f"chain({q})", chain(q)) for q in range(3, 21)]
    graphs += [(f"fans({t})", fans(t)) for t in range(2, 5)]
    assert quotients_match_pairs(graphs) > 1500


def test_quotient_matches_the_pairwise_relations_on_wider_graphs(wider_graphs):
    # longer chains and larger stars, and ids past 64 that are not Q
    # positions; a quotient reads only the parts' masks, so a separator whose
    # parts have the masks of one already checked in its graph is skipped:
    # a star's separators are all alike
    assert quotients_match_pairs(wider_graphs, distinct=True) > 1200


def quotients_match_pairs(graphs, distinct=False):
    """Check every quotient of at most 60 parts in graphs against the
    pairwise reference, or with distinct only the first of those whose parts
    have the same masks in each graph; the number of separators checked."""
    separators = 0
    for name, g in graphs:
        index = _index_or_hole(g)
        if isinstance(index, HoleCertificate):
            continue
        seen = set()
        for dec in _brute.decompositions(index):
            masks = tuple(p.masks for p in dec.gammas)
            if dec.size > 60 or (distinct and masks in seen):
                continue
            seen.add(masks)
            m = quotient(dec)
            want = _brute.quotient_by_pairs(dec)
            assert m.class_members == want.class_members, name
            assert [p.index for p in m.gammas] == [p.index for p in want.gammas], name
            assert m.edges == want.edges, name
            assert m.dominance_order == want.dominance_order, name
            assert m.neighbor_map == want.neighbor_map, name
            for v, row in m.neighbor_map.items():
                assert all(set(m.class_members[c]) <= set(dec.neighbor_map[v]) for c in row)
            cls = {p: c for c, mem in enumerate(m.class_members) for p in mem}
            for a, b in itertools.combinations(dec.gammas, 2):
                ca, cb = cls[a.index], cls[b.index]
                ab, ba = dominates(a, b), dominates(b, a)
                assert (ca == cb) == (ab and ba)
                assert m.is_antipodal(ca, cb) == antipodal(a, b)
                assert ((ca, cb) in m.dominance_order) == (ab and not ba)
                assert ((cb, ca) in m.dominance_order) == (ba and not ab)
            separators += 1
    return separators


def masked(q, *traces):
    """Parts, one per trace, each with that single trace as a mask over q."""
    return tuple(
        GammaComponent(i, q=q, masks=tuple(masks_over(q, [t]))) for i, t in enumerate(traces)
    )


def masks_over(q, traces):
    """Each trace as a mask over the positions of the sorted vertex tuple q."""
    return [sum(1 << q.index(v) for v in t) for t in traces]


def test_quotient_rejects_non_transitive_dominance(monkeypatch):
    # three parts with the single traces {0} < {0,1} < {0,1,2}, all sharing
    # 0; a nesting test with 0 <= 1 <= 2 but not 0 <= 2 must not pass unseen
    dec = Decomposition((0, 1, 2), masked((0, 1, 2), (0,), (0, 1), (0, 1, 2)))
    # the masks 1, 3, 7: 1 nests in 3, 3 in 7, and 1 not in 7
    monkeypatch.setattr(attach, "_nests", lambda u, masks: (u, *masks) in {(1, 3), (3, 7)})
    with pytest.raises(InvariantError, match="dominance is not transitive"):
        quotient(dec)


def test_quotient_rejects_mutual_dominance_across_classes(monkeypatch):
    # parts {0} and {0,1} are distinct classes; a nesting test that holds both
    # ways between them contradicts the class lemma and must not pass unseen
    dec = Decomposition((0, 1), masked((0, 1), (0,), (0, 1)))
    monkeypatch.setattr(attach, "_nests", lambda u, masks: True)
    with pytest.raises(InvariantError, match="classes 0 and 1 dominate each other"):
        quotient(dec)


def trace_families():
    """Deduplicated families of nonempty traces over Q = range(6)."""
    trace = st.frozensets(st.integers(0, 5), min_size=1)
    return st.sets(trace, min_size=1, max_size=5).map(
        lambda ts: tuple(sorted(tuple(sorted(t)) for t in ts))
    )


@settings(max_examples=300, deadline=None)
@given(trace_families(), trace_families(), st.booleans())
def test_mutual_dominance_is_one_shared_trace(ta, tb, twins):
    """The class lemma: two parts dominate each other exactly when both have
    one and the same trace; twins with two or more traces are antipodal; and
    the union form of the nesting test agrees with the trace-by-trace one."""
    a, b = gm(0, *ta), gm(1, *(ta if twins else tb))
    mutual = dominates(a, b) and dominates(b, a)
    assert mutual == (a.traces == b.traces and len(a.traces) == 1)
    if a.traces == b.traces and len(a.traces) > 1:
        assert antipodal(a, b)
    q = vset(v for t in ta + tb for v in t)
    for x, y in ((a, b), (b, a)):
        union = sum(masks_over(q, [vset(v for t in x.traces for v in t)]))
        assert attach._nests(union, masks_over(q, y.traces)) == _brute.nests_by_trace(x, y)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mask_nesting_matches_nesting_by_trace(data):
    """The int nesting test on masks over a Q of up to 70 vertices, whose
    positions differ from its ids, against the trace-by-trace test."""
    size = data.draw(st.integers(1, 70))
    q = vset(data.draw(st.sets(st.integers(0, 300), min_size=size, max_size=size)))
    trace = st.sets(st.sampled_from(q), min_size=1).map(vset)
    family = st.sets(trace, min_size=1, max_size=5).map(sorted)
    ta, tb = data.draw(family), data.draw(family)
    a, b = gm(0, *ta), gm(1, *tb)
    union = sum(masks_over(q, [vset(v for t in ta for v in t)]))
    assert attach._nests(union, masks_over(q, tb)) == _brute.nests_by_trace(a, b)
