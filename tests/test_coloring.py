import itertools

import pytest

import _brute
from _brute import full_antipodal_triple, is_strong_coloring
import _hosts
from pathgraph.attach import quotient
from pathgraph.coloring import (
    BAD_TRIPLE,
    FULL_ANTIPODAL_TRIPLE,
    INTRA_NOT_2_COLORABLE,
    Refutation,
    WeakColoring,
    check_canonical_conditions,
    skeleton,
    weak_coloring,
)
from pathgraph.decompose import clique_separators, gamma_components
from pathgraph.errors import InvariantError
from pathgraph.generate import gen_chordal, k4_hub
from pathgraph.graphs import Graph, graph_plus

CHAIN = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (1, 4)])


def mq(g, q):
    return gamma_components(g, q), quotient(gamma_components(g, q))


def test_worked8_weak_coloring_both_separators(worked8):
    for q in clique_separators(worked8):
        _, m = mq(worked8, q)
        wc = weak_coloring(m)
        assert isinstance(wc, WeakColoring)
        assert wc.f == {0: 1, 1: 2, 2: 3}
        assert wc.num_upper == 3


def test_worked8_skeleton(worked8):
    _, m = mq(worked8, (1, 2, 4))
    s = skeleton(m)
    assert s.upper == (0, 1, 2)
    assert s.d_single == ((0,), (1,), (2,))
    assert s.d_pair == {}
    assert s.unassigned == ()


def test_worked8_canonical_conditions_hold(worked8):
    _, m = mq(worked8, (1, 2, 4))
    s = skeleton(m)
    wc = weak_coloring(m)
    assert check_canonical_conditions(m, s, wc.f) == {
        c: True for c in "abcdef"
    }


def test_chain_skeleton_and_coloring():
    _, m = mq(CHAIN, (0, 1, 2))
    assert m.dominance_order == frozenset({(0, 1)})
    s = skeleton(m)
    assert s.upper == (1,)
    assert s.d_single == ((0, 1),)
    wc = weak_coloring(m)
    assert wc.f == {0: 1, 1: 1}
    assert wc.num_upper == 1


def test_k4hub_full_triple_refutation(k4hub):
    _, m = mq(k4hub, (0, 1, 2, 3))
    r = weak_coloring(m)
    assert isinstance(r, Refutation)
    assert r.kind == FULL_ANTIPODAL_TRIPLE
    assert r.classes == (0, 1, 2)
    assert r.witness == 0


def test_full_antipodal_triple_restriction(k4hub):
    _, m = mq(k4hub, (0, 1, 2, 3))
    assert full_antipodal_triple(m) == ((0, 1, 2), 0)
    assert full_antipodal_triple(m, restrict_to=(0, 2)) is None


def test_full_antipodal_triple_is_the_first_witnessed_one():
    # triangle {0, 1, 4} comes first but no vertex neighbors all three;
    # triangle {0, 2, 3} has witness 3
    m = _hosts.fake_m(
        5,
        anti={(0, 1), (0, 4), (1, 4), (0, 2), (0, 3), (2, 3)},
        neighbor_map={0: (0, 1), 1: (1, 4), 2: (0, 4), 3: (0, 2, 3)},
    )
    assert full_antipodal_triple(m) == ((0, 2, 3), 3)
    assert full_antipodal_triple(m, restrict_to=(0, 1, 4)) is None
    assert full_antipodal_triple(m, restrict_to=(3, 2, 0)) == ((0, 2, 3), 3)


def test_triple_needs_a_common_witness(worked8):
    # pairwise antipodal, but no separator vertex neighbors all three parts
    _, m = mq(worked8, (1, 2, 4))
    assert full_antipodal_triple(m) is None


def test_bad_triple_detection_and_refutation():
    m = _hosts.df2_host()
    s = skeleton(m)
    assert s.upper == (3, 4)
    assert s.d_single == ((0, 3), (2, 4))
    assert s.d_pair == {(1, 2): (1,)}
    r = weak_coloring(m)
    assert isinstance(r, Refutation)
    assert r.kind == BAD_TRIPLE
    assert r.classes == (1, 0, 2)
    assert r.pair == (1, 2)


def test_cross_edge_leaving_a_pair_member_raises():
    # uppers 4, 5, 6; class 1 in D_12 is a bad triple with 0 in D_1 and 2 in
    # D_2, but class 3 in D_23 is antipodal to 0 in D_1, which no path graph
    # allows; the edge is reported although the bad triple comes first
    order = {(0, 4), (1, 4), (1, 5), (2, 5), (3, 5), (3, 6)}
    r = weak_coloring(_hosts.fake_m(7, {(0, 1), (1, 2)}, order))
    assert (r.kind, r.classes, r.pair) == (BAD_TRIPLE, (1, 0, 2), (1, 2))
    with pytest.raises(InvariantError, match="leaves pair member"):
        weak_coloring(_hosts.fake_m(7, {(0, 1), (1, 2), (0, 3)}, order))


def test_three_upper_bounds_without_a_full_triple_raise():
    # class 3 lies under the pairwise antipodal uppers 0, 1, 2, but no Q
    # vertex neighbors all three
    m = _hosts.fake_m(4, {(0, 1), (0, 2), (1, 2)}, {(3, 0), (3, 1), (3, 2)})
    assert full_antipodal_triple(m) is None
    with pytest.raises(InvariantError, match="3\\+ upper bounds"):
        weak_coloring(m)


def test_odd_cycle_refutation():
    r = weak_coloring(_hosts.odd_cycle_host())
    assert isinstance(r, Refutation)
    assert r.kind == INTRA_NOT_2_COLORABLE
    assert r.member == ("D", 1)
    assert r.cycle == (0, 1, 2, 3, 4)


def test_conflict_path_in_single_member():
    r = weak_coloring(_hosts.two_attacker_host())
    assert isinstance(r, Refutation)
    assert r.kind == INTRA_NOT_2_COLORABLE
    assert r.member == ("D", 1)
    assert r.path == (0, 1)
    assert r.endpoint_colors == (1, 1)


def test_conflict_path_in_pair_member_same_color():
    r = weak_coloring(_hosts.dij_same_color_host())
    assert isinstance(r, Refutation)
    assert r.member == ("DIJ", 1, 2)
    assert r.path == (1, 2)
    assert r.endpoint_colors == (1, 1)


def test_conflict_path_in_pair_member_distinct_colors():
    r = weak_coloring(_hosts.dij_distinct_host())
    assert isinstance(r, Refutation)
    assert r.member == ("DIJ", 1, 2)
    assert r.path == (3, 2, 1)
    assert r.endpoint_colors == (2, 1)


def test_natural_refutation_instances():
    g = gen_chordal(12, 294)
    _, m = mq(g, (2, 3, 4, 5, 8, 9, 10))
    r = weak_coloring(m)
    assert (r.kind, r.member, r.path, r.endpoint_colors) == (
        INTRA_NOT_2_COLORABLE, ("D", 2), (2, 3), (2, 2)
    )

    g = gen_chordal(12, 723)
    _, m = mq(g, (0, 1, 2, 3, 4, 6, 7, 11))
    r = weak_coloring(m)
    assert (r.kind, r.member, r.cycle) == (
        INTRA_NOT_2_COLORABLE, ("D", 1), (1, 2, 3)
    )

    g = gen_chordal(14, 25659)
    _, m = mq(g, (1, 3, 6, 9, 11, 13))
    r = weak_coloring(m)
    assert (r.kind, r.member, r.path) == (
        INTRA_NOT_2_COLORABLE, ("DIJ", 1, 2), (1, 4)
    )


def test_weak_coloring_matches_enumeration(chordal_corpus):
    pool = [g for _, g in chordal_corpus]
    pool += [gen_chordal(10 + s % 5, 1000 + s) for s in range(400)]
    checked = refuted = 0
    for g in pool:
        for q in clique_separators(g):
            dec = gamma_components(g, q)
            if len(dec.gammas) > 6:
                continue
            m = quotient(dec)
            out = weak_coloring(m)
            ok = isinstance(out, WeakColoring)
            assert ok == _brute.strong_colorable_by_enumeration(dec)
            checked += 1
            refuted += not ok
    assert checked > 600
    assert refuted > 10


def test_weak_coloring_lifts_to_a_strong_one(chordal_corpus):
    for _, g in chordal_corpus[:150]:
        for q in clique_separators(g):
            dec = gamma_components(g, q)
            m = quotient(dec)
            out = weak_coloring(m)
            if isinstance(out, WeakColoring):
                assert is_strong_coloring(dec, m, out.f)


def test_is_strong_coloring_rejects_tampering(worked8, k4hub):
    dec = gamma_components(worked8, (1, 2, 4))
    m = quotient(dec)
    assert is_strong_coloring(dec, m, {0: 1, 1: 2, 2: 3})
    assert not is_strong_coloring(dec, m, {0: 1, 1: 1, 2: 3})

    deck = gamma_components(k4hub, (0, 1, 2, 3))
    mk = quotient(deck)
    # proper on all antipodal pairs, but three colors meet at vertex 0
    assert not is_strong_coloring(deck, mk, {0: 1, 1: 2, 2: 3})


def test_refutation_matches_enumeration_on_k4hub(k4hub):
    dec = gamma_components(k4hub, (0, 1, 2, 3))
    assert not _brute.strong_colorable_by_enumeration(dec)


def cond_after_tamper(m, tamper):
    s = skeleton(m)
    f = dict(weak_coloring(m).f)
    f.update(tamper)
    return check_canonical_conditions(m, s, f)


def test_each_condition_fails_in_isolation():
    # upper recolored to l+1: only (a) breaks
    chain = _hosts.fake_m(2, order={(0, 1)})
    assert cond_after_tamper(chain, {1: 2}) == dict(
        a=False, b=True, c=True, d=True, e=True, f=True
    )
    # single-member class off its two colors: only (b)
    assert cond_after_tamper(chain, {0: 3}) == dict(
        a=True, b=False, c=True, d=True, e=True, f=True
    )
    # pair-member class off its two colors: only (c)
    dij = _hosts.fake_m(3, anti={(1, 2)}, order={(0, 1), (0, 2)})
    assert cond_after_tamper(dij, {0: 3}) == dict(
        a=True, b=True, c=False, d=True, e=True, f=True
    )
    # D_i class antipodal to an upper moved to l+1: only (d)
    dd = _hosts.fake_m(3, anti={(0, 2), (1, 2)}, order={(0, 1)})
    assert cond_after_tamper(dd, {0: 3}) == dict(
        a=True, b=True, c=True, d=False, e=True, f=True
    )
    # pair class antipodal into D_j recolored to j: only (e)
    ee = _hosts.fake_m(
        5,
        anti={(0, 1), (0, 3), (3, 4)},
        order={(0, 4), (1, 3), (1, 4), (2, 3), (2, 4)},
    )
    assert cond_after_tamper(ee, {1: 2}) == dict(
        a=True, b=True, c=True, d=True, e=False, f=True
    )
    # antipodal pair inside one member made monochromatic: only (f)
    ff = _hosts.fake_m(3, anti={(0, 1)}, order={(0, 2), (1, 2)})
    assert cond_after_tamper(ff, {1: 1}) == dict(
        a=True, b=True, c=True, d=True, e=True, f=False
    )


def _pendants_on_clique(q, traces):
    """The clique {0..q-1} with one vertex per trace, adjacent to exactly it:
    one separator whose parts have the given traces."""
    edges = list(itertools.combinations(range(q), 2))
    edges += [(v, q + i) for i, trace in enumerate(traces) for v in trace]
    return Graph.from_edges(q + len(traces), edges)


# upper bounds with traces 0124 and 123; the class 12 lies under both and is
# antipodal to 01, which lies under the first alone, as does 04, antipodal
# to 01 inside that member
CROSSED_MEMBERS = _pendants_on_clique(5, [(0, 1, 2, 4), (1, 2, 3), (1, 2), (0, 1), (0, 4)])


def _separator_quotients(graphs):
    for g in graphs:
        for q in clique_separators(g):
            yield mq(g, q)[1]


def test_linear_scans_match_the_pairwise_references(chordal_corpus):
    # the skeleton and the canonical conditions read the dominance pairs and
    # the antipodal adjacency; each condition is seen to fail on a coloring
    # with one class recolored
    from test_attach import chain, star

    graphs = [g for _, g in chordal_corpus] + [k4_hub(t) for t in range(4, 7)]
    graphs += [star(n) for n in (2, 3, 5, 12)] + [chain(q) for q in (3, 5, 8)]
    graphs.append(CROSSED_MEMBERS)
    failed = set()
    for m in _separator_quotients(graphs):
        s = skeleton(m)
        assert s == _brute.skeleton_by_pairs(m)
        wc = weak_coloring(m)
        if not isinstance(wc, WeakColoring):
            continue
        colorings = [wc.f] + [
            {**wc.f, c: color}
            for c in range(m.size)
            for color in range(1, wc.num_upper + 2)
            if color != wc.f[c]
        ]
        for f in colorings:
            conds = check_canonical_conditions(m, s, f)
            assert conds == _brute.canonical_conditions_by_pairs(m, s, f)
            failed.update(name for name, ok in conds.items() if not ok)
    assert failed == set("abcdef")


def test_k500_with_pendants_scans_match_the_pairwise_references():
    # one separator of 500 classes, each its own upper bound
    k500 = Graph.from_edges(500, list(itertools.combinations(range(500), 2)))
    (m,) = _separator_quotients([graph_plus(k500)])
    s = skeleton(m)
    assert len(s.upper) == 500 and s == _brute.skeleton_by_pairs(m)
    f = weak_coloring(m).f
    assert check_canonical_conditions(m, s, f) == _brute.canonical_conditions_by_pairs(m, s, f)
