import pytest

import _hosts
from _brute import find_induced_colored
from pathgraph import graphs
from pathgraph.attach import quotient
from pathgraph.coloring import Refutation, skeleton, weak_coloring
from pathgraph.decompose import clique_separators, gamma_components
from pathgraph.errors import GuardRefusal, InputError
from pathgraph.generate import gen_chordal, k4_hub
from pathgraph.graphs import EdgeColoredGraph, graph_plus
from pathgraph.obstructions import (
    DF,
    F,
    FAMILY_ALL,
    FAMILY_BASE,
    FTILDE,
    FULL_TRIANGLE,
    W0,
    W1,
    Obstruction,
    build_family,
    refutation_to_obstruction,
    verify_obstruction,
)


def certificate(m):
    r = weak_coloring(m)
    assert isinstance(r, Refutation)
    return refutation_to_obstruction(m, skeleton(m), r)


def test_family_shapes_small():
    w0 = build_family(W0, 1).pattern
    assert sorted(w0.antipodal) == [(0, 1), (0, 2), (1, 2)]
    assert sorted(w0.dominance) == [(0, 3), (1, 3), (2, 3)]

    w1 = build_family(W1, 1).pattern
    assert sorted(w1.antipodal) == [(0, 1), (0, 2), (0, 3), (1, 2)]
    assert sorted(w1.dominance) == [(1, 3), (2, 3)]

    f2 = build_family(F, 2).pattern
    assert f2.n == 5
    assert sorted(f2.antipodal) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert sorted(f2.dominance) == [(1, 4), (2, 4)]

    ft2 = build_family(FTILDE, 2).pattern
    assert sorted(ft2.antipodal) == [(0, 1), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert ft2.dominance == f2.dominance

    df2 = build_family(DF, 2).pattern
    assert df2.n == 5
    assert sorted(df2.antipodal) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert sorted(df2.dominance) == [(0, 3), (1, 3), (1, 4), (2, 4)]

    tri = build_family(FULL_TRIANGLE, 1).pattern
    assert tri.n == 3 and tri.dominance == frozenset()


def test_family_shapes_general():
    for k in (1, 2, 3, 4):
        p = build_family(W0, k).pattern
        assert p.n == 2 * k + 2
        assert len(p.antipodal) == 2 * k + 1
        assert len(p.dominance) == 2 * k + 1
        p = build_family(W1, k).pattern
        assert len(p.antipodal) == 2 * k + 2
        assert len(p.dominance) == 2 * k
    for n in (2, 3, 4):
        p = build_family(F, n).pattern
        assert p.n == 2 * n + 1
        assert len(p.antipodal) == 2 * n + 1
        assert len(p.dominance) == 2 * n - 2
        p = build_family(DF, n).pattern
        assert p.n == 2 * n + 1
        assert len(p.antipodal) == 2 * n + 1
        assert len(p.dominance) == 4 * n - 4


def test_family_input_errors():
    with pytest.raises(InputError):
        build_family(W0, 0)
    with pytest.raises(InputError):
        build_family(F, 1)
    with pytest.raises(InputError):
        build_family(DF, 1)
    with pytest.raises(InputError):
        build_family(FULL_TRIANGLE, 2)
    with pytest.raises(InputError):
        build_family("W2", 1)


def test_family_past_the_vertex_limit_is_refused_up_front(monkeypatch):
    # a size is refused by its pattern's vertex count before any edge is
    # built: DF size 10**9 would take terabytes
    for family in (W0, W1, F, FTILDE, DF):
        with pytest.raises(InputError, match="too large"):
            build_family(family, 10**9)
    monkeypatch.setattr(graphs, "MAX_VERTICES", 9)
    for family, largest in ((W0, 3), (W1, 3), (F, 4), (FTILDE, 4), (DF, 4)):
        assert build_family(family, largest).pattern.n in (8, 9)
        too_large = f"{family} size {largest + 1}: vertex count .* too large"
        with pytest.raises(InputError, match=too_large):
            build_family(family, largest + 1)


def test_verify_obstruction_accept_and_reject():
    m = _hosts.df2_host()
    pat = build_family(DF, 2)
    good = Obstruction(pat, (0, 1, 2, 3, 4), m.q)
    assert verify_obstruction(m, None, good)
    assert verify_obstruction(m, None, good, induced=True)
    assert not verify_obstruction(m, None, Obstruction(pat, (1, 0, 2, 3, 4), m.q))
    assert not verify_obstruction(m, None, Obstruction(pat, (0, 1, 2, 3), m.q))
    assert not verify_obstruction(m, None, Obstruction(pat, (0, 1, 2, 3, 3), m.q))
    assert not verify_obstruction(m, None, Obstruction(pat, (0, 1, 2, 3, 5), m.q))
    # an entry that is not a class index is rejected like one out of range
    assert not verify_obstruction(m, None, Obstruction(pat, (0, 1, 2, 3, "4"), m.q))
    # so is an embedding that is no tuple or list of them
    assert not verify_obstruction(m, None, Obstruction(pat, None, m.q))


def test_verify_obstruction_induced_is_stricter():
    m = _hosts.df2_host(extra_anti={(0, 2)})
    pat = build_family(DF, 2)
    o = Obstruction(pat, (0, 1, 2, 3, 4), m.q)
    assert verify_obstruction(m, None, o)
    assert not verify_obstruction(m, None, o, induced=True)


def test_verify_full_triangle_needs_witness():
    m = _hosts.full_triple_host()
    pat = build_family(FULL_TRIANGLE, 1)
    assert verify_obstruction(m, None, Obstruction(pat, (0, 1, 2), m.q, witness=0))
    assert not verify_obstruction(m, None, Obstruction(pat, (0, 1, 2), m.q))
    assert not verify_obstruction(
        m, None, Obstruction(pat, (0, 1, 2), m.q, witness=7)
    )


def test_full_triple_certificates():
    o = certificate(_hosts.full_triple_host())
    assert o.pattern.family == FULL_TRIANGLE
    assert o.embedding == (0, 1, 2)
    assert o.witness == 0

    # a class below the whole triple upgrades the certificate to a wheel
    o = certificate(_hosts.full_triple_host(with_below=True))
    assert (o.pattern.family, o.pattern.size) == (W0, 1)
    assert o.embedding == (0, 1, 2, 3)
    assert o.witness is None


def test_bad_triple_certificates():
    o = certificate(_hosts.df2_host())
    assert (o.pattern.family, o.pattern.size) == (DF, 2)
    assert o.embedding == (0, 1, 2, 3, 4)

    o = certificate(_hosts.df2_host(extra_anti={(0, 2)}))
    assert (o.pattern.family, o.pattern.size) == (W1, 1)
    assert o.embedding == (2, 1, 0, 3)


def test_odd_cycle_certificate():
    o = certificate(_hosts.odd_cycle_host())
    assert (o.pattern.family, o.pattern.size) == (W0, 2)
    assert o.embedding == (0, 1, 2, 3, 4, 5)


def test_conflict_path_certificates_single_member():
    o = certificate(_hosts.two_attacker_host())
    assert (o.pattern.family, o.pattern.size) == (F, 2)
    assert o.embedding == (3, 0, 1, 4, 2)

    o = certificate(_hosts.two_attacker_host(close_top=True))
    assert (o.pattern.family, o.pattern.size) == (FTILDE, 2)
    assert o.embedding == (3, 0, 1, 4, 2)


def test_conflict_path_certificates_pair_member():
    o = certificate(_hosts.dij_same_color_host())
    assert (o.pattern.family, o.pattern.size) == (W1, 2)
    assert o.embedding == (4, 0, 1, 2, 3, 5)

    o = certificate(_hosts.dij_distinct_host())
    assert (o.pattern.family, o.pattern.size) == (DF, 3)
    assert o.embedding == (4, 3, 2, 1, 0, 5, 6)


def test_natural_certificates():
    cases = [
        (16, 64, (1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15),
         FULL_TRIANGLE, 1, (0, 1, 2), 1),
        (12, 294, (2, 3, 4, 5, 8, 9, 10), W1, 1, (0, 2, 3, 1), None),
        (12, 723, (0, 1, 2, 3, 4, 6, 7, 11), W0, 1, (1, 2, 3, 0), None),
        (14, 25659, (1, 3, 6, 9, 11, 13), W0, 1, (2, 1, 4, 0), None),
    ]
    for n, seed, q, family, size, emb, witness in cases:
        m = quotient(gamma_components(gen_chordal(n, seed), q))
        o = certificate(m)
        assert (o.pattern.family, o.pattern.size) == (family, size)
        assert o.embedding == emb
        assert o.witness == witness
        assert o.q == q


def test_pendant_closure_turns_triangle_into_wheel():
    g = graph_plus(k4_hub())
    m = quotient(gamma_components(g, (0, 1, 2, 3)))
    o = certificate(m)
    assert (o.pattern.family, o.pattern.size) == (W0, 1)
    assert o.embedding == (0, 1, 2, 3)


def test_find_induced_identity():
    for family, size in [(W0, 1), (W0, 2), (W1, 1), (F, 2), (FTILDE, 2), (DF, 2)]:
        pat = build_family(family, size)
        assert find_induced_colored(pat.pattern, pat) == tuple(range(pat.pattern.n))


def test_find_induced_respects_colors():
    host = build_family(W0, 1).pattern
    assert find_induced_colored(host, build_family(W1, 1)) is None
    assert find_induced_colored(host, build_family(FULL_TRIANGLE, 1)) == (0, 1, 2)


def test_subgraph_vs_induced_search():
    host = build_family(FTILDE, 2).pattern
    f2 = build_family(F, 2)
    assert find_induced_colored(host, f2, induced=True) is None
    emb = find_induced_colored(host, f2, induced=False)
    assert emb is not None
    for u in range(5):
        for v in range(u + 1, 5):
            want = f2.pattern.color_of(u, v)
            if want is not None:
                assert host.color_of(emb[u], emb[v]) == want


def test_find_induced_guard():
    big = EdgeColoredGraph(13, frozenset({(0, 1)}), frozenset())
    with pytest.raises(GuardRefusal):
        find_induced_colored(big, build_family(W0, 1))
    assert find_induced_colored(big, build_family(W0, 1), max_host=13) is None


def test_pattern_larger_than_host():
    host = build_family(W0, 1).pattern
    assert find_induced_colored(host, build_family(W0, 2)) is None


def test_certificates_on_corpus(chordal_corpus):
    seen = set()
    for _, g in chordal_corpus:
        for q in clique_separators(g):
            m = quotient(gamma_components(g, q))
            r = weak_coloring(m)
            if not isinstance(r, Refutation):
                continue
            o = refutation_to_obstruction(m, skeleton(m), r)
            assert verify_obstruction(m, None, o)
            assert o.pattern.family in FAMILY_ALL + (FULL_TRIANGLE,)
            seen.add(o.pattern.family)
    assert seen


def test_base_families_are_subsets_of_all():
    assert set(FAMILY_BASE) < set(FAMILY_ALL)
