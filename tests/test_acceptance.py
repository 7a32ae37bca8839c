"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible with pytest -s) and asserts the
same condition. The shared corpus is 1000 seeded chordal graphs on 4..12
vertices; oracle comparisons stay inside the documented guard limits. The
last check runs on every connected chordal graph on up to 7 vertices
(tests/_small.py).
"""

import time
from collections import Counter

import pytest

from pathgraph.attach import quotient
from pathgraph.chordal import (
    is_clique_path_tree,
    maximal_cliques,
    peo_or_hole,
    EliminationOrder,
)
from pathgraph.coloring import (
    WeakColoring,
    check_canonical_conditions,
    weak_coloring,
)
from pathgraph.decompose import clique_separators, gamma_components
from pathgraph.generate import gen_chordal, gen_path_graph
from pathgraph.graphs import graph_plus
from pathgraph.obstructions import (
    FAMILY_ALL,
    FAMILY_BASE,
    build_family,
    verify_obstruction,
)
from pathgraph.oracle import oracle_clique_path_tree
from pathgraph.realize import clique_path_tree_to_host, realize, verify_realization
from pathgraph.recognize import recognize_directed_path_graph, recognize_path_graph

from _brute import (
    find_induced_colored,
    full_antipodal_triple,
    is_strong_coloring,
    oracle_strong_coloring,
)
from _small import connected_chordal_graphs


def line(num: int, ok: bool, text: str) -> bool:
    print(f"acceptance {num:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    return ok


@pytest.fixture(scope="module")
def corpus():
    # a small-graph half for edge cases and a dense half for refutations
    small = [(seed, gen_chordal(4 + seed % 9, seed)) for seed in range(500)]
    dense = [(seed, gen_chordal(11 + seed % 2, seed)) for seed in range(500, 1000)]
    return small + dense


@pytest.fixture(scope="module")
def corpus_verdicts(corpus):
    return [(seed, g, recognize_path_graph(g)) for seed, g in corpus]


def separators_with_quotients(g, max_classes=None):
    for q in clique_separators(g):
        dec = gamma_components(g, q)
        m = quotient(dec)
        if max_classes is not None and m.size > max_classes:
            continue
        yield q, dec, m


def pattern_sizes(family: str, host_n: int):
    if family in ("W0", "W1"):
        k = 1
        while 2 * k + 2 <= host_n:
            yield k
            k += 1
    else:
        n = 2
        while 2 * n + 1 <= host_n:
            yield n
            n += 1


def some_family_member(m, families, induced: bool, max_host: int = 32):
    candidates = []
    for fam in families:
        for size in pattern_sizes(fam, m.size):
            p = build_family(fam, size)
            candidates.append((p.pattern.n, p))
    for _, p in sorted(candidates, key=lambda t: t[0]):
        emb = find_induced_colored(m.edges, p, induced=induced, max_host=max_host)
        if emb is not None:
            return p, emb
    return None


def test_01_worked_instance(worked8):
    start = time.perf_counter()
    v = recognize_path_graph(worked8)
    t = realize(worked8)
    host = clique_path_tree_to_host(worked8, t)
    oracle_t = oracle_clique_path_tree(worked8)
    oracle_agrees = oracle_t is not None and is_clique_path_tree(worked8, oracle_t)
    strong_agrees = all(
        oracle_strong_coloring(r.decomposition, r.attachedness) is not None
        for r in v.reports
    )
    elapsed = time.perf_counter() - start
    ok = (
        v.is_path_graph
        and is_clique_path_tree(worked8, t)
        and verify_realization(worked8, host)
        and oracle_agrees
        and strong_agrees
        and elapsed < 1.0
    )
    assert line(1, ok, f"worked 8-vertex instance accepted and realized ({elapsed:.3f}s)")


def test_02_hub_counterexample(k4hub):
    start = time.perf_counter()
    v = recognize_path_graph(k4hub)
    rejected = not v.is_path_graph
    rep = v.reports[-1]
    ob = rep.obstruction
    triangle = (
        ob is not None
        and ob.pattern.family == "FULL_TRIANGLE"
        and k4hub.label(ob.witness) == "1"
    )
    plus = graph_plus(k4hub)
    m = quotient(gamma_components(plus, (0, 1, 2, 3)))
    wheel = find_induced_colored(m.edges, build_family("W0", 1), max_host=m.size)
    cliques = maximal_cliques(k4hub)
    oracle_rejects = len(cliques) == 4 and oracle_clique_path_tree(k4hub) is None
    elapsed = time.perf_counter() - start
    ok = (
        rejected
        and triangle
        and wheel == (0, 1, 2, 3)
        and oracle_rejects
        and elapsed < 1.0
    )
    assert line(
        2,
        ok,
        "hub counterexample rejected, witness '1', pendant closure shows an "
        f"induced 4-wheel, all 16 labeled trees fail ({elapsed:.3f}s)",
    )


def test_03_weak_matches_strong(corpus):
    start = time.perf_counter()
    checked = refuted = disagreements = 0
    for _, g in corpus:
        for _, dec, m in separators_with_quotients(g, max_classes=8):
            weak_ok = isinstance(weak_coloring(m), WeakColoring)
            strong_ok = oracle_strong_coloring(dec, m) is not None
            checked += 1
            refuted += not weak_ok
            disagreements += weak_ok != strong_ok
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and checked > 800 and refuted > 5 and elapsed < 300.0
    assert line(
        3,
        ok,
        f"weak coloring matches exhaustive strong coloring on {checked} "
        f"separators, {refuted} refuted ({elapsed:.1f}s)",
    )


def test_04_recognition_matches_tree_oracle(corpus_verdicts):
    compared = disagreements = 0
    for _, g, v in corpus_verdicts:
        if len(maximal_cliques(g)) > 9:
            continue
        compared += 1
        disagreements += v.is_path_graph != (oracle_clique_path_tree(g) is not None)
    ok = disagreements == 0 and compared > 800
    assert line(
        4, ok, f"recognition matches the labeled-tree oracle on {compared} graphs"
    )


def test_05_generator_soundness(corpus):
    accepted = 0
    for seed in range(1000):
        g, host = gen_path_graph(2 + seed % 6, 2 + (seed // 6) % 6, seed)
        if verify_realization(g, host) and recognize_path_graph(g).is_path_graph:
            accepted += 1
    chordal = sum(
        isinstance(peo_or_hole(g), EliminationOrder) for _, g in corpus
    )
    ok = accepted == 1000 and chordal == 1000
    assert line(
        5,
        ok,
        f"generators sound: {accepted}/1000 sampled path graphs accepted, "
        f"{chordal}/1000 chordal builds have an elimination order",
    )


def test_06_three_characterizations_agree(corpus):
    checked = refuted = disagreements = 0
    for _, g in corpus:
        for _, dec, m in separators_with_quotients(g, max_classes=8):
            colorable = isinstance(weak_coloring(m), WeakColoring)
            triple = full_antipodal_triple(m) is not None
            base = triple or some_family_member(m, FAMILY_BASE, induced=False)
            member = triple or some_family_member(m, FAMILY_ALL, induced=True)
            checked += 1
            refuted += not colorable
            if not (colorable == (not base) == (not member)):
                disagreements += 1
    ok = disagreements == 0 and checked > 800 and refuted > 5
    assert line(
        6,
        ok,
        f"colorability, forbidden colored subgraphs and induced members agree "
        f"three ways on {checked} separators",
    )


def test_07_pendant_closure_invariance(corpus_verdicts):
    flips = rejected_pairs = missing = 0
    for _, g, v in corpus_verdicts:
        vp = recognize_path_graph(graph_plus(g))
        if v.is_path_graph != vp.is_path_graph:
            flips += 1
            continue
        if vp.is_path_graph:
            continue
        rejected_pairs += 1
        rep = vp.reports[-1]
        if some_family_member(rep.attachedness, FAMILY_ALL, induced=True) is None:
            missing += 1
    ok = flips == 0 and missing == 0 and rejected_pairs > 5
    assert line(
        7,
        ok,
        f"pendant closure preserves all 1000 verdicts; every rejected closure "
        f"({rejected_pairs}) has an induced family member, no triangle clause",
    )


def test_08_certificate_soundness(corpus_verdicts):
    obstructions = colorings = trees = bad = 0
    for _, g, v in corpus_verdicts:
        for rep in v.reports:
            if rep.obstruction is not None:
                obstructions += 1
                bad += not verify_obstruction(
                    rep.attachedness, rep.skeleton, rep.obstruction
                )
            if rep.coloring is not None:
                colorings += 1
                bad += not is_strong_coloring(
                    rep.decomposition, rep.attachedness, rep.coloring.f
                )
        if v.is_path_graph:
            trees += 1
            bad += not is_clique_path_tree(g, realize(g))
    ok = bad == 0 and obstructions > 5 and colorings > 400 and trees > 800
    assert line(
        8,
        ok,
        f"certificates sound: {obstructions} obstructions, {colorings} "
        f"colorings, {trees} trees all verify",
    )


def test_09_canonical_conditions(corpus_verdicts):
    counts = {key: 0 for key in "abcdef"}
    colorings = 0
    for _, _, v in corpus_verdicts:
        for rep in v.reports:
            if rep.coloring is None:
                continue
            colorings += 1
            flags = check_canonical_conditions(
                rep.attachedness, rep.skeleton, rep.coloring.f
            )
            for key, value in flags.items():
                counts[key] += value
    ok = colorings > 400 and all(n == colorings for n in counts.values())
    assert line(
        9,
        ok,
        f"all six canonical coloring conditions hold on {colorings} accepted "
        f"separators, each checked individually",
    )


def test_10_directed_subclass(corpus_verdicts, worked8):
    directed = violations = 0
    for _, g, v in corpus_verdicts:
        if recognize_directed_path_graph(g).is_directed_path_graph:
            directed += 1
            violations += not v.is_path_graph
    dv = recognize_directed_path_graph(worked8)
    separated = (
        recognize_path_graph(worked8).is_path_graph
        and not dv.is_directed_path_graph
        and dv.q == (1, 2, 4)
        and len(dv.odd_cycle) == 3
    )
    ok = violations == 0 and directed > 400 and separated
    assert line(
        10,
        ok,
        f"directed acceptance implies acceptance ({directed} cases); the worked "
        f"instance is a path graph with an antipodal triangle at {{b,c,e}}",
    )


def test_11_every_small_chordal_graph():
    # connected chordal graphs on 1..7 vertices up to isomorphism: OEIS A048192
    graphs = connected_chordal_graphs()
    counts = [len(graphs[n]) for n in sorted(graphs)]
    not_path, not_directed = Counter(), Counter()
    disagree = unsound = 0
    for n, gs in graphs.items():
        for g in gs:
            v = recognize_path_graph(g)
            directed = recognize_directed_path_graph(g).is_directed_path_graph
            not_path[n] += not v.is_path_graph
            not_directed[n] += not directed
            disagree += (oracle_clique_path_tree(g) is not None) != v.is_path_graph
            unsound += directed and not v.is_path_graph
            if v.is_path_graph:
                t = realize(g)
                host = clique_path_tree_to_host(g, t)
                unsound += not (is_clique_path_tree(g, t) and verify_realization(g, host))
    ok = (
        counts == [1, 1, 2, 5, 15, 58, 272]
        and +not_path == {7: 2}
        and +not_directed == {6: 1, 7: 10}
        and disagree == unsound == 0
    )
    assert line(
        11,
        ok,
        f"all {sum(counts)} connected chordal graphs on up to 7 vertices: recognition "
        f"agrees with the tree oracle, directed implies path, every member realizes",
    )
