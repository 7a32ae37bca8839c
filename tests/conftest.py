import itertools
import random

import pytest

from pathgraph.generate import gen_chordal, k4_hub
from pathgraph.graphs import Graph

WORKED8_EDGES = [
    (0, 1), (0, 2), (1, 2), (1, 4), (2, 4), (2, 3), (3, 4),
    (1, 6), (4, 6), (1, 5), (5, 6), (4, 7), (6, 7),
]
WORKED8_LABELS = tuple("abcdefgh")


def make_worked8() -> Graph:
    """Worked 8-vertex path graph; cliques abc, bce, beg, bfg, cde, egh."""
    return Graph.from_edges(8, WORKED8_EDGES, labels=WORKED8_LABELS)


@pytest.fixture
def worked8() -> Graph:
    return make_worked8()


@pytest.fixture
def k4hub() -> Graph:
    return k4_hub()


@pytest.fixture(scope="session")
def chordal_corpus():
    """Seeded corpus shared by the relation, coloring and recognition tests."""
    return [(seed, gen_chordal(4 + seed % 9, seed)) for seed in range(300)]


@pytest.fixture(scope="session")
def mixed_graphs(chordal_corpus):
    """Named graphs of the shapes the search and the tree parts meet: the
    chordal corpus and larger chordal graphs, seeded random graphs (mostly
    with holes), C_3..C_40, stars, paths, k4_hub(4..7), path graphs,
    interleaved disjoint unions of members and non-members, and the graphs
    on 0 and 1 vertices."""
    from make_certify_golden import interleaved

    from pathgraph.generate import gen_path_graph

    cases = [(f"chordal-{seed}", g) for seed, g in chordal_corpus]
    rng = random.Random(20261018)
    for i in range(100):
        n = rng.randint(2, 25)
        p = rng.choice((0.1, 0.2, 0.4, 0.7))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        cases.append((f"random-{i}", Graph.from_edges(n, edges)))
    for n in range(3, 41):
        cases.append((f"C_{n}", Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])))
    for n in (1, 2, 3, 5, 10, 40, 200):
        cases.append((f"K_1,{n}", Graph.from_edges(n + 1, [(0, i) for i in range(1, n + 1)])))
    for n in (2, 3, 4, 7, 30, 300):
        cases.append((f"P_{n}", Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])))
    cases += [(f"k4_hub({t})", k4_hub(t)) for t in range(4, 8)]
    for n in (5, 12, 40, 80):
        cases += [(f"path-{n}-{s}", gen_path_graph(n, n, s)[0]) for s in range(3)]
    for n in (20, 40, 60):
        cases += [(f"chordal-{n}-{s}", gen_chordal(n, s)) for s in range(10)]
    for seed in range(30):
        pieces = [gen_path_graph(3 + seed % 7, 4 + seed % 5, seed)[0], gen_chordal(4 + seed % 9, seed)]
        pieces += [k4_hub(4)] if seed % 3 == 0 else [Graph.from_edges(3, [(0, 1), (1, 2)])]
        pieces += [Graph(1, (frozenset(),))] if seed % 2 else []
        cases.append((f"union-{seed}", interleaved(pieces, seed)))
    cases += [("n=0", Graph(0, ())), ("n=1", Graph(1, (frozenset(),)))]
    return cases


def star(n):
    """K_{1,n}: every separator's parts share the one trace {0}."""
    return Graph.from_edges(n + 1, [(0, i) for i in range(1, n + 1)])


def chain(q):
    """A clique {0..q-1} plus, for each i < q - 1, a pendant vertex q + i
    adjacent to {0..i}: q - 1 separators of nested classes."""
    edges = list(itertools.combinations(range(q), 2))
    edges += [(q + i, j) for i in range(q - 1) for j in range(i + 1)]
    return Graph.from_edges(2 * q - 1, edges)


def relabeled(g, seed):
    """g on shuffled ids from 70 up, after 70 isolated vertices: every
    separator's ids exceed 64, so a vertex's position in Q differs from its
    id, and Q's order is not the order of g's ids."""
    ids = list(range(70, 70 + g.n))
    random.Random(seed).shuffle(ids)
    return Graph.from_edges(70 + g.n, [(ids[u], ids[v]) for u, v in g.edges()])


@pytest.fixture(scope="session")
def wider_graphs(mixed_graphs):
    """chain(3..40), K_{1,2..60} and every mixed graph relabeled."""
    cases = [(f"chain({q})", chain(q)) for q in range(3, 41)]
    cases += [(f"K_1,{n}", star(n)) for n in range(2, 61)]
    return cases + [(f"{name} relabeled", relabeled(g, i)) for i, (name, g) in enumerate(mixed_graphs)]
