"""Every connected chordal graph on up to 7 vertices, up to isomorphism.

A connected chordal graph on two or more vertices has a simplicial vertex
whose removal leaves it connected and chordal, and that vertex's
neighbourhood is a nonempty clique, so it lies in a maximal clique. Hence
each graph on n + 1 vertices is one on n vertices grown by a vertex joined
to a nonempty subset of a maximal clique. The copies that growth makes are
told apart by a canonical form: colour refinement orders the vertices into
cells, and the least edge code over every order within the cells is kept.
Nothing here calls the package but Graph, so it is ground truth for it.
"""

from itertools import combinations, permutations, product

from pathgraph.graphs import Graph

MAX_N = 7


def _maximal_cliques(n, adj):
    """The maximal cliques of a graph on nodes 0..n-1, by every subset."""
    cliques = [
        s for r in range(1, n + 1) for s in combinations(range(n), r)
        if all(b in adj[a] for a, b in combinations(s, 2))
    ]
    return [s for s in cliques if not any(set(s) < set(t) for t in cliques)]


def _refine(n, adj):
    """Stable colours by colour refinement, from one colour: each round
    colours a vertex by its colour and the sorted colours of its
    neighbours, ranked; the ranks depend on no vertex number."""
    colour = [0] * n
    while True:
        sig = [(colour[v], tuple(sorted(colour[w] for w in adj[v]))) for v in range(n)]
        rank = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [rank[s] for s in sig]
        if len(rank) == len(set(colour)):
            return new
        colour = new


def _canonical(n, edges):
    """A code shared by exactly the graphs isomorphic to (n, edges): the
    least sorted edge list over every vertex order that lists the cells of
    colour refinement in colour order, each cell in any order."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    colour = _refine(n, adj)
    cells = [[v for v in range(n) if colour[v] == c] for c in sorted(set(colour))]
    best = None
    for orders in product(*map(permutations, cells)):
        pos = {v: i for i, v in enumerate(v for cell in orders for v in cell)}
        code = sorted((min(pos[u], pos[v]), max(pos[u], pos[v])) for u, v in edges)
        if best is None or code < best:
            best = code
    return n, tuple(best)


def connected_chordal_graphs(max_n=MAX_N):
    """{n: [Graph, ...]} for n = 1..max_n, one graph per isomorphism class."""
    level = {_canonical(1, ())}
    found = {1: level}
    for n in range(1, max_n):
        grown = set()
        for _, edges in level:
            adj = [set() for _ in range(n)]
            for u, v in edges:
                adj[u].add(v)
                adj[v].add(u)
            subsets = {
                s for clique in _maximal_cliques(n, adj)
                for r in range(1, len(clique) + 1) for s in combinations(clique, r)
            }
            for s in subsets:
                grown.add(_canonical(n + 1, edges + tuple((u, n) for u in s)))
        found[n + 1] = level = grown
    return {n: [Graph.from_edges(n, edges) for _, edges in sorted(codes)]
            for n, codes in found.items()}
