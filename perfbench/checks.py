"""Certificate checks written for the benchmark, run outside the timed region.

Holes, host realizations and clique path trees are checked from first
principles against the input graph. Colored obstructions are checked with the
package's own ``verify_obstruction`` against the attachedness structure at the
claimed separator, after checking that the separator is a maximal clique whose
removal disconnects the graph.
"""

from __future__ import annotations

from collections import deque


def _connected(nodes, adj) -> bool:
    nodes = set(nodes)
    if not nodes:
        return True
    start = next(iter(nodes))
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w in nodes and w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(nodes)


def is_hole(g, cycle) -> bool:
    """A chordless cycle of length at least 4 in g."""
    k = len(cycle)
    if k < 4 or len(set(cycle)) != k or not all(0 <= v < g.n for v in cycle):
        return False
    for i in range(k):
        for j in range(i + 1, k):
            adjacent = j == i + 1 or (i == 0 and j == k - 1)
            if (cycle[j] in g.adj[cycle[i]]) != adjacent:
                return False
    return True


def is_host_realization(g, host_n, host_edges, paths) -> bool:
    """The host is a tree, every path is a tree path, and two paths share a
    node exactly when their vertices are adjacent in g."""
    edges = {(min(a, b), max(a, b)) for a, b in host_edges}
    if host_n < 1 or len(edges) != host_n - 1 or len(paths) != g.n:
        return False
    adj = [set() for _ in range(host_n)]
    for a, b in edges:
        if not (0 <= a < host_n and 0 <= b < host_n) or a == b:
            return False
        adj[a].add(b)
        adj[b].add(a)
    if not _connected(range(host_n), adj):
        return False
    node_sets = []
    for p in paths:
        if not p or len(set(p)) != len(p) or not all(0 <= x < host_n for x in p):
            return False
        if any(b not in adj[a] for a, b in zip(p, p[1:])):
            return False
        node_sets.append(set(p))
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if bool(node_sets[u] & node_sets[v]) != (v in g.adj[u]):
                return False
    return True


def _maximal_cliques_brute(g, cliques) -> bool:
    """Each set is a clique, none can be extended, and every edge lies in one."""
    covered = set()
    for c in cliques:
        cs = set(c)
        if any(v not in g.adj[u] for u in c for v in c if u < v):
            return False
        if any(cs <= g.adj[w] for w in range(g.n) if w not in cs):
            return False
        covered.update((u, v) for u in c for v in c if u < v)
    edges = {(u, v) for u in range(g.n) for v in g.adj[u] if u < v}
    return covered == edges and len(set(map(tuple, cliques))) == len(cliques)


def is_clique_path_tree(g, cliques, tree_edges) -> bool:
    """A tree on the maximal cliques of g in which every vertex's cliques
    induce a path: a clique path tree, hence a path-graph certificate."""
    c = len(cliques)
    if c == 0 or not _maximal_cliques_brute(g, cliques):
        return False
    if not all(any(v in cl for cl in cliques) for v in range(g.n)):
        return False
    adj = [set() for _ in range(c)]
    for a, b in tree_edges:
        adj[a].add(b)
        adj[b].add(a)
    if len(set(map(frozenset, tree_edges))) != c - 1 or not _connected(range(c), adj):
        return False
    for v in range(g.n):
        nodes = {i for i, cl in enumerate(cliques) if v in cl}
        if any(len(adj[i] & nodes) > 2 for i in nodes) or not _connected(nodes, adj):
            return False
    return True


def is_clique_separator(g, q) -> bool:
    """q is a maximal clique of g and g - q has at least two components."""
    qs = set(q)
    if not qs or not all(0 <= v < g.n for v in qs):
        return False
    if any(v not in g.adj[u] for u in qs for v in qs if u != v):
        return False
    if any(qs <= g.adj[w] for w in range(g.n) if w not in qs):
        return False
    rest = [v for v in range(g.n) if v not in qs]
    return bool(rest) and not _connected(rest, g.adj)


def obstruction_holds(pg, g, q, obstruction) -> bool:
    """A colored obstruction at separator q of g, checked with the package's
    verify_obstruction against the attachedness structure at q."""
    if not is_clique_separator(g, q):
        return False
    m = pg.attach.quotient(pg.decompose.gamma_components(g, tuple(sorted(q))))
    return pg.obstructions.verify_obstruction(m, pg.coloring.skeleton(m), obstruction)
