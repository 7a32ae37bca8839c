"""Chordality: elimination orders, hole certificates, maximal cliques, clique trees."""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import combinations
from typing import Iterable

from .errors import InputError, InvariantError, PreconditionError
from .graphs import (
    Graph,
    VertexSet,
    connected_components,
    induced_subgraph,
    is_connected,
    vset,
)


@dataclass(frozen=True)
class EliminationOrder:
    """A perfect elimination order; order[0] is eliminated first."""

    order: tuple[int, ...]


@dataclass(frozen=True)
class HoleCertificate:
    """A chordless cycle of length >= 4, listed in cyclic order."""

    cycle: tuple[int, ...]


@dataclass(frozen=True)
class CliqueTree:
    """Clique tree: canonically sorted maximal cliques plus tree edges on their indices."""

    cliques: tuple[VertexSet, ...]
    edges: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class CliqueIndex:
    """The chordal structure of a graph, computed once from one elimination order.

    cliques are the maximal cliques in canonical order; occurrences[v] lists,
    increasing, the indices of the cliques that contain v.
    """

    order: tuple[int, ...]
    cliques: tuple[VertexSet, ...]
    occurrences: tuple[tuple[int, ...], ...]


def _mcs_order(g: Graph) -> list[int]:
    """Maximum cardinality search; ties broken toward the smallest vertex id.

    A heap keyed (-weight, id), packed into the int id - weight * n, with stale
    entries skipped on pop: O((n + m) log n). Returns the selection order
    (first selected first).
    """
    n = g.n
    weight = [0] * n
    selected = [False] * n
    heap = list(range(n))  # every key id - 0 * n, sorted, hence a heap
    order: list[int] = []
    while heap:
        key = heappop(heap)
        best = key % n
        if selected[best] or key != best - weight[best] * n:
            continue
        selected[best] = True
        order.append(best)
        for u in g.adj[best]:
            if not selected[u]:
                weight[u] += 1
                heappush(heap, u - weight[u] * n)
    return order


def _later_neighbors(g: Graph, order: list[int]) -> tuple[list[int], list[list[int]]]:
    """Each vertex's position in the order, and its neighbors placed after it."""
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    return pos, [[u for u in g.adj[v] if pos[u] > pos[v]] for v in range(g.n)]


def _check_peo(g: Graph, order: list[int]) -> tuple[int, int, int] | None:
    """First violation (v, p, x) of the elimination order, or None when perfect.

    p is v's earliest-eliminated later neighbor; x the earliest-eliminated
    later neighbor not adjacent to p.
    """
    pos, later = _later_neighbors(g, order)
    for v in order:
        if len(later[v]) <= 1:
            continue
        p = min(later[v], key=pos.__getitem__)
        bad = set(later[v]) - g.adj[p] - {p}
        if bad:
            return (v, p, min(bad, key=pos.__getitem__))
    return None


def _hole_through(g: Graph, v: int, x: int, y: int) -> tuple[int, ...] | None:
    """Hole v-x-...-y-v via a shortest x..y path avoiding N[v] \\ {x, y}."""
    banned = (g.adj[v] | {v}) - {x, y}
    parent: dict[int, int] = {x: -1}
    queue = deque([x])
    while queue:
        u = queue.popleft()
        if u == y:
            path = [u]
            while parent[path[-1]] != -1:
                path.append(parent[path[-1]])
            path.reverse()  # x .. y
            return (v, *path)
        for w in sorted(g.adj[u]):
            if w not in banned and w not in parent:
                parent[w] = u
                queue.append(w)
    return None


def _canonical_cycle(cycle: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate the smallest vertex to the front, then pick the smaller direction."""
    k = cycle.index(min(cycle))
    rot = cycle[k:] + cycle[:k]
    rev = (rot[0],) + rot[1:][::-1]
    return rot if rot[1] <= rev[1] else rev


def _find_hole(g: Graph, seed: tuple[int, int, int]) -> tuple[int, ...]:
    """Extract some hole of a non-chordal graph, trying the violating triple first."""
    v, p, x = seed
    hole = _hole_through(g, v, p, x)
    if hole is not None:
        return hole
    # Defensive fallback: scan all (v; x, y) with x, y nonadjacent neighbors of v.
    for v in range(g.n):
        nbrs = sorted(g.adj[v])
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                if not g.has_edge(a, b):
                    hole = _hole_through(g, v, a, b)
                    if hole is not None:
                        return hole
    raise InvariantError("elimination order failed but no hole was found")


def peo_or_hole(g: Graph) -> EliminationOrder | HoleCertificate:
    """Perfect elimination order of a chordal graph, or a hole certificate.

    The order comes from maximum cardinality search with smallest-id tie-breaks,
    so it is deterministic; the hole is extracted from the first violation.
    """
    selection = _mcs_order(g)
    order = selection[::-1]
    bad = _check_peo(g, order)
    if bad is None:
        return EliminationOrder(tuple(order))
    return HoleCertificate(_canonical_cycle(_find_hole(g, bad)))


def is_chordal(g: Graph) -> bool:
    return isinstance(peo_or_hole(g), EliminationOrder)


def clique_index(g: Graph, order: tuple[int, ...] | list[int]) -> CliqueIndex:
    """Maximal cliques and vertex occurrences read off a perfect elimination order.

    Each maximal clique is C_v = {v} plus v's later neighbors for exactly one v,
    its earliest vertex. C_v is absorbed when some u whose first later neighbor
    is v has one more later neighbor than v (then C_u = {u} plus C_v), which is
    the only way C_v can fail to be maximal. Linear in n + m up to sorting.
    """
    pos, later = _later_neighbors(g, order)
    absorbed = [False] * g.n
    for u in range(g.n):
        if later[u]:
            p = min(later[u], key=pos.__getitem__)
            if len(later[u]) == len(later[p]) + 1:
                absorbed[p] = True
    cliques = sorted(vset([v, *later[v]]) for v in range(g.n) if not absorbed[v])
    occurrences: list[list[int]] = [[] for _ in range(g.n)]
    for i, c in enumerate(cliques):
        for v in c:
            occurrences[v].append(i)
    return CliqueIndex(
        tuple(order), tuple(cliques), tuple(tuple(occ) for occ in occurrences)
    )


def restrict_index(index: CliqueIndex, sub: Graph, idmap: VertexSet) -> CliqueIndex:
    """Index of the induced subgraph sub = G[idmap], in sub's ids.

    A perfect elimination order restricted to an induced subgraph is still one,
    so no new search runs; O(n + m) for the parent's order and sub's cliques.
    """
    local = {v: i for i, v in enumerate(idmap)}
    return clique_index(sub, [local[v] for v in index.order if v in local])


def component_indices(
    g: Graph, index: CliqueIndex
) -> list[tuple[Graph, VertexSet | None, CliqueIndex]]:
    """(graph, id map, index) per connected component of a chordal graph.

    A connected graph is its own single piece with id map None; otherwise each
    component is induced and indexed through restrict_index.
    """
    comps = connected_components(g)
    if len(comps) == 1:
        return [(g, None, index)]
    subs = [induced_subgraph(g, comp) for comp in comps]
    return [(sub, idmap, restrict_index(index, sub, idmap)) for sub, idmap in subs]


def _component_cliques(
    g: Graph, index: CliqueIndex
) -> list[tuple[VertexSet, list[int]]]:
    """Each connected component of a chordal graph, by smallest vertex, with
    the indices of its maximal cliques in canonical order."""
    comps = connected_components(g)
    comp_of = [0] * g.n
    for k, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = k
    nodes: list[list[int]] = [[] for _ in comps]
    for i, c in enumerate(index.cliques):
        nodes[comp_of[c[0]]].append(i)
    return list(zip(comps, nodes))


def _checked_index(g: Graph, caller: str) -> CliqueIndex:
    """The clique index of a chordal graph, built at a public boundary.

    Raises PreconditionError naming the caller when g has a hole.
    """
    res = peo_or_hole(g)
    if isinstance(res, HoleCertificate):
        raise PreconditionError(f"{caller} requires a chordal graph")
    return clique_index(g, res.order)


def maximal_cliques(g: Graph) -> list[VertexSet]:
    """Maximal cliques of a chordal graph, canonically sorted.

    A chordal graph on n vertices has at most n maximal cliques; they are read
    off an elimination order by clique_index.
    """
    return list(_checked_index(g, "maximal_cliques").cliques)


def clique_tree(g: Graph) -> CliqueTree:
    """A clique tree of a connected chordal graph.

    Maximum-weight spanning tree of the clique graph under intersection sizes
    (Kruskal, ties toward lexicographically smaller index pairs), validated
    against the induced-subtree property.
    """
    if not is_connected(g):
        raise PreconditionError("clique_tree requires a connected graph")
    return _clique_tree(_checked_index(g, "clique_tree"))


def _clique_tree(index: CliqueIndex) -> CliqueTree:
    """clique_tree on the index of a connected chordal graph."""
    c = len(index.cliques)
    if c == 0:
        return CliqueTree((), frozenset())
    # pairs of cliques sharing a vertex, weighted by how many they share
    shared = Counter(pair for occ in index.occurrences for pair in combinations(occ, 2))
    cands = sorted((-w, i, j) for (i, j), w in shared.items())
    parent = list(range(c))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    edges: set[tuple[int, int]] = set()
    for _, i, j in cands:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            edges.add((i, j))
    if len(edges) != c - 1:
        raise InvariantError("clique graph of a connected chordal graph must be connected")
    tree = CliqueTree(index.cliques, frozenset(edges))
    if not _has_subtree_property(index, tree.edges):
        raise InvariantError("maximum-weight spanning tree is not a clique tree")
    return tree


def _tree_adj(c: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Sorted neighbor lists of a graph on nodes 0..c-1."""
    adj: list[list[int]] = [[] for _ in range(c)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    for nbrs in adj:
        nbrs.sort()
    return adj


def _is_tree(c: int, edges: frozenset[tuple[int, int]]) -> bool:
    """Whether edges form a tree on nodes 0..c-1.

    Raises InputError on an endpoint outside 0..c-1.
    """
    if any(not 0 <= x < c for e in edges for x in e):
        raise InputError(f"tree edge endpoint out of range for {c} cliques")
    if len(edges) != max(c - 1, 0):
        return False
    return is_connected(Graph(c, tuple(frozenset(a) for a in _tree_adj(c, edges))))


def _clique_degrees(
    index: CliqueIndex, edges: frozenset[tuple[int, int]]
) -> list[list[int]]:
    """Per vertex, the degree of each of its cliques within the part of the tree
    its cliques induce. In a tree, that part is connected exactly when the
    degrees sum to 2 * (count - 1), and a path when none also exceeds 2."""
    adj = _tree_adj(len(index.cliques), edges)
    degrees = []
    for nodes in index.occurrences:
        inside = set(nodes)
        degrees.append([sum(1 for w in adj[u] if w in inside) for u in nodes])
    return degrees


def _has_subtree_property(index: CliqueIndex, edges: frozenset[tuple[int, int]]) -> bool:
    """Every vertex's cliques induce a connected subtree."""
    return all(sum(d) == 2 * len(d) - 2 for d in _clique_degrees(index, edges))


def _is_path_tree(index: CliqueIndex, edges: frozenset[tuple[int, int]]) -> bool:
    """Whether edges form a tree on the indexed cliques in which every vertex's
    cliques induce a path."""
    return _is_tree(len(index.cliques), edges) and all(
        max(d) <= 2 and sum(d) == 2 * len(d) - 2 for d in _clique_degrees(index, edges)
    )


def _path_tree_index(g: Graph, tree: CliqueTree, caller: str) -> CliqueIndex:
    """The boundary of the path-tree checks: g's clique index, once the tree is
    known to be over exactly its canonical maximal cliques."""
    index = _checked_index(g, caller)
    if tuple(tree.cliques) != index.cliques:
        raise InputError("tree is not over the canonical maximal clique list")
    return index


def is_valid_clique_tree(g: Graph, tree: CliqueTree) -> bool:
    """Tree on the maximal cliques satisfying the induced-subtree property."""
    index = _checked_index(g, "is_valid_clique_tree")
    return (
        tuple(tree.cliques) == index.cliques
        and _is_tree(len(index.cliques), tree.edges)
        and _has_subtree_property(index, tree.edges)
    )


def is_clique_path_tree(g: Graph, tree: CliqueTree) -> bool:
    """True when every vertex's cliques induce a path in the tree.

    The tree must be over exactly maximal_cliques(g) in canonical order.
    """
    return _is_path_tree(_path_tree_index(g, tree, "is_clique_path_tree"), tree.edges)
