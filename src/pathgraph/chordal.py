"""Chordality: elimination orders, hole certificates, maximal cliques, clique trees."""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import combinations
from typing import Iterable, Iterator

from .errors import InputError, InvariantError, PreconditionError
from .graphs import Graph, VertexSet, is_connected, vset


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
    """The chordal structure of a graph, computed once by one search.

    cliques are the maximal cliques in canonical order; occurrences[v] lists,
    increasing, the indices of the cliques that contain v; components holds
    each connected component, by smallest vertex, with the indices of its
    cliques in canonical order.
    """

    order: tuple[int, ...]
    cliques: tuple[VertexSet, ...]
    occurrences: tuple[tuple[int, ...], ...]
    components: tuple[tuple[VertexSet, tuple[int, ...]], ...]


def _mcs(g: Graph) -> tuple[list[int], list[list[int]], list[int]]:
    """Maximum cardinality search; ties broken toward the smallest vertex id.

    A heap keyed (-weight, id), packed into the int id - weight * n, with stale
    entries skipped on pop: O((n + m) log n). Returns the selection order
    (first selected first); for each vertex, its neighbors selected before it,
    in selection order, which are its later neighbors in the reversed
    (elimination) order, so its weight is their number; and each vertex's
    component number. A vertex selected at weight 0 starts the next component,
    and by the tie-break it is that component's smallest vertex.
    """
    n = g.n
    adj = g.adj
    before: list[list[int]] = [[] for _ in range(n)]
    comp = [-1] * n
    heap = list(range(n))  # every key id - 0 * n, sorted, hence a heap
    selection: list[int] = []
    comps = 0
    while heap:
        key = heappop(heap)
        v = key % n
        if comp[v] >= 0 or key != v - len(before[v]) * n:
            continue
        if not before[v]:
            comps += 1
        comp[v] = comps - 1
        selection.append(v)
        for u in adj[v]:
            if comp[u] < 0:
                bu = before[u]
                bu.append(v)
                heappush(heap, u - len(bu) * n)
    return selection, before, comp


def _check_peo(
    g: Graph, order: list[int], later: list[list[int]]
) -> tuple[int, int, int] | None:
    """First violation (v, p, x) of the elimination order, or None when perfect.

    later[v] lists v's later neighbors, latest-eliminated first. p is v's
    earliest-eliminated later neighbor; x the earliest-eliminated later
    neighbor not adjacent to p.
    """
    adj = g.adj
    for v in order:
        lv = later[v]
        if len(lv) > 1:
            p = lv[-1]
            if not adj[p].issuperset(lv[:-1]):
                return (v, p, next(x for x in reversed(lv[:-1]) if x not in adj[p]))
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


def _index_or_hole(g: Graph) -> CliqueIndex | HoleCertificate:
    """The clique index of a chordal graph, or a hole certificate, from one
    maximum cardinality search.

    The elimination order is the search's selection order reversed, so the
    neighbors selected before v are v's later neighbors. The hole is extracted
    from the first violation. Each maximal clique is C_v = {v} plus v's later
    neighbors for exactly one v, its earliest vertex. C_v is absorbed when
    some u whose first later neighbor is v has one more later neighbor than v
    (then C_u = {u} plus C_v), which is the only way C_v can fail to be
    maximal. Linear in n + m up to sorting and the heap.
    """
    selection, later, comp = _mcs(g)
    order = selection[::-1]
    bad = _check_peo(g, order, later)
    if bad is not None:
        return HoleCertificate(_canonical_cycle(_find_hole(g, bad)))
    absorbed = [False] * g.n
    for lu in later:
        if lu and len(lu) == len(later[lu[-1]]) + 1:
            absorbed[lu[-1]] = True
    cliques = sorted(vset([v, *later[v]]) for v in range(g.n) if not absorbed[v])
    members: list[list[int]] = [[] for _ in range(max(comp, default=-1) + 1)]
    for v in range(g.n):
        members[comp[v]].append(v)
    occurrences: list[list[int]] = [[] for _ in range(g.n)]
    nodes: list[list[int]] = [[] for _ in members]
    for i, c in enumerate(cliques):
        nodes[comp[c[0]]].append(i)
        for v in c:
            occurrences[v].append(i)
    return CliqueIndex(
        tuple(order),
        tuple(cliques),
        tuple(tuple(occ) for occ in occurrences),
        tuple((tuple(vs), tuple(ns)) for vs, ns in zip(members, nodes)),
    )


def peo_or_hole(g: Graph) -> EliminationOrder | HoleCertificate:
    """Perfect elimination order of a chordal graph, or a hole certificate.

    The order comes from maximum cardinality search with smallest-id tie-breaks,
    so it is deterministic; the hole is extracted from the first violation.
    """
    res = _index_or_hole(g)
    return res if isinstance(res, HoleCertificate) else EliminationOrder(res.order)


def is_chordal(g: Graph) -> bool:
    return isinstance(peo_or_hole(g), EliminationOrder)


def _relabelled_components(
    index: CliqueIndex,
) -> Iterator[tuple[VertexSet, CliqueIndex]]:
    """Each component of an indexed graph with its slice of the index,
    relabelled to the component's own ids 0..k-1 in increasing order: the
    index that component would get on its own. No search runs and no
    subgraph is built.

    The search selects one whole component after another, so each
    component's elimination order is one block of the order, the first
    component's block last.
    """
    end = len(index.order)
    for comp, nodes in index.components:
        local = {v: i for i, v in enumerate(comp)}
        slot = {ci: j for j, ci in enumerate(nodes)}
        yield comp, CliqueIndex(
            tuple(local[v] for v in index.order[end - len(comp) : end]),
            tuple(tuple(local[v] for v in index.cliques[ci]) for ci in nodes),
            tuple(tuple(slot[ci] for ci in index.occurrences[v]) for v in comp),
            ((tuple(range(len(comp))), tuple(range(len(nodes)))),),
        )
        end -= len(comp)


def _checked_index(g: Graph, caller: str) -> CliqueIndex:
    """The clique index of a chordal graph, built at a public boundary.

    Raises PreconditionError naming the caller when g has a hole.
    """
    res = _index_or_hole(g)
    if isinstance(res, HoleCertificate):
        raise PreconditionError(f"{caller} requires a chordal graph")
    return res


def _connected_index(g: Graph, caller: str) -> CliqueIndex:
    """The clique index of a connected chordal graph; the boundary checks."""
    index = _checked_index(g, caller)
    if len(index.components) > 1:
        raise PreconditionError(f"{caller} requires a connected graph")
    return index


def maximal_cliques(g: Graph) -> list[VertexSet]:
    """Maximal cliques of a chordal graph, canonically sorted.

    A chordal graph on n vertices has at most n maximal cliques; they are read
    off an elimination order by _index_or_hole.
    """
    return list(_checked_index(g, "maximal_cliques").cliques)


def clique_tree(g: Graph) -> CliqueTree:
    """A clique tree of a connected chordal graph.

    Maximum-weight spanning tree of the clique graph under intersection sizes
    (Kruskal, ties toward lexicographically smaller index pairs), validated
    against the induced-subtree property.
    """
    return _clique_tree(_connected_index(g, "clique_tree"))


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
