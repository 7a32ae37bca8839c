"""Chordality: elimination orders, hole certificates, maximal cliques, clique trees."""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from itertools import chain, repeat
from typing import AbstractSet, Collection, Iterable, Iterator, Sequence

from .errors import InputError, InvariantError, PreconditionError
from .graphs import Graph, VertexSet, _graph, _norm_edge


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
    cliques in canonical order. parent is a clique forest, one tree per
    component: each clique's parent clique, -1 at a root, and the clique
    C shares with its parent is C's separator, seps[C], empty at a root.
    """

    order: tuple[int, ...]
    cliques: tuple[VertexSet, ...]
    occurrences: tuple[tuple[int, ...], ...]
    components: tuple[tuple[VertexSet, tuple[int, ...]], ...]
    parent: tuple[int, ...]
    seps: tuple[frozenset[int], ...]

    @cached_property
    def tour(self) -> _Tour:
        """The clique forest in depth-first preorder, built on first read."""
        return _Tour(self)


class _Tour:
    """An index's clique forest in depth-first preorder: nodes[p] is the
    clique at position p, and clique x's subtree holds the positions pos[x]
    to end[x] - 1, inside its tree's root[x]. least(a, b) is the smallest
    vertex of the cliques at positions a to b - 1, from a sparse table of
    minima built on the first query: O(c log c) once, O(1) per query.
    parts[x] counts the parts of G - x: the tree edges whose separator lies
    in x, as cutting them all leaves x alone and one region per cut (see
    decompose._decomposition). The cliques holding a separator S are a
    subtree, topped by the parent p of any clique whose separator is S: the
    latest-selected vertex of S is one of p's picks, so p's separator misses
    it. A child holds S exactly when its own separator does, so each
    distinct S walks its subtree down once from p, past a node with more
    children than S has vertices by S's rarest vertex."""

    def __init__(self, index: CliqueIndex) -> None:
        parent, occ, seps = index.parent, index.occurrences, index.seps
        c = len(parent)
        kids: list[list[int]] = [[] for _ in range(c)]
        stack: list[int] = []
        for x, p in enumerate(parent):
            (kids[p] if p >= 0 else stack).append(x)
        stack.reverse()
        nodes: list[int] = []
        while stack:
            x = stack.pop()
            nodes.append(x)
            stack.extend(reversed(kids[x]))
        pos = [0] * c
        root = list(range(c))
        for p, x in enumerate(nodes):
            pos[x] = p
            if parent[x] >= 0:
                root[x] = root[parent[x]]
        end = [p + 1 for p in pos]
        for x in reversed(nodes):
            if parent[x] >= 0:
                end[parent[x]] = max(end[parent[x]], end[x])
        self.nodes, self.pos, self.end, self.root = nodes, pos, end, root
        self._cliques = index.cliques
        self.parts = parts = [0] * c
        edge = dict(zip(seps, range(c)))  # a clique below each separator
        for s, k in Counter(filter(None, seps)).items():
            # all that hold s if s is one vertex, or its first is in two cliques
            held: Sequence[int] = occ[next(iter(s))]
            if len(s) > 1 and len(held) > 2:
                held = [parent[edge[s]]]
                for z in held:
                    below = kids[z]
                    if len(below) > len(s):  # a hub: try the cliques of s's rarest vertex
                        v = min(s, key=lambda u: len(occ[u]))
                        below = [x for x in occ[v] if parent[x] == z]
                    held.extend(x for x in below if s <= seps[x])
            for x in held:
                parts[x] += k

    @cached_property
    def _table(self) -> list[list[int]]:
        table = [[self._cliques[x][0] for x in self.nodes]]
        step = 1
        while 2 * step <= len(self.nodes):
            table.append(list(map(min, table[-1][:-step], table[-1][step:])))
            step *= 2
        return table

    def least(self, a: int, b: int) -> int:
        k = (b - a).bit_length() - 1
        row = self._table[k]
        return min(row[a], row[b - (1 << k)])


def _search(g: Graph) -> tuple[list[int], list[list[int]], list[int], dict, list, tuple | None]:
    """Maximum cardinality search; ties broken toward the smallest vertex id.

    The search makes one block at a time. A block starts at the heaviest,
    smallest unselected vertex v, from one set of unselected vertices per
    weight (Tarjan & Yannakakis), with a heap on a set once v is one of
    several in it. No vertex outweighs v, so once v is selected the
    heaviest are v's neighbours of v's weight, and after each further pick
    x those of the last heaviest that neighbour x, as only x raised
    anything: the block grows by the smallest of a candidate set cut down
    by each pick's neighbours, until it empties. Only then do the picks'
    unselected neighbours gain their weight, each moved once: Python work
    per selection and per block and neighbour, set operations in C per
    edge. A vertex selected at weight 0 is the smallest of its component.

    Returns the selection order (first selected first); each block, as its
    start's earlier neighbours then its picks; each block's parent, the
    block of its start's latest earlier neighbour p (-1 at a component's
    first block); those earlier neighbours, by block, where there are any;
    each component's first selection and block; and the elimination order's
    first violation (v, p, x), or None: v is the last vertex selected whose
    earlier neighbours are not a clique, p its latest earlier neighbour and
    x the latest of the others that misses p.
    A start is checked against p. A pick weighed what the start did, so it
    has the start's earlier neighbours if it neighbours them all, and then
    passes; only after a pick of the block fails is each one checked
    exactly.
    """
    n, adj = g.n, g.adj
    selection: list[int] = []
    blocks: list[list[int]] = []
    up: list[int] = []
    shared: dict[int, frozenset[int]] = {}
    comps: list[tuple[int, int]] = []
    home, rank, weight = [0] * n, [0] * n, [0] * n
    undone = set(filter(adj.__getitem__, range(n)))  # the unselected with neighbours
    buckets: defaultdict[int, set[int]] = defaultdict(set)  # the unselected of weight k >= 1
    heaps: dict[int, list[int]] = {}
    bad = None
    for s in range(n):
        if adj[s] and s not in undone:  # selected already
            continue
        comps.append((len(selection), len(blocks)))
        v, w = s, 0
        while True:
            nv = adj[v]
            earlier = nv - undone
            if w > 1:
                p = max(earlier, key=rank.__getitem__)
                if len(earlier - adj[p]) > 1:
                    bad = (v, p)
            elif w:
                (p,) = earlier
            up.append(home[p] if w else -1)
            b = len(blocks)
            if w:
                shared[b] = earlier
            home[v], rank[v] = b, len(selection)
            selection.append(v)
            picks = [v]
            if not w or not buckets[w].isdisjoint(nv):
                cand = buckets[w] & nv if w else set(nv)
                exact = False
                for x in sorted(cand):  # the first one still in cand is its smallest
                    if x not in cand:
                        continue
                    if not (adj[picks[-1]] >= adj[x] - undone if exact else adj[x] >= earlier):
                        bad, exact = (x, picks[-1]), True
                    home[x], rank[x] = b, len(selection)
                    selection.append(x)
                    picks.append(x)
                    cand &= adj[x]
                    if not cand:
                        break
            blocks.append([*earlier, *picks])
            if not nv:
                break
            undone.difference_update(picks)
            if len(picks) > 1:
                buckets[w].difference_update(picks)
                gains = Counter(chain.from_iterable([adj[x] & undone for x in picks]))
            else:
                gains = dict.fromkeys(nv & undone, 1)
            top = w + len(picks) - 1  # no vertex outweighs the last pick
            for u, k in gains.items():
                was = weight[u]
                if was:
                    buckets[was].remove(u)
                weight[u] = k = was + k
                buckets[k].add(u)
                if k in heaps:
                    heappush(heaps[k], u)
            while top and not buckets[top]:
                top -= 1
            if not top:
                break
            bucket, w = buckets[top], top
            if len(bucket) == 1:
                v = bucket.pop()
                continue
            heap = heaps.get(top)
            if heap is None:
                heap = heaps[top] = sorted(bucket)
            v = heappop(heap)
            while v not in bucket:
                v = heappop(heap)
            bucket.remove(v)
    if bad is not None:
        v, p = bad
        misses = (u for u in adj[v] - adj[p] if u != p and rank[u] < rank[v])
        bad = v, p, max(misses, key=rank.__getitem__)
    return selection, blocks, up, shared, comps, bad


def _canonical_cycle(cycle: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate the smallest vertex to the front, then pick the smaller direction."""
    k = cycle.index(min(cycle))
    rot = cycle[k:] + cycle[:k]
    rev = (rot[0],) + rot[1:][::-1]
    return rot if rot[1] <= rev[1] else rev


def _find_hole(g: Graph, seed: tuple[int, int, int]) -> tuple[int, ...]:
    """The hole through the elimination order's first violation (v, x, y):
    v, then a shortest x..y path avoiding N[v] \\ {x, y}."""
    v, x, y = seed
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
    raise InvariantError("elimination order failed but no hole was found")


def _index_or_hole(g: Graph) -> CliqueIndex | HoleCertificate:
    """The clique index and clique forest of a chordal graph, or a hole
    certificate, from one maximum cardinality search (_search).

    The elimination order is the search's selection order reversed, and the
    hole is extracted from its first violation. The cliques and the tree
    are the search's blocks (Blair & Peyton): a block's picks each weigh one
    more than the vertex before, so they continue its clique, and a start
    begins the clique of itself and its earlier neighbours, its separator,
    whose parent is the clique of the latest of them. Linear in n + m up to
    sorting and the search's heaps.
    """
    selection, blocks, up, shared, comps, bad = _search(_graph(g))
    if bad is not None:
        return HoleCertificate(_canonical_cycle(_find_hole(g, bad)))
    made = list(map(tuple, map(sorted, blocks)))  # a block has no repeats
    by_clique = sorted(range(len(made)), key=made.__getitem__)
    rank = sorted(range(len(made)), key=by_clique.__getitem__)  # each block's clique
    rank.append(-1)  # the parent of a component's first block, whose up is -1
    cliques = tuple(map(made.__getitem__, by_clique))
    occurrences: list[list[int]] = [[] for _ in range(g.n)]
    for i, c in enumerate(cliques):
        for v in c:
            occurrences[v].append(i)
    seps = dict(zip(map(rank.__getitem__, shared), shared.values()))  # by clique
    ends = comps[1:] + [(g.n, len(blocks))]
    return CliqueIndex(
        tuple(selection[::-1]),
        cliques,
        tuple(map(tuple, occurrences)),
        tuple(
            (tuple(sorted(selection[a:a2])), tuple(sorted(rank[b:b2])))
            for (a, b), (a2, b2) in zip(comps, ends)
        ),
        tuple(rank[up[b]] for b in by_clique),
        tuple(map(seps.get, range(len(made)), repeat(frozenset()))),
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
) -> Iterator[tuple[VertexSet, tuple[VertexSet, ...], tuple[tuple[int, ...], ...]]]:
    """Each component of an indexed graph with its cliques and occurrences,
    relabelled to the component's own ids 0..k-1 in increasing order, the
    cliques numbered in canonical order: what the component's own index
    would hold. No search runs and no subgraph is built."""
    for comp, nodes in index.components:
        local = {v: i for i, v in enumerate(comp)}
        slot = {ci: j for j, ci in enumerate(nodes)}
        yield (
            comp,
            tuple(tuple(local[v] for v in index.cliques[ci]) for ci in nodes),
            tuple(tuple(slot[ci] for ci in index.occurrences[v]) for v in comp),
        )


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
    """A clique tree of a connected chordal graph: the one its maximum
    cardinality search yields (see _index_or_hole), validated against the
    induced-subtree property."""
    index = _connected_index(g, "clique_tree")
    tree = CliqueTree(
        index.cliques,
        frozenset(_norm_edge(i, p) for i, p in enumerate(index.parent) if p >= 0),
    )
    if _separator_sizes(index.cliques, index.occurrences, tree.edges, path=False) is None:
        raise InvariantError("the search's clique tree lacks the induced-subtree property")
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


def _preorder(c: int, edges: Iterable[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """The nodes of a tree on nodes 0..c-1 in the preorder of one
    depth-first search from node 0, and each node's parent (-1 at the
    root)."""
    adj = _tree_adj(c, edges)
    order, parent = [], [-1] * c
    stack = [0] if c else []
    while stack:
        x = stack.pop()
        order.append(x)
        for w in adj[x]:
            if w != parent[x]:
                parent[w] = x
                stack.append(w)
    return order, parent


def _is_tree(c: int, edges: frozenset[tuple[int, int]]) -> bool:
    """Whether edges form a tree on nodes 0..c-1; never for a negative c.

    Raises InputError on edges that are not a collection of pairs of ints,
    or on an endpoint outside 0..c-1.
    """
    if not isinstance(edges, Collection) or not all(
        isinstance(e, tuple) and len(e) == 2 and type(e[0]) is int and type(e[1]) is int
        for e in edges
    ):
        raise InputError("tree edge is not a pair of ints")
    if any(not 0 <= x < c for e in edges for x in e):
        raise InputError(f"tree edge endpoint out of range for {c} cliques")
    if len(edges) != max(c - 1, 0):
        return False
    adj = _tree_adj(c, edges)
    stack = [0] if c > 0 else []
    reached = set(stack)
    while stack:
        for w in adj[stack.pop()]:
            if w not in reached:
                reached.add(w)
                stack.append(w)
    return len(reached) == c


def _separator_links(
    cliques: Sequence[VertexSet], edges: Iterable[tuple[int, int]]
) -> tuple[Counter[int], set[int], dict[tuple[int, int], int]]:
    """One pass over the separators S = C_i & C_j of the tree edges (i, j).

    Returns each vertex's links (the separators that hold it), the vertices
    that some node has in three of its incident separators, and each edge's
    separator size. In a tree, a vertex's links are the edges of the forest
    its cliques induce, so they number one less than its cliques exactly when
    that forest is a subtree, and the subtree is a path exactly when no node
    has the vertex in three incident separators. Only a node of three or
    more tree edges keeps its clique's set, and counts how many of its
    separators hold each vertex; another node's set is made again for each
    of its one or two edges. Work: the cliques' sizes plus the separators'
    sizes.
    """
    degree = Counter(chain.from_iterable(edges))
    hubs = {x: set(cliques[x]) for x, d in degree.items() if d > 2}
    held: dict[int, Counter[int]] = {x: Counter() for x in hubs}
    links: Counter[int] = Counter()
    sizes: dict[tuple[int, int], int] = {}
    for e in edges:
        i, j = e
        s = (hubs.get(i) or set(cliques[i])).intersection(hubs.get(j) or cliques[j])
        links.update(s)
        sizes[e] = len(s)
        if i in held:
            held[i].update(s)
        if j in held:
            held[j].update(s)
    branching = {v for seen in held.values() for v, k in seen.items() if k > 2}
    return links, branching, sizes


def _separator_sizes(
    cliques: Sequence[VertexSet],
    occurrences: Sequence[Sequence[int]],
    edges: frozenset[tuple[int, int]],
    path: bool,
) -> dict[tuple[int, int], int] | None:
    """Each tree edge's separator size when edges form a tree on the cliques
    in which every vertex's cliques (its occurrences) induce a subtree, and a
    path when path is set; else None.

    Raises InputError on an edge that is not a pair of ints in range.
    """
    if not _is_tree(len(cliques), edges):
        return None
    links, branching, sizes = _separator_links(cliques, edges)
    if path and branching:
        return None
    if any(links[v] != len(occ) - 1 for v, occ in enumerate(occurrences)):
        return None
    return sizes


def _meet_exactly(
    g: Graph,
    node_loads: Iterable[int],
    edge_loads: Iterable[int],
    nodes_of: Sequence[AbstractSet[int]],
) -> bool:
    """Whether subtrees of a tree, one per vertex of g with node set
    nodes_of[v], meet pairwise exactly on g's edges, given how many of them
    pass through each tree node and each tree edge.

    Two subtrees of a tree meet in a subtree or not at all, so a meeting pair
    shares one node more than it shares edges: the meeting pairs number the
    sum over nodes of C(k, 2) minus the sum over edges of C(k, 2), k the
    loads. That count must be m, with every edge's two subtrees meeting.
    """
    meets = sum(k * (k - 1) // 2 for k in node_loads) - sum(
        k * (k - 1) // 2 for k in edge_loads
    )
    return meets == g.num_edges and not any(
        any(map(nodes_of[u].isdisjoint, map(nodes_of.__getitem__, g.adj[u])))
        for u in range(g.n)
    )


def _tree_occurrences(n: int, cliques: Sequence[VertexSet]) -> list[list[int]] | None:
    """Each vertex's cliques, increasing, read off a clique list in canonical
    form over vertices 0..n-1: a sequence of nonempty, strictly increasing
    int tuples, in strictly increasing order, that hold every vertex. None
    otherwise."""
    if not isinstance(cliques, Sequence):
        return None
    occurrences: list[list[int]] = [[] for _ in range(n)]
    prev: tuple[int, ...] = ()
    for i, c in enumerate(cliques):
        if type(c) is not tuple or not c or (i and c <= prev):
            return None
        last = -1
        for v in c:
            if type(v) is not int or not last < v < n:
                return None
            occurrences[v].append(i)
            last = v
        prev = c
    return occurrences if all(occurrences) else None


def _proven_occurrences(g: Graph, tree: CliqueTree, path: bool) -> list[list[int]] | None:
    """The occurrences of a tree that proves, with no search, that it is a
    clique tree of g over g's canonical maximal cliques (a clique path tree
    when path is set); else None.

    The proof: the cliques are canonical int tuples that hold every vertex
    (_tree_occurrences); every vertex's cliques form a subtree, a path when
    path is set (_separator_sizes); no clique lies inside a tree neighbour;
    and the subtrees meet pairwise exactly on g's edges (_meet_exactly), so
    the tree cliques are cliques of g that hold every edge. By the Helly
    property each maximal clique of g then lies in, and so is, some tree
    clique; and a tree clique inside another lies inside its neighbour
    toward it, which is checked not to happen. So the canonically listed
    tree cliques are g's canonical maximal cliques, and g is chordal.
    Conversely every clique (path) tree of g over them passes, so a None
    already rejects the tree; _decided only finds the error to raise.
    """
    cliques = tree.cliques
    occurrences = _tree_occurrences(_graph(g).n, cliques)
    if occurrences is None:
        return None
    try:
        sizes = _separator_sizes(cliques, occurrences, tree.edges, path)
    except InputError:
        return None
    if sizes is None or any(
        k in (len(cliques[i]), len(cliques[j])) for (i, j), k in sizes.items()
    ):
        return None
    nodes_of = [set(occ) for occ in occurrences]
    return occurrences if _meet_exactly(g, map(len, cliques), sizes.values(), nodes_of) else None


def _decided(
    g: Graph, tree: CliqueTree, caller: str, path: bool, canonical: bool
) -> list[list[int]] | None:
    """The occurrences of a tree that passes its own proof, with no search
    (_proven_occurrences); else None, after the one search of g for the
    error the caller owes: a PreconditionError for a hole; an InputError,
    when canonical is set, for cliques that are not g's canonical int
    tuples; else an InputError for a malformed edge over g's cliques."""
    occurrences = _proven_occurrences(g, tree, path)
    if occurrences is None:
        index, cliques = _checked_index(g, caller), tree.cliques
        if _tree_occurrences(g.n, cliques) is not None and tuple(cliques) == index.cliques:
            _is_tree(len(cliques), tree.edges)
        elif canonical:
            raise InputError("tree is not over the canonical maximal clique list")
    return occurrences


def is_valid_clique_tree(g: Graph, tree: CliqueTree) -> bool:
    """Tree on the maximal cliques satisfying the induced-subtree property,
    decided by its own proof (see _decided); a tree over other cliques is
    False."""
    return _decided(g, tree, "is_valid_clique_tree", path=False, canonical=False) is not None


def is_clique_path_tree(g: Graph, tree: CliqueTree) -> bool:
    """True when every vertex's cliques induce a path in the tree, which must
    be over exactly maximal_cliques(g) in canonical order; decided by the
    tree's own proof (see _decided)."""
    return _decided(g, tree, "is_clique_path_tree", path=True, canonical=True) is not None
