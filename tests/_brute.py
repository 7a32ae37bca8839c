"""Small reference implementations the tests cross-check against.

These are deliberately naive and independent of the library internals.
"""

from __future__ import annotations

import heapq
import itertools
import json
from collections import Counter
from heapq import heapify, heappop, heappush
from typing import Iterable, Iterator

from pathgraph.attach import AttachednessGraph, _nests
from pathgraph.chordal import (
    CliqueIndex,
    HoleCertificate,
    _canonical_cycle,
    _find_hole,
    _tree_adj,
)
from pathgraph.coloring import _full_triple
from pathgraph.decompose import Decomposition, GammaComponent, _decomposition, _separators
from pathgraph.errors import GuardRefusal, InputError, InvariantError
from pathgraph.generate import SplitMix64, _random_tree
from pathgraph.graphs import (
    MAX_VERTICES,
    EdgeColoredGraph,
    Graph,
    VertexSet,
    _graph,
    _int_vset,
    _norm_edge,
    is_connected,
    vset,
)
from pathgraph.obstructions import ObstructionPattern
from pathgraph.realize import HostRealization
from pathgraph.recognize import SeparatorReport, _report


def chordal_by_elimination(g) -> bool:
    """Repeatedly strip simplicial vertices; chordal iff everything strips."""
    adj = {v: set(g.adj[v]) for v in range(g.n)}
    alive = set(range(g.n))
    changed = True
    while alive and changed:
        changed = False
        for v in sorted(alive):
            nb = adj[v] & alive
            if all(u in adj[w] for u, w in itertools.combinations(sorted(nb), 2)):
                alive.discard(v)
                changed = True
                break
    return not alive


def maximal_cliques_by_enumeration(g):
    """All maximal cliques by subset enumeration; usable up to n around 8."""
    found = []
    for r in range(1, g.n + 1):
        for sub in itertools.combinations(range(g.n), r):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(sub, 2)):
                found.append(set(sub))
    return sorted(
        tuple(sorted(c)) for c in found if not any(c < d for d in found)
    )


def mcs_order_by_scan(g):
    """Maximum cardinality search by a full scan per step: O(n^2), smallest-id
    tie-break. Returns the selection order (first selected first)."""
    weight = [0] * g.n
    selected = [False] * g.n
    order = []
    for _ in range(g.n):
        best = -1
        for v in range(g.n):
            if not selected[v] and (best == -1 or weight[v] > weight[best]):
                best = v
        selected[best] = True
        order.append(best)
        for u in g.adj[best]:
            if not selected[u]:
                weight[u] += 1
    return order


def first_peo_violation(g, order):
    """First (v, p, x) along the order where v's earliest later neighbor p misses
    a later neighbor x (the earliest such x), or None for a perfect order."""
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = sorted((u for u in g.adj[v] if pos[u] > pos[v]), key=lambda u: pos[u])
        for x in later[1:]:
            if not g.has_edge(later[0], x):
                return (v, later[0], x)
    return None


def maximal_cliques_by_containment(g, order):
    """Each vertex with its later neighbors along a perfect elimination order,
    keeping the candidates no other candidate contains; canonically sorted."""
    pos = {v: i for i, v in enumerate(order)}
    cands = {
        tuple(sorted([v] + [u for u in g.adj[v] if pos[u] > pos[v]])) for v in order
    }
    return sorted(
        c for c in cands if not any(c != d and set(c) <= set(d) for d in cands)
    )


def pruefer_decode_reference(seq, c):
    """Textbook decoding: repeatedly join the smallest remaining leaf. The
    edges come in the order they are made, each as (low, high)."""
    degree = [1] * c
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(v for v in range(c) if degree[v] == 1)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = [w for w in range(c) if degree[w] == 1]
    edges.append((u, v))
    return edges


def pruefer_decode_by_heap(seq, c):
    """The smallest-leaf decoding with the leaves kept in a heap."""
    degree = [1] * c
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(c) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x) if leaf < x else (x, leaf))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v) if u < v else (v, u))
    return edges


def tree_path_by_search(adj, a, b):
    """The tree path from a to b, by a breadth-first search of the whole
    tree from a."""
    parent = {a: -1}
    queue = [a]
    while queue:
        nxt = []
        for u in queue:
            for w in adj[u]:
                if w not in parent:
                    parent[w] = u
                    nxt.append(w)
        queue = nxt
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def intersection_graph_by_pairs(n, node_sets):
    """The intersection graph of n node sets, every pair tested."""
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if node_sets[u] & node_sets[v]
    ]
    return Graph.from_edges(n, edges)


def path_graph_samples(n_tree_nodes, n_paths, seed):
    """gen_path_graph's samples, one per try, on its random draws: each
    path found by a search of the tree, the graph by pairs."""
    rng = SplitMix64(seed)
    while True:
        edges = _random_tree(rng, n_tree_nodes)
        adj = _tree_adj(n_tree_nodes, edges)
        paths = []
        for _ in range(n_paths):
            a = rng.randrange(n_tree_nodes)
            b = rng.randrange(n_tree_nodes)
            paths.append(tree_path_by_search(adj, a, b))
        g = intersection_graph_by_pairs(n_paths, [set(p) for p in paths])
        host = HostRealization(
            host_n=n_tree_nodes,
            host_edges=frozenset(_norm_edge(a, b) for a, b in edges),
            paths=tuple(tuple(p) for p in paths),
        )
        yield g, host


def chordal_samples(n, seed):
    """gen_chordal's samples, one per try, on its random draws, the graph
    by pairs."""
    rng = SplitMix64(seed)
    while True:
        adj = _tree_adj(n, _random_tree(rng, n))
        subtrees = []
        for _ in range(n):
            size = 1 + rng.randrange(n)
            start = rng.randrange(n)
            nodes = {start}
            frontier = list(adj[start])
            while len(nodes) < size and frontier:
                pick = frontier.pop(rng.randrange(len(frontier)))
                if pick in nodes:
                    continue
                nodes.add(pick)
                frontier += [w for w in adj[pick] if w not in nodes]
            subtrees.append(nodes)
        yield intersection_graph_by_pairs(n, subtrees)


def gen_path_graph_by_search(n_tree_nodes, n_paths, seed):
    """gen_path_graph's graph and host: its first connected sample."""
    tries = itertools.islice(path_graph_samples(n_tree_nodes, n_paths, seed), 64)
    return next(sample for sample in tries if is_connected(sample[0]))


def gen_chordal_by_pairs(n, seed):
    """gen_chordal's graph: its first connected sample."""
    return next(g for g in itertools.islice(chordal_samples(n, seed), 64) if is_connected(g))


def all_paths_by_walk(edges, masks):
    """Does every mask induce a path (connected, max degree 2) in the tree?
    Walks every edge for every mask."""
    for mask in masks:
        k = mask.bit_count()
        if k <= 1:
            continue
        cnt = 0
        deg = {}
        for a, b in edges:
            if (mask >> a) & 1 and (mask >> b) & 1:
                cnt += 1
                deg[a] = deg.get(a, 0) + 1
                deg[b] = deg.get(b, 0) + 1
                if deg[a] > 2 or deg[b] > 2:
                    return False
        if cnt != k - 1:
            return False
    return True


def first_path_tree_by_sweep(c, masks):
    """First labeled tree on c nodes, in Pruefer lexicographic order, where
    every mask induces a path, or None: each sequence decoded by the heap and
    every mask walked over its edges."""
    if c <= 1:
        return []
    if c == 2:
        return [(0, 1)]
    for seq in itertools.product(range(c), repeat=c - 2):
        edges = pruefer_decode_by_heap(seq, c)
        if all_paths_by_walk(edges, masks):
            return edges
    return None


def strong_colorable_by_enumeration(dec) -> bool:
    """Try every parts coloring directly against the two defining conditions."""
    k = len(dec.gammas)
    pairs = [
        (i, j)
        for i in range(k)
        for j in range(i + 1, k)
        if antipodal(dec.gammas[i], dec.gammas[j])
    ]
    groups = [dec.neighbor_map[v] for v in dec.q]
    for f in itertools.product(range(k), repeat=k):
        if any(f[i] == f[j] for i, j in pairs):
            continue
        if any(len({f[g] for g in grp}) > 2 for grp in groups):
            continue
        return True
    return False


def realization_by_pairs(g, host) -> bool:
    """A host realization checked pair by pair: the host is a tree on
    0..host_n-1, every path is a nonempty path of it, and two paths share a
    node exactly when their vertices are adjacent. O(n^2) path intersections."""
    nodes = range(host.host_n)
    if len(host.paths) != g.n:
        return False
    if any(x not in nodes for e in host.host_edges for x in e):
        return False
    adj = {x: set() for x in nodes}
    for a, b in host.host_edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {0} if host.host_n else set()
    stack = list(seen)
    while stack:
        for y in adj[stack.pop()] - seen:
            seen.add(y)
            stack.append(y)
    if len(host.host_edges) != max(host.host_n - 1, 0) or len(seen) != host.host_n:
        return False
    for p in host.paths:
        if not p or len(set(p)) != len(p) or any(x not in nodes for x in p):
            return False
        if any(b not in adj[a] for a, b in zip(p, p[1:])):
            return False
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if bool(set(host.paths[u]) & set(host.paths[v])) != g.has_edge(u, v):
                return False
    return True


def mcs_by_heap(g):
    """Maximum cardinality search on one heap keyed (-weight, id), packed into
    the int id - weight * n, with stale entries skipped on pop: one push and
    one stale pop per edge. Returns what mcs_by_buckets returns: the
    selection order, each vertex's neighbors selected before it, in
    selection order, and each vertex's component number."""
    n = g.n
    before = [[] for _ in range(n)]
    comp = [-1] * n
    heap = list(range(n))  # every key id - 0 * n, sorted, hence a heap
    selection = []
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
        for u in g.adj[v]:
            if comp[u] < 0:
                bu = before[u]
                bu.append(v)
                heappush(heap, u - len(bu) * n)
    return selection, before, comp


def mcs_by_buckets(g: Graph) -> tuple[list[int], list[list[int]], list[int]]:
    """Maximum cardinality search that moves a weight once per edge; ties
    broken toward the smallest vertex id.

    The unselected vertices sit in one set per weight (Tarjan & Yannakakis).
    A bucket is heapified the first time a vertex is selected from it; after
    that each arrival into it is pushed, and a popped vertex that has since
    moved up a bucket is skipped. Weights never fall, so a vertex leaves a
    bucket for good, and the highest nonempty bucket rises by at most one per
    selection. O(n + m) bucket moves, with heap work only on the buckets
    selected from. Returns the selection order (first selected first); for
    each vertex, its neighbors selected before it, in selection order, which
    are its later neighbors in the reversed (elimination) order, so its weight
    is their number; and each vertex's component number. A vertex selected at
    weight 0 starts the next component, and by the tie-break it is that
    component's smallest vertex.
    """
    n = g.n
    adj = g.adj
    before: list[list[int]] = [[] for _ in range(n)]
    comp = [-1] * n
    buckets: list[set[int]] = [set(range(n))]
    heaps: list[list[int] | None] = [None]
    selection: list[int] = []
    comps = 0
    w = 0  # the highest nonempty bucket
    for _ in range(n):
        while not buckets[w]:
            w -= 1
        bucket = buckets[w]
        heap = heaps[w]
        if heap is None:
            heap = heaps[w] = list(bucket)
            heapify(heap)
        v = heappop(heap)
        while v not in bucket:
            v = heappop(heap)
        bucket.remove(v)
        if not w:
            comps += 1
        comp[v] = comps - 1
        selection.append(v)
        for u in adj[v]:
            if comp[u] < 0:
                bu = before[u]
                buckets[len(bu)].remove(u)
                bu.append(v)
                k = len(bu)
                if k == len(buckets):
                    buckets.append(set())
                    heaps.append(None)
                buckets[k].add(u)
                if heaps[k] is not None:
                    heappush(heaps[k], u)
        if w + 1 < len(buckets) and buckets[w + 1]:
            w += 1
    return selection, before, comp


def check_peo(
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


def index_by_edge_moves(g: Graph) -> CliqueIndex | HoleCertificate:
    """The edge-by-edge reference for chordal._index_or_hole: the same clique
    index, or the same hole certificate, from the bucket search above, which
    moves a vertex's weight once per edge.

    The elimination order is the search's selection order reversed, so the
    neighbors selected before v are v's later neighbors. The hole is extracted
    from the first violation. The cliques and the tree come off the selection
    order (Blair & Peyton): v continues the clique of the vertex selected just
    before it when its weight rose by exactly one; otherwise v starts the new
    clique {v} plus its later neighbors, whose parent is the clique holding
    v's most recently selected later neighbor when that one was selected,
    and shares with it what their vertex sets have in common.
    Linear in n + m up to sorting and the search's heaps.
    """
    selection, later, comp = mcs_by_buckets(_graph(g))
    order = selection[::-1]
    bad = check_peo(g, order, later)
    if bad is not None:
        return HoleCertificate(_canonical_cycle(_find_hole(g, bad)))
    blocks: list[list[int]] = []  # cliques in the order the search makes them
    up: list[int] = []  # each block's parent block; -1 at a component's root
    home = [0] * g.n  # the block each vertex joins
    weight = -1
    for v in selection:
        lv = later[v]
        if lv and len(lv) == weight + 1:
            blocks[-1].append(v)
        else:
            up.append(home[lv[-1]] if lv else -1)
            blocks.append([*lv, v])
        home[v] = len(blocks) - 1
        weight = len(lv)
    made = [vset(b) for b in blocks]
    by_clique = sorted(range(len(made)), key=made.__getitem__)
    rank = [0] * len(made)
    for i, b in enumerate(by_clique):
        rank[b] = i
    cliques = [made[b] for b in by_clique]
    members: list[list[int]] = [[] for _ in range(max(comp, default=-1) + 1)]
    for v in range(g.n):
        members[comp[v]].append(v)
    occurrences: list[list[int]] = [[] for _ in range(g.n)]
    nodes: list[list[int]] = [[] for _ in members]
    for i, c in enumerate(cliques):
        nodes[comp[c[0]]].append(i)
        for v in c:
            occurrences[v].append(i)
    parent = [rank[up[b]] if up[b] >= 0 else -1 for b in by_clique]
    return CliqueIndex(
        tuple(order),
        tuple(cliques),
        tuple(tuple(occ) for occ in occurrences),
        tuple((tuple(vs), tuple(ns)) for vs, ns in zip(members, nodes)),
        tuple(parent),
        tuple(frozenset(c).intersection(cliques[p]) if p >= 0 else frozenset()
              for c, p in zip(cliques, parent)),
    )


def parts_by_intersection(index: CliqueIndex) -> list[int]:
    """The intersection reference for the tour's part counts: each clique
    counts the tree edges whose separator it holds, a clique's separator
    being its vertices that lie in its parent clique, and each distinct
    separator finds the cliques holding it by one intersection of its
    vertices' occurrences."""
    seps = [
        [v for v in clique if p >= 0 and v in index.cliques[p]]
        for clique, p in zip(index.cliques, index.parent)
    ]
    occ, parts = index.occurrences, [0] * len(index.cliques)
    for sep, k in Counter(map(tuple, filter(None, seps))).items():
        # a first vertex in two cliques has them as the ends of sep's one edge
        rest = () if len(occ[sep[0]]) == 2 else map(occ.__getitem__, sep[1:])
        for x in set(occ[sep[0]]).intersection(*rest):
            parts[x] += k
    return parts


def decompositions(index: CliqueIndex) -> Iterator[Decomposition]:
    """The decomposition at every separator of a chordal graph, in scan order."""
    return (_decomposition(index, qi) for qi in _separators(index))


def reports_by_eager_scan(index: CliqueIndex) -> Iterator[SeparatorReport]:
    """Per-separator reports of a chordal graph, up to and including the first
    refuted separator."""
    for dec in decompositions(index):
        report = _report(dec)
        yield report
        if report.refutation is not None:
            return


TWO_PART_SHAPES = ("one class", "nested", "nested the other way", "disjoint", "antipodal")


def two_part_shape(report: SeparatorReport) -> str:
    """Which of TWO_PART_SHAPES a two-part separator's report has: its
    parts in one class; else class 0 under class 1 (nested), class 1 under
    class 0, or neither, the two antipodal or not."""
    m = report.attachedness
    if m.size == 1:
        return TWO_PART_SHAPES[0]
    nested = {(2, 0): TWO_PART_SHAPES[1], (0, 1): TWO_PART_SHAPES[2]}
    return nested.get(m.up) or TWO_PART_SHAPES[4 if m.antipodal else 3]


def decompositions_by_traversal(g, index):
    """The separators of a chordal graph with its clique index, component by
    component and in canonical order within each, each with its parts found
    by one breadth-first search of Q's component minus Q. Yields (q, parts,
    neighbor_map), a part being (component, relevant_cliques, traces) in
    order of smallest vertex; the relevant cliques of a part are the indexed
    cliques that meet Q and hold one of its vertices."""
    for comp, nodes in index.components:
        for i in nodes:
            q = index.cliques[i]
            qs = set(q)
            unseen = set(comp) - qs
            parts = []
            while unseen:
                part = [min(unseen)]
                unseen.discard(part[0])
                for u in part:
                    new = g.adj[u] & unseen
                    unseen -= new
                    part.extend(new)
                parts.append(tuple(sorted(part)))
            if len(parts) < 2:
                continue
            part_of = {v: k for k, part in enumerate(parts) for v in part}
            rel = [[] for _ in parts]
            for ci in sorted({ci for v in q for ci in index.occurrences[v]}):
                k = index.cliques[ci]
                if k != q:
                    rel[part_of[next(v for v in k if v not in qs)]].append(k)
            out = []
            nmap = {v: [] for v in q}
            for k, part in enumerate(parts):
                traces = tuple(sorted({tuple(sorted(qs.intersection(c))) for c in rel[k]}))
                out.append((part, tuple(rel[k]), traces))
                for v in {v for t in traces for v in t}:
                    nmap[v].append(k)
            yield q, out, {v: tuple(ks) for v, ks in nmap.items()}


def nests_by_trace(a, b):
    """Every trace of b either contains all traces of a or is disjoint from
    all of them, tested trace by trace."""
    for s in b.traces:
        ss = set(s)
        contains = all(set(t) <= ss for t in a.traces)
        disjoint = all(not (set(t) & ss) for t in a.traces)
        if not (contains or disjoint):
            return False
    return True


def quotient_by_pairs(dec):
    """The attachedness graph from k x k relation tables over all parts:
    classes of mutual dominance by smallest member, relations read off the
    representatives and checked for every pair of members, strict dominance
    checked antisymmetric and transitive over every pair of order pairs, and
    neighboring checked to be a class property."""
    gammas = dec.gammas
    k = len(gammas)
    att = [[i != j and attached(a, b) for j, b in enumerate(gammas)]
           for i, a in enumerate(gammas)]
    # dom[i][j]: gamma_i <= gamma_j
    dom = [[att[i][j] and nests_by_trace(a, b) for j, b in enumerate(gammas)]
           for i, a in enumerate(gammas)]

    # transitive: when i <= j, every part above j is above i or is i; one
    # bitmask row per part makes that O(k^2) row tests
    up = [sum(1 << j for j in range(k) if dom[i][j]) for i in range(k)]
    for i in range(k):
        for j in range(k):
            if dom[i][j] and up[j] & ~(up[i] | 1 << i):
                raise InvariantError("dominance is not transitive")

    # classes of mutual dominance, ordered by smallest member
    assigned = [-1] * k
    members = []
    for i in range(k):
        if assigned[i] >= 0:
            continue
        cls = [i] + [j for j in range(i + 1, k) if dom[i][j] and dom[j][i]]
        cid = len(members)
        for j in cls:
            assigned[j] = cid
        members.append(cls)

    reps = [cls[0] for cls in members]
    s = len(reps)

    # relations between classes, via representatives, checked member-invariant
    a_edges = set()
    order = set()
    for ci in range(s):
        for cj in range(ci + 1, s):
            ri, rj = reps[ci], reps[cj]
            rel = (att[ri][rj], dom[ri][rj], dom[rj][ri])
            for a in members[ci]:
                for b in members[cj]:
                    if (att[a][b], dom[a][b], dom[b][a]) != rel:
                        raise InvariantError(
                            f"relation between classes {ci},{cj} depends on members"
                        )
            if dom[ri][rj] or dom[rj][ri]:
                order.add((ci, cj) if dom[ri][rj] else (cj, ci))
            elif att[ri][rj]:
                a_edges.add((ci, cj))

    for a, b in order:
        if (b, a) in order:
            raise InvariantError("strict dominance must be antisymmetric after quotient")
        for c, d in order:
            if c == b and (a, d) not in order and a != d:
                raise InvariantError("strict dominance must be transitive after quotient")

    nmap = {}
    for v in dec.q:
        by_class = sorted({assigned[i] for i in dec.neighbor_map[v]})
        for cid in by_class:
            # neighboring is a class property: every member must agree
            for member in members[cid]:
                if member not in dec.neighbor_map[v]:
                    raise InvariantError(
                        f"vertex {v} neighbors only part of class {cid}"
                    )
        nmap[v] = tuple(by_class)

    up = [0] * s
    for a, b in order:
        up[a] |= 1 << b
    return AttachednessGraph(
        q=dec.q,
        gammas=tuple(gammas[r] for r in reps),
        class_members=tuple(tuple(cls) for cls in members),
        antipodal=frozenset(a_edges),
        up=tuple(up),
        masks=tuple(
            sum(1 << i for i, v in enumerate(dec.q) if c in nmap[v]) for c in range(s)
        ),
    )


def emit_verdict_reference(doc) -> str:
    """The verdict document text as the json module writes it."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_edgelist_reference(text: str) -> Graph:
    """Lines "u v" with 0-based ids, optional "p <n>" header, "#" comments."""
    n: int | None = None
    edges: list[tuple[int, int]] = []
    max_seen = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None or edges:
                raise InputError(f"line {lineno}: header after data")
            if len(parts) != 2:
                raise InputError(f"line {lineno}: header must be 'p <n>'")
            try:
                n = int(parts[1])
            except ValueError:
                raise InputError(f"line {lineno}: bad vertex count {parts[1]!r}")
            if n < 0:
                raise InputError(f"line {lineno}: negative vertex count")
            if n > MAX_VERTICES:
                raise InputError(
                    f"line {lineno}: vertex count {n} is too large: at most {MAX_VERTICES} vertices"
                )
            continue
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"line {lineno}: non-integer vertex id in {line!r}")
        if u < 0 or v < 0:
            raise InputError(f"line {lineno}: negative vertex id")
        if u == v:
            raise InputError(f"line {lineno}: self-loop on {u}")
        if n is not None and (u >= n or v >= n):
            raise InputError(f"line {lineno}: vertex id beyond declared count {n}")
        if max(u, v) >= MAX_VERTICES:
            raise InputError(
                f"line {lineno}: vertex id {max(u, v)} is past the limit of {MAX_VERTICES} vertices"
            )
        edges.append((u, v) if u < v else (v, u))
        max_seen = max(max_seen, u, v)
    if n is None:
        if max_seen < 0:
            raise InputError("empty graph input (no header, no edges)")
        n = max_seen + 1
    return Graph.from_edges(n, sorted(set(edges)))


def parse_graph6_reference(text: str) -> Graph:
    """One graph6 string decoded one bit and one vertex pair at a time."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):].strip()
    if not s:
        raise InputError("empty graph6 input")
    lines = [line for line in map(str.strip, s.splitlines()) if line]
    if len(lines) > 1:
        raise InputError("graph6: more than one graph")
    s = lines[0]
    vals = []
    for ch in s:
        v = ord(ch) - 63
        if not 0 <= v < 64:
            raise InputError(f"graph6: invalid character {ch!r}")
        vals.append(v)
    pos = 0
    if vals[0] < 63:
        n = vals[0]
        pos = 1
    elif len(vals) >= 4 and vals[1] < 63:
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        pos = 4
    elif len(vals) >= 8:
        n = 0
        for v in vals[2:8]:
            n = (n << 6) | v
        pos = 8
    else:
        raise InputError("graph6: truncated size field")
    if pos > 1 and n <= (62 if pos == 4 else 258047):  # the shorter form holds n
        raise InputError(f"graph6: size {n} does not need the long form")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(vals) - pos < need:
        raise InputError("graph6: truncated edge bits")
    if len(vals) - pos > need:
        raise InputError("graph6: characters after the edge bits")
    if need and vals[-1] & ((1 << (6 * need - n * (n - 1) // 2)) - 1):
        raise InputError("graph6: nonzero padding bits")
    bits = []
    for v in vals[pos:pos + need]:
        for k in range(5, -1, -1):
            bits.append((v >> k) & 1)
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph.from_edges(n, edges)


def separator_links_by_incidence(cliques, edges):
    """Each vertex's links (the tree separators that hold it), the vertices
    some node has in three incident separators, and each edge's separator
    size, keeping a set per clique and every node's incident separators."""
    sets = [set(c) for c in cliques]
    links = Counter()
    incident = [[] for _ in cliques]
    sizes = {}
    for e in edges:
        i, j = e
        s = sets[i] & sets[j]
        links.update(s)
        incident[i].append(s)
        incident[j].append(s)
        sizes[e] = len(s)
    branching = set()
    for seps in incident:
        if len(seps) > 2:
            seen = Counter(itertools.chain.from_iterable(seps))
            branching.update(v for v, k in seen.items() if k > 2)
    return links, branching, sizes


def clique_degrees_reference(index, edges):
    """Per vertex, the degree of each of its cliques within the part of the tree
    its cliques induce: each (vertex, clique) pair walks the clique's tree
    neighbours. In a tree, that part is connected exactly when the degrees
    sum to 2 * (count - 1), and a path when none also exceeds 2."""
    from pathgraph.chordal import _tree_adj

    adj = _tree_adj(len(index.cliques), edges)
    degrees = []
    for nodes in index.occurrences:
        inside = set(nodes)
        degrees.append([sum(1 for w in adj[u] if w in inside) for u in nodes])
    return degrees


def tree_by_degrees(index, edges, path):
    """Whether edges form a clique tree of the indexed graph (a clique path
    tree when path is set), by the per-vertex degrees."""
    from pathgraph.chordal import _is_tree

    return _is_tree(len(index.cliques), edges) and all(
        (not path or max(d) <= 2) and sum(d) == 2 * len(d) - 2
        for d in clique_degrees_reference(index, edges)
    )


def _over_canonical(tree, index):
    """Whether the tree's cliques are the index's, every id an int (a bool
    equal to 0 or 1 is not)."""
    return tuple(tree.cliques) == index.cliques and all(
        type(v) is int for c in tree.cliques for v in c
    )


def _index_over(g, tree, caller):
    from pathgraph.chordal import _checked_index

    index = _checked_index(g, caller)
    if not _over_canonical(tree, index):
        raise InputError("tree is not over the canonical maximal clique list")
    return index


def is_valid_clique_tree_by_search(g, tree):
    """is_valid_clique_tree by a search of g and the per-vertex degrees."""
    from pathgraph.chordal import _checked_index

    index = _checked_index(g, "is_valid_clique_tree")
    return _over_canonical(tree, index) and tree_by_degrees(index, tree.edges, False)


def is_clique_path_tree_by_search(g, tree):
    """is_clique_path_tree by a search of g and the per-vertex degrees."""
    return tree_by_degrees(_index_over(g, tree, "is_clique_path_tree"), tree.edges, True)


def host_by_search(g, t):
    """clique_path_tree_to_host by a search of g, the per-vertex degrees, and
    a walk along each vertex's cliques from its smaller end."""
    from pathgraph.chordal import _tree_adj
    from pathgraph.errors import PreconditionError
    from pathgraph.realize import HostRealization, verify_realization

    index = _index_over(g, t, "clique_path_tree_to_host")
    if not tree_by_degrees(index, t.edges, True):
        raise PreconditionError("clique_path_tree_to_host requires a clique path tree")
    c = len(t.cliques)
    adj = _tree_adj(c, t.edges)
    paths = []
    for nodes in index.occurrences:
        inside = set(nodes)
        seq = [min(u for u in nodes if sum(1 for w in adj[u] if w in inside) <= 1)]
        prev = -1
        while len(seq) < len(nodes):
            nxt = [w for w in adj[seq[-1]] if w in inside and w != prev]
            prev = seq[-1]
            seq.append(nxt[0])
        paths.append(tuple(seq))
    host = HostRealization(max(c, 1), frozenset(t.edges), tuple(paths))
    if not verify_realization(g, host):
        raise InvariantError("host realization does not reproduce the graph")
    return host


def host_paths_by_steps(occurrences, t):
    """realize._host_paths by stepping along each vertex's path from its
    smaller end, one set intersection per node."""
    c = len(t.cliques)
    adj = _tree_adj(c, t.edges)
    paths = []
    for nodes in occurrences:
        if len(nodes) == 1:
            paths.append(tuple(nodes))
            continue
        inside = set(nodes)
        # start from the smaller end, the first node with one neighbor on the
        # path, and step to the one neighbor not yet walked
        at = next(u for u in nodes if len(inside.intersection(adj[u])) == 1)
        seq = [at]
        inside.discard(at)
        while inside:
            (at,) = inside.intersection(adj[at])
            inside.discard(at)
            seq.append(at)
        paths.append(tuple(seq))
    return HostRealization(host_n=max(c, 1), host_edges=frozenset(t.edges), paths=tuple(paths))


def skeleton_by_pairs(m):
    """coloring.skeleton testing every class against every upper bound."""
    from pathgraph.coloring import Skeleton

    dominated = {a for a, _ in m.dominance_order}
    upper = tuple(c for c in range(m.size) if c not in dominated)
    pos = {u: i for i, u in enumerate(upper, start=1)}
    d_single = [[] for _ in upper]
    d_pair, unassigned, member_of = {}, [], {}
    for c in range(m.size):
        ups = [u for u in upper if u == c or m.dominated_by(c, u)]
        if not ups:
            raise InvariantError(f"class {c} has no upper bound")
        if len(ups) == 1:
            d_single[pos[ups[0]] - 1].append(c)
            member_of[c] = ("D", pos[ups[0]])
        elif len(ups) == 2:
            i, j = sorted(pos[u] for u in ups)
            d_pair.setdefault((i, j), []).append(c)
            member_of[c] = ("DIJ", i, j)
        else:
            unassigned.append(c)
    return Skeleton(
        upper=upper,
        d_single=tuple(tuple(d) for d in d_single),
        d_pair={k: tuple(v) for k, v in sorted(d_pair.items())},
        unassigned=tuple(unassigned),
        member_of=member_of,
    )


def canonical_conditions_by_pairs(m, s, f):
    """coloring.check_canonical_conditions testing classes pair by pair:
    condition d every class of every D_i against every upper bound, and
    condition e every D_ij class against all of D_i and D_j."""
    l = len(s.upper)
    out = {}
    out["a"] = all(f[u] == i for i, u in enumerate(s.upper, start=1))
    out["b"] = all(f[c] in (i, l + 1) for i, d in enumerate(s.d_single, start=1) for c in d)
    out["c"] = all(f[c] in key for key, d in s.d_pair.items() for c in d)
    out["d"] = all(
        f[c] == i
        for i, d in enumerate(s.d_single, start=1)
        for c in d
        if any(m.is_antipodal(c, u) for u in s.upper)
    )
    ok_e = True
    for (i, j), d in s.d_pair.items():
        for c in d:
            for k, other in ((i, j), (j, i)):
                if any(m.is_antipodal(c, x) for x in s.d_single[k - 1]) and f[c] != other:
                    ok_e = False
    out["e"] = ok_e
    out["f"] = all(
        f[a] != f[b] for a, b in m.edges.antipodal if s.member_of.get(a) == s.member_of.get(b)
    )
    return out


# Cross-checks that only the tests call, each with its guard: the part-level
# relations, the full antipodal triple over any classes, the strong coloring
# of Monma and Wei with its exhaustive search, the colored pattern search and
# induced subgraphs.

INDUCED_SEARCH_MAX_HOST = 12
STRONG_COLORING_MAX_CLASSES = 8


def attached(a: GammaComponent, b: GammaComponent) -> bool:
    """Some trace of one part intersects some trace of the other."""
    return any(set(t) & set(s) for t in a.traces for s in b.traces)


def dominates(a: GammaComponent, b: GammaComponent) -> bool:
    """a <= b: attached, and every trace of b either contains all traces of a
    or is disjoint from all of them."""
    union = sum(1 << v for v in set().union(*a.traces))  # bits by vertex id
    return attached(a, b) and _nests(union, [sum(1 << v for v in s) for s in b.traces])


def antipodal(a: GammaComponent, b: GammaComponent) -> bool:
    """Attached, but neither part dominates the other.

    Whenever some trace of a and some trace of b intersect without nesting
    the pair is antipodal; the converse can fail for parts whose trace sets
    interleave (a single trace strictly between two nested traces of the
    other part), which are antipodal despite all trace pairs nesting.
    """
    if a.index == b.index:
        return False
    return attached(a, b) and not dominates(a, b) and not dominates(b, a)


def full_antipodal_triple(
    m: AttachednessGraph, restrict_to: tuple[int, ...] | None = None
) -> tuple[tuple[int, int, int], int] | None:
    """Lexicographically first pairwise-antipodal triple sharing a witness vertex."""
    cands = range(m.size) if restrict_to is None else restrict_to
    return _full_triple(m, _tree_adj(m.size, m.antipodal), cands)


def is_strong_coloring(dec: Decomposition, m: AttachednessGraph, f: dict[int, int]) -> bool:
    """Proper on antipodal pairs and at most two colors among each vertex's parts.

    The class coloring is lifted back to the original parts and checked against
    relations recomputed from the decomposition, independent of the quotient.
    """
    cls_of: dict[int, int] = {}
    for cid, mem in enumerate(m.class_members):
        for g in mem:
            cls_of[g] = cid
    k = len(dec.gammas)
    lifted = {g: f[cls_of[g]] for g in range(k)}
    for a in range(k):
        for b in range(a + 1, k):
            if antipodal(dec.gammas[a], dec.gammas[b]) and lifted[a] == lifted[b]:
                return False
    for v in dec.q:
        if len({lifted[g] for g in dec.neighbor_map[v]}) > 2:
            return False
    return True


def oracle_strong_coloring(
    dec: Decomposition, m: AttachednessGraph
) -> dict[int, int] | None:
    """Lexicographically first strong coloring over the classes, or None.

    Colors range over 1..s; properness on antipodal pairs plus the two-color
    bound per separator vertex are enforced during the backtracking.
    Guarded to at most 8 classes.
    """
    s = m.size
    if s > STRONG_COLORING_MAX_CLASSES:
        raise GuardRefusal(
            f"{s} classes exceed the strong-coloring guard of "
            f"{STRONG_COLORING_MAX_CLASSES}"
        )
    if s == 0:
        return {}
    earlier_antipodal = [
        [b for b in range(a) if m.is_antipodal(a, b)] for a in range(s)
    ]
    vertex_groups = [m.neighbor_map[v] for v in m.q]
    colors: dict[int, int] = {}

    def feasible(c: int, col: int) -> bool:
        if any(colors[b] == col for b in earlier_antipodal[c]):
            return False
        for group in vertex_groups:
            if c in group:
                used = {colors[x] for x in group if x in colors} | {col}
                if len(used) > 2:
                    return False
        return True

    def rec(c: int) -> bool:
        if c == s:
            return True
        for col in range(1, s + 1):
            if feasible(c, col):
                colors[c] = col
                if rec(c + 1):
                    return True
                del colors[c]
        return False

    if not rec(0):
        return None
    if not is_strong_coloring(dec, m, colors):
        raise InvariantError("oracle produced a non-strong coloring")
    return dict(colors)


def find_induced_colored(
    m: EdgeColoredGraph,
    p: ObstructionPattern,
    induced: bool = True,
    max_host: int = INDUCED_SEARCH_MAX_HOST,
) -> tuple[int, ...] | None:
    """Backtracking search for a color-preserving copy of the pattern.

    Induced mode also forbids host edges across pattern non-edges. Hosts larger
    than max_host are refused outright; pass a larger bound deliberately.
    """
    if m.n > max_host:
        raise GuardRefusal(
            f"induced search on {m.n} host vertices exceeds the guard of {max_host}"
        )
    pat = p.pattern
    k = pat.n
    if k > m.n:
        return None

    def cdeg(g: EdgeColoredGraph, v: int, store: frozenset) -> int:
        return sum(1 for e in store if v in e)

    p_adeg = [cdeg(pat, v, pat.antipodal) for v in range(k)]
    p_ddeg = [cdeg(pat, v, pat.dominance) for v in range(k)]
    h_adeg = [cdeg(m, v, m.antipodal) for v in range(m.n)]
    h_ddeg = [cdeg(m, v, m.dominance) for v in range(m.n)]

    order = sorted(range(k), key=lambda v: (-(p_adeg[v] + p_ddeg[v]), v))
    assign: dict[int, int] = {}
    used = [False] * m.n

    def ok(pv: int, hv: int) -> bool:
        if h_adeg[hv] < p_adeg[pv] or h_ddeg[hv] < p_ddeg[pv]:
            return False
        for qv, hq in assign.items():
            want = pat.color_of(pv, qv)
            have = m.color_of(hv, hq)
            if want is not None and have != want:
                return False
            if want is None and induced and have is not None:
                return False
        return True

    def rec(i: int) -> bool:
        if i == k:
            return True
        pv = order[i]
        for hv in range(m.n):
            if not used[hv] and ok(pv, hv):
                assign[pv] = hv
                used[hv] = True
                if rec(i + 1):
                    return True
                del assign[pv]
                used[hv] = False
        return False

    if rec(0):
        return tuple(assign[v] for v in range(k))
    return None


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, VertexSet]:
    """Induced subgraph on the given vertices.

    Returns the new graph together with the id map: position k of the returned
    tuple is the original id of new vertex k.
    """
    idmap = _int_vset(vertices, "vertex")
    if idmap and not (0 <= idmap[0] and idmap[-1] < g.n):
        raise InputError(f"vertices {idmap} out of range for n={g.n}")
    back = {old: new for new, old in enumerate(idmap)}
    adj = tuple(
        frozenset(back[u] for u in g.adj[old] if u in back) for old in idmap
    )
    labels = tuple(g.label(old) for old in idmap) if g.labels is not None else None
    return Graph(len(idmap), adj, labels), idmap


def tree_by_reports(verdict) -> frozenset[tuple[int, int]]:
    """The tree edges realize assembled from every separator report of a path
    verdict, two-part reports included: each component's forest rooted at
    its first separator, each part hung at its head (its first relevant
    clique holding its largest trace) by the report's classes, colors and
    dominators, two-clique components joined and the components bridged at
    their first cliques."""
    index = verdict._index
    edges = _assemble_by_reports(index, verdict.reports)
    anchors = []
    for _, nodes in index.components:
        if len(nodes) == 2:
            edges.add((nodes[0], nodes[1]))
        anchors.append(nodes[0])
    edges.update(zip(anchors, anchors[1:]))
    return frozenset(edges)


def _assemble_by_reports(index, reports):
    cliques = index.cliques
    node_of = {c: i for i, c in enumerate(cliques)}
    report_at = {node_of[r.decomposition.q]: r for r in reports}

    def frame(h, part=None, k=None, up=None, trace=()):
        rep = report_at[h]
        hs = set(cliques[h])
        gammas = rep.decomposition.gammas
        results = {}
        kpart = None
        if part is not None:
            kc = cliques[k]
            kpart = next(gm.index for gm in gammas if kc in gm.relevant_cliques)
            results[kpart] = (k, dict.fromkeys(trace, k))
            ks = set(kc)
            away = sum(1 << i for i, v in enumerate(cliques[h]) if v not in ks)
            gammas = [gm for gm in gammas if gm.index != kpart and any(s & away for s in gm.masks)]
        return h, rep, hs, gammas, results, kpart, part, up

    roots = {}
    for r in reports:
        roots.setdefault(min(r.q[0], r.decomposition.gammas[0].smallest), r)
    frames = [frame(node_of[r.q]) for r in roots.values()]
    for h, _, hs, inside, results, _, _, _ in frames:
        for gm in inside:
            size = max(s.bit_count() for s in gm.masks)
            c = next(c for c in gm.relevant_cliques if len(hs.intersection(c)) == size)
            head, trace = node_of[c], tuple(filter(hs.__contains__, c))
            if head in report_at:
                frames.append(frame(head, gm, h, results, trace))
            else:
                results[gm.index] = (head, dict.fromkeys(trace, head))
    edges = set()
    for h, rep, _, _, results, kpart, part, up in reversed(frames):
        hung = _hang_by_report(h, rep, results, kpart, edges)
        if up is not None:
            up[part.index] = hung
    return edges


def _hang_by_report(h, rep, results, kpart, edges):
    m = rep.attachedness
    color = rep.coloring.f
    cls_of = {gi: cid for cid, members in enumerate(m.class_members) for gi in members}

    def rank(i):
        c = cls_of[i]
        return (color[c], m.up[c].bit_count(), c, i)

    ends = {}
    top = h
    for i in sorted(results, key=rank):
        first, far = results[i]
        side = color[cls_of[i]]
        at = ends.get(next(iter(far)), {}).get(side, h)
        if i == kpart:
            top = at
        else:
            edges.add(_norm_edge(at, first))
        for v, end in far.items():
            ends.setdefault(v, {})[side] = end
    if kpart is None:
        return None
    side = color[cls_of[kpart]]
    return top, {
        v: next((end for s, end in ends[v].items() if s != side), h)
        for v in results[kpart][1]
    }
