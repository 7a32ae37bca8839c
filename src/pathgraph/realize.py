"""Clique path tree construction for accepted graphs, plus host-tree realizations."""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass
from functools import reduce
from itertools import filterfalse
from operator import or_
from typing import Callable, Sequence

from .attach import _nests
from .chordal import (
    CliqueIndex,
    CliqueTree,
    _decided,
    _is_tree,
    _meet_exactly,
    _preorder,
    _separator_sizes,
    _tree_adj,
)
from .decompose import _cuts, _trace_masks
from .errors import InputError, InvariantError, PreconditionError
from .graphs import Graph, _graph, _norm_edge
from .recognize import SeparatorReport, Verdict, recognize_path_graph


@dataclass(frozen=True)
class HostRealization:
    """A host tree plus one path of host nodes per graph vertex."""

    host_n: int
    host_edges: frozenset[tuple[int, int]]
    paths: tuple[tuple[int, ...], ...]


def realize(g: Graph) -> CliqueTree:
    """A validated clique path tree of a path graph.

    The tree is assembled from the separators recognition found, with no
    recursion and no search: a separator of three or more parts is hung by
    its report, and one of two parts straight from the clique forest, with
    no decomposition and no report. The component trees are bridged, and
    the result is checked as a clique path tree; the tree carries that
    proof to clique_path_tree_to_host(g, tree).
    """
    verdict = recognize_path_graph(g)
    if not verdict.is_path_graph:
        raise PreconditionError("realize requires a path graph")
    return _tree_from(g, verdict)


def _tree_from(g: Graph, verdict: Verdict) -> CliqueTree:
    """realize from g's path verdict, on the clique index it was built on.
    The checked tree keeps g and the index's occurrences as its proof."""
    index = verdict._index
    edges = _assemble(index, verdict._found)
    anchors: list[int] = []
    for _, nodes in index.components:
        if len(nodes) == 2:
            # no separator: every inner node of a clique tree is one
            edges.add((nodes[0], nodes[1]))
        anchors.append(nodes[0])
    # bridge the component trees at their first cliques, which increase with
    # the components' smallest vertices; vertex paths are unaffected
    edges.update(zip(anchors, anchors[1:]))
    tree = CliqueTree(index.cliques, frozenset(edges))
    if _separator_sizes(index.cliques, index.occurrences, tree.edges, path=True) is None:
        raise InvariantError("assembled tree is not a clique path tree")
    object.__setattr__(tree, "_proof", (g, index.occurrences))
    return tree


Rank = Callable[[int], tuple]

# the rank of a two-part separator's parts (see _hang), by (one color, part 0
# under part 1): in one color the dominating part, or the lower one of one
# class, hangs first; in two colors both hang at the separator
_PAIR_RANK: dict[tuple[bool, bool], Rank] = {
    (True, False): ((1, 0), (1, 1)).__getitem__,
    (True, True): ((1, 1), (1, 0)).__getitem__,
    (False, False): ((1, 0), (2, 1)).__getitem__,
}


def _assemble(
    index: CliqueIndex, found: Sequence[SeparatorReport | int]
) -> set[tuple[int, int]]:
    """Tree edges of a clique path forest of a path graph, from the separators
    its verdict found: one tree for each component that has a separator,
    over the component's cliques, and no edge elsewhere. A separator of
    three or more parts is read off its report; one of two parts, found by
    its clique index, is read off the clique forest (see two_parts).

    Each tree is rooted at its component's first separator. A part D of
    G - K, for K a clique already placed, is realized at its head H: its
    first relevant clique (in canonical order) with D's largest trace,
    which contains every trace of D. When H is no separator, D is H alone.
    Otherwise H's parts inside D are realized first, then hung at H
    together with one more part, the single clique K, which takes the class
    and color of K's part of G - H: the one holding K - H, of which K is a
    relevant clique. Each other part of G - H avoids K, so it lies inside D
    exactly when it has a neighbour in H - K, which lies in D, that is when
    its traces meet H - K; otherwise all its neighbours lie in K, and it is
    a part of G - K of its own. That reuses G's separator at H inside D:
    dropping the traces of the part above can make an antipodal pair
    comparable but never the reverse, and never turns a dominance around.
    Frames are read top-down and hung bottom-up, so nothing recurses. Each
    report is read once: O(parts + the relevant cliques' sizes) per
    separator; a two-part separator costs its vertices' clique counts.
    """
    edges: set[tuple[int, int]] = set()
    if not found:
        return edges
    cliques, occ, tour = index.cliques, index.occurrences, index.tour
    pos, end, parts = tour.pos, tour.end, tour.parts
    report_at = {bisect_left(cliques, r.q): r for r in found if isinstance(r, SeparatorReport)}
    comp_of = {tour.root[nodes[0]]: comp for comp, nodes in index.components if len(nodes) > 2}

    def wide(h: int, hs: set[int], k: int | None) -> tuple[Rank, list, int | None]:
        """The rank of each part of G - H by H's report, its parts inside D
        (all at the root) as (part, head), and K's part."""
        rep = report_at[h]
        m, color = rep.attachedness, rep.coloring.f
        cls_of = {gi: cid for cid, members in enumerate(m.class_members) for gi in members}

        def rank(i: int) -> tuple[int, int, int, int]:
            c = cls_of[i]
            return (color[c], m.up[c].bit_count(), c, i)

        gammas = rep.decomposition.gammas
        kpart = None
        if k is not None:
            kc = cliques[k]
            kpart = next(gm.index for gm in gammas if kc in gm.relevant_cliques)
            ks = set(kc)
            away = sum(1 << i for i, v in enumerate(cliques[h]) if v not in ks)  # H - K
            gammas = [gm for gm in gammas if gm.index != kpart and any(s & away for s in gm.masks)]
        inside = []
        for gm in gammas:
            size = max(s.bit_count() for s in gm.masks)
            c = next(c for c in gm.relevant_cliques if len(hs.intersection(c)) == size)
            inside.append((gm.index, bisect_left(cliques, c)))
        return rank, inside, kpart

    def two_parts(h: int, hs: set[int], k: int | None) -> tuple[Rank, list, int | None]:
        """wide's reading for a separator H of two parts, off the clique
        forest alone. The parts are the regions beyond the two tree edges
        whose separator lies in H (the edges tour.parts counts), cut at each
        other; a region is told by which of the two cut edges' lower
        subtrees hold its preorder positions, the cut edges by _cuts over
        the trace masks of the cliques meeting H. A part's traces are
        its region's masks, and their union is its trace on its edge, held
        by the edge's far end, so its head is its first clique with the
        union. Part 0 holds the first vertex of H's component outside H.
        The rank (_PAIR_RANK) is what the general report's weak coloring
        gives two parts: one class if both have one and the same trace;
        else one color if their traces nest one way, the dominating part
        first; else two colors.
        """
        bits = _trace_masks(index, h)
        (a1, b1), (a2, b2) = [(pos[z], end[z]) for z in _cuts(index, bits)]

        def region(z: int) -> int:
            return (a1 <= pos[z] < b1) + 2 * (a2 <= pos[z] < b2)

        traces: dict[int, dict[int, int]] = {}  # region -> mask -> its first clique
        for z in sorted(bits):
            if z != h:
                traces.setdefault(region(z), {}).setdefault(bits[z], z)
        w = next(filterfalse(hs.__contains__, comp_of[tour.root[h]]))  # least outside H
        a = traces.pop(region(occ[w][0]))
        ((second, b),) = traces.items()
        ua, ub = reduce(or_, a), reduce(or_, b)
        if len(a) == 1 and a.keys() == b.keys():
            ab, one = False, True
        else:
            ab = bool(ua & ub) and _nests(ua, b)  # part 0 under part 1
            one = ab or bool(ua & ub) and _nests(ub, a)
        inside = [(0, a[ua]), (1, b[ub])]
        kpart = None
        if k is not None:
            kpart = int(region(k) == second)
            del inside[kpart]
            if not (ub, ua)[kpart] & ~bits[k]:  # the other part's traces miss H - K
                inside.clear()
        return _PAIR_RANK[one, ab], inside, kpart

    roots: dict[int, int] = {}  # the first separator of each component
    for r in found:
        h = r if isinstance(r, int) else bisect_left(cliques, r.q)
        roots.setdefault(tour.root[h], h)
    # (h, K's node, D's largest trace, the frame above's results, D's part there)
    todo = deque((h, None, (), None, None) for h in roots.values())
    frames = []
    while todo:
        h, k, trace, up, part = todo.popleft()
        hs = set(cliques[h])
        rank, inside, kpart = (two_parts if parts[h] == 2 else wide)(h, hs, k)
        results: dict[int, tuple[int, dict[int, int]]] = {}
        for i, head in inside:
            t = tuple(filter(hs.__contains__, cliques[head]))
            if parts[head] > 1:
                todo.append((head, h, t, results, i))
            else:
                results[i] = (head, dict.fromkeys(t, head))
        frames.append((h, rank, results, kpart, k, trace, up, part))
    for h, rank, results, kpart, k, trace, up, part in reversed(frames):
        hung = _hang(h, rank, results, kpart, k, trace, edges)
        if up is not None:
            up[part] = hung
    return edges


def _hang(
    h: int,
    rank: Rank,
    results: dict[int, tuple[int, dict[int, int]]],
    kpart: int | None,
    k: int | None,
    trace: tuple[int, ...],
    edges: set[tuple[int, int]],
) -> tuple[int, dict[int, int]] | None:
    """Hang the realized parts of the separator at node h, color by color.

    results maps a part to its top clique (h's only neighbour in the part's
    tree) and the far end of each of its trace vertices' paths; K's part,
    kpart, is the clique k with trace, its trace on h. rank(part) is its
    color, then its order within the color: for a report, number of strict
    dominators, class id, part index. The coloring is proper on antipodal
    pairs, so an earlier part sharing a trace vertex with a later one
    dominates it and holds its whole trace on one path: the later top
    clique hangs where that path ends so far. A vertex sees at most two
    colors, so its path leaves h on at most two sides.

    Returns, for the part of the frame above, the node its clique K hangs at
    and the far end of each of its trace vertices away from K.
    """
    ends: dict[int, dict[int, int]] = {}  # color -> v -> where v's path ends
    top = h
    for i in sorted([*results, kpart] if k is not None else results, key=rank):
        side = rank(i)[0]
        if i == kpart:
            far = dict.fromkeys(trace, k)
            top = ends.get(side, {}).get(trace[0], h)
        else:
            first, far = results[i]
            edges.add(_norm_edge(ends.get(side, {}).get(next(iter(far)), h), first))
        ends.setdefault(side, {}).update(far)
    if k is None:
        return None
    side = rank(kpart)[0]
    far = dict.fromkeys(trace, h)
    for s, at_end in ends.items():
        if s != side:  # the vertex's one other color, if any
            far.update({v: at_end[v] for v in at_end.keys() & far.keys()})
    return top, far


def clique_path_tree_to_host(g: Graph, t: CliqueTree) -> HostRealization:
    """Read the host tree off a clique path tree: one node per clique, and the
    path of a vertex is the path of cliques containing it.

    A tree realize built for this very g brings the proof its assembly
    checked, and its host is read off that proof's occurrences. Any other
    tree, an equal copy included, is decided by its own proof (see
    _proven_occurrences), which covers the host read off it, with no search;
    g is searched only to raise the error a rejected tree owes.
    """
    proof = t._proof if isinstance(t, CliqueTree) else None
    if proof is not None and proof[0] is g:
        return _host_paths(proof[1], t)
    occurrences = _decided(g, t, "clique_path_tree_to_host", path=True, canonical=True)
    if occurrences is None:
        raise PreconditionError("clique_path_tree_to_host requires a clique path tree")
    return _host_paths(occurrences, t)


def _host_paths(occurrences: Sequence[Sequence[int]], t: CliqueTree) -> HostRealization:
    """The host of a clique path tree, each vertex's path read off its
    occurrences (increasing), unchecked.

    One depth-first search roots the tree at node 0 (_preorder). A path's
    nodes in preorder are its top node, then the chain down from one child
    of the top, then the chain down from the other child, if any, which
    begins at the next node whose parent is the top. Each path is laid out
    end to top to end and starts at its smaller end.
    """
    c = len(t.cliques)
    order, parent = _preorder(c, t.edges)
    pre = [0] * c
    for i, x in enumerate(order):
        pre[x] = i
    paths = []
    for nodes in occurrences:
        if len(nodes) < 3:  # listed in increasing order, so from the smaller end
            paths.append(tuple(nodes))
            continue
        seq = sorted(nodes, key=pre.__getitem__)
        top = seq[0]
        # the second chain starts at the top's second child, else past the end
        i = [*map(parent.__getitem__, seq[2:]), top].index(top) + 2
        line = seq[i - 1 : 0 : -1] + seq[:1] + seq[i:]
        paths.append(tuple(line if line[0] <= line[-1] else reversed(line)))
    return HostRealization(host_n=max(c, 1), host_edges=frozenset(t.edges), paths=tuple(paths))


def verify_realization(g: Graph, host: HostRealization) -> bool:
    """The host is a tree, each path is a nonempty path of it, and the paths
    pairwise intersect exactly where the graph has edges (_meet_exactly,
    counting the paths through each host node and edge): linear in the path
    lengths plus m times a path length. A malformed host is rejected too.
    """
    n = _graph(g).n
    if not isinstance(host, HostRealization) or type(host.host_n) is not int:
        return False
    if not isinstance(host.paths, (tuple, list)) or len(host.paths) != n:
        return False
    try:
        if not _is_tree(host.host_n, host.host_edges):
            return False
    except InputError:
        return False
    nodes = range(host.host_n)
    adj = _tree_adj(host.host_n, host.host_edges)
    for p in host.paths:
        if not isinstance(p, (tuple, list)) or not p:
            return False
        if any(type(x) is not int or x not in nodes for x in p) or len(set(p)) != len(p):
            return False
        for a, b in zip(p, p[1:]):
            if b not in adj[a]:
                return False
    through_node = Counter(x for p in host.paths for x in p)
    through_edge = Counter(_norm_edge(a, b) for p in host.paths for a, b in zip(p, p[1:]))
    return _meet_exactly(
        g, through_node.values(), through_edge.values(), [frozenset(p) for p in host.paths]
    )
