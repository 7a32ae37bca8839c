"""Clique path tree construction for accepted graphs, plus host-tree realizations."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .chordal import (
    CliqueIndex,
    CliqueTree,
    _is_tree,
    _meet_exactly,
    _name_rejection,
    _proven_occurrences,
    _separator_sizes,
    _tree_adj,
)
from .errors import InputError, InvariantError, PreconditionError
from .graphs import Graph, _norm_edge
from .recognize import SeparatorReport, Verdict, recognize_path_graph


@dataclass(frozen=True)
class HostRealization:
    """A host tree plus one path of host nodes per graph vertex."""

    host_n: int
    host_edges: frozenset[tuple[int, int]]
    paths: tuple[tuple[int, ...], ...]


def realize(g: Graph) -> CliqueTree:
    """A validated clique path tree of a path graph.

    The tree is assembled from the separator reports of recognition, with no
    recursion and no search; the component trees are bridged, and the result
    is checked as a clique path tree.
    """
    verdict = recognize_path_graph(g)
    if not verdict.is_path_graph:
        raise PreconditionError("realize requires a path graph")
    return _tree_from(verdict)


def _tree_from(verdict: Verdict) -> CliqueTree:
    """realize from a path verdict, on the clique index it was built on."""
    index = verdict._index
    edges = _assemble(index, verdict.reports)
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
    return tree


def _assemble(
    index: CliqueIndex, reports: Sequence[SeparatorReport]
) -> set[tuple[int, int]]:
    """Tree edges of a clique path forest of a path graph, from its separator
    reports: one tree for each component that has a separator, over the
    component's cliques, and no edge elsewhere.

    Each tree is rooted at its component's first separator. A part D of
    G - K, for K a clique already placed, is realized at its head H: a
    relevant clique with D's largest trace, which contains every trace of D.
    When H is no separator, D is H alone. Otherwise H's parts inside D are
    realized first, then hung at H together with one more part, the single
    clique K, which takes the class and color of K's part of G - H: the one
    holding K - H, of which K is a relevant clique. Each other part of G - H
    avoids K, so it lies inside D exactly when it has a neighbour in H - K,
    which lies in D, that is when its traces meet H - K; otherwise all its
    neighbours lie in K, and it is a part of G - K of its own. That reuses
    G's report at H inside D: dropping the traces of the part above can make
    an antipodal pair comparable but never the reverse, and never turns a
    dominance around. Frames are listed top-down and hung bottom-up, so
    nothing recurses. Each report is read once: O(parts + the relevant
    cliques' sizes) per separator.
    """
    cliques = index.cliques
    node_of = {c: i for i, c in enumerate(cliques)}
    report_at = {node_of[r.decomposition.q]: r for r in reports}

    def frame(h, part=None, k=None, up=None, trace=()):
        """Separator node h with its parts to realize, for the part of G - K
        it heads (None at the root), whose result goes to up, and its largest trace."""
        rep = report_at[h]
        hs = set(cliques[h])
        gammas = rep.decomposition.gammas
        results: dict[int, tuple[int, dict[int, int]]] = {}
        kpart = None
        if part is not None:
            kc = cliques[k]
            kpart = next(gm.index for gm in gammas if kc in gm.relevant_cliques)
            results[kpart] = (k, dict.fromkeys(trace, k))
            ks = set(kc)
            away = sum(1 << i for i, v in enumerate(cliques[h]) if v not in ks)  # H - K
            gammas = [gm for gm in gammas if gm.index != kpart and any(s & away for s in gm.masks)]
        return h, rep, hs, gammas, results, kpart, part, up

    # a separator's component is Q plus its parts, so Q or the first part
    # holds the component's smallest vertex, which names it
    roots: dict[int, SeparatorReport] = {}
    for r in reports:
        roots.setdefault(min(r.q[0], r.decomposition.gammas[0].smallest), r)
    frames = [frame(node_of[r.q]) for r in roots.values()]
    for h, _, hs, inside, results, _, _, _ in frames:  # the list grows while read
        for gm in inside:
            size = max(s.bit_count() for s in gm.masks)
            c = next(c for c in gm.relevant_cliques if len(hs.intersection(c)) == size)
            head, trace = node_of[c], tuple(filter(hs.__contains__, c))
            if head in report_at:
                frames.append(frame(head, gm, h, results, trace))
            else:
                results[gm.index] = (head, dict.fromkeys(trace, head))
    edges: set[tuple[int, int]] = set()
    for h, rep, _, _, results, kpart, part, up in reversed(frames):
        hung = _hang(h, rep, results, kpart, edges)
        if up is not None:
            up[part.index] = hung
    return edges


def _hang(
    h: int,
    rep: SeparatorReport,
    results: dict[int, tuple[int, dict[int, int]]],
    kpart: int | None,
    edges: set[tuple[int, int]],
) -> tuple[int, dict[int, int]] | None:
    """Hang the realized parts of the separator at node h, color by color.

    results maps a part to its top clique (h's only neighbour in the part's
    tree) and the far end of each of its trace vertices' paths. Within
    a color, parts go by number of strict dominators, class id, part index.
    The coloring is proper on antipodal pairs, so an earlier part sharing a
    trace vertex with a later one dominates it and holds its whole trace on
    one path: the later top clique hangs where that path ends so far. A
    vertex sees at most two colors, so its path leaves h on at most two sides.

    Returns, for the part of the frame above, the node its clique K hangs at
    and the far end of each of its trace vertices away from K.
    """
    m = rep.attachedness
    color = rep.coloring.f
    cls_of = {gi: cid for cid, members in enumerate(m.class_members) for gi in members}

    def rank(i: int) -> tuple[int, int, int, int]:
        c = cls_of[i]
        return (color[c], m.up[c].bit_count(), c, i)

    ends: dict[int, dict[int, int]] = {}  # v -> color -> where v's path ends
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


def clique_path_tree_to_host(g: Graph, t: CliqueTree) -> HostRealization:
    """Read the host tree off a clique path tree: one node per clique, and the
    path of a vertex is the path of cliques containing it.

    Decided by the tree's own proof (see _proven_occurrences), which covers
    the host read off it, with no search; g is searched only to raise the
    error a rejected tree owes.
    """
    occurrences = _proven_occurrences(g, t, path=True)
    if occurrences is not None:
        return _host_paths(occurrences, t)
    _name_rejection(g, t, "clique_path_tree_to_host", canonical=True)
    raise PreconditionError("clique_path_tree_to_host requires a clique path tree")


def _host_paths(occurrences: Sequence[Sequence[int]], t: CliqueTree) -> HostRealization:
    """The host of a clique path tree, each vertex's path read off its
    occurrences, unchecked."""
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


def verify_realization(g: Graph, host: HostRealization) -> bool:
    """The host is a tree, each path is a nonempty path of it, and the paths
    pairwise intersect exactly where the graph has edges (_meet_exactly,
    counting the paths through each host node and edge): linear in the path
    lengths plus m times a path length. A malformed host is rejected too.
    """
    if type(host.host_n) is not int or not isinstance(host.paths, (tuple, list)):
        return False
    if len(host.paths) != g.n:
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
