"""Clique path tree construction for accepted graphs, plus host-tree realizations."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .attach import quotient
from .chordal import (
    CliqueIndex,
    CliqueTree,
    _tree_adj,
    clique_index,
    clique_tree,
    component_indices,
    is_clique_path_tree,
    peo_or_hole,
    restrict_index,
)
from .coloring import WeakColoring, weak_coloring
from .errors import (
    GuardRefusal,
    InvariantError,
    PreconditionError,
    RealizationError,
)
from .graphs import Graph, VertexSet, induced_subgraph, vset
from .oracle import oracle_clique_path_tree
from .recognize import _decompositions, recognize_path_graph


@dataclass(frozen=True)
class HostRealization:
    """A host tree plus one path of host nodes per graph vertex."""

    host_n: int
    host_edges: frozenset[tuple[int, int]]
    paths: tuple[tuple[int, ...], ...]


def _norm(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def realize(g: Graph) -> CliqueTree:
    """A validated clique path tree of a path graph.

    Separator by separator, the parts are realized recursively and merged at
    their shared separator node: color classes of the weak coloring each occupy
    their own side, and branches within a class nest along the dominance order.
    Every merge is validated; failures fall back to the exhaustive oracle.
    """
    verdict = recognize_path_graph(g)
    if not verdict.is_path_graph:
        raise PreconditionError("realize requires a path graph")
    index = clique_index(g, peo_or_hole(g).order)
    pieces = component_indices(g, index)
    if len(pieces) == 1:
        return _realize_connected(g, index)

    index_of = {c: i for i, c in enumerate(index.cliques)}
    edges: set[tuple[int, int]] = set()
    anchors: list[int] = []
    for sub, idmap, sub_index in pieces:
        t = _realize_connected(sub, sub_index)
        local_to_global = [index_of[vset(idmap[v] for v in c)] for c in t.cliques]
        for a, b in t.edges:
            edges.add(_norm(local_to_global[a], local_to_global[b]))
        anchors.append(min(local_to_global))
    # bridge the component trees; vertex paths are unaffected
    for a, b in zip(anchors, anchors[1:]):
        edges.add(_norm(a, b))
    tree = CliqueTree(index.cliques, frozenset(edges))
    if not is_clique_path_tree(g, tree):
        raise InvariantError("bridged component trees lost the path property")
    return tree


def _realize_connected(g: Graph, index: CliqueIndex) -> CliqueTree:
    dec = next(_decompositions(g, index), None)
    if dec is None:
        t = clique_tree(g)
        if is_clique_path_tree(g, t):
            return t
        return _oracle_fallback(g, None)
    m = quotient(dec)
    wc = weak_coloring(m)
    if not isinstance(wc, WeakColoring):
        raise InvariantError("accepted graph refuted during realization")

    sub_cliques: list[list[VertexSet]] = []
    sub_edges: list[frozenset[tuple[int, int]]] = []
    for gamma in dec.gammas:
        sub, idmap = induced_subgraph(g, gamma.vertices)
        t = _realize_connected(sub, restrict_index(index, sub, idmap))
        sub_cliques.append([vset(idmap[v] for v in c) for c in t.cliques])
        sub_edges.append(t.edges)

    tree = _merge_at_q(index.cliques, dec.q, dec, m, wc, sub_cliques, sub_edges)
    if tree is not None and is_clique_path_tree(g, tree):
        return tree
    return _oracle_fallback(g, dec.q)


def _oracle_fallback(g: Graph, q: VertexSet | None) -> CliqueTree:
    where = "an atom" if q is None else f"separator {q}"
    try:
        t = oracle_clique_path_tree(g)
    except GuardRefusal as exc:
        raise RealizationError(
            f"merge failed at {where} and the instance exceeds the oracle guard"
        ) from exc
    if t is None:
        raise InvariantError(f"accepted graph has no clique path tree (at {where})")
    return t


def _branches_at(
    cliques: list[VertexSet], edges: frozenset[tuple[int, int]], q: VertexSet
) -> list[tuple[int, list[tuple[int, int]], dict[int, list[int]]]]:
    """Split a part's tree at its separator node.

    Returns one (root, edge list, adjacency) triple per branch hanging off the
    separator node, all in the part's local clique indices.
    """
    qnode = cliques.index(q)
    adj = _tree_adj(len(cliques), edges)
    branches = []
    for r in sorted(adj[qnode]):
        nodes = {r}
        queue = deque([r])
        bedges: list[tuple[int, int]] = []
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w != qnode and w not in nodes:
                    nodes.add(w)
                    bedges.append(_norm(u, w))
                    queue.append(w)
        badj: dict[int, list[int]] = {x: [] for x in nodes}
        for a, b in bedges:
            badj[a].append(b)
            badj[b].append(a)
        branches.append((r, bedges, badj))
    return branches


def _merge_at_q(
    cliques: tuple[VertexSet, ...],
    q: VertexSet,
    dec,
    m,
    wc: WeakColoring,
    sub_cliques: list[list[VertexSet]],
    sub_edges: list[frozenset[tuple[int, int]]],
) -> CliqueTree | None:
    index_of = {c: i for i, c in enumerate(cliques)}
    qi = index_of[q]
    qs = set(q)
    edges: set[tuple[int, int]] = set()

    cls_of = {
        gi: cid for cid, members in enumerate(m.class_members) for gi in members
    }
    groups: dict[int, list[int]] = {}
    for gi in range(len(dec.gammas)):
        groups.setdefault(wc.f[cls_of[gi]], []).append(gi)

    for color in sorted(groups):
        idxs = groups[color]

        def rank(gi: int) -> tuple[int, int, int]:
            c = cls_of[gi]
            doms = sum(
                1
                for gj in idxs
                if cls_of[gj] != c and m.dominated_by(c, cls_of[gj])
            )
            return (doms, c, gi)

        idxs.sort(key=rank)
        spine: list[int] = [qi]
        for gi in idxs:
            glob = [index_of[c] for c in sub_cliques[gi]]
            branches = _branches_at(sub_cliques[gi], sub_edges[gi], q)
            branches.sort(key=lambda br: (-len(set(sub_cliques[gi][br[0]]) & qs), glob[br[0]]))
            for root, bedges, badj in branches:
                for a, b in bedges:
                    edges.add(_norm(glob[a], glob[b]))
                need = set(sub_cliques[gi][root]) & qs
                attach = qi
                covered = set(qs)
                hang = 0
                for pos, node in enumerate(spine[1:], start=1):
                    covered &= set(cliques[node])
                    if need <= covered:
                        attach = node
                        hang = pos
                    else:
                        break
                edges.add(_norm(attach, glob[root]))
                # new spine: prefix up to the attachment, then the branch's
                # own chain of separator-meeting cliques
                spine = spine[: hang + 1]
                cur = root
                seen = {root}
                spine.append(glob[root])
                while True:
                    nxt = [
                        w
                        for w in badj[cur]
                        if w not in seen and set(sub_cliques[gi][w]) & qs
                    ]
                    if not nxt:
                        break
                    cur = max(
                        nxt,
                        key=lambda w: (len(set(sub_cliques[gi][w]) & qs), -glob[w]),
                    )
                    seen.add(cur)
                    spine.append(glob[cur])

    if len(edges) != len(cliques) - 1:
        return None
    return CliqueTree(cliques, frozenset(edges))


def clique_path_tree_to_host(g: Graph, t: CliqueTree) -> HostRealization:
    """Read the host tree off a clique path tree: one node per clique, and the
    path of a vertex is the path of cliques containing it."""
    if not is_clique_path_tree(g, t):
        raise PreconditionError("clique_path_tree_to_host requires a clique path tree")
    c = len(t.cliques)
    adj = _tree_adj(c, t.edges)
    paths = []
    for v in range(g.n):
        nodes = [i for i, clique in enumerate(t.cliques) if v in clique]
        if len(nodes) <= 1:
            paths.append(tuple(nodes))
            continue
        inside = set(nodes)
        ends = [
            u for u in nodes if sum(1 for w in adj[u] if w in inside) == 1
        ]
        start = min(ends)
        seq = [start]
        prev = -1
        while len(seq) < len(nodes):
            nxt = [w for w in adj[seq[-1]] if w in inside and w != prev]
            prev = seq[-1]
            seq.append(nxt[0])
        paths.append(tuple(seq))
    host = HostRealization(
        host_n=max(c, 1), host_edges=frozenset(t.edges), paths=tuple(paths)
    )
    if not verify_realization(g, host):
        raise InvariantError("host realization does not reproduce the graph")
    return host


def verify_realization(g: Graph, host: HostRealization) -> bool:
    """Paths pairwise intersect exactly where the graph has edges, and each
    path really is a path of the host tree."""
    adj: dict[int, set[int]] = {i: set() for i in range(host.host_n)}
    for a, b in host.host_edges:
        adj[a].add(b)
        adj[b].add(a)
    if len(host.paths) != g.n:
        return False
    for p in host.paths:
        if len(set(p)) != len(p):
            return False
        for a, b in zip(p, p[1:]):
            if b not in adj[a]:
                return False
    for u in range(g.n):
        for v in range(u + 1, g.n):
            shares = bool(set(host.paths[u]) & set(host.paths[v]))
            if shares != g.has_edge(u, v):
                return False
    return True
