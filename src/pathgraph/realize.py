"""Clique path tree construction for accepted graphs, plus host-tree realizations."""

from __future__ import annotations

from dataclasses import dataclass

from .attach import quotient
from .chordal import (
    CliqueIndex,
    CliqueTree,
    _clique_tree,
    _is_path_tree,
    _is_tree,
    _path_tree_index,
    _tree_adj,
    component_indices,
    restrict_index,
)
from .coloring import WeakColoring, weak_coloring
from .errors import (
    GuardRefusal,
    InvariantError,
    PreconditionError,
    RealizationError,
)
from .graphs import Graph, VertexSet, _norm_edge, induced_subgraph, vset
from .oracle import oracle_clique_path_tree
from .recognize import _decompositions, _recognize


@dataclass(frozen=True)
class HostRealization:
    """A host tree plus one path of host nodes per graph vertex."""

    host_n: int
    host_edges: frozenset[tuple[int, int]]
    paths: tuple[tuple[int, ...], ...]


def realize(g: Graph) -> CliqueTree:
    """A validated clique path tree of a path graph.

    Separator by separator, the parts are realized recursively and merged at
    their shared separator node: color classes of the weak coloring each occupy
    their own side, and branches within a class nest along the dominance order.
    Every merge is validated; failures fall back to the exhaustive oracle.
    """
    verdict, index = _recognize(g)
    if not verdict.is_path_graph:
        raise PreconditionError("realize requires a path graph")
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
            edges.add(_norm_edge(local_to_global[a], local_to_global[b]))
        anchors.append(min(local_to_global))
    # bridge the component trees; vertex paths are unaffected
    for a, b in zip(anchors, anchors[1:]):
        edges.add(_norm_edge(a, b))
    tree = CliqueTree(index.cliques, frozenset(edges))
    if not _is_path_tree(index, tree.edges):
        raise InvariantError("bridged component trees lost the path property")
    return tree


def _realize_connected(g: Graph, index: CliqueIndex) -> CliqueTree:
    dec = next(_decompositions(g, index), None)
    if dec is None:
        t = _clique_tree(index)
        if _is_path_tree(index, t.edges):
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
    if tree is not None and _is_path_tree(index, tree.edges):
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
            part = sub_cliques[gi]
            glob = [index_of[c] for c in part]
            qnode = part.index(q)
            adj = _tree_adj(len(part), sub_edges[gi])
            # the part's tree minus its separator node falls into branches, one
            # per neighbor of that node; their edges carry over unchanged
            for a, b in sub_edges[gi]:
                if qnode not in (a, b):
                    edges.add(_norm_edge(glob[a], glob[b]))
            roots = sorted(adj[qnode], key=lambda r: (-len(set(part[r]) & qs), glob[r]))
            for root in roots:
                need = set(part[root]) & qs
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
                edges.add(_norm_edge(attach, glob[root]))
                # new spine: prefix up to the attachment, then the branch's
                # own chain of separator-meeting cliques
                spine = spine[: hang + 1]
                cur = root
                seen = {qnode, root}
                spine.append(glob[root])
                while True:
                    nxt = [w for w in adj[cur] if w not in seen and set(part[w]) & qs]
                    if not nxt:
                        break
                    cur = max(nxt, key=lambda w: (len(set(part[w]) & qs), -glob[w]))
                    seen.add(cur)
                    spine.append(glob[cur])

    if len(edges) != len(cliques) - 1:
        return None
    return CliqueTree(cliques, frozenset(edges))


def clique_path_tree_to_host(g: Graph, t: CliqueTree) -> HostRealization:
    """Read the host tree off a clique path tree: one node per clique, and the
    path of a vertex is the path of cliques containing it."""
    index = _path_tree_index(g, t, "clique_path_tree_to_host")
    if not _is_path_tree(index, t.edges):
        raise PreconditionError("clique_path_tree_to_host requires a clique path tree")
    c = len(t.cliques)
    adj = _tree_adj(c, t.edges)
    paths = []
    for nodes in index.occurrences:
        inside = set(nodes)
        # start from the smaller end: at most one neighbor on the vertex's path
        seq = [min(u for u in nodes if sum(1 for w in adj[u] if w in inside) <= 1)]
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
    """The host is a tree, each path is a nonempty path of it, and the paths
    pairwise intersect exactly where the graph has edges."""
    nodes = range(host.host_n)
    if len(host.paths) != g.n:
        return False
    if any(x not in nodes for e in host.host_edges for x in e):
        return False
    if not _is_tree(host.host_n, host.host_edges):
        return False
    adj = _tree_adj(host.host_n, host.host_edges)
    for p in host.paths:
        if not p or len(set(p)) != len(p) or any(x not in nodes for x in p):
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
