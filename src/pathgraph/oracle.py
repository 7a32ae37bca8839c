"""Independent brute-force oracles: exhaustive clique-path-tree search over all
labeled trees, and exhaustive strong-coloring search. Both are guarded."""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .attach import AttachednessGraph
from .chordal import CliqueIndex, CliqueTree, _connected_index, _is_path_tree
from .coloring import is_strong_coloring
from .decompose import Decomposition
from .errors import GuardRefusal, InvariantError
from .graphs import Graph

TREE_SWEEP_MAX_CLIQUES = 9
STRONG_COLORING_MAX_CLASSES = 8


def _decode_pruefer(seq: list[int], c: int) -> list[tuple[int, int]]:
    """Edges of the labeled tree on 0..c-1 encoded by a Pruefer sequence (c >= 2).

    Private although generate uses it too: the sweep calls it once per tree,
    and the traced benchmark (perfbench) wraps every public function.
    """
    degree = [1] * c
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(c) if degree[v] == 1]
    heapify(leaves)
    edges = []
    for x in seq:
        leaf = heappop(leaves)
        edges.append((leaf, x) if leaf < x else (x, leaf))
        degree[x] -= 1
        if degree[x] == 1:
            heappush(leaves, x)
    u = heappop(leaves)
    v = heappop(leaves)
    edges.append((u, v) if u < v else (v, u))
    return edges


def _all_paths(edges: list[tuple[int, int]], masks: list[int]) -> bool:
    """Does every mask induce a path (connected, max degree 2) in the tree?"""
    for mask in masks:
        k = mask.bit_count()
        if k <= 1:
            continue
        cnt = 0
        deg = {}
        ok = True
        for a, b in edges:
            if (mask >> a) & 1 and (mask >> b) & 1:
                cnt += 1
                da = deg.get(a, 0) + 1
                db = deg.get(b, 0) + 1
                if da > 2 or db > 2:
                    ok = False
                    break
                deg[a] = da
                deg[b] = db
        if not ok or cnt != k - 1:
            return False
    return True


def _first_path_tree(c: int, masks: list[int]) -> list[tuple[int, int]] | None:
    """First labeled tree on c nodes (Pruefer lexicographic order) where every
    mask induces a path, or None when no labeled tree works."""
    if c <= 1:
        return []
    if c == 2:
        return [(0, 1)]
    seq = [0] * (c - 2)
    while True:
        edges = _decode_pruefer(seq, c)
        if _all_paths(edges, masks):
            return edges
        i = c - 3
        while i >= 0 and seq[i] == c - 1:
            seq[i] = 0
            i -= 1
        if i < 0:
            return None
        seq[i] += 1
        for j in range(i + 1, c - 2):
            seq[j] = 0


def oracle_clique_path_tree(g: Graph) -> CliqueTree | None:
    """Sweep every labeled tree on the maximal cliques (Pruefer order) and
    return the first where each vertex's cliques induce a path, else None.

    Guarded to at most 9 cliques (9^7 labeled trees).
    """
    return _oracle_tree(_connected_index(g, "oracle_clique_path_tree"))


def _oracle_tree(index: CliqueIndex) -> CliqueTree | None:
    """oracle_clique_path_tree on the index of a connected chordal graph."""
    c = len(index.cliques)
    if c > TREE_SWEEP_MAX_CLIQUES:
        raise GuardRefusal(
            f"{c} maximal cliques exceed the exhaustive sweep guard of "
            f"{TREE_SWEEP_MAX_CLIQUES}"
        )
    masks = sorted(
        {sum(1 << i for i in occ) for occ in index.occurrences if len(occ) >= 2},
        key=lambda mk: (-mk.bit_count(), mk),
    )
    edges = _first_path_tree(c, masks)
    if edges is None:
        return None
    tree = CliqueTree(index.cliques, frozenset(edges))
    if not _is_path_tree(index, tree.edges):
        raise InvariantError("swept tree fails the clique path tree check")
    return tree


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
