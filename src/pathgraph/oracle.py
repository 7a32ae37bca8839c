"""Independent brute-force oracle: exhaustive clique-path-tree search over all
labeled trees, guarded. It reads only the cliques and occurrences of a clique
index, never the pipeline."""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .chordal import CliqueTree, _connected_index, _separator_sizes
from .errors import GuardRefusal
from .graphs import Graph, VertexSet

TREE_SWEEP_MAX_CLIQUES = 9


def _decode_pruefer(seq: list[int], c: int) -> list[tuple[int, int]]:
    """Edges of the labeled tree on 0..c-1 encoded by a Pruefer sequence (c >= 2).

    Each step joins the smallest leaf to the next entry of seq, and the last
    edge joins the remaining two nodes; every edge is (low, high), in that
    order. The smallest leaf is found by a pointer that only moves up: a node
    below the pointer that becomes a leaf is the next smallest leaf at once.
    Linear in c.

    Private although generate uses it too: the traced benchmark (perfbench)
    wraps every public function, and the sweep calls it on each tree that
    passes its count.
    """
    degree = [1] * c
    for x in seq:
        degree[x] += 1
    leaf = ptr = degree.index(1)
    edges = []
    for x in seq:
        edges.append((leaf, x) if leaf < x else (x, leaf))
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            leaf = ptr = degree.index(1, ptr + 1)
    edges.append((leaf, c - 1))
    return edges


def _first_path_tree(c: int, masks: Iterable[int]) -> list[tuple[int, int]] | None:
    """First labeled tree on c nodes (Pruefer lexicographic order) where every
    mask induces a path, or None when no labeled tree works.

    weight[a][b] counts the masks of two or more nodes that hold both a and
    b. A mask M induces a forest with at most |M| - 1 edges, exactly that
    many when connected; so all are connected exactly when the tree's weight
    is the sum of |M| - 1, counted per tree in one pass of the smallest-leaf
    pointer (as in _decode_pruefer) as the degrees follow the sequence. A
    tree that passes is accepted by the clique tree proof (_separator_sizes)
    over the masks, at[x] standing for node x's clique: its sum is that
    count, and its hub test finds a mask on three edges at one node.
    """
    if c <= 1:
        return []
    sets = [[a for a in range(c) if mask >> a & 1] for mask in masks if mask.bit_count() > 1]
    at: list[set[int]] = [set() for _ in range(c)]
    weight = [[0] * c for _ in range(c)]
    for k, nodes in enumerate(sets):
        for a in nodes:
            at[a].add(k)
            row = weight[a]
            for b in nodes:
                row[b] += 1
    need = sum(len(nodes) - 1 for nodes in sets)
    last = c - 1
    seq = [0] * (c - 2)
    degree = [1] * c
    degree[0] = c - 1
    while True:
        deg = degree[:]
        leaf = ptr = deg.index(1)
        total = 0
        for x in seq:
            total += weight[leaf][x]
            deg[x] -= 1
            if deg[x] == 1 and x < ptr:
                leaf = x
            else:
                leaf = ptr = deg.index(1, ptr + 1)
        if total + weight[leaf][last] == need:
            edges = _decode_pruefer(seq, c)
            if _separator_sizes(at, sets, frozenset(edges), path=True) is not None:
                return edges
        i = c - 3
        while i >= 0 and seq[i] == last:
            seq[i] = 0
            i -= 1
        if i < 0:
            return None
        wrapped = c - 3 - i
        degree[last] -= wrapped
        degree[0] += wrapped
        x = seq[i]
        seq[i] = x + 1
        degree[x] -= 1
        degree[x + 1] += 1


def oracle_clique_path_tree(g: Graph) -> CliqueTree | None:
    """Sweep every labeled tree on the maximal cliques (Pruefer order) and
    return the first where each vertex's cliques induce a path, else None.

    Guarded to at most 9 cliques (9^7 labeled trees).
    """
    index = _connected_index(g, "oracle_clique_path_tree")
    return _oracle_tree(index.cliques, index.occurrences)


def _oracle_tree(
    cliques: tuple[VertexSet, ...], occurrences: Sequence[Sequence[int]]
) -> CliqueTree | None:
    """oracle_clique_path_tree on the canonical cliques of a connected
    chordal graph and each vertex's cliques."""
    c = len(cliques)
    if c > TREE_SWEEP_MAX_CLIQUES:
        raise GuardRefusal(
            f"{c} maximal cliques exceed the exhaustive sweep guard of "
            f"{TREE_SWEEP_MAX_CLIQUES}"
        )
    masks = {sum(1 << i for i in occ) for occ in occurrences}
    edges = _first_path_tree(c, masks)
    return None if edges is None else CliqueTree(cliques, frozenset(edges))
