"""Independent brute-force oracle: exhaustive clique-path-tree search over all
labeled trees, guarded. It reads only the cliques and occurrences of a clique
index, never the pipeline."""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .chordal import CliqueTree, _connected_index, _separator_sizes
from .errors import GuardRefusal, InvariantError
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

    inside[a][b] has one bit for each mask of two or more nodes that holds
    both a and b, so a tree edge's weight, the popcount of that entry, counts
    the masks it lies in. A mask M induces a forest on its |M| nodes, with at
    most |M| - 1 edges and exactly that many when connected; so every mask is
    connected exactly when the tree's weight is the sum of |M| - 1 over the
    masks. A connected mask is a path unless
    some node has it on three incident edges, which is looked for only at
    nodes of degree 3 or more on the trees that pass the count. Per tree that
    is one pass of the smallest-leaf pointer (as in _decode_pruefer), whatever
    the number of masks; the degrees follow the sequence as it steps.
    """
    if c <= 1:
        return []
    sets = [mask for mask in masks if mask.bit_count() > 1]
    inside = [[0] * c for _ in range(c)]
    for k, mask in enumerate(sets):
        nodes = [a for a in range(c) if mask >> a & 1]
        for a in nodes:
            row = inside[a]
            for b in nodes:
                row[b] |= 1 << k
    weight = [[ab.bit_count() for ab in row] for row in inside]
    need = sum(mask.bit_count() - 1 for mask in sets)
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
            if _no_branch(edges, inside, degree):
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


def _no_branch(
    edges: list[tuple[int, int]], inside: list[list[int]], degree: list[int]
) -> bool:
    """Whether no node of the tree has one mask on three of its edges; once
    and twice collect, per node, the masks seen on one and on two edges."""
    once = [0] * len(degree)
    twice = once[:]
    for a, b in edges:
        shared = inside[a][b]
        for v in (a, b):
            if degree[v] > 2:
                if twice[v] & shared:
                    return False
                twice[v] |= once[v] & shared
                once[v] |= shared
    return True


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
    if edges is None:
        return None
    tree = CliqueTree(cliques, frozenset(edges))
    if _separator_sizes(cliques, occurrences, tree.edges, path=True) is None:
        raise InvariantError("swept tree fails the clique path tree check")
    return tree
