"""Seeded generators: path graphs with host realizations, chordal graphs, and
the hub family of non-path chordal graphs."""

from __future__ import annotations

from typing import Iterable

from .chordal import _preorder, _tree_adj
from .errors import GenerationError, InputError
from .graphs import Graph, _int, _norm_edge, _within_limit, is_connected
from .oracle import _decode_pruefer
from .realize import HostRealization

_MASK64 = (1 << 64) - 1
_MAX_RESAMPLES = 64


class SplitMix64:
    """Tiny deterministic RNG (SplitMix64), so seeds mean the same thing
    everywhere, independent of interpreter version."""

    def __init__(self, seed: int):
        self.state = _int(seed, "seed") & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        return self.next_u64() % n


def _random_tree(rng: SplitMix64, m: int) -> list[tuple[int, int]]:
    if m <= 1:
        return []
    seq = [rng.randrange(m) for _ in range(m - 2)]
    return _decode_pruefer(seq, m)


def _climb(parent: list[int], depth: list[int], a: int, b: int) -> list[int]:
    """The tree path from a to b: both ends climb by parent pointers, the
    deeper one first, until they meet."""
    up, down = [a], [b]
    while a != b:
        if depth[a] >= depth[b]:
            a = parent[a]
            up.append(a)
        else:
            b = parent[b]
            down.append(b)
    return up + down[-2::-1]  # both lists end at the meeting node


def _meets(m: int, node_sets: list[Iterable[int]]) -> Graph:
    """The intersection graph of node sets over nodes 0..m-1: a vertex's
    neighbours are the union of the vertices through each of its nodes,
    itself left out. Costs the sum over nodes of the number of sets through
    them squared, in C, with no pairwise scan and no edge list."""
    through: list[list[int]] = [[] for _ in range(m)]
    for v, nodes in enumerate(node_sets):
        for x in nodes:
            through[x].append(v)
    adj = []
    for v, nodes in enumerate(node_sets):
        nbrs = set().union(*map(through.__getitem__, nodes))
        nbrs.discard(v)
        adj.append(frozenset(nbrs))
    return Graph(len(node_sets), tuple(adj))


def gen_path_graph(
    n_tree_nodes: int, n_paths: int, seed: int
) -> tuple[Graph, HostRealization]:
    """A connected path graph sampled as paths of a random host tree.

    Returns the graph together with the realization that produced it.
    Resamples until the intersection graph is connected. Each sample costs
    the tree, its paths' lengths and one set union per path (see _meets).
    """
    if _int(n_tree_nodes, "tree node count") < 1 or _int(n_paths, "path count") < 1:
        raise InputError("gen_path_graph needs at least one tree node and one path")
    _within_limit(n_tree_nodes, "tree node count")
    _within_limit(n_paths, "path count")
    rng = SplitMix64(seed)
    for _ in range(_MAX_RESAMPLES):
        edges = _random_tree(rng, n_tree_nodes)
        order, parent = _preorder(n_tree_nodes, edges)
        depth = [0] * n_tree_nodes
        for x in order[1:]:
            depth[x] = depth[parent[x]] + 1
        paths = []
        for _ in range(n_paths):
            a = rng.randrange(n_tree_nodes)
            b = rng.randrange(n_tree_nodes)
            paths.append(_climb(parent, depth, a, b))
        g = _meets(n_tree_nodes, paths)
        if is_connected(g):
            host = HostRealization(
                host_n=n_tree_nodes,
                host_edges=frozenset(_norm_edge(a, b) for a, b in edges),
                paths=tuple(tuple(p) for p in paths),
            )
            return g, host
    raise GenerationError(
        f"no connected sample in {_MAX_RESAMPLES} tries "
        f"(tree nodes {n_tree_nodes}, paths {n_paths}, seed {seed})"
    )


def gen_chordal(n: int, seed: int) -> Graph:
    """A connected chordal graph on n vertices, sampled as subtrees of a
    random host tree."""
    if _int(n, "vertex count") < 1:
        raise InputError("gen_chordal needs n >= 1")
    _within_limit(n, "vertex count")
    rng = SplitMix64(seed)
    m = n
    for _ in range(_MAX_RESAMPLES):
        edges = _random_tree(rng, m)
        adj = _tree_adj(m, edges)
        subtrees = []
        for _ in range(n):
            size = 1 + rng.randrange(m)
            start = rng.randrange(m)
            nodes = {start}
            frontier = list(adj[start])
            while len(nodes) < size and frontier:
                pick = frontier.pop(rng.randrange(len(frontier)))
                nodes.add(pick)
                for w in adj[pick]:
                    if w not in nodes:
                        frontier.append(w)
            subtrees.append(nodes)
        g = _meets(m, subtrees)
        if is_connected(g):
            return g
    raise GenerationError(
        f"no connected sample in {_MAX_RESAMPLES} tries (n {n}, seed {seed})"
    )


def k4_hub(t: int = 4) -> Graph:
    """The complete graph on t hub vertices with a pendant triangle on each
    pair {first, i}; chordal but not a path graph for t >= 4."""
    if _int(t, "hub size") < 3:
        raise InputError("k4_hub needs t >= 3")
    n = t + (t - 1)
    _within_limit(n, "vertex count")
    edges = [(i, j) for i in range(t) for j in range(i + 1, t)]
    labels = [str(i + 1) for i in range(t)]
    for i in range(1, t):
        p = t - 1 + i
        edges.append((0, p))
        edges.append((i, p))
        labels.append(chr(ord("a") + i - 1))
    return Graph.from_edges(n, edges, labels=tuple(labels))
