"""Undirected graphs on dense integer vertex ids, plus two-colored edge graphs.

Vertex sets are canonically represented as strictly increasing tuples of ints.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import AbstractSet, Iterable

from .errors import InputError

VertexSet = tuple[int, ...]

MAX_VERTICES = 4_000_000  # the most a Graph may have: a few input bytes can declare any count

ANTIPODAL = "antipodal"
DOMINANCE = "dominance"


def vset(vertices: Iterable[int]) -> VertexSet:
    """Canonical vertex set: strictly increasing tuple, duplicates dropped."""
    return tuple(sorted(set(vertices)))


def _int(x: int, what: str) -> int:
    """x, which must be an int: a bool or a float equal to an int is an
    InputError, not that int."""
    if type(x) is not int:
        raise InputError(f"{what} {x!r} is not an int")
    return x


def _within_limit(count: int, what: str) -> int:
    """count, refused before any work when more than MAX_VERTICES vertices
    or host nodes would be built."""
    if count > MAX_VERTICES:
        raise InputError(f"{what} {count} is too large: at most {MAX_VERTICES}")
    return count


def _int_vset(vertices: Iterable[int], what: str) -> VertexSet:
    """vset of vertex ids that must each be an int."""
    if not isinstance(vertices, Iterable):
        raise InputError(f"expected {what} ids, got {type(vertices).__name__}")
    return vset(_int(v, what) for v in vertices)


def _graph(g: Graph) -> Graph:
    """g, which must be a Graph: anything else is an InputError."""
    if not isinstance(g, Graph):
        raise InputError(f"expected a Graph, got {type(g).__name__}")
    return g


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    adj: tuple[frozenset[int], ...]
    labels: tuple[str, ...] | None = None

    @staticmethod
    def from_edges(
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: Iterable[str] | None = None,
    ) -> "Graph":
        """Only the vertices an edge touches get a neighbor set; every
        isolated vertex shares one empty frozenset."""
        if type(n) is not int or n < 0:
            raise InputError(f"vertex count must be a nonnegative int, got {n!r}")
        if n > MAX_VERTICES:
            raise InputError(f"vertex count {n} is too large: at most {MAX_VERTICES} vertices")
        nbrs: defaultdict[int, list[int]] = defaultdict(list)
        try:
            for u, v in edges:
                if type(u) is not int or type(v) is not int:
                    raise InputError(f"edge ({u!r}, {v!r}) has an endpoint that is not an int")
                if not (0 <= u < n and 0 <= v < n):
                    raise InputError(f"edge ({u}, {v}) out of range for n={n}")
                if u == v:
                    raise InputError(f"self-loop at vertex {u}")
                nbrs[u].append(v)
                nbrs[v].append(u)
        except (TypeError, ValueError):
            raise InputError("edges must be an iterable of (u, v) pairs") from None
        lab = None
        if labels is not None:
            if isinstance(labels, AbstractSet):  # its order follows the string hash
                raise InputError("labels must be an ordered sequence, not a set")
            lab = tuple(labels) if isinstance(labels, Iterable) else (labels,)
            if not all(isinstance(s, str) for s in lab):
                raise InputError(f"labels must be strings, got {labels!r}")
            if len(lab) != n:
                raise InputError(f"{len(lab)} labels for {n} vertices")
        return _from_lists(n, nbrs, lab)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted."""
        return [(u, v) for u in range((self.n)) for v in sorted(self.adj[u]) if u < v]

    @property
    def num_edges(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Graph(n={self.n}, m={self.num_edges})"


def _from_lists(
    n: int, nbrs: dict[int, list[int]], labels: tuple[str, ...] | None = None
) -> Graph:
    """The graph on 0..n-1 in which v's neighbours are nbrs[v]; a vertex
    missing from nbrs shares one empty set with the others."""
    adj: list[frozenset[int]] = [frozenset()] * n
    for v, ws in nbrs.items():
        adj[v] = frozenset(ws)
    return Graph(n, tuple(adj), labels)


def components_without(g: Graph, removed: Iterable[int]) -> list[VertexSet]:
    """Connected components of g minus the removed vertices, each a canonical
    vertex set, sorted by smallest member; one traversal."""
    adj = g.adj
    unseen = set(range(g.n)).difference(removed)
    comps: list[VertexSet] = []
    while unseen:
        s = min(unseen)
        unseen.discard(s)
        part = [s]
        for u in part:  # breadth-first: the list grows while it is read
            new = adj[u] & unseen
            if new:
                unseen -= new
                part.extend(new)
        comps.append(vset(part))
    return comps


def connected_components(g: Graph) -> list[VertexSet]:
    """Connected components, each a canonical vertex set, sorted by smallest member."""
    return components_without(_graph(g), ())


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


def is_clique(g: Graph, vertices: Iterable[int]) -> bool:
    """True when the given vertices are pairwise adjacent."""
    vs = vset(vertices)
    return all(g.has_edge(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :])


def graph_plus(g: Graph) -> Graph:
    """Pendant extension: one new degree-1 vertex n+i attached to each vertex i."""
    edges = _graph(g).edges() + [(i, g.n + i) for i in range(g.n)]
    labels = None
    if g.labels is not None:
        labels = tuple(g.labels) + tuple(f"{lab}+" for lab in g.labels)
    return Graph.from_edges(2 * g.n, edges, labels)


@dataclass(frozen=True)
class EdgeColoredGraph:
    """Graph whose every edge carries exactly one of two colors."""

    n: int
    antipodal: frozenset[tuple[int, int]]
    dominance: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for name, es in (("antipodal", self.antipodal), ("dominance", self.dominance)):
            for u, v in es:
                if not (0 <= u < v < self.n):
                    raise InputError(f"bad {name} edge ({u}, {v}) for n={self.n}")
        if self.antipodal & self.dominance:
            raise InputError("an edge cannot carry both colors")

    def color_of(self, u: int, v: int) -> str | None:
        e = _norm_edge(u, v)
        if e in self.antipodal:
            return ANTIPODAL
        if e in self.dominance:
            return DOMINANCE
        return None

    def has_edge(self, u: int, v: int) -> bool:
        e = _norm_edge(u, v)
        return e in self.antipodal or e in self.dominance

    def edges(self) -> list[tuple[int, int, str]]:
        """All edges as (u, v, color) with u < v, sorted by endpoint pair."""
        out = [(u, v, ANTIPODAL) for u, v in self.antipodal]
        out += [(u, v, DOMINANCE) for u, v in self.dominance]
        return sorted(out)
