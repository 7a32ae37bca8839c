"""Decomposition of a chordal graph along maximal clique separators, read off
the clique forest of its search."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import compress, filterfalse, repeat
from operator import or_
from typing import Iterable, Iterator, Sequence

from .chordal import CliqueIndex, _connected_index
from .errors import PreconditionError
from .graphs import Graph, VertexSet, _int_vset, is_clique


class GammaComponent:
    """One separated part: a component C of G - Q.

    relevant_cliques are the maximal cliques of G[C + Q] which meet the
    separator but do not equal it; masks are their traces, their
    intersections with the separator q, deduplicated, with bit i set for
    q[i]. smallest is C's smallest vertex. The sorted vertex tuples traces
    and C itself, component, are derived on read, C from the runs its
    decomposition's parts share: io's full documents read both, recognition
    and realization neither.
    """

    __slots__ = ("index", "relevant_cliques", "smallest", "q", "masks", "_traces", "_runs")

    def __init__(
        self,
        index: int,
        relevant_cliques: tuple[VertexSet, ...] = (),
        smallest: int | None = None,
        runs: _Runs | None = None,
        q: VertexSet = (),
        masks: tuple[int, ...] = (),
    ) -> None:
        self.index = index
        self.relevant_cliques = relevant_cliques
        self.smallest = smallest
        self.q = q
        self.masks = masks
        self._traces = None
        self._runs = runs

    @property
    def traces(self) -> tuple[VertexSet, ...]:
        if self._traces is None:
            self._traces = tuple(sorted(tuple(_select(self.q, s)) for s in self.masks))
        return self._traces

    @property
    def component(self) -> VertexSet:
        return self._runs.vertices(self.index)


def _select(items: Iterable, mask: int) -> Iterator:
    """The items at the positions of the set bits of mask, in order."""
    return compress(items, map("1".__eq__, reversed(f"{mask:b}")))


def _neighbor_map(q: VertexSet, masks: Sequence[int]) -> dict[int, tuple[int, ...]]:
    """v in q -> the positions k, ascending, with q's bit of v set in masks[k]."""
    return {v: tuple(k for k, s in enumerate(masks) if s >> i & 1) for i, v in enumerate(q)}


class _Runs:
    """What the parts of one decomposition share: the positions of the clique
    forest's preorder nodes from starts[i] to starts[i + 1] - 1 lie in part
    labels[i], or in no part for -1, up to the end of Q's tree, the last
    start; the positions are those of index.tour."""

    __slots__ = ("q", "starts", "labels", "index", "_parts")

    def __init__(self, q, starts, labels, index) -> None:
        self.q, self.starts, self.labels, self.index, self._parts = q, starts, labels, index, None

    def vertices(self, k: int) -> VertexSet:
        if self._parts is None:  # all parts at once
            cliques, nodes = self.index.cliques, self.index.tour.nodes
            found = [set() for _ in range(max(self.labels) + 1)]
            for a, b, r in zip(self.starts, self.starts[1:], self.labels):
                if r >= 0:
                    found[r].update(*map(cliques.__getitem__, nodes[a:b]))
            self._parts = [tuple(sorted(f.difference(self.q))) for f in found]
        return self._parts[k]


@dataclass(frozen=True)
class Decomposition:
    """All parts of a graph relative to one maximal clique separator."""

    q: VertexSet
    gammas: tuple[GammaComponent, ...]
    runs: _Runs | None = field(repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.gammas)

    def part_of(self, v: int) -> int:
        """The index of the part holding v, a vertex outside q."""
        runs = self.runs
        index = runs.index
        return runs.labels[bisect_right(runs.starts, index.tour.pos[index.top[v]]) - 1]

    @cached_property
    def neighbor_map(self) -> dict[int, tuple[int, ...]]:
        """v in Q -> the parts with v in some trace."""
        return _neighbor_map(self.q, [reduce(or_, p.masks, 0) for p in self.gammas])


def clique_separators(g: Graph) -> list[VertexSet]:
    """Maximal cliques whose removal disconnects the graph, canonically ordered.

    Requires a connected chordal graph.
    """
    index = _connected_index(g, "clique_separators")
    return [index.cliques[qi] for qi in _separators(index)]


def _separators(index: CliqueIndex) -> Iterator[int]:
    """The clique index of each separator of a chordal graph, a clique Q
    with two or more parts in G - Q by index.tour.parts, component by
    component (by smallest vertex), canonically within each. Q and two parts
    take three cliques, so smaller components are passed over and build no
    tour."""
    for _, nodes in index.components:
        if len(nodes) > 2:
            parts = index.tour.parts
            yield from (qi for qi in nodes if parts[qi] > 1)


def _decomposition(index: CliqueIndex, qi: int) -> Decomposition:
    """The decomposition at the maximal clique separator Q = cliques[qi].

    A vertex outside Q has its cliques in one subtree that avoids Q, and two
    cliques adjacent in the tree share a vertex outside Q unless their
    separator lies inside Q. So the parts of G - Q are the regions of the
    tree cut at Q and at every edge whose separator lies inside Q. A
    separator is never empty, so every cut falls between cliques that meet
    Q, which form a subtree S around Q. The maximal cliques of G[C + Q]
    other than Q are G's cliques holding a vertex of C, so a region's
    relevant cliques are its cliques in S. In preorder, each region is its
    cliques in S, each followed by a run of cliques hanging below it, plus
    the cliques above S when it holds S's top. The runs give each part's
    smallest vertex and, by bisection, the part of any vertex outside Q. The
    work is the size of the cliques that meet Q.
    """
    cliques, parent, tour = index.cliques, index.parent, index.tour
    pos, end, nodes = tour.pos, tour.end, tour.nodes
    q = cliques[qi]
    qs = set(q)
    near = sorted(set().union(*map(index.occurrences.__getitem__, q)), key=pos.__getitem__)
    region = {qi: -1}
    held: list[list[int]] = []  # each region's cliques that meet Q
    for z in near:
        if z != qi:
            r = region.get(parent[z], -1)
            if r < 0 or qs.issuperset(index.seps[z]):
                r = len(held)
                held.append([])
            region[z] = r
            held[r].append(z)

    # the runs: from starts[i] to the next start, positions are in region
    # labels[i]; Q's own position is in none
    outer = region[near[0]]
    last = end[tour.root[qi]]
    starts, labels = [pos[tour.root[qi]]], [outer]
    enclosing: list[int] = []

    def close(limit: int) -> None:
        while enclosing and end[enclosing[-1]] <= limit:
            starts.append(end[enclosing.pop()])
            labels.append(region[enclosing[-1]] if enclosing else outer)

    for z in near:
        close(pos[z])
        starts.append(pos[z])
        labels.append(region[z])
        enclosing.append(z)
    close(last)
    starts.append(last)

    # a clique's first vertex outside Q is its smallest
    low = [min(next(filterfalse(qs.__contains__, cliques[z])) for z in zs) for zs in held]
    for a, b, r in zip(starts, starts[1:], labels):
        if r >= 0 and a < b:
            a += nodes[a] in region
            if a < b:
                low[r] = min(low[r], tour.least(a, b))
    order = sorted(range(len(held)), key=low.__getitem__)  # part k is region order[k]
    rank = {r: k for k, r in enumerate(order)}
    labels = tuple(rank.get(r, -1) for r in labels)
    runs = _Runs(q, tuple(starts), labels, index)

    # a trace's mask is the sum of its vertices' bits, by position in q
    bit = {v: 1 << i for i, v in enumerate(q)}.get
    zeros = repeat(0)
    gammas = []
    for k, r in enumerate(order):
        rel = tuple(map(cliques.__getitem__, sorted(held[r])))
        masks = tuple(dict.fromkeys([sum(map(bit, c, zeros)) for c in rel]))
        gammas.append(GammaComponent(k, rel, low[r], runs, q, masks))
    return Decomposition(q, tuple(gammas), runs)


def gamma_components(g: Graph, q: VertexSet) -> Decomposition:
    """Decompose a connected chordal graph along the maximal clique separator q."""
    index = _connected_index(g, "gamma_components")
    q = _int_vset(q, "separator vertex")
    if q not in index.cliques:
        kind = "maximal clique" if is_clique(g, q) else "clique"
        raise PreconditionError(f"{q} is not a {kind}")
    qi = index.cliques.index(q)
    if index.tour.parts[qi] < 2:
        raise PreconditionError(f"{q} does not separate the graph")
    return _decomposition(index, qi)
