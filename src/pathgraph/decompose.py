"""Decomposition of a chordal graph along maximal clique separators, read off
the clique forest of its search."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import compress, filterfalse
from operator import or_
from typing import Iterable, Iterator, Sequence

from .chordal import CliqueIndex, _connected_index
from .errors import PreconditionError
from .graphs import Graph, VertexSet, _int_vset, is_clique


@dataclass(eq=False, repr=False, slots=True)
class GammaComponent:
    """One separated part: a component C of G - Q.

    relevant_cliques are the maximal cliques of G[C + Q] which meet the
    separator but do not equal it; masks are their traces, their
    intersections with the separator q, deduplicated, with bit i set for
    q[i]. smallest is C's smallest vertex. C's other cliques, those that
    miss Q, fill its ranges of positions in the preorder of the clique
    forest of clique_index (clique_index.tour): ranges holds the bounds a,
    b of each range a to b - 1 one after the other, in one flat int tuple.
    The sorted vertex tuples traces and C itself, component, are derived on
    read, C from its relevant cliques and ranges: io's full documents read
    both, recognition and realization neither.
    """

    index: int
    relevant_cliques: tuple[VertexSet, ...] = ()
    smallest: int | None = None
    q: VertexSet = ()
    masks: tuple[int, ...] = ()
    ranges: tuple[int, ...] = ()
    clique_index: CliqueIndex | None = None
    _traces: tuple[VertexSet, ...] | None = field(default=None, init=False)

    @property
    def traces(self) -> tuple[VertexSet, ...]:
        if self._traces is None:
            self._traces = tuple(sorted(tuple(_select(self.q, s)) for s in self.masks))
        return self._traces

    @property
    def component(self) -> VertexSet:
        found = set().union(*self.relevant_cliques)
        index = self.clique_index
        for a, b in zip(self.ranges[::2], self.ranges[1::2]):
            found.update(*map(index.cliques.__getitem__, index.tour.nodes[a:b]))
        return tuple(sorted(found.difference(self.q)))


def _select(items: Iterable, mask: int) -> Iterator:
    """The items at the positions of the set bits of mask, in order."""
    return compress(items, map("1".__eq__, reversed(f"{mask:b}")))


def _neighbor_map(q: VertexSet, masks: Sequence[int]) -> dict[int, tuple[int, ...]]:
    """v in q -> the positions k, ascending, with q's bit of v set in masks[k]."""
    return {v: tuple(k for k, s in enumerate(masks) if s >> i & 1) for i, v in enumerate(q)}


@dataclass(frozen=True)
class Decomposition:
    """All parts of a graph relative to one maximal clique separator."""

    q: VertexSet
    gammas: tuple[GammaComponent, ...]

    @property
    def size(self) -> int:
        return len(self.gammas)

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


def _trace_masks(index: CliqueIndex, qi: int) -> dict[int, int]:
    """The cliques that meet Q = cliques[qi], each with its trace mask (bit i
    for q[i]); work: Q's vertices' cliques."""
    mask: dict[int, int] = {}
    bit = 1
    for v in index.cliques[qi]:
        for z in index.occurrences[v]:
            mask[z] = mask.get(z, 0) | bit
        bit <<= 1
    return mask


def _cuts(index: CliqueIndex, mask: dict[int, int]) -> set[int]:
    """The cliques of mask (see _trace_masks) below a tree edge whose
    separator lies inside Q, told by the masks of the edge's two ends."""
    parent, seps = index.parent, index.seps
    return {
        z for z, m in mask.items()
        if parent[z] >= 0 and len(seps[z]) == (m & mask.get(parent[z], 0)).bit_count()
    }


def _decomposition(index: CliqueIndex, qi: int) -> Decomposition:
    """The decomposition at the maximal clique separator Q = cliques[qi].

    A vertex outside Q has its cliques in one subtree that avoids Q, and two
    cliques adjacent in the tree share a vertex outside Q unless their
    separator lies inside Q. So the parts of G - Q are the regions of the
    tree cut at Q and at every edge whose separator lies inside Q. A
    separator is never empty, so every cut falls between cliques that meet
    Q, which form a subtree S around Q. The maximal cliques of G[C + Q]
    other than Q are G's cliques holding a vertex of C, so a region's
    relevant cliques are its cliques in S. Its other cliques hang below
    those, in the preorder ranges each of them leaves between the subtrees
    of its children in S, plus, for the region holding S's top, the two
    ranges of Q's tree outside the top's subtree. A part's smallest vertex
    is the least of its relevant cliques' first vertices outside Q and one
    range minimum per range. The work is the size of the cliques that meet
    Q: a clique of S with many children outside S leaves them one range.
    """
    cliques, parent, tour = index.cliques, index.parent, index.tour
    pos, end = tour.pos, tour.end
    q = cliques[qi]
    qs = set(q)
    mask = _trace_masks(index, qi)
    near = sorted(mask, key=pos.__getitem__)
    cut = _cuts(index, mask)
    region = {qi: -1}
    held: list[list[int]] = []  # each region's cliques that meet Q
    inner: defaultdict[int, list[int]] = defaultdict(list)  # children that meet Q, in preorder
    for z in near:
        inner[parent[z]].append(z)
        if z != qi:
            r = region.get(parent[z], -1)
            if r < 0 or z in cut:
                r = len(held)
                held.append([])
            region[z] = r
            held[r].append(z)

    def gaps(a: int, b: int, below: Iterable[int]) -> Iterator[tuple[int, int]]:
        """The positions a to b - 1 less the subtrees of below, as the bounds
        of nonempty ranges."""
        for x in below:
            if a < pos[x]:
                yield a
                yield pos[x]
            a = end[x]
        if a < b:
            yield a
            yield b

    ranges: defaultdict[int, list[int]] = defaultdict(list)  # by region
    for z in near:
        if z != qi and end[z] > pos[z] + 1:
            ranges[region[z]] += gaps(pos[z] + 1, end[z], inner[z])
    top = near[0]
    if top != qi:
        root = tour.root[qi]
        ranges[region[top]] += gaps(pos[root], end[root], (top,))

    # a clique's first vertex outside Q is its smallest
    low = [min(next(filterfalse(qs.__contains__, cliques[z])) for z in zs) for zs in held]
    for r, rs in ranges.items():
        for a, b in zip(rs[::2], rs[1::2]):
            low[r] = min(low[r], tour.least(a, b))
    order = sorted(range(len(held)), key=low.__getitem__)  # part k is region order[k]

    gammas = []
    for k, r in enumerate(order):
        zs = sorted(held[r])
        rel = tuple(map(cliques.__getitem__, zs))
        masks = tuple(dict.fromkeys(map(mask.__getitem__, zs)))
        gammas.append(GammaComponent(k, rel, low[r], q, masks, tuple(ranges.get(r, ())), index))
    return Decomposition(q, tuple(gammas))


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
