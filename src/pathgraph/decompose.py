"""Decomposition of a chordal graph along maximal clique separators."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .chordal import CliqueIndex, _connected_index
from .errors import PreconditionError
from .graphs import Graph, VertexSet, components_without, is_clique, vset


@dataclass(frozen=True)
class GammaComponent:
    """One separated part: a component C of G - Q.

    relevant_cliques are the maximal cliques of G[C + Q] which meet the
    separator but do not equal it; traces are their intersections with the
    separator, deduplicated.
    """

    index: int
    component: VertexSet
    relevant_cliques: tuple[VertexSet, ...]
    traces: tuple[VertexSet, ...]


@dataclass(frozen=True)
class Decomposition:
    """All parts of a graph relative to one maximal clique separator."""

    q: VertexSet
    gammas: tuple[GammaComponent, ...]
    neighbor_map: dict[int, tuple[int, ...]]  # v in Q -> gammas with v in some trace

    @property
    def size(self) -> int:
        return len(self.gammas)


def clique_separators(g: Graph) -> list[VertexSet]:
    """Maximal cliques whose removal disconnects the graph, canonically ordered.

    Requires a connected chordal graph.
    """
    index = _connected_index(g, "clique_separators")
    return [dec.q for dec in _decompositions(g, index)]


def _decompositions(g: Graph, index: CliqueIndex) -> Iterator[Decomposition]:
    """Decompositions of a chordal graph at its clique separators, component
    by component (by smallest vertex) and in canonical order within each,
    each computed only when the caller gets to it. The parts of G - Q lie in
    Q's own component, so one traversal of that component finds them."""
    for comp, nodes in index.components:
        for i in nodes:
            q = index.cliques[i]
            parts = components_without(g, q, comp)
            if len(parts) >= 2:
                yield decomposition(index, q, parts)


def decomposition(index: CliqueIndex, q: VertexSet, parts: list[VertexSet]) -> Decomposition:
    """Decomposition at the separator q with the given parts, read off the index.

    The maximal cliques of G[C + Q] other than Q are exactly G's maximal
    cliques holding a vertex of C, so the relevant cliques of part C are the
    indexed cliques that meet Q and hold a vertex of C. Such a clique lies in
    C + Q, so any one of its vertices outside Q names its part. O(n + m) per
    separator.
    """
    qs = set(q)
    part_of: dict[int, int] = {}
    for idx, part in enumerate(parts):
        part_of.update(dict.fromkeys(part, idx))
    rel: list[list[VertexSet]] = [[] for _ in parts]
    for ci in sorted({ci for v in q for ci in index.occurrences[v]}):
        k = index.cliques[ci]
        if k != q:
            rel[part_of[next(v for v in k if v not in qs)]].append(k)
    gammas = tuple(
        GammaComponent(
            index=idx,
            component=part,
            relevant_cliques=tuple(rel[idx]),
            traces=tuple(sorted({vset(qs.intersection(k)) for k in rel[idx]})),
        )
        for idx, part in enumerate(parts)
    )

    nmap: dict[int, list[int]] = {v: [] for v in q}
    for gm in gammas:
        for v in {v for t in gm.traces for v in t}:
            nmap[v].append(gm.index)
    return Decomposition(
        q=q, gammas=gammas, neighbor_map={v: tuple(ix) for v, ix in nmap.items()}
    )


def gamma_components(g: Graph, q: VertexSet) -> Decomposition:
    """Decompose a connected chordal graph along the maximal clique separator q."""
    index = _connected_index(g, "gamma_components")
    q = vset(q)
    if q not in index.cliques:
        kind = "maximal clique" if is_clique(g, q) else "clique"
        raise PreconditionError(f"{q} is not a {kind}")
    parts = components_without(g, q)
    if len(parts) < 2:
        raise PreconditionError(f"{q} does not separate the graph")
    return decomposition(index, q, parts)
