"""Recognition of path graphs and directed path graphs with certificates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .attach import AttachednessGraph, quotient
from .chordal import (
    CliqueIndex,
    HoleCertificate,
    clique_index,
    component_indices,
    peo_or_hole,
)
from .coloring import (
    Refutation,
    Skeleton,
    WeakColoring,
    _two_color_member,
    skeleton,
    weak_coloring,
)
from .decompose import Decomposition, decomposition
from .graphs import Graph, VertexSet, components_without, vset
from .obstructions import Obstruction, refutation_to_obstruction

NOT_CHORDAL = "NOT_CHORDAL"
PATH_GRAPH = "PATH_GRAPH"
NOT_PATH_GRAPH = "NOT_PATH_GRAPH"
DIRECTED_PATH_GRAPH = "DIRECTED_PATH_GRAPH"
NOT_DIRECTED_PATH_GRAPH = "NOT_DIRECTED_PATH_GRAPH"


@dataclass(frozen=True)
class SeparatorReport:
    """Analysis of one clique separator.

    All structures use the analyzed graph's local vertex ids; vertex_map sends
    those to the input graph's ids when a component was analyzed on its own
    (it is None when the input was connected). The q field is always global.
    """

    q: VertexSet
    decomposition: Decomposition
    attachedness: AttachednessGraph
    skeleton: Skeleton
    coloring: WeakColoring | None = None
    refutation: Refutation | None = None
    obstruction: Obstruction | None = None
    vertex_map: VertexSet | None = None


@dataclass(frozen=True)
class Verdict:
    status: str
    hole: HoleCertificate | None
    reports: tuple[SeparatorReport, ...]

    @property
    def is_path_graph(self) -> bool:
        return self.status == PATH_GRAPH


@dataclass(frozen=True)
class DirectedVerdict:
    status: str
    hole: HoleCertificate | None
    q: VertexSet | None = None              # failing separator, global ids
    odd_cycle: tuple[int, ...] | None = None  # class ids at that separator

    @property
    def is_directed_path_graph(self) -> bool:
        return self.status == DIRECTED_PATH_GRAPH


def _global_q(q: VertexSet, idmap: VertexSet | None) -> VertexSet:
    return q if idmap is None else vset(idmap[v] for v in q)


def _decompositions(g: Graph, index: CliqueIndex) -> Iterator[Decomposition]:
    """Decompositions of a connected chordal graph at its clique separators,
    in canonical order, each computed only when the caller gets to it."""
    for q in index.cliques:
        parts = components_without(g, q)
        if len(parts) >= 2:
            yield decomposition(index, q, parts)


def _component_reports(
    g: Graph, index: CliqueIndex, idmap: VertexSet | None
) -> tuple[list[SeparatorReport], bool]:
    """Per-separator reports for one connected chordal graph.

    Stops at the first refuted separator; the boolean says whether all passed.
    """
    reports: list[SeparatorReport] = []
    for dec in _decompositions(g, index):
        m = quotient(dec)
        s = skeleton(m)
        res = weak_coloring(m)
        refuted = isinstance(res, Refutation)
        reports.append(
            SeparatorReport(
                q=_global_q(dec.q, idmap),
                decomposition=dec,
                attachedness=m,
                skeleton=s,
                coloring=None if refuted else res,
                refutation=res if refuted else None,
                obstruction=refutation_to_obstruction(m, s, res) if refuted else None,
                vertex_map=idmap,
            )
        )
        if refuted:
            return reports, False
    return reports, True


def recognize_path_graph(g: Graph) -> Verdict:
    """Certified recognition: hole, per-separator weak colorings, or a refuted
    separator with its colored obstruction.

    Disconnected inputs are analyzed component by component (a graph is a path
    graph exactly when all its components are).
    """
    res = peo_or_hole(g)
    if isinstance(res, HoleCertificate):
        return Verdict(status=NOT_CHORDAL, hole=res, reports=())
    all_reports: list[SeparatorReport] = []
    for sub, idmap, index in component_indices(g, clique_index(g, res.order)):
        reports, ok = _component_reports(sub, index, idmap)
        all_reports.extend(reports)
        if not ok:
            return Verdict(NOT_PATH_GRAPH, None, tuple(all_reports))
    return Verdict(PATH_GRAPH, None, tuple(all_reports))


def _odd_antipodal_cycle(m: AttachednessGraph) -> tuple[int, ...] | None:
    """Odd cycle in the antipodal graph over classes, or None when bipartite."""
    res = _two_color_member(m, tuple(range(m.size)), {}, 0, 1)
    return res[1] if isinstance(res, tuple) else None


def recognize_directed_path_graph(g: Graph) -> DirectedVerdict:
    """A chordal graph is a directed path graph exactly when every separator's
    antipodality structure is bipartite."""
    res = peo_or_hole(g)
    if isinstance(res, HoleCertificate):
        return DirectedVerdict(status=NOT_CHORDAL, hole=res)
    for sub, idmap, index in component_indices(g, clique_index(g, res.order)):
        for dec in _decompositions(sub, index):
            cycle = _odd_antipodal_cycle(quotient(dec))
            if cycle is not None:
                return DirectedVerdict(
                    status=NOT_DIRECTED_PATH_GRAPH,
                    hole=None,
                    q=_global_q(dec.q, idmap),
                    odd_cycle=cycle,
                )
    return DirectedVerdict(status=DIRECTED_PATH_GRAPH, hole=None)
