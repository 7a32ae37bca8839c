"""Recognition of path graphs and directed path graphs with certificates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

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
    _weak_coloring,
    skeleton,
)
from .decompose import Decomposition, decomposition
from .errors import InvariantError
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
        res = _weak_coloring(m, s)
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


def _recognize(g: Graph) -> tuple[Verdict, CliqueIndex | None]:
    """recognize_path_graph, plus the clique index it built (None for a hole)."""
    res = peo_or_hole(g)
    if isinstance(res, HoleCertificate):
        return Verdict(status=NOT_CHORDAL, hole=res, reports=()), None
    index = clique_index(g, res.order)
    all_reports: list[SeparatorReport] = []
    for sub, idmap, sub_index in component_indices(g, index):
        reports, ok = _component_reports(sub, sub_index, idmap)
        all_reports.extend(reports)
        if not ok:
            return Verdict(NOT_PATH_GRAPH, None, tuple(all_reports)), index
    return Verdict(PATH_GRAPH, None, tuple(all_reports)), index


def recognize_path_graph(g: Graph) -> Verdict:
    """Certified recognition: hole, per-separator weak colorings, or a refuted
    separator with its colored obstruction.

    Disconnected inputs are analyzed component by component (a graph is a path
    graph exactly when all its components are).
    """
    return _recognize(g)[0]


def _first_odd_cycle(
    quotients: Iterable[tuple[VertexSet, AttachednessGraph]]
) -> DirectedVerdict:
    """The directed verdict of a chordal graph from its (global q, quotient)
    pairs in separator order: refuted at the first odd cycle in an antipodal
    graph over classes."""
    for q, m in quotients:
        res = _two_color_member(m, tuple(range(m.size)), {}, 0, 1)
        if isinstance(res, tuple):
            return DirectedVerdict(
                status=NOT_DIRECTED_PATH_GRAPH, hole=None, q=q, odd_cycle=res[1]
            )
    return DirectedVerdict(status=DIRECTED_PATH_GRAPH, hole=None)


def recognize_directed_path_graph(g: Graph) -> DirectedVerdict:
    """A chordal graph is a directed path graph exactly when every separator's
    antipodality structure is bipartite."""
    res = peo_or_hole(g)
    if isinstance(res, HoleCertificate):
        return DirectedVerdict(status=NOT_CHORDAL, hole=res)
    return _first_odd_cycle(
        (_global_q(dec.q, idmap), quotient(dec))
        for sub, idmap, index in component_indices(g, clique_index(g, res.order))
        for dec in _decompositions(sub, index)
    )


def _directed_verdict(verdict: Verdict) -> DirectedVerdict:
    """recognize_directed_path_graph read off a path verdict's reports.

    A 2-coloring of the antipodal graph is a weak coloring, so a refuted
    separator is never bipartite: the first separator with an odd antipodal
    cycle is at or before the last report, and the scan matches the
    standalone one.
    """
    if verdict.status == NOT_CHORDAL:
        return DirectedVerdict(status=NOT_CHORDAL, hole=verdict.hole)
    directed = _first_odd_cycle((r.q, r.attachedness) for r in verdict.reports)
    if verdict.status == NOT_PATH_GRAPH and directed.q is None:
        raise InvariantError("refuted separator has a bipartite antipodal graph")
    return directed
