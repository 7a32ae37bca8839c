"""Recognition of path graphs and directed path graphs with certificates."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .attach import AttachednessGraph, quotient
from .chordal import CliqueIndex, HoleCertificate, _index_or_hole, _tree_adj
from .coloring import (
    Refutation, Skeleton, WeakColoring, _two_color_member, _weak_coloring, skeleton
)
from .decompose import Decomposition, _decomposition, _separators
from .errors import InvariantError
from .graphs import Graph, VertexSet
from .obstructions import Obstruction, refutation_to_obstruction

NOT_CHORDAL = "NOT_CHORDAL"
PATH_GRAPH = "PATH_GRAPH"
NOT_PATH_GRAPH = "NOT_PATH_GRAPH"
DIRECTED_PATH_GRAPH = "DIRECTED_PATH_GRAPH"
NOT_DIRECTED_PATH_GRAPH = "NOT_DIRECTED_PATH_GRAPH"


@dataclass(frozen=True)
class SeparatorReport:
    """Analysis of one clique separator Q, in the input graph's vertex ids,
    connected or not: q is Q, as is decomposition.q. vertex_map is always
    None; no report is in other ids.
    """

    decomposition: Decomposition
    attachedness: AttachednessGraph
    skeleton: Skeleton
    coloring: WeakColoring | None = None
    refutation: Refutation | None = None
    obstruction: Obstruction | None = None
    vertex_map: VertexSet | None = None

    @property
    def q(self) -> VertexSet:
        return self.decomposition.q


@dataclass(frozen=True)
class Verdict:
    """A path verdict, its status read off the separators of three or more
    parts alone, as two always color. _found holds each separator's clique
    index in scan order, _wide the report of each of three or more parts by
    that index; reports is built once, on first read, a two-part separator's
    by the same path (_report), decomposed on _index, the one chordal
    structure the verdict keeps."""

    status: str
    hole: HoleCertificate | None
    _found: tuple[int, ...] = ()
    _wide: dict[int, SeparatorReport] = field(default_factory=dict, hash=False)
    _index: CliqueIndex | None = field(default=None, repr=False, compare=False)

    @property
    def is_path_graph(self) -> bool:
        return self.status == PATH_GRAPH

    @cached_property
    def reports(self) -> tuple[SeparatorReport, ...]:
        return tuple(
            self._wide.get(qi) or _report(_decomposition(self._index, qi)) for qi in self._found
        )


@dataclass(frozen=True)
class DirectedVerdict:
    status: str
    hole: HoleCertificate | None
    q: VertexSet | None = None              # failing separator
    odd_cycle: tuple[int, ...] | None = None  # class ids at that separator

    @property
    def is_directed_path_graph(self) -> bool:
        return self.status == DIRECTED_PATH_GRAPH


def _report(dec: Decomposition) -> SeparatorReport:
    """The report of one separator: its parts quotiented into the
    attachedness graph, that graph's skeleton, and its weak coloring, or the
    refutation and its obstruction."""
    m = quotient(dec)
    s = skeleton(m)
    res = _weak_coloring(m, s)
    if isinstance(res, Refutation):
        return SeparatorReport(dec, m, s, None, res, refutation_to_obstruction(m, s, res))
    return SeparatorReport(dec, m, s, res)


def recognize_path_graph(g: Graph) -> Verdict:
    """Certified recognition: hole, per-separator weak colorings, or a refuted
    separator with its colored obstruction.

    A graph is a path graph exactly when all its components are; the
    separators of a disconnected input are taken component by component, in
    one scan that reports those of three or more parts, up to the first
    refuted one, and records those of two by clique index only.
    """
    index = _index_or_hole(g)
    if isinstance(index, HoleCertificate):
        return Verdict(NOT_CHORDAL, index)
    found: list[int] = []
    wide: dict[int, SeparatorReport] = {}
    for qi in _separators(index):
        found.append(qi)
        if index.tour.parts[qi] > 2:
            wide[qi] = r = _report(_decomposition(index, qi))
            if r.refutation is not None:
                return Verdict(NOT_PATH_GRAPH, None, tuple(found), wide, index)
    return Verdict(PATH_GRAPH, None, tuple(found), wide, index)


def _first_odd_cycle(
    quotients: Iterable[tuple[VertexSet, AttachednessGraph]]
) -> DirectedVerdict:
    """The directed verdict of a chordal graph from its (q, quotient) pairs
    in separator order: refuted at the first odd cycle in an antipodal graph
    over classes."""
    for q, m in quotients:
        adj = _tree_adj(m.size, m.antipodal)
        res = _two_color_member(adj, range(m.size), {}, 0, 1)
        if isinstance(res, tuple):
            return DirectedVerdict(
                status=NOT_DIRECTED_PATH_GRAPH, hole=None, q=q, odd_cycle=res[1]
            )
    return DirectedVerdict(status=DIRECTED_PATH_GRAPH, hole=None)


def recognize_directed_path_graph(g: Graph) -> DirectedVerdict:
    """A chordal graph is a directed path graph exactly when every separator's
    antipodality structure is bipartite. A separator with two parts has at
    most two classes and one antipodal pair, so only those with three or
    more are decomposed in full."""
    index = _index_or_hole(g)
    if isinstance(index, HoleCertificate):
        return DirectedVerdict(status=NOT_CHORDAL, hole=index)
    wide = (qi for qi in _separators(index) if index.tour.parts[qi] > 2)
    return _first_odd_cycle(
        (index.cliques[qi], quotient(_decomposition(index, qi))) for qi in wide
    )


def _directed_verdict(verdict: Verdict) -> DirectedVerdict:
    """recognize_directed_path_graph read off a path verdict's reports.

    A 2-coloring of the antipodal graph is a weak coloring, so a refuted
    separator is never bipartite: the first separator with an odd antipodal
    cycle is at or before the last report. Like the standalone scan, this
    one passes over two parts, whose antipodal graph has one edge at most.
    """
    if verdict.status == NOT_CHORDAL:
        return DirectedVerdict(status=NOT_CHORDAL, hole=verdict.hole)
    directed = _first_odd_cycle((r.q, r.attachedness) for r in verdict._wide.values())
    if verdict.status == NOT_PATH_GRAPH and directed.q is None:
        raise InvariantError("refuted separator has a bipartite antipodal graph")
    return directed
