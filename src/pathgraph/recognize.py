"""Recognition of path graphs and directed path graphs with certificates."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import or_
from typing import Iterable

from .attach import AttachednessGraph, _nests, quotient
from .chordal import CliqueIndex, HoleCertificate, _index_or_hole, _tree_adj
from .coloring import (
    Refutation,
    Skeleton,
    WeakColoring,
    _checked,
    _two_color_member,
    _weak_coloring,
    skeleton,
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
    parts alone, as two always color. reports is built once, on first read:
    _found holds the kept reports and each two-part separator's clique
    index, whose report, or InvariantError, comes on that read, decomposed
    on _index, the one chordal structure the verdict keeps."""

    status: str
    hole: HoleCertificate | None
    _found: tuple[SeparatorReport | int, ...] = ()
    _index: CliqueIndex | None = field(default=None, repr=False, compare=False)

    @property
    def is_path_graph(self) -> bool:
        return self.status == PATH_GRAPH

    @cached_property
    def reports(self) -> tuple[SeparatorReport, ...]:
        return tuple(
            r if isinstance(r, SeparatorReport)
            else _two_part_report(_decomposition(self._index, r))
            for r in self._found
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


def _two_part_report(dec: Decomposition) -> SeparatorReport:
    """The general path's report at a separator of two parts, read off their
    traces (a refutation names three classes or more): one class if both have
    the same single trace, else a class each, colored 1 if nested, else 1, 2."""
    a, b = dec.gammas
    if len(a.masks) == 1 and a.masks == b.masks:
        m = AttachednessGraph(dec.q, (a,), ((0, 1),), frozenset(), (0,), a.masks)
    else:
        ua, ub = reduce(or_, a.masks), reduce(or_, b.masks)
        ab, ba = ua & ub and _nests(ua, b.masks), ua & ub and _nests(ub, a.masks)
        if ab and ba:
            raise InvariantError("classes 0 and 1 dominate each other")
        anti = frozenset({(0, 1)} if ua & ub and not (ab or ba) else ())
        up = (2, 0) if ab else (0, 1) if ba else (0, 0)
        m = AttachednessGraph(dec.q, (a, b), ((0,), (1,)), anti, up, (ua, ub))
    upper = tuple(c for c, x in enumerate(m.up) if not x)
    f = {c: min(c + 1, len(upper)) for c in range(m.size)}  # D_i in color i
    d_single = (tuple(f),) if len(upper) == 1 else ((0,), (1,))
    s = Skeleton(upper, d_single, {}, (), {c: ("D", i) for c, i in f.items()})
    return SeparatorReport(dec, m, s, _checked(m, s, f, _tree_adj(m.size, m.antipodal)))


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
    found: list[SeparatorReport | int] = []
    for qi in _separators(index):
        if index.tour.parts[qi] == 2:
            found.append(qi)
            continue
        dec = _decomposition(index, qi)
        m = quotient(dec)
        s = skeleton(m)
        res = _weak_coloring(m, s)
        if isinstance(res, Refutation):
            found.append(SeparatorReport(dec, m, s, None, res, refutation_to_obstruction(m, s, res)))
            return Verdict(NOT_PATH_GRAPH, None, tuple(found), index)
        found.append(SeparatorReport(dec, m, s, res))
    return Verdict(PATH_GRAPH, None, tuple(found), index)


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
    wide = (r for r in verdict._found if isinstance(r, SeparatorReport))
    directed = _first_odd_cycle((r.q, r.attachedness) for r in wide)
    if verdict.status == NOT_PATH_GRAPH and directed.q is None:
        raise InvariantError("refuted separator has a bipartite antipodal graph")
    return directed
