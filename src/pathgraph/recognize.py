"""Recognition of path graphs and directed path graphs with certificates."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterable, Iterator

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
from .decompose import Decomposition, _decompositions
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
    return SeparatorReport(dec.q, dec, m, s, _checked(m, s, f, _tree_adj(m.size, m.antipodal)))


def _reports(index: CliqueIndex) -> Iterator[SeparatorReport]:
    """Per-separator reports of a chordal graph, up to and including the first
    refuted separator."""
    for dec in _decompositions(index):
        if dec.size == 2:
            yield _two_part_report(dec)
            continue
        m = quotient(dec)
        s = skeleton(m)
        res = _weak_coloring(m, s)
        if isinstance(res, Refutation):
            yield SeparatorReport(dec.q, dec, m, s, None, res, refutation_to_obstruction(m, s, res))
            return
        yield SeparatorReport(dec.q, dec, m, s, res)


def _recognize(g: Graph) -> tuple[Verdict, CliqueIndex | None]:
    """recognize_path_graph, plus the clique index it built (None for a hole)."""
    index = _index_or_hole(g)
    if isinstance(index, HoleCertificate):
        return Verdict(status=NOT_CHORDAL, hole=index, reports=()), None
    reports = tuple(_reports(index))
    refuted = bool(reports) and reports[-1].refutation is not None
    return Verdict(NOT_PATH_GRAPH if refuted else PATH_GRAPH, None, reports), index


def recognize_path_graph(g: Graph) -> Verdict:
    """Certified recognition: hole, per-separator weak colorings, or a refuted
    separator with its colored obstruction.

    A graph is a path graph exactly when all its components are; the
    separators of a disconnected input are taken component by component.
    """
    return _recognize(g)[0]


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
    return _first_odd_cycle((dec.q, quotient(dec)) for dec in _decompositions(index, 3))


def _directed_verdict(verdict: Verdict) -> DirectedVerdict:
    """recognize_directed_path_graph read off a path verdict's reports.

    A 2-coloring of the antipodal graph is a weak coloring, so a refuted
    separator is never bipartite: the first separator with an odd antipodal
    cycle is at or before the last report. Like the standalone scan, this
    one passes over two parts, whose antipodal graph has one edge at most.
    """
    if verdict.status == NOT_CHORDAL:
        return DirectedVerdict(status=NOT_CHORDAL, hole=verdict.hole)
    wide = (r for r in verdict.reports if r.decomposition.size > 2)
    directed = _first_odd_cycle((r.q, r.attachedness) for r in wide)
    if verdict.status == NOT_PATH_GRAPH and directed.q is None:
        raise InvariantError("refuted separator has a bipartite antipodal graph")
    return directed
