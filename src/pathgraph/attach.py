"""Attachedness, antipodality and dominance between separated parts, and the
quotient structure modulo mutual dominance."""

from __future__ import annotations

from dataclasses import dataclass

from .decompose import Decomposition, GammaComponent
from .errors import InvariantError
from .graphs import ANTIPODAL, DOMINANCE, EdgeColoredGraph, VertexSet


def attached(a: GammaComponent, b: GammaComponent) -> bool:
    """Some trace of one part intersects some trace of the other."""
    return any(set(t) & set(s) for t in a.traces for s in b.traces)


def dominates(a: GammaComponent, b: GammaComponent) -> bool:
    """a <= b: attached, and every trace of b either contains all traces of a
    or is disjoint from all of them."""
    return attached(a, b) and _nests(a, b)


def _nests(a: GammaComponent, b: GammaComponent) -> bool:
    """Every trace of b either contains all traces of a or is disjoint from
    all of them: dominance, for a pair already known to be attached. A trace
    contains or misses all of a's traces exactly when it contains or misses
    their union."""
    union = set().union(*a.traces)
    return all(union.issubset(s) or union.isdisjoint(s) for s in b.traces)


def antipodal(a: GammaComponent, b: GammaComponent) -> bool:
    """Attached, but neither part dominates the other.

    Whenever some trace of a and some trace of b intersect without nesting
    the pair is antipodal; the converse can fail for parts whose trace sets
    interleave (a single trace strictly between two nested traces of the
    other part), which are antipodal despite all trace pairs nesting.
    """
    if a.index == b.index:
        return False
    return attached(a, b) and not dominates(a, b) and not dominates(b, a)


@dataclass(frozen=True)
class AttachednessGraph:
    """Quotient of the parts modulo mutual dominance, with colored relations.

    Vertices are class ids 0..s-1, ordered by smallest original part index;
    gammas[i] is the representative part (smallest index member) of class i.
    dominance_order holds strict pairs (a, b) meaning class a is dominated by b.
    neighbor_map sends v in Q to the classes with v in some trace.
    """

    q: VertexSet
    gammas: tuple[GammaComponent, ...]
    class_members: tuple[tuple[int, ...], ...]
    edges: EdgeColoredGraph
    dominance_order: frozenset[tuple[int, int]]
    neighbor_map: dict[int, tuple[int, ...]]

    @property
    def size(self) -> int:
        return len(self.gammas)

    def attached(self, a: int, b: int) -> bool:
        return self.edges.has_edge(a, b)

    def is_antipodal(self, a: int, b: int) -> bool:
        return a != b and self.edges.color_of(a, b) == ANTIPODAL

    def dominated_by(self, a: int, b: int) -> bool:
        """Strict dominance between distinct classes: a <= b."""
        return (a, b) in self.dominance_order


def is_neighboring_set(m: AttachednessGraph, classes: tuple[int, ...]) -> int | None:
    """Smallest v in Q whose neighboring classes include all the given ones."""
    want = set(classes)
    for v in m.q:
        if want <= set(m.neighbor_map[v]):
            return v
    return None


def quotient(dec: Decomposition) -> AttachednessGraph:
    """Build the attachedness graph over dominance classes.

    Every relation reads only trace sets, and two parts dominate each other
    exactly when both have one and the same trace: if a <= b and b <= a, a
    trace t of a meeting some trace s of b holds s, s holds t, and any other
    trace of a lies in s, so meets b and equals t. The classes are therefore
    the parts grouped by their single trace, and a part with two or more
    traces is a class of its own. Classes are related through their first
    members, and only when they share a Q vertex, which makes them attached;
    an attached pair that nests neither way is antipodal, as `antipodal`
    defines it. A nesting both ways across two classes, or a dominance that
    is not transitive, raises InvariantError.
    """
    classes: dict[object, list[int]] = {}
    for p in dec.gammas:
        key = p.traces if len(p.traces) == 1 else p.index
        classes.setdefault(key, []).append(p.index)
    members = list(classes.values())
    assigned = {i: c for c, mem in enumerate(members) for i in mem}
    reps = [dec.gammas[mem[0]] for mem in members]
    nmap = {v: tuple(sorted({assigned[i] for i in dec.neighbor_map[v]})) for v in dec.q}

    a_edges = set()
    d_edges = set()
    order = set()
    # up[c]: bitmask of the classes strictly above c
    up = [0] * len(reps)
    for ci, a in enumerate(reps):
        near = {cj for t in a.traces for v in t for cj in nmap[v] if cj > ci}
        for cj in near:
            b = reps[cj]
            ab, ba = _nests(a, b), _nests(b, a)
            if ab and ba:
                raise InvariantError(f"classes {ci} and {cj} dominate each other")
            if ab or ba:
                lo, hi = (ci, cj) if ab else (cj, ci)
                d_edges.add((ci, cj))
                order.add((lo, hi))
                up[lo] |= 1 << hi
            else:
                a_edges.add((ci, cj))

    # transitive: every class above hi is above each lo below hi
    for lo, hi in order:
        if up[hi] & ~up[lo]:
            raise InvariantError("dominance is not transitive")

    return AttachednessGraph(
        q=dec.q,
        gammas=tuple(reps),
        class_members=tuple(map(tuple, members)),
        edges=EdgeColoredGraph(len(reps), frozenset(a_edges), frozenset(d_edges)),
        dominance_order=frozenset(order),
        neighbor_map=nmap,
    )
