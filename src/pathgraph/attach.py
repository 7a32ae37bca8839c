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
    all of them: dominance, for a pair already known to be attached."""
    for s in b.traces:
        ss = set(s)
        contains = all(set(t) <= ss for t in a.traces)
        disjoint = all(not (set(t) & ss) for t in a.traces)
        if not (contains or disjoint):
            return False
    return True


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

    Each ordered pair of parts is tested once for attachedness and, when
    attached, once for trace nesting, which makes it a dominance; an attached
    pair that is incomparable is antipodal, as `antipodal` defines it. The
    structural facts the construction leans on are verified rather than
    assumed: dominance is transitive, and relations do not depend on the
    choice of class members.
    """
    gammas = dec.gammas
    k = len(gammas)
    att = [[i != j and attached(a, b) for j, b in enumerate(gammas)]
           for i, a in enumerate(gammas)]
    # dom[i][j]: gamma_i <= gamma_j
    dom = [[att[i][j] and _nests(a, b) for j, b in enumerate(gammas)]
           for i, a in enumerate(gammas)]

    # transitive: when i <= j, every part above j is above i or is i; one
    # bitmask row per part makes that O(k^2) row tests
    up = [sum(1 << j for j in range(k) if dom[i][j]) for i in range(k)]
    for i in range(k):
        for j in range(k):
            if dom[i][j] and up[j] & ~(up[i] | 1 << i):
                raise InvariantError("dominance is not transitive")

    # classes of mutual dominance, ordered by smallest member
    assigned = [-1] * k
    members: list[list[int]] = []
    for i in range(k):
        if assigned[i] >= 0:
            continue
        cls = [i] + [j for j in range(i + 1, k) if dom[i][j] and dom[j][i]]
        cid = len(members)
        for j in cls:
            assigned[j] = cid
        members.append(cls)

    reps = [cls[0] for cls in members]
    s = len(reps)

    # relations between classes, via representatives, checked member-invariant
    a_edges = set()
    d_edges = set()
    order = set()
    for ci in range(s):
        for cj in range(ci + 1, s):
            ri, rj = reps[ci], reps[cj]
            rel = (att[ri][rj], dom[ri][rj], dom[rj][ri])
            for a in members[ci]:
                for b in members[cj]:
                    if (att[a][b], dom[a][b], dom[b][a]) != rel:
                        raise InvariantError(
                            f"relation between classes {ci},{cj} depends on members"
                        )
            if dom[ri][rj] or dom[rj][ri]:
                d_edges.add((ci, cj))
                order.add((ci, cj) if dom[ri][rj] else (cj, ci))
            elif att[ri][rj]:
                a_edges.add((ci, cj))

    for a, b in order:
        if (b, a) in order:
            raise InvariantError("strict dominance must be antisymmetric after quotient")
        for c, d in order:
            if c == b and (a, d) not in order and a != d:
                raise InvariantError("strict dominance must be transitive after quotient")

    nmap: dict[int, tuple[int, ...]] = {}
    for v in dec.q:
        by_class = sorted({assigned[i] for i in dec.neighbor_map[v]})
        for cid in by_class:
            # neighboring is a class property: every member must agree
            for member in members[cid]:
                if member not in dec.neighbor_map[v]:
                    raise InvariantError(
                        f"vertex {v} neighbors only part of class {cid}"
                    )
        nmap[v] = tuple(by_class)

    ecg = EdgeColoredGraph(s, frozenset(a_edges), frozenset(d_edges))
    return AttachednessGraph(
        q=dec.q,
        gammas=tuple(gammas[r] for r in reps),
        class_members=tuple(tuple(cls) for cls in members),
        edges=ecg,
        dominance_order=frozenset(order),
        neighbor_map=nmap,
    )
