"""Attachedness, antipodality and dominance between separated parts, and the
quotient structure modulo mutual dominance."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress, count
from operator import and_, or_
from typing import Iterable

from .decompose import Decomposition, _neighbor_map, _select
from .errors import InvariantError
from .graphs import EdgeColoredGraph, VertexSet, _norm_edge


def _nests(u: int, masks: Iterable[int]) -> bool:
    """Every trace in masks contains all or none of the traces whose union is
    u: dominance, for a pair of parts already known to be attached."""
    for s in masks:
        if s & u not in (0, u):
            return False
    return True


@dataclass(frozen=True)
class AttachednessGraph:
    """Quotient of the parts modulo mutual dominance, with colored relations.

    Vertices are class ids 0..s-1, ordered by smallest original part index;
    gammas[i] is the representative part (smallest index member) of class i.
    antipodal holds the antipodal pairs (a, b), a < b. Bit b of up[a] is set
    when class a is strictly dominated by class b, and bit i of masks[a]
    when q[i] lies in some trace of class a. The dominance pairs, the colored
    edges and the neighbor map are derived from them on first read.
    """

    q: VertexSet
    gammas: tuple[GammaComponent, ...]
    class_members: tuple[tuple[int, ...], ...]
    antipodal: frozenset[tuple[int, int]]
    up: tuple[int, ...]
    masks: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.gammas)

    @cached_property
    def dominance_order(self) -> frozenset[tuple[int, int]]:
        """Strict pairs (a, b) meaning class a is dominated by b."""
        return frozenset((a, b) for a, x in enumerate(self.up) for b in _select(count(), x))

    @cached_property
    def edges(self) -> EdgeColoredGraph:
        dominance = frozenset(_norm_edge(*e) for e in self.dominance_order)
        return EdgeColoredGraph(self.size, self.antipodal, dominance)

    @cached_property
    def neighbor_map(self) -> dict[int, tuple[int, ...]]:
        """v in Q -> the classes with v in some trace."""
        return _neighbor_map(self.q, self.masks)

    def is_antipodal(self, a: int, b: int) -> bool:
        return _norm_edge(a, b) in self.antipodal

    def dominated_by(self, a: int, b: int) -> bool:
        """Strict dominance between distinct classes: a <= b."""
        return self.up[a] >> b & 1 == 1


def is_neighboring_set(m: AttachednessGraph, classes: tuple[int, ...]) -> int | None:
    """Smallest v in Q whose neighboring classes include all the given ones."""
    common = reduce(and_, map(m.masks.__getitem__, classes), (1 << len(m.q)) - 1)
    return m.q[(common & -common).bit_length() - 1] if common else None


def quotient(dec: Decomposition) -> AttachednessGraph:
    """Build the attachedness graph over dominance classes.

    Every relation reads only trace sets, and two parts dominate each other
    exactly when both have one and the same trace: if a <= b and b <= a, a
    trace t of a meeting some trace s of b holds s, s holds t, and any other
    trace of a lies in s, so meets b and equals t. The classes are therefore
    the parts grouped by their single trace mask, and a part with two or
    more traces is a class of its own. Classes are related through their
    first members, and only when their trace unions share a Q vertex, which
    makes them attached; an attached pair that nests neither way is
    antipodal. A nesting both ways across two classes, or a dominance that
    is not transitive, raises InvariantError.
    """
    classes: dict[int, list[int]] = {}
    for p in dec.gammas:
        key = p.masks[0] if len(p.masks) == 1 else ~p.index  # masks are positive
        classes.setdefault(key, []).append(p.index)
    members = list(classes.values())
    reps = [dec.gammas[mem[0]] for mem in members]
    traces = [p.masks for p in reps]
    unions = [reduce(or_, ts) for ts in traces]

    anti = []
    up = [0] * len(reps)  # up[c]: bitmask of the classes strictly above c
    for ci, (u, mine) in enumerate(zip(unions, traces)):
        row = 0
        for cj in compress(range(ci + 1, len(reps)), map(u.__and__, unions[ci + 1 :])):
            ab, ba = _nests(u, traces[cj]), _nests(unions[cj], mine)
            if ab and ba:
                raise InvariantError(f"classes {ci} and {cj} dominate each other")
            if ab:
                row |= 1 << cj
            elif ba:
                up[cj] |= 1 << ci
            else:
                anti.append((ci, cj))
        up[ci] |= row

    # transitive: every class above a class above c is above c
    for x in up:
        if reduce(or_, _select(up, x), 0) & ~x:
            raise InvariantError("dominance is not transitive")

    return AttachednessGraph(
        q=dec.q,
        gammas=tuple(reps),
        class_members=tuple(map(tuple, members)),
        antipodal=frozenset(anti),
        up=tuple(up),
        masks=tuple(unions),
    )
