"""Skeleton of the dominance order, and weak colorings of the antipodality structure.

Colors are 1-based: member D_i uses {i, l+1}, member D_ij uses {i, j}, where
l is the number of upper bounds and positions i, j are 1-based as well.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain, count
from typing import Iterable, Iterator

from .attach import AttachednessGraph, is_neighboring_set
from .chordal import _tree_adj
from .decompose import _select
from .errors import InvariantError

FULL_ANTIPODAL_TRIPLE = "FULL_ANTIPODAL_TRIPLE"
BAD_TRIPLE = "BAD_TRIPLE"
INTRA_NOT_2_COLORABLE = "INTRA_NOT_2_COLORABLE"

# a skeleton member is ("D", i) or ("DIJ", i, j) with 1-based positions
MemberKey = tuple


@dataclass(frozen=True)
class Skeleton:
    """Partition of the classes by their set of upper bounds."""

    upper: tuple[int, ...]                       # u_1 .. u_l as class ids
    d_single: tuple[tuple[int, ...], ...]        # D_i, aligned with upper
    d_pair: dict[tuple[int, int], tuple[int, ...]]  # (i, j) 1-based, i < j
    unassigned: tuple[int, ...]                  # classes with 3+ upper bounds
    member_of: dict[int, MemberKey]

    def members(self) -> Iterator[tuple[MemberKey, tuple[int, ...]]]:
        for i, d in enumerate(self.d_single, start=1):
            yield ("D", i), d
        for key in sorted(self.d_pair):
            yield ("DIJ", key[0], key[1]), self.d_pair[key]


@dataclass(frozen=True)
class Refutation:
    """Witness that no weak coloring exists at this separator."""

    kind: str
    classes: tuple[int, ...]
    witness: int | None = None                     # witness vertex, full triples
    member: MemberKey | None = None                # failing member, intra kind
    cycle: tuple[int, ...] | None = None           # odd antipodal cycle
    path: tuple[int, ...] | None = None            # conflict path, pre-colored ends
    endpoint_colors: tuple[int, int] | None = None
    pair: tuple[int, int] | None = None            # (i, j) for bad triples


@dataclass(frozen=True)
class WeakColoring:
    f: dict[int, int]   # class id -> color in 1..l+1
    num_upper: int


def _full_triple(
    m: AttachednessGraph, adj: list[list[int]], cands: Iterable[int]
) -> tuple[tuple[int, int, int], int] | None:
    """The lexicographically first pairwise-antipodal triple among cands
    sharing a witness vertex, and the witness: the triangles a < b < c of
    adj, read as pairs b < c of a's later neighbors."""
    inside = set(cands)
    for a in sorted(inside):
        later = [b for b in adj[a] if b > a and b in inside]
        for y, b in enumerate(later):
            for c in later[y + 1 :]:
                if m.is_antipodal(b, c):
                    w = is_neighboring_set(m, (a, b, c))
                    if w is not None:
                        return (a, b, c), w
    return None


def skeleton(m: AttachednessGraph) -> Skeleton:
    # the upper bounds are the classes with no strict dominator, by smallest
    # original part index; a class's upper bounds are itself when it is one,
    # else its dominators among them, read off its dominance row
    upper = tuple(c for c, x in enumerate(m.up) if not x)
    pos = {u: i for i, u in enumerate(upper, start=1)}
    tops = sum(1 << u for u in upper)
    above = [list(_select(count(), x & tops)) if x else [c] for c, x in enumerate(m.up)]
    d_single: list[list[int]] = [[] for _ in upper]
    d_pair: dict[tuple[int, int], list[int]] = {}
    unassigned: list[int] = []
    member_of: dict[int, MemberKey] = {}
    for c, ups in enumerate(above):
        if not ups:
            raise InvariantError(f"class {c} has no upper bound")
        if len(ups) == 1:
            i = pos[ups[0]]
            d_single[i - 1].append(c)
            member_of[c] = ("D", i)
        elif len(ups) == 2:
            i, j = sorted(pos[u] for u in ups)
            d_pair.setdefault((i, j), []).append(c)
            member_of[c] = ("DIJ", i, j)
        else:
            unassigned.append(c)
    return Skeleton(
        upper=upper,
        d_single=tuple(tuple(d) for d in d_single),
        d_pair={k: tuple(v) for k, v in sorted(d_pair.items())},
        unassigned=tuple(unassigned),
        member_of=member_of,
    )


def _cross_colors(s: Skeleton, adj: list[list[int]]) -> dict[int, int] | Refutation:
    """The colors forced by antipodal edges between members, or the first bad triple.

    A class of D_i with a cross neighbor gets i. A class of D_ij may have
    cross neighbors in D_i and D_j only: with both it is a bad triple (its
    first neighbor on each side), with D_i's alone it gets j, with D_j's
    alone i. Every cross edge is checked before a bad triple is returned.
    """
    f: dict[int, int] = {}
    bad: Refutation | None = None
    for key, classes in s.members():
        for c in classes:
            cross = [d for d in adj[c] if s.member_of[d] != key]
            if cross and key[0] == "D":
                f[c] = key[1]
            elif cross:
                i, j = key[1:]
                first: dict[int, int] = {}
                for d in cross:
                    side = s.member_of[d]
                    if side[0] != "D" or side[1] not in (i, j):
                        raise InvariantError(
                            f"cross edge {c},{d} leaves pair member {key} illegally"
                        )
                    first.setdefault(side[1], d)
                if len(first) == 2:
                    bad = bad or Refutation(
                        kind=BAD_TRIPLE, classes=(c, first[i], first[j]), pair=(i, j)
                    )
                else:
                    f[c] = j if i in first else i
    return bad or f


def _two_color_member(
    adj: list[list[int]],
    classes: Iterable[int],
    pre: dict[int, int],
    ca: int,
    cb: int,
) -> dict[int, int] | tuple:
    """Extend pre to a proper 2-coloring of the antipodal graph adj on classes.

    Colors are {ca, cb}; un-seeded components default to ca on their smallest
    class. Returns the coloring, or ("cycle", C) for an odd antipodal cycle, or
    ("path", P, (c1, c2)) for a conflicting path between two pre-colored classes.
    """
    inside = set(classes)
    bit: dict[int, int] = {}
    parent: dict[int, int | None] = {}

    def to_root(c: int) -> list[int]:
        out = [c]
        while parent[out[-1]] is not None:
            out.append(parent[out[-1]])
        return out[::-1]  # root .. c

    def conflict(u: int, w: int) -> tuple:
        up, wp = to_root(u), to_root(w)
        if up[0] != wp[0]:
            return ("path", tuple(up + wp[::-1]), (pre[up[0]], pre[wp[0]]))
        l = 0
        while l < len(up) and l < len(wp) and up[l] == wp[l]:
            l += 1
        return ("cycle", tuple(up[l - 1 :] + wp[l:][::-1]))

    # the pre-colored classes spread together first, then each remaining
    # component from its smallest class
    order = sorted(inside)
    for seeds in chain([[c for c in order if c in pre]], ([c] for c in order)):
        queue = deque(c for c in seeds if c not in bit)
        for c in queue:
            bit[c] = 0 if pre.get(c, ca) == ca else 1
            parent[c] = None
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in inside:
                    continue
                if w not in bit:
                    bit[w] = bit[u] ^ 1
                    parent[w] = u
                    queue.append(w)
                elif bit[w] == bit[u]:
                    return conflict(u, w)
    return {c: ca if bit[c] == 0 else cb for c in classes}


def weak_coloring(m: AttachednessGraph) -> WeakColoring | Refutation:
    """The canonical weak coloring of the attachedness structure, or a refutation.

    Pipeline: skeleton, full antipodal triple over the upper bounds, the
    colors forced across members (or a bad triple), then per-member proper
    2-colorings by bipartite propagation, all read off one antipodal adjacency.
    """
    return _weak_coloring(m, skeleton(m))


def _weak_coloring(m: AttachednessGraph, s: Skeleton) -> WeakColoring | Refutation:
    """weak_coloring on the skeleton of m, which the caller has built."""
    adj = _tree_adj(m.size, m.antipodal)  # sorted antipodal neighbors
    ft = _full_triple(m, adj, s.upper)
    if ft is not None:
        return Refutation(kind=FULL_ANTIPODAL_TRIPLE, classes=ft[0], witness=ft[1])
    if s.unassigned:
        # 3+ upper bounds force a full antipodal triple among them, and the
        # search above ran over all upper bounds
        g = s.unassigned[0]
        raise InvariantError(f"class {g} has 3+ upper bounds but no full triple")

    f = _cross_colors(s, adj)
    if isinstance(f, Refutation):
        return f

    l = len(s.upper)
    for key, classes in s.members():
        ca, cb = (key[1], l + 1) if key[0] == "D" else (key[1], key[2])
        pre = {c: f[c] for c in classes if c in f}
        res = _two_color_member(adj, classes, pre, ca, cb)
        if isinstance(res, tuple):
            if res[0] == "cycle":
                return Refutation(
                    kind=INTRA_NOT_2_COLORABLE,
                    classes=res[1],
                    member=key,
                    cycle=res[1],
                )
            return Refutation(
                kind=INTRA_NOT_2_COLORABLE,
                classes=res[1],
                member=key,
                path=res[1],
                endpoint_colors=res[2],
            )
        f.update(res)
    for a, b in m.antipodal:
        if f[a] == f[b]:
            raise InvariantError(f"weak coloring is not proper at {a},{b}")
    conds = _canonical_conditions(m, s, f, adj)
    broken = [name for name, ok in conds.items() if not ok]
    if broken:
        raise InvariantError(f"weak coloring violates conditions {broken}")
    return WeakColoring(f=f, num_upper=len(s.upper))


def check_canonical_conditions(
    m: AttachednessGraph, s: Skeleton, f: dict[int, int]
) -> dict[str, bool]:
    """The six structural conditions of the canonical coloring, individually;
    a condition that reads a class f does not color is False."""
    return _canonical_conditions(m, s, f, _tree_adj(m.size, m.antipodal))


def _canonical_conditions(
    m: AttachednessGraph, s: Skeleton, f: dict[int, int], adj: list[list[int]]
) -> dict[str, bool]:
    """check_canonical_conditions on the antipodal adjacency adj of m: each
    class's antipodal neighbors are read once, so conditions d and e cost
    the classes plus the antipodal pairs."""
    l = len(s.upper)
    upper = set(s.upper)
    out: dict[str, bool] = {}
    out["a"] = all(f.get(u) == i for i, u in enumerate(s.upper, start=1))
    out["b"] = all(
        f.get(c) in (i, l + 1) for i, d in enumerate(s.d_single, start=1) for c in d
    )
    out["c"] = all(f.get(c) in key for key, d in s.d_pair.items() for c in d)
    out["d"] = all(
        f.get(c) == i
        for i, d in enumerate(s.d_single, start=1)
        for c in d
        if not upper.isdisjoint(adj[c])
    )
    ok_e = True
    for (i, j), d in s.d_pair.items():
        for c in d:
            sides = {s.member_of.get(x) for x in adj[c]}
            if (("D", i) in sides and f.get(c) != j) or (("D", j) in sides and f.get(c) != i):
                ok_e = False
    out["e"] = ok_e
    out["f"] = all(
        a in f and b in f and f[a] != f[b]
        for a, b in m.antipodal
        if s.member_of.get(a) == s.member_of.get(b)
    )
    return out
