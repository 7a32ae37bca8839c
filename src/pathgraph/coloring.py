"""Skeleton of the dominance order, and weak colorings of the antipodality structure.

Colors are 1-based: member D_i uses {i, l+1}, member D_ij uses {i, j}, where
l is the number of upper bounds and positions i, j are 1-based as well.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator

from .attach import AttachednessGraph, antipodal as parts_antipodal, is_neighboring_set
from .decompose import Decomposition
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


def upper_bounds(m: AttachednessGraph) -> tuple[int, ...]:
    """Classes with no strict dominator, by smallest original part index."""
    dominated = {a for a, _ in m.dominance_order}
    return tuple(c for c in range(m.size) if c not in dominated)


def full_antipodal_triple(
    m: AttachednessGraph, restrict_to: tuple[int, ...] | None = None
) -> tuple[tuple[int, int, int], int] | None:
    """Lexicographically first pairwise-antipodal triple sharing a witness vertex."""
    cands = sorted(restrict_to) if restrict_to is not None else list(range(m.size))
    for x, a in enumerate(cands):
        for y in range(x + 1, len(cands)):
            b = cands[y]
            if not m.is_antipodal(a, b):
                continue
            for z in range(y + 1, len(cands)):
                c = cands[z]
                if m.is_antipodal(a, c) and m.is_antipodal(b, c):
                    w = is_neighboring_set(m, (a, b, c))
                    if w is not None:
                        return (a, b, c), w
    return None


def skeleton(m: AttachednessGraph) -> Skeleton:
    upper = upper_bounds(m)
    pos = {u: i for i, u in enumerate(upper, start=1)}
    d_single: list[list[int]] = [[] for _ in upper]
    d_pair: dict[tuple[int, int], list[int]] = {}
    unassigned: list[int] = []
    member_of: dict[int, MemberKey] = {}
    for c in range(m.size):
        ups = [u for u in upper if u == c or m.dominated_by(c, u)]
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


def cross_intra_split(
    m: AttachednessGraph, s: Skeleton
) -> tuple[frozenset[tuple[int, int]], frozenset[tuple[int, int]]]:
    """Antipodal edges split into cross (between members) and intra (within)."""
    cross, intra = set(), set()
    for a, b in m.edges.antipodal:
        if s.member_of.get(a) == s.member_of.get(b):
            intra.add((a, b))
        else:
            cross.add((a, b))
    return frozenset(cross), frozenset(intra)


def _check_cross_shape(s: Skeleton, cross: frozenset[tuple[int, int]]) -> None:
    """Cross edges touching a pair member must end in one of its two single members."""
    for a, b in cross:
        for x, y in ((a, b), (b, a)):
            mx = s.member_of[x]
            if mx[0] == "DIJ":
                my = s.member_of[y]
                if my[0] != "D" or my[1] not in (mx[1], mx[2]):
                    raise InvariantError(
                        f"cross edge {x},{y} leaves pair member {mx} illegally"
                    )


def base_coloring_hQ(m: AttachednessGraph, s: Skeleton) -> dict[int, int]:
    """Color i on every cross vertex lying in a single member D_i."""
    cross, _ = cross_intra_split(m, s)
    touched = {v for e in cross for v in e}
    h: dict[int, int] = {}
    for c in sorted(touched):
        key = s.member_of[c]
        if key[0] == "D":
            h[c] = key[1]
    return h


def find_bad_triple(
    m: AttachednessGraph, s: Skeleton
) -> tuple[tuple[int, int, int], tuple[int, int]] | None:
    """First (gamma, gamma', gamma'') with gamma in D_ij antipodal into both D_i and D_j."""
    for (i, j), pair_classes in sorted(s.d_pair.items()):
        di = s.d_single[i - 1]
        dj = s.d_single[j - 1]
        for g in pair_classes:
            for g1 in di:
                if not m.is_antipodal(g, g1):
                    continue
                for g2 in dj:
                    if m.is_antipodal(g, g2):
                        return (g, g1, g2), (i, j)
    return None


def cross_extension(
    m: AttachednessGraph, s: Skeleton, h: dict[int, int]
) -> dict[int, int]:
    """Extend the base coloring over pair-member cross vertices (forced choices)."""
    cross, _ = cross_intra_split(m, s)
    nbrs: dict[int, set[int]] = {}
    for a, b in cross:
        nbrs.setdefault(a, set()).add(b)
        nbrs.setdefault(b, set()).add(a)
    out = dict(h)
    for (i, j), pair_classes in sorted(s.d_pair.items()):
        for g in pair_classes:
            if g not in nbrs:
                continue
            forced = set()
            for d in nbrs[g]:
                key = s.member_of[d]
                if key[0] == "D" and key[1] in (i, j):
                    forced.add(j if key[1] == i else i)
            if len(forced) == 2:
                raise InvariantError(
                    f"class {g} forced both ways; a bad triple was missed"
                )
            # unreachable without a forcing neighbor once the cross shape holds,
            # but the tie-break is fixed regardless
            out[g] = forced.pop() if forced else min(i, j)
    for a, b in cross:
        if out[a] == out[b]:
            raise InvariantError(f"cross extension is not proper at {a},{b}")
    return out


def _two_color_member(
    m: AttachednessGraph,
    classes: tuple[int, ...],
    pre: dict[int, int],
    ca: int,
    cb: int,
) -> dict[int, int] | tuple:
    """Extend pre to a proper 2-coloring of the antipodal graph on classes.

    Colors are {ca, cb}; un-seeded components default to ca on their smallest
    class. Returns the coloring, or ("cycle", C) for an odd antipodal cycle, or
    ("path", P, (c1, c2)) for a conflicting path between two pre-colored classes.
    """
    adj: dict[int, list[int]] = {c: [] for c in classes}
    for a, b in sorted(m.edges.antipodal):
        if a in adj and b in adj:
            adj[a].append(b)
            adj[b].append(a)
    bit: dict[int, int] = {}
    parent: dict[int, int | None] = {}
    root: dict[int, int] = {}

    def chain(c: int) -> list[int]:
        out = [c]
        while parent[out[-1]] is not None:
            out.append(parent[out[-1]])
        return out

    def conflict(u: int, w: int) -> tuple:
        if root[u] == root[w]:
            up, wp = chain(u)[::-1], chain(w)[::-1]  # root .. vertex
            l = 0
            while l < len(up) and l < len(wp) and up[l] == wp[l]:
                l += 1
            cycle = up[l - 1 :] + wp[l:][::-1]
            return ("cycle", tuple(cycle))
        path = chain(u)[::-1] + chain(w)
        return ("path", tuple(path), (pre[root[u]], pre[root[w]]))

    def bfs(queue: deque) -> tuple | None:
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in bit:
                    bit[w] = bit[u] ^ 1
                    parent[w] = u
                    root[w] = root[u]
                    queue.append(w)
                elif bit[w] == bit[u]:
                    return conflict(u, w)
        return None

    queue: deque = deque()
    for c in sorted(classes):
        if c in pre:
            bit[c] = 0 if pre[c] == ca else 1
            parent[c] = None
            root[c] = c
            queue.append(c)
    bad = bfs(queue)
    if bad is not None:
        return bad
    for c in sorted(classes):
        if c in bit:
            continue
        bit[c] = 0
        parent[c] = None
        root[c] = c
        bad = bfs(deque([c]))
        if bad is not None:
            return bad
    return {c: ca if bit[c] == 0 else cb for c in classes}


def weak_coloring(m: AttachednessGraph) -> WeakColoring | Refutation:
    """The canonical weak coloring of the attachedness structure, or a refutation.

    Pipeline: full antipodal triple over the upper bounds, skeleton, bad triple,
    cross extension, then per-member proper 2-colorings by bipartite propagation.
    """
    return _weak_coloring(m, skeleton(m))


def _weak_coloring(m: AttachednessGraph, s: Skeleton) -> WeakColoring | Refutation:
    """weak_coloring on the skeleton of m, which the caller has built."""
    ft = full_antipodal_triple(m, restrict_to=s.upper)
    if ft is not None:
        return Refutation(kind=FULL_ANTIPODAL_TRIPLE, classes=ft[0], witness=ft[1])
    if s.unassigned:
        # 3+ upper bounds force a full antipodal triple among them, and the
        # search above ran over all upper bounds
        g = s.unassigned[0]
        raise InvariantError(f"class {g} has 3+ upper bounds but no full triple")

    cross, _ = cross_intra_split(m, s)
    _check_cross_shape(s, cross)
    h = base_coloring_hQ(m, s)
    bt = find_bad_triple(m, s)
    if bt is not None:
        return Refutation(kind=BAD_TRIPLE, classes=bt[0], pair=bt[1])
    f = cross_extension(m, s, h)

    l = len(s.upper)
    for key, classes in s.members():
        ca, cb = (key[1], l + 1) if key[0] == "D" else (key[1], key[2])
        pre = {c: f[c] for c in classes if c in f}
        res = _two_color_member(m, classes, pre, ca, cb)
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

    wc = WeakColoring(f=f, num_upper=l)
    conds = check_canonical_conditions(m, s, f)
    broken = [name for name, ok in conds.items() if not ok]
    if broken:
        raise InvariantError(f"weak coloring violates conditions {broken}")
    return wc


def check_canonical_conditions(
    m: AttachednessGraph, s: Skeleton, f: dict[int, int]
) -> dict[str, bool]:
    """The six structural conditions of the canonical coloring, individually."""
    l = len(s.upper)
    out: dict[str, bool] = {}
    out["a"] = all(f[u] == i for i, u in enumerate(s.upper, start=1))
    out["b"] = all(
        f[c] in (i, l + 1) for i, d in enumerate(s.d_single, start=1) for c in d
    )
    out["c"] = all(f[c] in key for key, d in s.d_pair.items() for c in d)
    out["d"] = all(
        f[c] == i
        for i, d in enumerate(s.d_single, start=1)
        for c in d
        if any(m.is_antipodal(c, u) for u in s.upper)
    )
    ok_e = True
    for (i, j), d in s.d_pair.items():
        for c in d:
            for k, other in ((i, j), (j, i)):
                dk = s.d_single[k - 1]
                if any(m.is_antipodal(c, x) for x in dk) and f[c] != other:
                    ok_e = False
    out["e"] = ok_e
    out["f"] = all(f[a] != f[b] for a, b in cross_intra_split(m, s)[1])
    return out


def is_strong_coloring(dec: Decomposition, m: AttachednessGraph, f: dict[int, int]) -> bool:
    """Proper on antipodal pairs and at most two colors among each vertex's parts.

    The class coloring is lifted back to the original parts and checked against
    relations recomputed from the decomposition, independent of the quotient.
    """
    cls_of: dict[int, int] = {}
    for cid, mem in enumerate(m.class_members):
        for g in mem:
            cls_of[g] = cid
    k = len(dec.gammas)
    lifted = {g: f[cls_of[g]] for g in range(k)}
    for a in range(k):
        for b in range(a + 1, k):
            if parts_antipodal(dec.gammas[a], dec.gammas[b]) and lifted[a] == lifted[b]:
                return False
    for v in dec.q:
        if len({lifted[g] for g in dec.neighbor_map[v]}) > 2:
            return False
    return True
