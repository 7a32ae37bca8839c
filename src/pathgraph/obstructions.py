"""Two-edge-colored obstruction families, refutation-to-certificate constructions,
and certificate verification."""

from __future__ import annotations

from dataclasses import dataclass

from .attach import AttachednessGraph
from .coloring import (
    BAD_TRIPLE,
    FULL_ANTIPODAL_TRIPLE,
    INTRA_NOT_2_COLORABLE,
    Refutation,
    Skeleton,
)
from .errors import InputError, InvariantError
from .graphs import EdgeColoredGraph, VertexSet, _int, _within_limit

W0 = "W0"
W1 = "W1"
F = "F"
FTILDE = "FTILDE"
DF = "DF"
FULL_TRIANGLE = "FULL_TRIANGLE"

FAMILY_ALL = (W0, W1, F, FTILDE, DF)      # induced characterization
FAMILY_BASE = (W0, W1, F)                 # subgraph characterization


@dataclass(frozen=True)
class ObstructionPattern:
    """Canonical colored pattern; hub vertices carry the highest numbers."""

    family: str
    size: int  # k for W0/W1 (rim 2k+1), n for F/FTILDE/DF (2n+1 vertices)
    pattern: EdgeColoredGraph


@dataclass(frozen=True)
class Obstruction:
    pattern: ObstructionPattern
    embedding: tuple[int, ...]  # host class per pattern vertex
    q: VertexSet
    witness: int | None = None  # witness vertex, FULL_TRIANGLE only


def build_family(family: str, size: int) -> ObstructionPattern:
    """Canonical member of a colored family.

    W0/W1: antipodal rim 0..2k, hub 2k+1 with dominance spokes (W1 turns the
    spoke to rim vertex 0 antipodal). F: antipodal cycle through the rim path
    0..2n-1 closed by hub 2n, dominance chords from the hub inward. FTILDE adds
    the antipodal chord between the path ends. DF: rim path 0..2n-2 plus two
    adjacent hubs 2n-1, 2n closing the antipodal cycle, dominance chords from
    both hubs to their non-neighbors.

    A size whose pattern has more than graphs.MAX_VERTICES vertices is
    refused before any edge is built.
    """
    _int(size, f"{family} size")
    what = f"{family} size {size}: vertex count"
    anti: set[tuple[int, int]] = set()
    dom: set[tuple[int, int]] = set()

    def edge(store: set, a: int, b: int) -> None:
        store.add((a, b) if a < b else (b, a))

    if family in (W0, W1):
        if size < 1:
            raise InputError(f"{family} requires k >= 1")
        rim = 2 * size + 1
        hub = rim
        n = _within_limit(rim + 1, what)
        for r in range(rim):
            edge(anti, r, (r + 1) % rim)
            edge(dom, r, hub)
        if family == W1:
            dom.discard((0, hub))
            edge(anti, 0, hub)
    elif family in (F, FTILDE):
        if size < 2:
            raise InputError(f"{family} requires n >= 2")
        top = 2 * size  # hub
        n = _within_limit(top + 1, what)
        for r in range(top - 1):
            edge(anti, r, r + 1)
        edge(anti, 0, top)
        edge(anti, top - 1, top)
        for r in range(1, top - 1):
            edge(dom, r, top)
        if family == FTILDE:
            edge(anti, 0, top - 1)
    elif family == DF:
        if size < 2:
            raise InputError("DF requires n >= 2")
        a, b = 2 * size - 1, 2 * size
        n = _within_limit(b + 1, what)
        for r in range(a - 1):
            edge(anti, r, r + 1)
        edge(anti, a - 1, a)
        edge(anti, a, b)
        edge(anti, 0, b)
        for r in range(a - 1):
            edge(dom, r, a)
        for r in range(1, a):
            edge(dom, r, b)
    elif family == FULL_TRIANGLE:
        if size != 1:
            raise InputError("FULL_TRIANGLE has fixed size 1")
        anti = {(0, 1), (0, 2), (1, 2)}
        n = 3
    else:
        raise InputError(f"unknown family {family!r}")
    return ObstructionPattern(
        family=family, size=size, pattern=EdgeColoredGraph(n, frozenset(anti), frozenset(dom))
    )


def verify_obstruction(
    m: AttachednessGraph,
    s: Skeleton | None,
    o: Obstruction,
    induced: bool = False,
) -> bool:
    """Check the embedding maps pattern edges onto same-colored host edges.

    With induced=True, pattern non-edges must land on host non-edges. The
    FULL_TRIANGLE witness must neighbor all three classes. A certificate
    with no pattern graph fails too; an m of another type is an InputError.
    """
    if not isinstance(m, AttachednessGraph):
        raise InputError(f"expected an AttachednessGraph, got {type(m).__name__}")
    p = getattr(getattr(o, "pattern", None), "pattern", None)
    if not isinstance(o, Obstruction) or not isinstance(p, EdgeColoredGraph):
        return False
    emb = o.embedding
    if not isinstance(emb, (tuple, list)) or len(emb) != p.n:
        return False
    if any(type(c) is not int or not 0 <= c < m.size for c in emb) or len(set(emb)) != p.n:
        return False
    for u in range(p.n):
        for v in range(u + 1, p.n):
            want = p.color_of(u, v)
            have = m.edges.color_of(emb[u], emb[v])
            if want is not None and have != want:
                return False
            if want is None and induced and have is not None:
                return False
    if o.pattern.family == FULL_TRIANGLE:
        if o.witness not in m.q or not all(m.masks[c] >> m.q.index(o.witness) & 1 for c in emb):
            return False
    return True


def _upper_attacker(m: AttachednessGraph, s: Skeleton, theta: int, skip: int) -> int:
    """Smallest upper bound other than skip that is antipodal to theta."""
    for u in s.upper:
        if u != skip and m.is_antipodal(theta, u):
            return u
    raise InvariantError(f"cross vertex {theta} has no upper antipodal neighbor")


def _side_attacker(m: AttachednessGraph, s: Skeleton, theta: int, k: int) -> int:
    """Smallest class of D_k antipodal to theta."""
    for g in s.d_single[k - 1]:
        if m.is_antipodal(theta, g):
            return g
    raise InvariantError(f"no attacker in D_{k} for forced class {theta}")


def refutation_to_obstruction(
    m: AttachednessGraph, s: Skeleton, r: Refutation
) -> Obstruction:
    """Turn a refutation into an explicit colored obstruction (subgraph embedding)."""
    if r.kind == FULL_ANTIPODAL_TRIPLE:
        triple = r.classes
        below = [
            d
            for d in range(m.size)
            if d not in triple and all(m.dominated_by(d, t) for t in triple)
        ]
        if below:
            pat = build_family(W0, 1)
            o = Obstruction(pat, (*triple, below[0]), m.q)
        else:
            pat = build_family(FULL_TRIANGLE, 1)
            o = Obstruction(pat, triple, m.q, witness=r.witness)
    elif r.kind == BAD_TRIPLE:
        g, g1, g2 = r.classes
        i, j = r.pair  # type: ignore[misc]
        ui, uj = s.upper[i - 1], s.upper[j - 1]
        if m.is_antipodal(g1, g2):
            pat = build_family(W1, 1)
            o = Obstruction(pat, (g2, g, g1, ui), m.q)
        else:
            pat = build_family(DF, 2)
            o = Obstruction(pat, (g1, g, g2, ui, uj), m.q)
    elif r.kind == INTRA_NOT_2_COLORABLE:
        o = _intra_obstruction(m, s, r)
    else:
        raise InvariantError(f"unknown refutation kind {r.kind!r}")
    if not verify_obstruction(m, s, o):
        raise InvariantError(f"constructed {o.pattern.family} certificate fails to verify")
    return o


def _intra_obstruction(
    m: AttachednessGraph, s: Skeleton, r: Refutation
) -> Obstruction:
    key = r.member
    if key is None:
        raise InvariantError("intra refutation lacks its member")
    hub_i = s.upper[key[1] - 1]
    if r.cycle is not None:
        c = len(r.cycle)
        pat = build_family(W0, (c - 1) // 2)
        return Obstruction(pat, (*r.cycle, hub_i), m.q)

    path = r.path
    c1, c2 = r.endpoint_colors  # type: ignore[misc]
    if path is None:
        raise InvariantError("intra refutation lacks cycle and path")
    p = len(path)

    if key[0] == "D":
        # equal endpoint colors, even path; attackers are upper bounds
        ua = _upper_attacker(m, s, path[0], hub_i)
        ub = _upper_attacker(m, s, path[-1], hub_i)
        if ua == ub:
            pat = build_family(W1, p // 2)
            return Obstruction(pat, (ua, *path, hub_i), m.q)
        family = FTILDE if m.is_antipodal(ua, ub) else F
        pat = build_family(family, (p + 2) // 2)
        return Obstruction(pat, (ua, *path, ub, hub_i), m.q)

    i, j = key[1], key[2]
    if c1 == c2:
        # attackers sit on the opposite side of the forced color
        k = j if c1 == i else i
        o_pos = c1
        uk, uo = s.upper[k - 1], s.upper[o_pos - 1]
        gf = _side_attacker(m, s, path[0], k)
        gl = _side_attacker(m, s, path[-1], k)
        if gf == gl:
            pat = build_family(W0, p // 2)
            return Obstruction(pat, (gf, *path, uk), m.q)
        pat = build_family(W1, (p + 2) // 2)
        return Obstruction(pat, (uo, gf, *path, gl, uk), m.q)

    kf = j if c1 == i else i
    kl = j if c2 == i else i
    gf = _side_attacker(m, s, path[0], kf)
    gl = _side_attacker(m, s, path[-1], kl)
    pat = build_family(DF, (p + 3) // 2)
    return Obstruction(pat, (gf, *path, gl, s.upper[kf - 1], s.upper[kl - 1]), m.q)
