"""Hand-built attachedness structures that drive specific pipeline branches.

The parts carry no vertices or traces; the antipodal pairs, the dominance
rows and the neighbor masks are laid down directly, which is all the coloring
and certificate code ever looks at.
"""

from pathgraph.attach import AttachednessGraph
from pathgraph.decompose import GammaComponent


def fake_m(size, anti=(), order=(), neighbor_map=None):
    gammas = tuple(GammaComponent(i) for i in range(size))
    up = [0] * size
    for a, b in order:
        up[a] |= 1 << b
    q = tuple(sorted(neighbor_map or {}))
    masks = [0] * size
    for i, v in enumerate(q):
        for c in neighbor_map[v]:
            masks[c] |= 1 << i
    return AttachednessGraph(
        q=q,
        gammas=gammas,
        class_members=tuple((i,) for i in range(size)),
        antipodal=frozenset(tuple(sorted(e)) for e in anti),
        up=tuple(up),
        masks=tuple(masks),
    )


def df2_host(extra_anti=()):
    """Class 1 under both uppers 3 and 4, attacked from 0 in D_1 and 2 in D_2."""
    anti = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), *extra_anti}
    order = {(0, 3), (1, 3), (1, 4), (2, 4)}
    return fake_m(5, anti, order)


def two_attacker_host(close_top=False):
    """Classes 0, 1 under upper 2, pulled to the same color but antipodal,
    with distinct attacking uppers 3 and 4. close_top joins the attackers."""
    anti = {(0, 1), (0, 3), (1, 4), (2, 3), (2, 4)}
    if close_top:
        anti.add((3, 4))
    nm = {0: (2, 3), 1: (2, 4), 2: (3, 4)}
    return fake_m(5, anti, {(0, 2), (1, 2)}, nm)


def odd_cycle_host():
    """Five classes under hub 5, antipodal along a 5-cycle."""
    anti = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
    order = {(i, 5) for i in range(5)}
    return fake_m(6, anti, order)


def dij_distinct_host():
    """Pair classes 1, 2, 3 under uppers 5 and 6, end classes forced to
    opposite colors by 0 in D_2 and 4 in D_1 across an odd antipodal path."""
    anti = {(5, 6), (0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (4, 6)}
    order = {(0, 6), (1, 5), (1, 6), (2, 5), (2, 6), (3, 5), (3, 6), (4, 5)}
    return fake_m(7, anti, order)


def dij_same_color_host():
    """Pair classes 1, 2 under uppers 4 and 5, both forced to the same color
    by the distinct attackers 0 and 3 in D_2, yet antipodal to each other."""
    anti = {(0, 1), (1, 2), (2, 3), (0, 4), (3, 4), (4, 5)}
    order = {(0, 5), (3, 5), (1, 4), (1, 5), (2, 4), (2, 5)}
    return fake_m(6, anti, order)


def full_triple_host(with_below=False):
    """Pairwise antipodal uppers sharing witness vertex 0, optionally with a
    fourth class dominated by all three."""
    size = 4 if with_below else 3
    order = {(3, 0), (3, 1), (3, 2)} if with_below else set()
    return fake_m(
        size, {(0, 1), (0, 2), (1, 2)}, order, {0: tuple(range(size))}
    )
