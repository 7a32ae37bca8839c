"""Golden digests of `pathgraph certify --json` over a fixed corpus.

Each case runs the CLI in-process on an edge-list input and stores the sha256
of its exit code and stdout, so refactors of the pipeline can be checked for
byte-identical output without committing megabytes of documents.

Regenerate (only when the output is meant to change):

    PYTHONPATH=src python tests/make_certify_golden.py

It prints each case it adds, removes or changes, one per line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from pathgraph.cli import main
from pathgraph.generate import SplitMix64, gen_chordal, gen_path_graph, k4_hub
from pathgraph.graphs import Graph
from pathgraph.io import emit_edgelist

GOLDEN = Path(__file__).with_name("data") / "certify_golden.json"


def _path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _union(a: Graph, b: Graph) -> Graph:
    shifted = [(u + a.n, v + a.n) for u, v in b.edges()]
    return Graph.from_edges(a.n + b.n, a.edges() + shifted)


def interleaved(pieces: list[Graph], seed: int) -> Graph:
    """Disjoint union of the pieces, ids shuffled by a seeded permutation."""
    g = pieces[0]
    for piece in pieces[1:]:
        g = _union(g, piece)
    rng = SplitMix64(seed)
    perm = list(range(g.n))
    for i in range(g.n - 1, 0, -1):
        j = rng.randrange(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def corpus() -> list[tuple[str, Graph, bool]]:
    """(case name, graph, whether to pass --realize), in a fixed order."""
    cases = []
    for n in range(4, 33):
        for seed in range(10):
            cases.append((f"chordal-{n}-{seed}", gen_chordal(n, seed), n <= 20))
    # refuted at its last separator by an odd antipodal cycle inside a class
    cases.append(("chordal-21-63", gen_chordal(21, 63), False))
    for t in range(4, 9):
        cases.append((f"k4hub-{t}", k4_hub(t), False))
    for n in range(4, 9):
        cases.append((f"cycle-{n}", _cycle(n), False))
    for n in (30, 60, 100):
        for seed in range(5):
            cases.append((f"path-{n}-{seed}", gen_path_graph(n, n, seed)[0], False))
    for n in (20, 80):
        cases.append((f"P-{n}", _path(n), False))
    for i in range(10):
        pair = _union(gen_chordal(6 + i, 100 + i), gen_chordal(5 + i, 200 + i))
        cases.append((f"disjoint-{i}", pair, False))
    for i in range(10):
        pieces = [
            gen_path_graph(6 + i, 6 + i, 300 + i)[0],
            gen_chordal(5 + i, 400 + i),
            gen_path_graph(2, 2 + i % 3, 500 + i)[0],
        ]
        if i % 2:
            # a non-member in a later component; what follows it goes unreported
            pieces.insert(1 + i % 3, k4_hub(4))
        cases.append((f"disjoint-interleaved-{i}", interleaved(pieces, 600 + i), True))
    return cases


def certify_digest(g: Graph, realize: bool) -> str:
    """sha256 over the exit code and stdout of `certify --json` on g."""
    argv = ["certify", "-", "--json"] + (["--realize"] if realize else [])
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(emit_edgelist(g))
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = saved
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


def digests() -> dict[str, str]:
    return {name: certify_digest(g, r) for name, g, r in corpus()}


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    new = digests()
    for name in sorted(old.keys() | new.keys()):
        if name not in old:
            print(f"added: {name}")
        elif name not in new:
            print(f"removed: {name}")
        elif old[name] != new[name]:
            print(f"changed: {name}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
