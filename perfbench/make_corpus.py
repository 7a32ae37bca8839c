"""Regenerate corpus.json: expected answers for certify_small's gen_chordal
graphs, and a digest of every workload's seed-independent inputs.

The answers come from the exhaustive oracle (oracle_clique_path_tree), never
from the recognition pipeline. Graphs with more maximal cliques than the
oracle's guard get no answer and are left out of the workload. The digests
make the benchmark stop if a generator's output ever changes.

    python3 perfbench/make_corpus.py      # takes about two minutes
"""

from __future__ import annotations

import json

import workloads

CHORDAL_SIZES = range(12, 33)
CHORDAL_SEEDS = range(10)


def main() -> None:
    pg = workloads.load_pathgraph()
    entries = []
    for n in CHORDAL_SIZES:
        for s in CHORDAL_SEEDS:
            g = pg.generate.gen_chordal(n, s)
            cliques = len(pg.chordal.maximal_cliques(g))
            entry = {"n": n, "seed": s, "cliques": cliques}
            try:
                entry["path_graph"] = pg.oracle.oracle_clique_path_tree(g) is not None
            except pg.errors.GuardRefusal:
                entry["path_graph"] = None
            entries.append(entry)
            print(json.dumps(entry), flush=True)
    doc = {
        "chordal_source": "pathgraph.generate.gen_chordal(n, seed)",
        "answer_source": "pathgraph.oracle.oracle_clique_path_tree; null = over its guard",
        "chordal": entries,
        "digests": {},
    }
    workloads.CORPUS.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for name, w in workloads.WORKLOADS.items():
        doc["digests"][name] = workloads.digest(w.base(pg))
    workloads.CORPUS.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
