"""The workloads: their inputs, the call each instance makes, and the check
of each outcome against an answer that does not come from the pipeline under
test.

Each workload is closed-loop and single-process: one caller issues the next
graph only after the previous call returns. ``base`` builds the
seed-independent graphs, ``prepare`` applies the seed, which sets the order
the instances are issued in (certify_small also writes its edge-list files),
``run`` is the timed call and ``check`` the untimed one.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import checks

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus.json"


@dataclass
class Instance:
    name: str
    graph: object
    expected: dict
    host: object = None        # generator's own realization, when constructed
    path: str | None = None    # edge-list file, certify_small only


@dataclass
class Outcome:
    correct: bool              # verdict equals the known answer
    emitted: int = 0           # certificates emitted
    valid: int = 0             # certificates that pass the benchmark's check
    failed: bool = False       # raised a PathgraphError, or the CLI exited 2 or 3
    notes: list = field(default_factory=list)


PACKAGE_MODULES = ("graphs", "chordal", "decompose", "attach", "coloring", "obstructions",
                   "recognize", "realize", "oracle", "generate", "cli", "errors")


def load_pathgraph():
    """Import pathgraph from the src/ tree of the checkout this file sits in,
    and return its modules by short name. Exits if that tree is missing, so
    an installed copy elsewhere is never measured by mistake."""
    src = HERE.parent / "src"
    if not (src / "pathgraph" / "__init__.py").is_file():
        raise SystemExit(f"error: no pathgraph sources under {src}")
    sys.path.insert(0, str(src))
    import pathgraph

    if Path(pathgraph.__file__).resolve().parent != (src / "pathgraph").resolve():
        raise SystemExit(f"error: imported pathgraph from {pathgraph.__file__}, not {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"pathgraph.{m}")
                              for m in PACKAGE_MODULES})


def load_corpus() -> dict:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def digest(instances) -> str:
    h = hashlib.sha256()
    for inst in instances:
        g = inst.graph
        edges = sorted((u, v) for u in range(g.n) for v in g.adj[u] if u < v)
        h.update(f"{inst.name}:{g.n}:{edges}\n".encode())
    return h.hexdigest()


def simple_path(pg, n: int):
    return pg.graphs.Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(pg, n: int):
    return pg.graphs.Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def with_hub(pg, g):
    """g plus a disjoint k4_hub(4), joined by the bridge edge (n-1, n).

    The hub keeps the highest ids, so its separator sorts last and the
    refutation comes only at the last separator. Not a path graph, because
    path graphs are closed under induced subgraphs and k4_hub(4) is not one.
    """
    hub = pg.generate.k4_hub(4)
    n = g.n
    edges = [(u, v) for u in range(n) for v in g.adj[u] if u < v]
    edges += [(u + n, v + n) for u in range(hub.n) for v in hub.adj[u] if u < v]
    edges.append((n - 1, n))
    return pg.graphs.Graph.from_edges(n + hub.n, edges)


def shuffled(instances, seed: int):
    out = list(instances)
    random.Random(seed).shuffle(out)
    return out


class Workload:
    """Direct library calls; the seed sets only the order of the calls."""

    def prepare(self, pg, base, seed, workdir):
        return shuffled(base, seed)


class RecognizeLarge(Workload):
    """recognize_path_graph + recognize_directed_path_graph on the same graph,
    as CLI recognize/certify do, on large members and near misses. Realize,
    oracle and io are bypassed."""

    name = "recognize_large"

    def base(self, pg):
        out = []
        for n in (50, 100, 150, 200):
            g, host = pg.generate.gen_path_graph(n, n, 1)
            out.append(Instance(f"gen_path_graph({n},{n},1)", g,
                                {"path": True, "directed": None}, host=host))
            if n in (150, 200):
                out.append(Instance(f"gen_path_graph({n},{n},1)+k4_hub(4)",
                                    with_hub(pg, g), {"path": False, "directed": False}))
        for n in (50, 100, 150):
            # an interval graph, so a directed path graph as well
            out.append(Instance(f"P_{n}", simple_path(pg, n),
                                {"path": True, "directed": True}))
        return out

    def run(self, pg, inst):
        g = inst.graph
        return (pg.recognize.recognize_path_graph(g),
                pg.recognize.recognize_directed_path_graph(g))

    def check(self, pg, inst, outcome):
        verdict, directed = outcome
        is_path = verdict.status == pg.recognize.PATH_GRAPH
        is_directed = directed.status == pg.recognize.DIRECTED_PATH_GRAPH
        want = inst.expected
        ok = is_path == want["path"] and (not is_directed or is_path)
        if want["directed"] is not None:
            ok = ok and is_directed == want["directed"]
        res = Outcome(correct=ok)
        if verdict.hole is not None:
            res.emitted += 1
            res.valid += checks.is_hole(inst.graph, verdict.hole.cycle)
        if verdict.status == pg.recognize.NOT_PATH_GRAPH:
            rep = verdict.reports[-1]
            res.emitted += 1
            res.valid += rep.vertex_map is None and checks.obstruction_holds(
                pg, inst.graph, rep.q, rep.obstruction)
        return res


class RealizeMembers(Workload):
    """realize + clique_path_tree_to_host on generated path graphs. The
    instances that fall back to the oracle or raise RealizationError stay in,
    so those defects stay in the numbers; gen_path_graph(80,80,6) spends most
    of a pass in one oracle fallback."""

    name = "realize_members"

    def base(self, pg):
        out = []
        for n in (40, 80):
            for s in range(10):
                g, host = pg.generate.gen_path_graph(n, n, s)
                out.append(Instance(f"gen_path_graph({n},{n},{s})", g,
                                    {"path": True}, host=host))
        return out

    def run(self, pg, inst):
        g = inst.graph
        return pg.realize.clique_path_tree_to_host(g, pg.realize.realize(g))

    def check(self, pg, inst, host):
        res = Outcome(correct=True, emitted=1)
        res.valid = checks.is_host_realization(inst.graph, host.host_n, host.host_edges,
                                               host.paths)
        return res


class OracleHubs(Workload):
    """oracle_clique_path_tree on hub counterexamples, which exhaust the
    sweep, and on small members, which exit early. Covers the three cases
    of benchmarks/bench_sweep.py: the early-exit member gen_path_graph(10,9,26),
    hub 6 and hub 8. k4_hub(9) is left out: one exhausted sweep takes about
    19 s."""

    name = "oracle_hubs"

    def base(self, pg):
        out = [Instance(f"k4_hub({t})", pg.generate.k4_hub(t), {"path": False})
               for t in range(5, 9)]
        g, host = pg.generate.gen_path_graph(10, 9, 26)
        out.append(Instance("gen_path_graph(10,9,26)", g, {"path": True}, host=host))
        for s in range(8):
            g, host = pg.generate.gen_path_graph(14, 13, s)
            out.append(Instance(f"gen_path_graph(14,13,{s})", g, {"path": True}, host=host))
        for n in (6, 8):
            out.append(Instance(f"P_{n}", simple_path(pg, n), {"path": True}))
        return out

    def run(self, pg, inst):
        return pg.oracle.oracle_clique_path_tree(inst.graph)

    def check(self, pg, inst, tree):
        res = Outcome(correct=(tree is not None) == inst.expected["path"])
        if tree is not None:
            res.emitted = 1
            res.valid = checks.is_clique_path_tree(
                inst.graph, [tuple(c) for c in tree.cliques], sorted(tree.edges))
        return res


# certify_small -----------------------------------------------------------


class CertifySmall:
    """pathgraph.cli.main(["certify", file, "--realize", "--json"]) in-process,
    over small edge-list files written during set-up.

    The graphs keep their generated labels: realize's oracle fallback depends
    on vertex ids, and under one relabeling gen_chordal(31,5) spent about
    seven times longer in it, so a relabeling seed would change what is
    measured."""

    name = "certify_small"

    def base(self, pg):
        out = []
        for entry in load_corpus()["chordal"]:
            if entry["path_graph"] is None:
                continue
            n, s = entry["n"], entry["seed"]
            out.append(Instance(f"gen_chordal({n},{s})", pg.generate.gen_chordal(n, s),
                                {"path": entry["path_graph"]}))
        for t in range(4, 9):
            out.append(Instance(f"k4_hub({t})", pg.generate.k4_hub(t), {"path": False}))
        for k in range(4, 9):
            out.append(Instance(f"C_{k}", cycle(pg, k), {"path": False}))
        return out

    def prepare(self, pg, base, seed, workdir):
        folder = Path(workdir) / f"certify_small-seed{seed}"
        folder.mkdir(parents=True, exist_ok=True)
        out = []
        for idx, inst in enumerate(shuffled(base, seed)):
            g = inst.graph
            lines = [f"p {g.n}"]
            lines += [f"{u} {v}" for u in range(g.n) for v in sorted(g.adj[u]) if u < v]
            path = folder / f"{idx:03d}.el"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            out.append(Instance(inst.name, g, inst.expected, path=str(path)))
        return out

    def run(self, pg, inst):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pg.cli.main(["certify", inst.path, "--realize", "--json"])
        return code, out.getvalue(), err.getvalue()

    def check(self, pg, inst, outcome):
        code, text, err = outcome
        if code not in (0, 1):
            return Outcome(correct=False, failed=True, notes=[f"exit {code}: {err.strip()}"])
        doc = json.loads(text)
        g = inst.graph
        res = Outcome(correct=doc["path_graph"] == inst.expected["path"]
                      and code == (0 if doc["path_graph"] else 1)
                      and (doc["path_graph"] or not doc["directed_path_graph"]))
        if doc["hole"] is not None:
            res.emitted += 1
            res.valid += checks.is_hole(g, doc["hole"])
        real = doc.get("realization")
        if real is not None:
            host = real["host"]
            res.emitted += 1
            res.valid += checks.is_host_realization(
                g, host["host_n"], host["host_edges"], host["paths"])
        elif doc["path_graph"]:
            res.correct = False  # an accepted graph must come with a realization
        for sep in doc["separators"]:
            if sep["obstruction"] is not None:
                res.emitted += 1
                res.valid += self._obstruction_ok(pg, g, sep)
        return res

    @staticmethod
    def _obstruction_ok(pg, g, sep) -> bool:
        obs = pg.obstructions
        doc = sep["obstruction"]
        families = {"w0": obs.W0, "w1": obs.W1, "f": obs.F, "ftilde": obs.FTILDE,
                    "df": obs.DF, "full_antipodal_triangle": obs.FULL_TRIANGLE}
        if doc["kind"] not in families:
            return False
        pattern = obs.build_family(families[doc["kind"]], doc["size"])
        o = obs.Obstruction(pattern, tuple(doc["embedding"]), tuple(doc["q"]),
                            witness=doc["witness"])
        return checks.obstruction_holds(pg, g, doc["q"], o)


WORKLOADS = {w.name: w for w in (RecognizeLarge(), RealizeMembers(), OracleHubs(),
                                  CertifySmall())}


def constructed_hosts_hold(base) -> bool:
    """Expected answers taken from construction rest on the generator's own
    realization, so check that it really reproduces each graph."""
    return all(
        checks.is_host_realization(i.graph, i.host.host_n, i.host.host_edges, i.host.paths)
        for i in base
        if i.host is not None
    )
