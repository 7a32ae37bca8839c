"""Command line surface.

Exit codes: 0 member, 1 non-member, 2 input or output error, 3 guard refusal.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import io as gio
from .attach import quotient
from .chordal import HoleCertificate, _connected_index, _index_or_hole, _relabelled_components
from .decompose import _decomposition, _separators
from .errors import GenerationError, GuardRefusal, InputError, PreconditionError
from .generate import gen_chordal, gen_path_graph, k4_hub
from .graphs import Graph, graph_plus
from .obstructions import build_family
from .oracle import _oracle_tree
from .realize import _tree_from, clique_path_tree_to_host
from .recognize import (
    DIRECTED_PATH_GRAPH,
    NOT_CHORDAL,
    _directed_verdict,
    recognize_path_graph,
)

_FAMILIES = {name: f for f, name in gio._FAMILY_JSON.items()}


def _read_graph(args) -> Graph:
    try:
        if args.graph == "-":
            text = sys.stdin.read()
        else:
            with open(args.graph, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        name = "stdin" if args.graph == "-" else args.graph
        raise InputError(f"cannot read {name}: {exc}")
    g = gio.parse_graph(text, args.format)
    if args.gplus:
        g = graph_plus(g)
    return g


class _WriteError(Exception):
    """Standard output could not be written; no verdict reached the reader."""


def _say(args, text: str) -> None:
    if args.quiet:
        return
    try:
        print(text, end="" if text.endswith("\n") else "\n", flush=True)
    except OSError as exc:
        # what is left in stdout's buffer would fail again when the
        # interpreter flushes it at exit; send it to the null device
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):
            pass  # a stream with no descriptor, as when called in-process
        else:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, fd)
            os.close(null)
        raise _WriteError(f"cannot write output: {exc}") from None


def _reject(args, text: str) -> int:
    """A non-member: text, or under --json the document {"path_graph": false}."""
    _say(args, gio.emit_verdict({"path_graph": False}) if args.json else text)
    return 1


def _cmd_recognize(args) -> int:
    g = _read_graph(args)
    verdict = recognize_path_graph(g)
    directed = _directed_verdict(verdict)
    if args.json:
        doc = {
            "chordal": verdict.status != NOT_CHORDAL,
            "hole": None if verdict.hole is None else list(verdict.hole.cycle),
            "path_graph": verdict.is_path_graph,
            "directed_path_graph": directed.status == DIRECTED_PATH_GRAPH,
        }
        _say(args, gio.emit_verdict(doc))
    else:
        yn = lambda b: "yes" if b else "no"
        _say(args, f"chordal: {yn(verdict.status != NOT_CHORDAL)}")
        if verdict.hole is not None:
            _say(args, f"hole: {' '.join(map(str, verdict.hole.cycle))}")
        _say(args, f"path graph: {yn(verdict.is_path_graph)}")
        _say(args, f"directed path graph: {yn(directed.status == DIRECTED_PATH_GRAPH)}")
    return 0 if verdict.is_path_graph else 1


def _cmd_certify(args) -> int:
    g = _read_graph(args)
    verdict = recognize_path_graph(g)
    directed = _directed_verdict(verdict)
    realization = None
    if args.realize and verdict.is_path_graph:
        t = _tree_from(g, verdict)
        realization = gio.realization_doc(t, clique_path_tree_to_host(g, t))
    doc = gio.verdict_document(
        g, verdict, gplus=args.gplus, directed=directed, realization=realization
    )
    _say(args, gio.emit_verdict(doc))
    return 0 if verdict.is_path_graph else 1


def _cmd_realize(args) -> int:
    g = _read_graph(args)
    verdict = recognize_path_graph(g)
    if not verdict.is_path_graph:
        return _reject(args, "not a path graph; nothing to realize")
    t = _tree_from(g, verdict)
    host = clique_path_tree_to_host(g, t)
    if args.dot:
        _say(args, gio.emit_dot(t, g))
    elif args.json:
        _say(args, gio.emit_verdict(gio.realization_doc(t, host)))
    else:
        lines = []
        for i, c in enumerate(t.cliques):
            lines.append(f"clique {i}: {' '.join(g.label(v) for v in c)}")
        for a, b in sorted(t.edges):
            lines.append(f"tree edge: {a} -- {b}")
        _say(args, "\n".join(lines))
    return 0


def _cmd_oracle(args) -> int:
    g = _read_graph(args)
    index = _index_or_hole(g)
    if isinstance(index, HoleCertificate):
        return _reject(args, "not chordal; not a path graph")
    trees = []
    for comp, cliques, occurrences in _relabelled_components(index):
        t = _oracle_tree(cliques, occurrences)
        if t is None:
            return _reject(args, "path graph (oracle): no")
        trees.append((comp, t))
    if args.json:
        doc = {
            "path_graph": True,
            "trees": [
                gio.realization_doc(t) | {"component": list(comp)} for comp, t in trees
            ],
        }
        _say(args, gio.emit_verdict(doc))
    else:
        _say(args, "path graph (oracle): yes")
    return 0


def _cmd_gen(args) -> int:
    host = None
    if args.kind == "path":
        g, host = gen_path_graph(max(2, args.n), args.n, args.seed)
    elif args.kind == "chordal":
        g = gen_chordal(args.n, args.seed)
    else:
        g = k4_hub(args.n)
    if args.json:
        doc = {"n": g.n, "edges": [list(e) for e in g.edges()]}
        if host is not None:
            doc["host"] = gio.host_doc(host)
        _say(args, gio.emit_verdict(doc))
    elif args.format == "graph6":
        _say(args, gio.emit_graph6(g))
    else:
        _say(args, gio.emit_edgelist(g))
    return 0


def _cmd_attachedness(args) -> int:
    g = _read_graph(args)
    index = _connected_index(g, "attachedness")
    seps = list(_separators(index))
    if not seps:
        raise InputError("graph has no clique separator (it is an atom)")
    if not 0 <= args.separator < len(seps):
        raise InputError(
            f"separator index {args.separator} out of range (have {len(seps)})"
        )
    m = quotient(_decomposition(index, seps[args.separator]))
    if args.dot:
        _say(args, gio.emit_dot(m, g))
    elif args.json:
        _say(args, gio.emit_verdict(gio.attachedness_doc(m)))
    else:
        lines = [f"separator: {' '.join(g.label(v) for v in m.q)}"]
        lines.append(f"classes: {m.size}")
        for i, gamma in enumerate(m.gammas):
            traces = gio.format_traces(gamma.traces, g)
            lines.append(f"class {i}: members {list(m.class_members[i])} traces {traces}")
        for u, v, c in m.edges.edges():
            lines.append(f"{c}: {u} -- {v}")
        _say(args, "\n".join(lines))
    return 0


def _cmd_obstruction(args) -> int:
    pattern = build_family(_FAMILIES[args.family], args.size)
    if args.dot:
        _say(args, gio.emit_dot(pattern))
    elif args.json:
        doc = {
            "family": args.family,
            "size": pattern.size,
            "vertices": pattern.pattern.n,
            "antipodal": [list(e) for e in sorted(pattern.pattern.antipodal)],
            "dominance": [list(e) for e in sorted(pattern.pattern.dominance)],
        }
        _say(args, gio.emit_verdict(doc))
    else:
        lines = [f"{args.family} size {pattern.size}: {pattern.pattern.n} vertices"]
        for u, v, c in pattern.pattern.edges():
            lines.append(f"{c}: {u} -- {v}")
        _say(args, "\n".join(lines))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each parse_args call returns a
    fresh Namespace."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("edgelist", "graph6"), default="edgelist",
        help="graph file format (default edgelist)",
    )
    common.add_argument(
        "--gplus", action="store_true",
        help="attach a pendant vertex to every vertex before analysis",
    )
    common.add_argument("--json", action="store_true", help="JSON output")
    common.add_argument("--quiet", action="store_true", help="exit code only")

    ap = argparse.ArgumentParser(prog="pathgraph", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recognize", parents=[common], help="path graph verdict")
    p.add_argument("graph", nargs="?", default="-", help="file or - for stdin")
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser(
        "certify", parents=[common],
        help="full verdict document with certificates",
    )
    p.add_argument("graph", nargs="?", default="-")
    p.add_argument(
        "--realize", action="store_true",
        help="include a clique path tree and host realization when accepted",
    )
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("realize", parents=[common], help="build a clique path tree")
    p.add_argument("graph", nargs="?", default="-")
    p.add_argument("--dot", action="store_true", help="DOT output")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("oracle", parents=[common], help="brute-force verdict")
    p.add_argument("graph", nargs="?", default="-")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen", parents=[common], help="seeded example generators")
    p.add_argument("--kind", choices=("path", "chordal", "k4hub"), required=True)
    p.add_argument("--n", type=int, default=8, help="size parameter")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser(
        "attachedness", parents=[common],
        help="attachedness graph at one separator",
    )
    p.add_argument("graph", nargs="?", default="-")
    p.add_argument(
        "--separator", type=int, default=0,
        help="index into the canonical separator list",
    )
    p.add_argument("--dot", action="store_true", help="DOT output")
    p.set_defaults(func=_cmd_attachedness)

    p = sub.add_parser(
        "obstruction", parents=[common], help="print a forbidden pattern"
    )
    p.add_argument("--family", choices=sorted(_FAMILIES), required=True)
    p.add_argument("--size", type=int, default=1, help="family index k or n")
    p.add_argument("--dot", action="store_true", help="DOT output")
    p.set_defaults(func=_cmd_obstruction)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, PreconditionError, GenerationError, _WriteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardRefusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
