"""Graph file formats, verdict documents, and DOT output."""

from __future__ import annotations

import json
import re
from collections import defaultdict, deque
from itertools import compress, repeat
from json.encoder import encode_basestring_ascii as _quote

from .attach import AttachednessGraph
from .chordal import CliqueTree
from .errors import InputError
from .graphs import ANTIPODAL, MAX_VERTICES, EdgeColoredGraph, Graph, _from_lists
from .obstructions import FAMILY_ALL, FULL_TRIANGLE, Obstruction, ObstructionPattern
from .realize import HostRealization
from .recognize import (
    DIRECTED_PATH_GRAPH,
    NOT_CHORDAL,
    PATH_GRAPH,
    DirectedVerdict,
    SeparatorReport,
    Verdict,
)

GRAPH6_HEADER = ">>graph6<<"
_DECIMAL = re.compile(r"-?[0-9]+").fullmatch
# A plain id or count: a decimal as str() writes it, which JSON reads too, of
# no more digits than graphs.MAX_VERTICES; a longer one is past that limit.
_ID = f"(?:0|[1-9][0-9]{{0,{len(str(MAX_VERTICES)) - 1}}})"
_HEADER = re.compile(f"p ({_ID})\n").match
_LINES = re.compile(f"(?:{_ID} {_ID}\n)*").fullmatch
_SLICE = 1 << 14  # about how many characters _LINES matches at once
_G6_STRAY = re.compile("[^?-~]").search  # graph6 writes bytes 63..126
# each graph6 character as its six bits, high first, one character "\0" or "\1" each
_G6_BITS = {c: "".join(chr(c - 63 >> k & 1) for k in range(5, -1, -1)) for c in range(63, 127)}

_FAMILY_JSON = {f: f.lower() for f in FAMILY_ALL} | {FULL_TRIANGLE: "full_antipodal_triangle"}


def parse_graph(text: str, fmt: str = "edgelist") -> Graph:
    if fmt == "edgelist":
        return parse_edgelist(text)
    if fmt == "graph6":
        return parse_graph6(text)
    raise InputError(f"unknown graph format {fmt!r}")


def parse_edgelist(text: str) -> Graph:
    """Lines "u v", an optional "p <n>" header first, "#" comments. Ids and n are
    ASCII -?[0-9]+, ids 0-based; with no header n is the largest id plus one.

    Plain text, as emit_edgelist writes it, is read in bulk (_plain_graph);
    any other text, and plain text that fails a check, line by line, with
    the same graphs and the same messages."""
    g = _plain_graph(text)
    return g if g is not None else _parse_lines(text)


def _plain_graph(text: str) -> Graph | None:
    """The graph of a plain text: an optional "p N" header, then "u v" lines,
    every id and count a plain _ID and every line ended by a newline but
    perhaps the last. None if text is not plain, or has a self-loop, no
    header and no edge, or an id or count past its limit.

    Work in Python is per vertex with an edge: the ids are read as one JSON
    array, which takes half the time of int() on each, and each endpoint
    joins the other's neighbour list in C."""
    head = _HEADER(text)
    lines = text[head.end():] if head else text
    if lines and not lines.endswith("\n"):
        lines += "\n"
    if not _is_plain(lines):
        return None
    ids = json.loads("[" + lines[:-1].replace(" ", ",").replace("\n", ",") + "]")
    us, vs = ids[0::2], ids[1::2]
    nbrs: defaultdict[int, list[int]] = defaultdict(list)
    deque(map(list.append, map(nbrs.__getitem__, us), vs), maxlen=0)
    deque(map(list.append, map(nbrs.__getitem__, vs), us), maxlen=0)
    top = max(nbrs, default=-1)
    n = int(head[1]) if head else top + 1
    if not (head or nbrs) or not top < n <= MAX_VERTICES:
        return None
    g = _from_lists(n, nbrs)
    if any(v in g.adj[v] for v in nbrs):  # a self-loop
        return None
    return g


def _is_plain(lines: str) -> bool:
    """Whether lines is "u v" lines of plain ids, each ended by a newline.
    The pattern is matched a slice of whole lines at a time: over a whole
    text the regex engine keeps state for every line it could backtrack
    into, 238 MB on a 7.45 MB text."""
    pos = 0
    while pos < len(lines):
        end = lines.find("\n", pos + _SLICE) + 1 or len(lines)
        if not _LINES(lines, pos, end):
            return False
        pos = end
    return True


def _parse_lines(text: str) -> Graph:
    """parse_edgelist one line at a time: the reader of any text that is not
    plain, and the one that names the first bad line of a plain one."""
    n: int | None = None
    edges: list[tuple[int, int]] = []
    ascii_only = text.isascii()  # then str.isdigit accepts exactly [0-9]+
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line[:line.index("#")]
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "p":
            if n is not None or edges:
                raise InputError(f"line {lineno}: header after data")
            if len(parts) != 2:
                raise InputError(f"line {lineno}: header must be 'p <n>'")
            try:
                n = _decimal(parts[1])
            except ValueError:
                raise InputError(f"line {lineno}: bad vertex count {parts[1]!r}")
            if n < 0:
                raise InputError(f"line {lineno}: negative vertex count")
            if n > MAX_VERTICES:
                raise InputError(
                    f"line {lineno}: vertex count {n} is too large: at most {MAX_VERTICES} vertices"
                )
            continue
        line = line.strip()
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected 'u v', got {line!r}")
        a, b = parts
        try:
            if ascii_only and a.isdigit() and b.isdigit():
                u, v = int(a), int(b)
            else:
                u, v = _decimal(a), _decimal(b)
        except ValueError:
            raise InputError(f"line {lineno}: non-integer vertex id in {line!r}")
        if u > v:
            u, v = v, u
        if u < 0:
            raise InputError(f"line {lineno}: negative vertex id")
        if u == v:
            raise InputError(f"line {lineno}: self-loop on {u}")
        if n is not None and v >= n:
            raise InputError(f"line {lineno}: vertex id beyond declared count {n}")
        if v >= MAX_VERTICES:
            raise InputError(
                f"line {lineno}: vertex id {v} is past the limit of {MAX_VERTICES} vertices"
            )
        edges.append((u, v))
    if n is None:
        if not edges:
            raise InputError("empty graph input (no header, no edges)")
        n = max(v for _, v in edges) + 1
    return Graph.from_edges(n, edges)


def _decimal(s: str) -> int:
    """s as an int if it is ASCII -?[0-9]+ and int() reads it; else ValueError."""
    if not _DECIMAL(s):
        raise ValueError(s)
    return int(s)


def emit_edgelist(g: Graph) -> str:
    lines = [f"p {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_graph6(text: str) -> Graph:
    """One graph6 string, perhaps after the >>graph6<< header. Work in Python
    is per column of the adjacency matrix's upper triangle, and per pair in C:
    the payload becomes one byte per bit, and each column's lower
    neighbours are the ones its bytes select."""
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):].strip()
    if not s:
        raise InputError("empty graph6 input")
    lines = [line for line in map(str.strip, s.splitlines()) if line]
    if len(lines) > 1:
        raise InputError("graph6: more than one graph")
    s = lines[0]
    bad = _G6_STRAY(s)
    if bad:
        raise InputError(f"graph6: invalid character {bad[0]!r}")
    vals = [ord(ch) - 63 for ch in s[:8]]
    if vals[0] < 63:
        n = vals[0]
        pos = 1
    elif len(vals) >= 4 and vals[1] < 63:
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        pos = 4
    elif len(vals) >= 8:
        n = 0
        for v in vals[2:8]:
            n = (n << 6) | v
        pos = 8
    else:
        raise InputError("graph6: truncated size field")
    if pos > 1 and n <= (62 if pos == 4 else 258047):  # the shorter form holds n
        raise InputError(f"graph6: size {n} does not need the long form")
    pairs = n * (n - 1) // 2
    need = (pairs + 5) // 6
    if len(s) - pos < need:
        raise InputError("graph6: truncated edge bits")
    if len(s) - pos > need:
        raise InputError("graph6: characters after the edge bits")
    if need and (ord(s[-1]) - 63) & ((1 << (6 * need - pairs)) - 1):
        raise InputError("graph6: nonzero padding bits")
    bits = s[pos:].translate(_G6_BITS).encode("ascii")
    nbrs: defaultdict[int, list[int]] = defaultdict(list)
    for j in range(1, n):
        start = j * (j - 1) // 2
        lower = list(compress(range(j), bits[start:start + j]))
        if lower:
            nbrs[j] = lower
            deque(map(list.append, map(nbrs.__getitem__, lower), repeat(j)), maxlen=0)
    return _from_lists(n, nbrs)


def emit_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = chr(126) + "".join(
            chr(((n >> k) & 63) + 63) for k in (12, 6, 0)
        )
    else:
        head = chr(126) * 2 + "".join(
            chr(((n >> k) & 63) + 63) for k in (30, 24, 18, 12, 6, 0)
        )
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    body = "".join(
        chr(sum(b << (5 - k) for k, b in enumerate(bits[p:p + 6])) + 63)
        for p in range(0, len(bits), 6)
    )
    return head + body + "\n"


def _obstruction_doc(o: Obstruction) -> dict:
    p = o.pattern
    return {
        "kind": _FAMILY_JSON[p.family],
        "size": p.size,
        "embedding": list(o.embedding),
        "witness": o.witness,
        "pattern_antipodal": [list(e) for e in sorted(p.pattern.antipodal)],
        "pattern_dominance": [list(e) for e in sorted(p.pattern.dominance)],
        "q": list(o.q),
    }


def _refutation_doc(r) -> dict:
    doc: dict = {"kind": r.kind, "classes": list(r.classes)}
    if r.witness is not None:
        doc["witness_class"] = r.witness
    if r.member is not None:
        doc["member"] = list(r.member)
    if r.cycle is not None:
        doc["cycle"] = list(r.cycle)
    if r.path is not None:
        doc["path"] = list(r.path)
    if r.endpoint_colors is not None:
        doc["endpoint_colors"] = list(r.endpoint_colors)
    if r.pair is not None:
        doc["pair"] = list(r.pair)
    return doc


def attachedness_doc(m: AttachednessGraph) -> dict:
    """The separator, its classes and the colored edges between them."""
    return {
        "q": list(m.q),
        "classes": m.size,
        "class_members": [list(mem) for mem in m.class_members],
        "antipodal_edges": [list(e) for e in sorted(m.antipodal)],
        "dominance_pairs": [list(p) for p in sorted(m.dominance_order)],
    }


def separator_doc(report: SeparatorReport) -> dict:
    m = report.attachedness
    dec = report.decomposition
    s = report.skeleton
    doc: dict = attachedness_doc(m) | {
        "gammas": [
            {
                "index": gamma.index,
                "component": list(gamma.component),
                "traces": [list(tr) for tr in gamma.traces],
            }
            for gamma in dec.gammas
        ],
        "upper": list(s.upper),
        "d_single": {str(i + 1): list(d) for i, d in enumerate(s.d_single)},
        "d_pair": {f"{i},{j}": list(d) for (i, j), d in sorted(s.d_pair.items())},
        "coloring": None,
        "refutation": None,
        "obstruction": None,
    }
    if report.coloring is not None:
        doc["coloring"] = {str(k): c for k, c in sorted(report.coloring.f.items())}
    if report.refutation is not None:
        doc["refutation"] = _refutation_doc(report.refutation)
    if report.obstruction is not None:
        doc["obstruction"] = _obstruction_doc(report.obstruction)
    return doc


def realization_doc(t: CliqueTree, host: HostRealization | None = None) -> dict:
    doc: dict = {
        "cliques": [list(c) for c in t.cliques],
        "tree_edges": [list(e) for e in sorted(t.edges)],
    }
    if host is not None:
        doc["host"] = host_doc(host)
    return doc


def host_doc(host: HostRealization) -> dict:
    return {
        "host_n": host.host_n,
        "host_edges": [list(e) for e in sorted(host.host_edges)],
        "paths": [list(p) for p in host.paths],
    }


def verdict_document(
    g: Graph,
    verdict: Verdict,
    gplus: bool = False,
    directed: DirectedVerdict | None = None,
    realization: dict | None = None,
) -> dict:
    doc: dict = {
        "input": {"n": g.n, "edges": g.num_edges, "gplus": gplus},
        "chordal": verdict.status != NOT_CHORDAL,
        "hole": None if verdict.hole is None else list(verdict.hole.cycle),
        "path_graph": verdict.status == PATH_GRAPH,
        "separators": [separator_doc(r) for r in verdict.reports],
    }
    if directed is not None:
        doc["directed_path_graph"] = directed.status == DIRECTED_PATH_GRAPH
        if directed.q is not None:
            doc["directed_detail"] = {
                "q": list(directed.q),
                "odd_cycle": None
                if directed.odd_cycle is None
                else list(directed.odd_cycle),
            }
    if realization is not None:
        doc["realization"] = realization
    return doc


def emit_verdict(doc: dict) -> str:
    """Byte-identical to ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` on
    dicts with str keys, lists, strs, ints, bools and None; others: TypeError."""
    return _json(doc, "\n") + "\n"


_LITERALS = {True: "true", False: "false", None: "null"}


def _json(x, nl: str) -> str:
    """x as JSON; nl is a newline plus the indent of the line x starts on."""
    t = type(x)
    if t is list:
        if not x:
            return "[]"
        inner = nl + "  "
        if {*map(type, x)} == {int}:
            items = map(str, x)
        else:
            items = [_json(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if t is dict:
        if not x:
            return "{}"
        inner = nl + "  "
        items = [_quote(k) + ": " + _json(x[k], inner) for k in sorted(x)]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if t is str:
        return _quote(x)
    if t is int:
        return str(x)
    if t is bool or x is None:
        return _LITERALS[x]
    raise TypeError(f"cannot emit {t.__name__} as JSON")


def format_traces(traces: tuple[tuple[int, ...], ...], graph: Graph | None = None) -> str:
    """Traces as "{a,b} {c}", each vertex by graph's label when a graph is given."""
    name = str if graph is None else graph.label
    return " ".join("{" + ",".join(map(name, tr)) + "}" for tr in traces)


def _dot_label(text: str) -> str:
    """text as a DOT quoted string, each backslash and quote escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_colored(name: str, ecg: EdgeColoredGraph, node_labels=None) -> str:
    lines = [f"graph {name} {{"]
    for v in range(ecg.n):
        label = str(v) if node_labels is None else node_labels[v]
        lines.append(f"  k{v} [label={_dot_label(label)}];")
    for u, v, color in ecg.edges():
        style = "" if color == ANTIPODAL else " [style=dotted]"
        lines.append(f"  k{u} -- k{v}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_dot(obj, graph: Graph | None = None) -> str:
    """DOT text for clique trees, attachedness graphs, and obstruction
    patterns. Antipodal edges are solid, dominance edges dotted."""
    if isinstance(obj, CliqueTree):
        lines = ["graph cliquetree {", "  node [shape=box];"]
        for i, c in enumerate(obj.cliques):
            names = [graph.label(v) if graph is not None else str(v) for v in c]
            lines.append(f"  c{i} [label={_dot_label(' '.join(names))}];")
        for a, b in sorted(obj.edges):
            lines.append(f"  c{a} -- c{b};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    if isinstance(obj, AttachednessGraph):
        labels = [f"{i}: {format_traces(gm.traces, graph)}" for i, gm in enumerate(obj.gammas)]
        return _dot_colored("attachedness", obj.edges, labels)
    if isinstance(obj, ObstructionPattern):
        name = f"{obj.family.lower()}_{obj.pattern.n}"
        return _dot_colored(name, obj.pattern)
    if isinstance(obj, EdgeColoredGraph):
        return _dot_colored("colored", obj)
    raise InputError(f"cannot render {type(obj).__name__} as DOT")
