"""Span tracer that wraps pathgraph's public functions from outside the package.

Every public function defined in a public ``pathgraph`` module is replaced by
a wrapper in every ``pathgraph.*`` module dict that holds it, so
``from .x import f`` aliases (``recognize.gamma_components``,
``decompose.is_chordal``, ...) are traced too. The package source is not
touched.

A span records its name, start, end, parent span and instance id. Spans are
kept in memory as columns of machine integers and written out at exit. Hooks
turn a traced call's arguments and result into counters; the clock is paused
while a hook runs, so hooks add nothing to any span.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import pkgutil
import sys
import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self, hooks=None):
        self.hooks = hooks or {}
        self.active = False
        self.instance = -1
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_instance = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [-1]
        self.paused_ns = 0
        self.counters: dict[str, float] = defaultdict(float)
        self.originals: dict[object, object] = {}  # original -> wrapper

    def _wrap(self, qualname: str, fn):
        name_id = self.name_ids[qualname] = len(self.names)
        self.names.append(qualname)
        hook = self.hooks.get(qualname)
        names, parents, insts = self.span_name, self.span_parent, self.span_instance
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            insts.append(tracer.instance)
            ends.append(0)
            stack.append(sid)
            starts.append(clock() - tracer.paused_ns)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock() - tracer.paused_ns
                stack.pop()
            if hook is not None:
                t0 = clock()
                tracer.active = False
                try:
                    hook(tracer.counters, args, result)
                finally:
                    tracer.active = True
                    tracer.paused_ns += clock() - t0
            return result

        return traced

    def install(self, package: str = "pathgraph") -> None:
        """Wrap the package's public functions and rebind every alias to them."""
        pkg = importlib.import_module(package)
        for info in pkgutil.iter_modules(pkg.__path__):
            try:
                mod = importlib.import_module(f"{package}.{info.name}")
            except ImportError:
                continue  # an optional compiled extension that is not built
            if info.name.startswith("_"):
                continue
            for attr, value in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                ):
                    self.originals[value] = self._wrap(f"{info.name}.{attr}", value)
        for mod in self._package_modules(package):
            for attr, value in list(vars(mod).items()):
                wrapper = self._lookup(value)
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
        self.check_installed(package)

    def _lookup(self, value):
        try:
            return self.originals.get(value)
        except TypeError:  # unhashable module attribute
            return None

    @staticmethod
    def _package_modules(package: str):
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))
        ]

    def check_installed(self, package: str = "pathgraph") -> None:
        """Fail if any module dict of the package still holds an unwrapped original."""
        left = [
            f"{mod.__name__}.{attr}"
            for mod in self._package_modules(package)
            for attr, value in vars(mod).items()
            if self._lookup(value) is not None
        ]
        if left:
            raise RuntimeError(f"unwrapped originals remain: {', '.join(sorted(left))}")
        if not self.originals:
            raise RuntimeError(f"no public functions found in {package}")

    def mark(self) -> int:
        """Span index at this moment, used to cut the span list into passes."""
        return len(self.span_name)

    def aggregate(self, lo: int, hi: int):
        """Calls and self time (s) per span name over spans lo..hi-1. Self
        time is a span's duration minus the durations of its child spans."""
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        child_ns = defaultdict(int)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(lo, hi):
            p = parents[i]
            if p >= 0:
                child_ns[p] += ends[i] - starts[i]
        for i in range(lo, hi):
            name = self.names[names[i]]
            calls[name] += 1
            self_ns[name] += ends[i] - starts[i] - child_ns[i]
        return calls, {k: v / 1e9 for k, v in self_ns.items()}

    def count_under(self, lo: int, hi: int, name: str, ancestor_module: str) -> int:
        """Spans named ``name`` with an ancestor span from ``ancestor_module``."""
        target = self.name_ids.get(name)
        if target is None:
            return 0
        prefix = ancestor_module + "."
        out = 0
        for i in range(lo, hi):
            if self.span_name[i] != target:
                continue
            p = self.span_parent[i]
            while p >= 0:
                if self.names[self.span_name[p]].startswith(prefix):
                    out += 1
                    break
                p = self.span_parent[p]
        return out

    def write(self, path) -> None:
        """Write every span as a tab-separated row, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tparent\tinstance\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{self.span_instance[i]}\t"
                    f"{self.names[self.span_name[i]]}\t{self.span_start[i]}\t"
                    f"{self.span_end[i]}\n"
                )
