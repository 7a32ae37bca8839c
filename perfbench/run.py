"""pathgraph benchmark: time to a certified verdict, realization or oracle
answer, on four closed-loop single-process workloads.

    python3 perfbench/run.py --workload recognize_large --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): recognize_large, realize_members, oracle_hubs
and certify_small. A run sets its inputs up three times, then makes whole
passes over them, one call at a time, as many as come nearest to --seconds
(at least one), and sets them up once more after each pass; setup_s is the
median set-up time. Every outcome is checked against a known answer, and
every certificate by the benchmark's own check, after the timed pass.

--trace 0 prints the end-to-end metrics. Their times are reference seconds:
wall time rescaled by the host's speed, which speed.py samples throughout
the run, because the speed of a shared host drifts by more than the bounds.
The raw median pass time is kept in the report under env. --trace 1 makes
one untraced pass, wraps every public pathgraph function (tracer.py), makes
traced passes for the rest of --seconds and prints the per-layer metrics,
each the median over traced passes of its per-pass value. The spans of the
latest traced run of each workload go to perfbench/out/<workload>.spans.tsv.gz.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads
from speed import SpeedProbe
from tracer import Tracer

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "instance_s.geomean": "s",
    "instance_s.max": "s",
    "graphs_per_s": "1/s",
    "pass_s": "s",
    "correct_ratio": "ratio",
    "cert_valid_ratio": "ratio",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

TIMED_FUNCS = {
    "chordal": ("peo_or_hole", "maximal_cliques", "is_clique_path_tree"),
    "graphs": ("induced_subgraph", "connected_components"),
    "decompose": ("clique_separators", "gamma_components"),
    "attach": ("quotient",),
    "coloring": ("skeleton", "weak_coloring"),
    "obstructions": ("refutation_to_obstruction",),
    "realize": ("realize", "clique_path_tree_to_host", "verify_realization"),
    "oracle": ("oracle_clique_path_tree",),
    "kernels": ("first_path_tree",),
}
SELF_ONLY = ("recognize.recognize_path_graph", "recognize.recognize_directed_path_graph",
             "io.parse_graph", "io.verdict_document", "io.emit_verdict", "cli.main")
LAYERS = ("graphs", "chordal", "decompose", "attach", "coloring", "obstructions",
          "recognize", "realize", "oracle", "kernels", "io", "cli")
REFUTATION_KINDS = ("FULL_ANTIPODAL_TRIPLE", "BAD_TRIPLE", "INTRA_NOT_2_COLORABLE")
COUNTERS = {
    "chordal.peo_per_separator": "ratio",
    "decompose.separators": "count",
    "decompose.gammas.sum": "count",
    "decompose.separator_yield": "ratio",
    "attach.classes.max": "count",
    "attach.classes.sum": "count",
    **{f"coloring.refutations.{k}": "count" for k in REFUTATION_KINDS},
    "realize.oracle_fallbacks": "count",
    "oracle.exhausted": "count",
    "oracle.trees_bound": "count",
    "io.bytes_emitted": "B",
    "trace.overhead": "ratio",
    "trace.spans": "count",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for mod, funcs in TIMED_FUNCS.items():
        for f in funcs:
            units[f"{mod}.{f}.calls"] = "count"
            units[f"{mod}.{f}.self_s"] = "s"
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update(COUNTERS)
    return units


def make_hooks(pg):
    """Counters taken from traced calls; they run with tracing paused."""

    def separators(c, args, result):
        c["decompose.separators"] += len(result)
        c["decompose.cliques_tested"] += len(pg.chordal.maximal_cliques(args[0]))

    def gammas(c, args, result):
        c["decompose.gammas.sum"] += len(result.gammas)

    def classes(c, args, result):
        c["attach.classes.sum"] += result.size
        c["attach.classes.max"] = max(c["attach.classes.max"], result.size)

    def coloring(c, args, result):
        kind = getattr(result, "kind", None)
        if kind is not None:
            c[f"coloring.refutations.{kind}"] += 1

    def oracle(c, args, result):
        if result is None:
            k = len(pg.chordal.maximal_cliques(args[0]))
            c["oracle.exhausted"] += 1
            c["oracle.trees_bound"] += k ** (k - 2) if k >= 2 else 1

    def emitted(c, args, result):
        c["io.bytes_emitted"] += len(result.encode())

    return {
        "decompose.clique_separators": separators,
        "decompose.gamma_components": gammas,
        "attach.quotient": classes,
        "coloring.weak_coloring": coloring,
        "oracle.oracle_clique_path_tree": oracle,
        "io.emit_verdict": emitted,
    }


def one_pass(w, pg, instances, tracer=None):
    """Issue every instance once, in order, each after the previous returns."""
    gc.collect()
    intervals, results = [], []
    if tracer is not None:
        tracer.counters.clear()
        lo = tracer.mark()
        tracer.active = True
    start = time.perf_counter()
    for idx, inst in enumerate(instances):
        if tracer is not None:
            tracer.instance = idx
        t0 = time.perf_counter()
        try:
            out, err = w.run(pg, inst), None
        except pg.errors.PathgraphError as exc:
            out, err = None, exc
        intervals.append((t0, time.perf_counter()))
        results.append((out, err))
    wall = time.perf_counter() - start
    p = {"wall": wall, "intervals": intervals}
    if tracer is not None:
        tracer.active = False
        p["spans"] = (lo, tracer.mark())
        p["counters"] = dict(tracer.counters)
    p["outcomes"] = [
        workloads.Outcome(correct=False, failed=True, notes=[f"{type(err).__name__}: {err}"])
        if err is not None else w.check(pg, inst, out)
        for inst, (out, err) in zip(instances, results)
    ]
    return p


def run_passes(w, pg, instances, seconds, tracer=None, after_pass=None):
    """Whole passes, as many as come nearest to ``seconds`` of measuring."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass(w, pg, instances, tracer))
        if after_pass is not None:
            after_pass()
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) / 2 > seconds:
            return passes


def end_to_end(passes, setup_intervals, probe):
    """The end-to-end metrics; every time is in reference seconds (speed.py)."""
    times = [[probe.scaled(t0, t1) for t0, t1 in p["intervals"]] for p in passes]
    pass_times = [sum(t) for t in times]
    per_instance = [statistics.median(col) for col in zip(*times)]
    outcomes = [o for p in passes for o in p["outcomes"]]
    attempted = len(outcomes)
    emitted = sum(o.emitted for o in outcomes)
    ok = sum(not o.failed for o in outcomes)
    return {
        "setup_s": statistics.median(probe.scaled(t0, t1) for t0, t1 in setup_intervals),
        "instance_s.geomean": math.exp(statistics.fmean(math.log(t) for t in per_instance)),
        "instance_s.max": max(per_instance),
        "graphs_per_s": ok / sum(pass_times),
        "pass_s": statistics.median(pass_times),
        "correct_ratio": sum(o.correct for o in outcomes) / attempted,
        "cert_valid_ratio": sum(o.valid for o in outcomes) / emitted if emitted else 1.0,
        "ok_ratio": ok / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, per_instance


def per_layer(tracer, traced, untraced):
    rows = []
    for p in traced:
        lo, hi = p["spans"]
        calls, self_s = tracer.aggregate(lo, hi)
        c = p["counters"]
        row = {}
        for mod, funcs in TIMED_FUNCS.items():
            for f in funcs:
                row[f"{mod}.{f}.calls"] = calls.get(f"{mod}.{f}", 0)
                row[f"{mod}.{f}.self_s"] = self_s.get(f"{mod}.{f}", 0.0)
        for name in SELF_ONLY:
            row[f"{name}.self_s"] = self_s.get(name, 0.0)
        for layer in LAYERS:
            row[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                         if k.split(".", 1)[0] == layer)
        seps = c.get("decompose.separators", 0)
        tested = c.get("decompose.cliques_tested", 0)
        row["chordal.peo_per_separator"] = calls.get("chordal.peo_or_hole", 0) / seps if seps else 0.0
        row["decompose.separator_yield"] = seps / tested if tested else 0.0
        row["realize.oracle_fallbacks"] = tracer.count_under(
            lo, hi, "oracle.oracle_clique_path_tree", "realize")
        for name in COUNTERS:
            row.setdefault(name, c.get(name, 0))
        row["trace.overhead"] = p["wall"] / statistics.median(q["wall"] for q in untraced)
        row["trace.spans"] = hi - lo
        rows.append(row)
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def check_inputs(w, base):
    want = workloads.load_corpus()["digests"].get(w.name)
    if workloads.digest(base) != want:
        raise SystemExit(f"error: {w.name} inputs differ from the recorded digest")
    if not workloads.constructed_hosts_hold(base):
        raise SystemExit("error: a generator's own realization does not reproduce its graph")


def environment(args):
    try:
        backend = importlib.import_module("pathgraph.kernels").BACKEND
    except ImportError:
        backend = "none"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "backend": backend,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pg = workloads.load_pathgraph()
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 10000))
    w = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)

    setup_intervals = []

    def set_up():
        t0 = time.perf_counter()
        base = w.base(pg)
        instances = w.prepare(pg, base, args.seed, OUT)
        setup_intervals.append((t0, time.perf_counter()))
        return base, instances

    env = environment(args)
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        base, instances = set_up()
        check_inputs(w, base)
        untraced = [one_pass(w, pg, instances)]
        tracer = Tracer(make_hooks(pg))
        tracer.install()
        env["wrapped_functions"] = len(tracer.originals)
        traced = run_passes(w, pg, instances, args.seconds - untraced[0]["wall"], tracer)
        metrics = per_layer(tracer, traced, untraced)
        units = per_layer_units()
        passes = untraced + traced
        tracer.write(OUT / f"{w.name}.spans.tsv.gz")  # the latest traced run only
    else:
        with SpeedProbe() as probe:
            for _ in range(SETUP_REPEATS):
                base, instances = set_up()
            check_inputs(w, base)
            # set-up is timed again after each pass, so its samples span the run
            passes = run_passes(w, pg, instances, args.seconds, after_pass=set_up)
        metrics, per_instance = end_to_end(passes, setup_intervals, probe)
        units = END_TO_END
        env.update(probe.summary())
        env["wall_pass_s.median"] = statistics.median(p["wall"] for p in passes)

    outcomes = [o for p in passes for o in p["outcomes"]]
    attempted = len(outcomes)
    failed = sum(o.failed for o in outcomes)
    correct = all(o.correct or o.failed for o in outcomes) and all(
        o.valid == o.emitted for o in outcomes)
    problems = sorted({f"{inst.name}: {note}"
                       for p in passes
                       for inst, o in zip(instances, p["outcomes"])
                       for note in (o.notes or ([] if o.correct and o.valid == o.emitted
                                                else ["wrong verdict or certificate"]))})
    report = {"env": env, "passes": len(passes), "attempted": attempted, "failed": failed,
              "problems": problems, "metrics": metrics}
    if not args.trace:
        report["instance_s"] = {i.name: t for i, t in zip(instances, per_instance)}
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    for name, value in metrics.items():
        print(f"{name:<48} {value:>16.6g} {units[name]}")
    for line in problems:
        print(f"problem: {line}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
