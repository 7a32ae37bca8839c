"""Smoke test of the benchmark harness against the current API.

Each workload in perfbench/workloads.py runs and checks its smallest member
and, where it has one, its smallest non-member, so an API change that breaks
the harness (a renamed report field, a changed positional signature) fails
here instead of in a benchmark run. The harness files are only imported,
except for one short traced run of run.py in a subprocess. Each workload's
inputs must also match the digest recorded in corpus.json.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOAD_NAMES = ("recognize_large", "realize_members", "oracle_hubs", "certify_small")


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", [str(PERFBENCH), *sys.path])
    workloads = importlib.import_module("workloads")
    return workloads, workloads.load_pathgraph()


def _smallest(instances):
    return min(instances, key=lambda i: (i.graph.n, i.graph.num_edges, i.name))


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_runs_and_checks_its_smallest_cases(harness, tmp_path, name):
    workloads, pg = harness
    w = workloads.WORKLOADS[name]
    base = w.base(pg)
    members = [i for i in base if i.expected["path"]]
    others = [i for i in base if not i.expected["path"]]
    chosen = [_smallest(members)] + ([_smallest(others)] if others else [])
    for inst in w.prepare(pg, chosen, 1, tmp_path):
        res = w.check(pg, inst, w.run(pg, inst))
        assert res.correct and not res.failed, (inst.name, res.notes)
        assert res.valid == res.emitted, inst.name


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_inputs_match_the_recorded_digests(harness, name):
    # the generators' output is pinned by corpus.json, which run.py checks
    # before it measures anything
    workloads, pg = harness
    want = workloads.load_corpus()["digests"][name]
    assert workloads.digest(workloads.WORKLOADS[name].base(pg)) == want


def test_traced_run_wraps_the_api_and_checks_out():
    # --trace 1 wraps every public pathgraph function and fails on any it
    # leaves unwrapped, so a renamed or deleted public name shows up here
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "realize_members",
         "--seed", "1", "--seconds", "0.5", "--trace", "1"],
        cwd=PERFBENCH.parent, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last
