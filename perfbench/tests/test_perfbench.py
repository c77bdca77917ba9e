"""Tests of the benchmark itself: inputs, checks, counts and its manifest.

Run from the repository root:

    python3 -m pytest perfbench/tests

The count test runs every workload twice under tracing and takes about
a minute on a 2-core machine.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_seed_zero_gives_the_listed_instances():
    assert workloads.make_instances("overlift-large", 0) == [
        {"n": 14, "k": 7}, {"n": 15, "k": 7}]
    assert workloads.make_instances("twotoken-sweep", 0) == [
        {"n": 80}, {"n": 100}, {"n": 120}]
    assert workloads.make_instances("verify-sweep", 0) == [
        {"argv": ["verify", "--n-max", "12"]}]
    [lift] = workloads.make_instances("eigenspace-lift", 0)
    assert (lift["n"], lift["k"], lift["lift_order"]) == (12, 6, list(range(924)))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_the_same_inputs(workload):
    for seed in range(1, 30):
        assert workloads.make_instances(workload, seed) == workloads.make_instances(workload, seed)


def test_seed_only_reorders_fixed_instances():
    for seed in range(1, 30):
        for workload in ("overlift-large", "verify-sweep"):
            got = map(workloads.describe, workloads.make_instances(workload, seed))
            want = map(workloads.describe, workloads.make_instances(workload, 0))
            assert sorted(got) == sorted(want)
        [lift] = workloads.make_instances("eigenspace-lift", seed)
        assert sorted(lift["lift_order"]) == list(range(924))


def test_twotoken_sizes_stay_in_the_band():
    seen = set()
    for seed in range(200):
        ns = sorted(i["n"] for i in workloads.make_instances("twotoken-sweep", seed))
        for n, base in zip(ns, workloads.TWOTOKEN_BASES):
            assert abs(n - base) <= workloads.TWOTOKEN_BAND
        seen.update(ns)
    assert seen == {b + d for b in workloads.TWOTOKEN_BASES for d in (-1, 0, 1)}


def _spectrum_output(workload, inst):
    return workloads.summarize(workload, inst, workloads.run_instance(workload, inst))


@pytest.mark.parametrize("workload, inst", [
    ("twotoken-sweep", {"n": 9}),
    ("overlift-large", {"n": 8, "k": 4}),
])
def test_perturbed_spectrum_counts_as_failed(workload, inst):
    ref = workloads.reference(workload, inst)
    good = _spectrum_output(workload, inst)
    assert workloads.check(workload, good, ref) == []

    bad = dict(good, kept=list(good["kept"]))
    bad["kept"][0] += 1e-3
    assert workloads.check(workload, bad, ref)

    lines = []
    attempted, failed = run.count_failures(
        workload, [inst], [{"outputs": [good]}, {"outputs": [bad]}, {"outputs": [good]}],
        [ref], echo=lines.append)
    assert (attempted, failed) == (3, 1)
    assert len(lines) == 1 and lines[0].startswith("FAILED")


def test_degree_sums_match_the_library_graph():
    import tokenspectra as ts

    for n, k in [(6, 3), (9, 2), (10, 4)]:
        graph = ts.build_token_graph(n, k)
        degs = [graph.degree(i) for i in range(graph.order)]
        assert workloads.degree_sums(n, k) == (sum(degs), sum(d * d for d in degs))


def test_failed_verify_and_errors_are_reported():
    ref = workloads.reference("verify-sweep", {})
    ok = {"rc": 0, "output_tail": ["218 checks, 412 spectra compared", "all checks passed"]}
    assert workloads.check("verify-sweep", ok, ref) == []
    assert workloads.check("verify-sweep", dict(ok, rc=1), ref)
    assert workloads.check("verify-sweep", {"error": "PoleError: x"}, ref) == ["PoleError: x"]


def _traced_pass(workload):
    deadline = time.monotonic() + 170.0
    return run.spawn(workload, 0, "pass", True, 0, deadline)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_two_traced_runs_give_identical_counts(workload):
    first, second = _traced_pass(workload), _traced_pass(workload)
    counts = {name: first["trace"][name] for name in tracing.COUNT_METRICS}
    assert counts == {name: second["trace"][name] for name in tracing.COUNT_METRICS}
    # the self times of all spans add up to the traced pass
    assert first["trace"]["trace.self_sum"] == pytest.approx(first["wall_s"], rel=1e-3)
    assert all(first["trace"][f"{layer}.errors"] == 0 for layer in tracing.LAYERS)


def test_manifest_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]] \
        == [tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] \
        == [tuple(m) for m in tracing.PER_LAYER]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
