"""tokenspectra benchmark: end-to-end metrics, or a traced per-layer breakdown.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

A run samples set-up in fresh interpreters, computes the references the
checks need, then runs passes over the workload's instances one after
another (a closed loop with one caller) until the next pass would end
after ``--seconds``.  Each pass is a fresh worker process, so every pass
starts with empty library caches.  Times are scaled to a reference
machine speed that a probe samples during each pass (see probe.py); the
raw times are printed beside them.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics, including the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
``--workload all`` runs every workload in turn and prefixes each metric
with its workload's name.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SRC = os.path.join(ROOT, "src")

import tracing  # noqa: E402  (the runner's own directory is on sys.path)
import workloads  # noqa: E402

# Each dense kernel runs on one BLAS thread, in the workers and in the
# runner's reference computations.  A pass then runs on one core, the one
# the speed probe measures; at these matrix sizes a second thread saved
# less time than the run-to-run noise on the 2-core development host.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0

# (name, unit, better, bound): the bound is the share of the parent's
# median by which the metric may worsen before a change is a regression.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_frac", "ratio", "higher", 0.01),
)


class WorkerError(RuntimeError):
    """A worker process exited abnormally or printed no result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"  # same set and dict order in every pass
    return env


def spawn(workload: str, seed: int, mode: str, trace: bool, pass_id: int,
          deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    timeout = max(1.0, deadline - time.monotonic())
    cmd = [sys.executable, WORKER, workload, str(seed), mode,
           "1" if trace else "0", str(pass_id)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(os.path.join(SRC, "tokenspectra"))):
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(base, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "cold_start": "fresh worker process per pass, so lru_caches start empty",
        "loop": "closed loop, one caller, one pass at a time",
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def tail_percentile(values):
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 11) / (n - 1), sorted(values)[n - 11]


def describe_timing(name: str, values) -> str:
    text = f"{name}: median {statistics.median(values):.6g} s"
    tail = tail_percentile(values)
    if tail:
        text += f", p{tail[0]:.0f} {tail[1]:.6g} s"
    else:
        text += ", no percentile has ten samples beyond it"
    return text + f", {len(values)} samples"


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    """One run of one workload; returns the result object for the last line."""
    instances = workloads.make_instances(workload, seed)
    print(f"{workload}: seed {seed}, instances "
          + ", ".join(workloads.describe(i) for i in instances))
    setup_runs = [spawn(workload, seed, "setup", False, -1, deadline)
                  for _ in range(SETUP_SAMPLES)]
    try:
        refs = [workloads.reference(workload, inst) for inst in instances]
    except Exception as exc:  # a broken oracle fails every instance
        print(f"reference computation failed: {type(exc).__name__}: {exc}")
        refs = None

    kinds = (False, True) if trace else (False,)
    passes = []
    start = time.monotonic()
    while True:
        traced = kinds[len(passes) % len(kinds)]
        passes.append((traced, spawn(workload, seed, "pass", traced, len(passes), deadline)))
        spent = time.monotonic() - start
        # stop when one more pass of the mean length would end too late
        if len(passes) >= len(kinds) and spent * (len(passes) + 1) / len(passes) > seconds:
            break

    attempted, failed = count_failures(workload, instances, [r for _, r in passes], refs)

    plain = [r for t, r in passes if not t]
    walls = [r["wall_s"] / r["speed"] for r in plain]
    setup_runs += [r for _, r in passes]
    setups = [r["setup_s"] / r["setup_speed"] for r in setup_runs]
    rss = [r["peak_rss_mb"] for r in plain]
    print(describe_timing("wall_s", walls))
    print(describe_timing("  raw pass time", [r["wall_s"] for r in plain]))
    print("  machine speed factor per pass: "
          + " ".join(f"{r['speed']:.3f}" for r in plain))
    print(describe_timing("setup_s", setups))
    print(describe_timing("  raw set-up time", [r["setup_s"] for r in setup_runs]))
    print(f"peak_rss_mb: median {statistics.median(rss):.6g} MB, max {max(rss):.6g} MB, "
          f"{len(rss)} samples")
    print(f"fail_frac: {failed / attempted:.6g} ({failed} of {attempted} instances)")

    if not trace:
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(rss),
                  "ok_frac": (attempted - failed) / attempted}
        units = {name: unit for name, unit, _, _ in END_TO_END}
    else:
        values = trace_metrics(passes)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        for name, unit, _ in tracing.PER_LAYER:
            print(f"  {name:32s} {values[name]:>16.6g} {unit}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units}}


def count_failures(workload: str, instances, results, refs, echo=print):
    """(attempted, failed) over every instance of every pass.

    A failed check counts its instance as failed and the run goes on.
    ``refs`` is None when the reference computation itself failed.
    """
    attempted = failed = 0
    for res in results:
        for i, (inst, out) in enumerate(zip(instances, res["outputs"])):
            attempted += 1
            reasons = (workloads.check(workload, out, refs[i]) if refs is not None
                       else ["no reference"])
            if reasons:
                failed += 1
                echo(f"FAILED {workloads.describe(inst)}: {'; '.join(reasons)}")
    return attempted, failed


def trace_metrics(passes) -> dict:
    """Per-layer metrics: medians over the traced passes of one run."""
    traced = [r for t, r in passes if t]
    plain = [r for t, r in passes if not t]
    values = {}
    for name, _, _ in tracing.PER_LAYER:
        if not name.startswith("trace."):
            values[name] = statistics.median(r["trace"][name] for r in traced)
    values["trace.pass_s"] = statistics.median(r["wall_s"] / r["speed"] for r in traced)
    values["trace.untraced_pass_s"] = statistics.median(r["wall_s"] / r["speed"] for r in plain)
    values["trace.overhead_s"] = values["trace.pass_s"] - values["trace.untraced_pass_s"]
    values["trace.self_sum_ratio"] = statistics.median(
        r["trace"]["trace.self_sum"] / r["wall_s"] for r in traced)
    values["trace.spans"] = statistics.median(r["trace"]["trace.spans"] for r in traced)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="passes start while the run fits in this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tokenspectra", "__init__.py")):
        print(f"error: no tokenspectra sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    sys.path.insert(0, SRC)

    print("env: " + json.dumps(environment()))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + RUN_LIMIT_S
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{m}": v for w, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
