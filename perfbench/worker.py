"""One benchmark pass in a fresh interpreter; prints its result as JSON.

    python3 perfbench/worker.py <workload> <seed> <setup|pass> <trace 0|1> <pass id>

Every pass runs in its own process, so the library's lru_caches start
empty, as they do for a command-line call, and the peak resident memory
belongs to that pass alone.  ``setup`` mode stops after importing the
library and generating the inputs, which is the set-up the runner
samples several times per run.  The last line of standard output is the
JSON result; the library's own output never reaches standard output.
"""
from __future__ import annotations

import contextlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def main(argv: list[str]) -> int:
    workload, seed, mode, trace, pass_id = argv
    seed, trace, pass_id = int(seed), trace == "1", int(pass_id)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    t0 = time.perf_counter()
    import tokenspectra

    import workloads
    instances = workloads.make_instances(workload, seed)
    setup_s = time.perf_counter() - t0

    import probe
    setup_speed = probe.speed_factor([probe.task() for _ in range(probe.EDGE_SAMPLES)])

    src = os.path.join(ROOT, "src", "tokenspectra")
    if os.path.dirname(os.path.abspath(tokenspectra.__file__)) != src:
        print(f"tokenspectra imported from {tokenspectra.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_speed": setup_speed}))
        return 0

    # A traced pass is probed only before and after it: probe time inside
    # a span would count as that layer's self time.
    tracer = None
    sampler = probe.Sampler(during=not trace)
    if trace:
        import tracing
        tracer = tracing.Tracer(pass_id)
        tracer.install()
    raws, errors = [], []
    with sampler, tracer.root() if tracer else contextlib.nullcontext():
        t_pass = time.perf_counter()
        for inst in instances:
            try:
                raws.append(workloads.run_instance(workload, inst))
                errors.append(None)
            except Exception as exc:  # a failed instance is counted, not fatal
                raws.append(None)
                errors.append(f"{type(exc).__name__}: {exc}")
        wall_s = time.perf_counter() - t_pass - sampler.spent
    peak_rss_mb = _peak_rss_mb()

    outputs = []
    for inst, raw, err in zip(instances, raws, errors):
        if err is None:
            try:
                outputs.append(workloads.summarize(workload, inst, raw))
            except Exception as exc:
                err = f"{type(exc).__name__} while checking: {exc}"
        if err is not None:
            outputs.append({"error": err})
    result = {"setup_s": setup_s, "setup_speed": setup_speed, "wall_s": wall_s,
              "speed": probe.speed_factor(sampler.samples),
              "peak_rss_mb": peak_rss_mb, "outputs": outputs}
    if tracer:
        result["trace"] = tracer.metrics()
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}-pass{pass_id}.jsonl"))
    print(json.dumps(result))
    return 0


def _peak_rss_mb() -> float:
    """High-water resident memory of this process image, in MB.

    VmHWM counts this process alone.  ru_maxrss would not: a child keeps
    the runner's peak across fork and exec, and the runner's brute-force
    references are larger than some passes.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
