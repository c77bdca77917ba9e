"""Workload definitions: seeded inputs, the timed calls, and their checks.

Each workload is a list of instances.  ``make_instances`` derives them
from the seed alone and is pure Python, so the worker can generate them
inside its set-up time and the runner can rebuild the same list to
compute references.  ``run_instance`` is the only code inside the timed
region; it calls the library's public functions and returns their raw
results.  ``summarize`` runs after the clock stops and turns a raw
result into plain JSON data, adding checks that need the raw objects.
``reference`` and ``check`` run in the parent process, outside every
timed region.
"""
from __future__ import annotations

import contextlib
import io
import random
from itertools import combinations
from math import comb

WORKLOADS = ("overlift-large", "twotoken-sweep", "verify-sweep", "eigenspace-lift")

WHY = {
    "overlift-large": "full_spectrum (14,7) and (15,7): specialize, dense eig sector "
                      "solve and spurious filter at nu = 246 and 429; no twotoken calls",
    "twotoken-sweep": "spectrum_2token at n near 80, 100, 120: contfrac sector roots and "
                      "their SVD checks; polymatrix and laurent do no work",
    "verify-sweep": "cli verify --n-max 12: every route at small nu, where fixed per-call "
                    "costs dominate (305 sector solves, ~8.5k small SVDs)",
    "eigenspace-lift": "kept_eigenpairs (12,6) then lift_eigenvector for all 924 pairs: "
                       "the only workload that lifts eigenvectors",
}

# The seed draws one offset d in [-TWOTOKEN_BAND, TWOTOKEN_BAND] and uses
# the sizes (80 - d, 100 - d, 120 + d).  Sector-root time grows roughly as
# n^4, so moving the largest size against the two smaller ones keeps the
# work of a pass within about 1% across seeds: the run-to-run spread then
# belongs to the code, not to the seed.
TWOTOKEN_BASES = (80, 100, 120)
TWOTOKEN_BAND = 1


# Check count and spectra count that `verify --n-max 12` printed at the
# commit that defined this benchmark.
VERIFY_ARGV = ("verify", "--n-max", "12")
VERIFY_CHECKS = 218
VERIFY_SPECTRA = 412

TOL = 1e-8


def make_instances(workload: str, seed: int) -> list[dict]:
    """The instances of one pass, in the order the seed picks.

    Seed 0 gives the instances in their listed order, and the two-token
    sizes exactly 80, 100 and 120.
    """
    rng = random.Random(seed)
    if workload == "overlift-large":
        insts = [{"n": 14, "k": 7}, {"n": 15, "k": 7}]
    elif workload == "twotoken-sweep":
        d = rng.randint(-TWOTOKEN_BAND, TWOTOKEN_BAND) if seed else 0
        insts = [{"n": n} for n in (80 - d, 100 - d, 120 + d)]
    elif workload == "verify-sweep":
        insts = [{"argv": list(VERIFY_ARGV)}]
    elif workload == "eigenspace-lift":
        order = list(range(comb(12, 6)))
        if seed:
            rng.shuffle(order)
        insts = [{"n": 12, "k": 6, "lift_order": order}]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if seed:
        rng.shuffle(insts)
    return insts


def describe(inst: dict) -> str:
    if "argv" in inst:
        return " ".join(inst["argv"])
    if "k" in inst:
        return f"({inst['n']},{inst['k']})"
    return f"n={inst['n']}"


# --- timed calls (worker process) -------------------------------------------

def run_instance(workload: str, inst: dict):
    """Call the library for one instance and return its raw result."""
    import tokenspectra as ts
    from tokenspectra import cli

    if workload == "overlift-large":
        return ts.full_spectrum(inst["n"], inst["k"])
    if workload == "twotoken-sweep":
        return ts.spectrum_2token(inst["n"])
    if workload == "verify-sweep":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(list(inst["argv"]))
        return rc, out.getvalue()
    if workload == "eigenspace-lift":
        n, k = inst["n"], inst["k"]
        pairs = ts.kept_eigenpairs(n, k)
        orbits = ts.enumerate_orbits(n, k)
        graph = ts.build_token_graph(n, k)
        lap = ts.laplacian(graph)
        lifted = [ts.lift_eigenvector(pairs[i], orbits, graph, lap)
                  for i in inst["lift_order"]]
        return len(pairs), graph.vertices, lifted
    raise ValueError(f"unknown workload {workload!r}")


def summarize(workload: str, inst: dict, raw) -> dict:
    """Plain data for the parent's check; runs after the timed region."""
    if workload in ("overlift-large", "twotoken-sweep"):
        return {"kept": list(raw.kept)}
    if workload == "verify-sweep":
        rc, text = raw
        return {"rc": rc, "output_tail": text.splitlines()[-2:]}
    pairs, vertices, lifted = raw
    return {
        "pairs": pairs,
        "kept": [v.value for v in lifted],
        "library_residual_max": max((v.residual for v in lifted), default=0.0),
        "residual_max": _lift_residual(vertices, inst["n"], lifted),
    }


def _lift_residual(vertices, n: int, lifted) -> float:
    """Largest |L v - lambda v| / max|v| over the lifted vectors.

    L is rebuilt here from the token-move rule over the library's vertex
    order, so the check does not rest on the library's own Laplacian.
    """
    import numpy as np

    if not lifted:
        return 0.0
    index = {v: i for i, v in enumerate(vertices)}
    lap = np.zeros((len(vertices), len(vertices)))
    for i, v in enumerate(vertices):
        for nb in _moves(v, n):
            lap[i, index[nb]] -= 1.0
            lap[i, i] += 1.0
    vecs = np.column_stack([v.values for v in lifted])
    vals = np.array([v.value for v in lifted])
    res = np.max(np.abs(lap @ vecs - vecs * vals), axis=0)
    scale = np.max(np.abs(vecs), axis=0)
    if np.any(scale == 0):
        return float("inf")
    return float(np.max(res / scale))


# --- references and checks (parent process) ---------------------------------

def _moves(subset, n: int):
    occupied = set(subset)
    for a in subset:
        for b in ((a + 1) % n, (a - 1) % n):
            if b not in occupied:
                yield tuple(sorted((occupied - {a}) | {b}))


def degree_sums(n: int, k: int) -> tuple[int, int]:
    """(sum of degrees, sum of squared degrees) of F_k(C_n), by enumeration."""
    s1 = s2 = 0
    for subset in combinations(range(n), k):
        d = sum(1 for _ in _moves(subset, n))
        s1 += d
        s2 += d * d
    return s1, s2


def reference(workload: str, inst: dict) -> dict:
    """What a correct result must satisfy; computed outside timed regions.

    Library routes serve as oracles only where an independent route
    exists: the brute spectrum for (14,7) and (12,6), the overlift
    spectrum for two tokens.  The degree sums come from this file alone.
    """
    if workload == "verify-sweep":
        return {"rc": 0, "checks": VERIFY_CHECKS, "spectra": VERIFY_SPECTRA}
    import tokenspectra as ts

    n = inst["n"]
    k = inst.get("k", 2)
    s1, s2 = degree_sums(n, k)
    ref = {"count": comb(n, k), "trace1": s1, "trace2": s2 + s1}
    if workload == "overlift-large" and comb(n, k) <= 5000:
        ref["oracle"] = list(ts.brute_spectrum(n, k).kept)
    elif workload == "twotoken-sweep":
        ref["oracle"] = list(ts.full_spectrum(n, 2).kept)
    elif workload == "eigenspace-lift":
        ref["oracle"] = list(ts.brute_spectrum(n, k).kept)
    return ref


def _max_gap(a, b) -> float:
    a, b = sorted(a), sorted(b)
    return max((abs(x - y) for x, y in zip(a, b)), default=0.0)


def check(workload: str, out: dict, ref: dict) -> list[str]:
    """Reasons the instance output is wrong; empty when it passes."""
    if "error" in out:
        return [out["error"]]
    if workload == "verify-sweep":
        want = f"{ref['checks']} checks, {ref['spectra']} spectra compared"
        bad = []
        if out["rc"] != ref["rc"]:
            bad.append(f"exit code {out['rc']}, expected {ref['rc']}")
        if want not in out["output_tail"]:
            bad.append(f"summary {out['output_tail']!r}, expected {want!r}")
        return bad
    kept = out["kept"]
    bad = []
    if len(kept) != ref["count"]:
        return [f"{len(kept)} eigenvalues, expected {ref['count']}"]
    t1 = sum(kept)
    t2 = sum(v * v for v in kept)
    if abs(t1 - ref["trace1"]) > TOL * max(1.0, ref["trace1"]):
        bad.append(f"sum of eigenvalues {t1!r}, expected {ref['trace1']}")
    if abs(t2 - ref["trace2"]) > TOL * max(1.0, ref["trace2"]):
        bad.append(f"sum of squared eigenvalues {t2!r}, expected {ref['trace2']}")
    if "oracle" in ref:
        gap = _max_gap(kept, ref["oracle"])
        if gap > TOL:
            bad.append(f"deviates from the reference spectrum by {gap:.3e}")
    if workload == "eigenspace-lift":
        if out["pairs"] != ref["count"]:
            bad.append(f"{out['pairs']} kept pairs, expected {ref['count']}")
        for key in ("library_residual_max", "residual_max"):
            if not out[key] <= TOL:
                bad.append(f"lifted vector {key} {out[key]:.3e} exceeds {TOL:g}")
    return bad
