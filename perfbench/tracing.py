"""Span tracing of one benchmark pass, applied from outside the library.

``Tracer.install`` replaces each function in ``TRACED`` by a wrapper in
every module namespace that holds it (aliases included, found by
identity), and replaces ``LaurentMatrix.specialize`` on its class.  A
wrapper records a span (name, start, end, parent, pass id) in memory,
feeds the counter hook for its function, and attributes an exception to
the layer of the innermost span it escapes from.  ``metrics`` turns the
spans into per-layer self times and counts: a span's self time is its
duration minus the durations of its children, so the self times of all
spans, the root included, add up to the root's duration.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict


# A hook runs after its function returns and adds to tracer.counters;
# keys starting with "_" are inputs to ratios, not metrics themselves.
def _hook_specialize(tracer, args, kwargs, result):
    nu = args[0].order
    tracer.counters["laurent.cells_evaluated"] += nu * nu


def _hook_build(tracer, args, kwargs, result):
    c = tracer.counters
    c["polymatrix.nonzero_cells"] += sum(1 for row in result.entries for p in row if p)
    c["_polymatrix.cells"] += result.order ** 2


def _hook_filter(tracer, args, kwargs, result):
    c = tracer.counters
    c["_polymatrix.kept"] += sum(v.kept for v in result)
    c["_polymatrix.computed"] += sum(v.total for v in result)


def _hook_enumerate(tracer, args, kwargs, result):
    # enumerate_orbits is cached: count each table once, when it is built
    key = (result.n, result.k)
    if key not in tracer.enumerated:
        tracer.enumerated.add(key)
        tracer.counters["necklaces.orbits"] += result.count


def _hook_verification(tracer, args, kwargs, result):
    tracer.counters["cli.checks"] += result[1]


# Standard dense-kernel operation counts (Golub and Van Loan), real
# arithmetic; a complex matrix counts four times.  Computed from the
# argument shapes, not measured.
def _flops(kernel: str, a, args, kwargs) -> float:
    m, n = a.shape[-2:]
    batch = 1
    for d in a.shape[:-2]:
        batch *= d
    if kernel == "eig":
        f = 25.0 * n ** 3
    elif kernel == "eigh":
        f = 9.0 * n ** 3
    elif kernel == "eigvalsh":
        f = 4.0 / 3.0 * n ** 3
    else:
        p, q = max(m, n), min(m, n)
        compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
        if not compute_uv:
            f = 4.0 * p * q * q - 4.0 / 3.0 * q ** 3
        elif full:
            f = 4.0 * p * p * q + 8.0 * p * q * q + 9.0 * q ** 3
        else:
            f = 6.0 * p * q * q + 20.0 * q ** 3
    return batch * f * (4 if a.dtype.kind == "c" else 1)


def _linalg_hook(kernel: str):
    def hook(tracer, args, kwargs, result):
        import numpy as np

        c = tracer.counters
        a = np.asarray(args[0])
        c["linalg.flops_computed"] += round(_flops(kernel, a, args, kwargs))
        c["linalg.max_dim"] = max(c["linalg.max_dim"], *a.shape[-2:])
    return hook


# (module, attribute, span name, counter hook)
TRACED = (
    ("tokenspectra.necklaces", "enumerate_orbits", "necklaces.enumerate", _hook_enumerate),
    ("tokenspectra.necklaces", "count_burnside", "necklaces.count", None),
    ("tokenspectra.necklaces", "count_polya", "necklaces.count", None),
    ("tokenspectra.necklaces", "count_moreau", "necklaces.count", None),
    ("tokenspectra.laurent", "LaurentMatrix.specialize", "laurent.specialize", _hook_specialize),
    ("tokenspectra.polymatrix", "build_poly_matrix", "polymatrix.build", _hook_build),
    ("tokenspectra.polymatrix", "sector_eigenpairs", "polymatrix.sector_solve", None),
    ("tokenspectra.polymatrix", "filter_spurious", "polymatrix.filter", _hook_filter),
    ("tokenspectra.polymatrix", "full_spectrum", "polymatrix.full_spectrum", None),
    ("tokenspectra.polymatrix", "kept_eigenpairs", "polymatrix.kept_pairs", None),
    ("tokenspectra.polymatrix", "lift_eigenvector", "polymatrix.lift", None),
    ("tokenspectra.twotoken", "spectrum_2token", "twotoken.spectrum", None),
    ("tokenspectra.twotoken", "sector_roots", "twotoken.sector_roots", None),
    ("tokenspectra.twotoken", "build_b2", "twotoken.build_b2", None),
    ("tokenspectra.tokengraph", "build_token_graph", "tokengraph.graph", None),
    ("tokenspectra.tokengraph", "laplacian", "tokengraph.laplacian", None),
    ("tokenspectra.tokengraph", "brute_spectrum", "tokengraph.brute", None),
    ("tokenspectra.report", "multisets_close", "report.compare", None),
    ("tokenspectra.report", "multiset_contains", "report.compare", None),
    ("tokenspectra.report", "max_multiset_deviation", "report.compare", None),
    ("tokenspectra.cli", "main", "cli.verify", None),
    ("tokenspectra.cli", "run_verification", "cli.verify", _hook_verification),
    ("numpy.linalg", "eig", "linalg.eig", _linalg_hook("eig")),
    ("numpy.linalg", "eigh", "linalg.eigh", _linalg_hook("eigh")),
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh", _linalg_hook("eigvalsh")),
    ("numpy.linalg", "svd", "linalg.svd", _linalg_hook("svd")),
)

ROOT_SPAN = "bench.pass"
LAYERS = ("necklaces", "laurent", "polymatrix", "twotoken", "tokengraph",
          "report", "cli", "linalg")
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in TRACED))

# Per-layer metrics, in report order: (name, unit, better).  Self times
# are "<span>_s" for every span; "bench.glue_s" is the root's self time,
# the benchmark's own loop between library calls.
_CALLS = ("laurent.specialize", "polymatrix.sector_solve", "polymatrix.lift",
          "twotoken.sector_roots", "twotoken.build_b2", "necklaces.count",
          "tokengraph.brute", "report.compare",
          "linalg.eig", "linalg.eigh", "linalg.eigvalsh", "linalg.svd")
_CALL_NAMES = {"polymatrix.sector_solve": "polymatrix.sectors_solved"}

PER_LAYER = (
    [(f"{s}_s", "s", "lower") for s in SPAN_NAMES]
    + [("bench.glue_s", "s", "lower")]
    + [(_CALL_NAMES.get(s, f"{s}_calls"), "count", "lower") for s in _CALLS]
    + [("laurent.cells_evaluated", "count", "lower"),
       ("polymatrix.nonzero_cells", "count", "lower"),
       ("polymatrix.fill_ratio", "ratio", "lower"),
       ("polymatrix.kept_ratio", "ratio", "higher"),
       ("necklaces.orbits", "count", "lower"),
       ("cli.checks", "count", "higher"),
       ("linalg.flops_computed", "flop", "lower"),
       ("linalg.max_dim", "count", "lower")]
    + [(f"{layer}.errors", "count", "lower") for layer in LAYERS]
    + [("trace.pass_s", "s", "lower"),
       ("trace.untraced_pass_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower"),
       ("trace.self_sum_ratio", "ratio", "higher"),
       ("trace.spans", "count", "lower")]
)

# Metrics that count work and must repeat exactly between traced runs.
COUNT_METRICS = tuple(name for name, unit, _ in PER_LAYER
                      if unit != "s" and name != "trace.self_sum_ratio")


class Tracer:
    """Collects the spans and counters of one traced pass."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.stack = [-1]
        self.counters = defaultdict(int)
        self.errors = defaultdict(int)
        self.enumerated: set[tuple[int, int]] = set()

    def _wrap(self, fn, name: str, hook):
        spans, stack, errors = self.spans, self.stack, self.errors
        layer = name.split(".", 1)[0]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1]])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if not getattr(exc, "_perfbench_counted", False):
                    errors[layer] += 1
                    try:
                        exc._perfbench_counted = True
                    except AttributeError:
                        pass
                raise
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function in every module that holds it."""
        for modname, attr, name, hook in TRACED:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(getattr(cls, meth), name, hook))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, hook)
            holders = [m for k, m in list(sys.modules.items())
                       if m is not None and (k == modname or k.startswith("tokenspectra"))]
            for mod in holders:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    @contextlib.contextmanager
    def root(self):
        """Wrap the whole pass in the root span."""
        self.spans.append([ROOT_SPAN, time.perf_counter(), 0.0, -1])
        self.stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self.spans[self.stack.pop()][2] = time.perf_counter()

    def metrics(self) -> dict:
        """Per-layer self times, counts and error counts of this pass."""
        n = len(self.spans)
        child = [0.0] * n
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
        c = self.counters
        out = {f"{s}_s": self_s.get(s, 0.0) for s in SPAN_NAMES}
        out["bench.glue_s"] = self_s.get(ROOT_SPAN, 0.0)
        for s in _CALLS:
            out[_CALL_NAMES.get(s, f"{s}_calls")] = calls.get(s, 0)
        for key in ("laurent.cells_evaluated", "polymatrix.nonzero_cells",
                    "necklaces.orbits", "cli.checks", "linalg.flops_computed",
                    "linalg.max_dim"):
            out[key] = c.get(key, 0)
        out["polymatrix.fill_ratio"] = _ratio(c.get("polymatrix.nonzero_cells", 0),
                                              c.get("_polymatrix.cells", 0))
        out["polymatrix.kept_ratio"] = _ratio(c.get("_polymatrix.kept", 0),
                                              c.get("_polymatrix.computed", 0))
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors.get(layer, 0)
        out["trace.spans"] = n
        out["trace.self_sum"] = sum(self_s.values())
        return out

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent, pass id."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent, self.pass_id]) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0

