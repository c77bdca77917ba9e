"""Token graphs of cycles, built explicitly.

A configuration of k indistinguishable tokens on the cycle with n
vertices is a k-subset of Z_n.  Two configurations are adjacent when one
is reached from the other by moving a single token to an unoccupied
neighbouring cycle vertex; equivalently, their symmetric difference is
{a, b} with b = a +- 1 (mod n).  This module constructs that graph, its
Laplacian, and the dense-eigensolver spectrum that every other route in
the library is validated against.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations
from math import comb

import numpy as np

from .errors import ParameterDomainError, SizeLimitError
from .report import SpectrumReport

DENSE_SPECTRUM_CAP = 5000
# (n, k) pairs each cached table keeps; verify asks for each pair back to back
CACHE_SIZE = 32


def check_params(n: int, k: int) -> None:
    """Reject (n, k) outside 1 <= k <= n/2, n >= 3."""
    if n < 3:
        raise ParameterDomainError(f"cycle length n={n} must be at least 3")
    if k < 1 or 2 * k > n:
        raise ParameterDomainError(
            f"token count k={k} must satisfy 1 <= k <= n/2 for n={n}")


def check_token_set(elements, n: int) -> tuple[int, ...]:
    """Validate and normalize one token configuration to a sorted tuple."""
    elems = tuple(sorted(elements))
    if len(set(elems)) != len(elems):
        raise ParameterDomainError(f"token positions must be distinct: {elements}")
    if not elems or any(x < 0 or x >= n for x in elems):
        raise ParameterDomainError(f"token positions must lie in [0, {n}): {elements}")
    return elems


def token_neighbors(subset, n: int) -> list[tuple[int, ...]]:
    """Configurations reached by one token move to an empty adjacent vertex.

    Each valid (token, direction) move yields a distinct neighbour, so the
    degree of ``subset`` is the length of the returned list.
    """
    occupied = set(subset)
    out = []
    for a in subset:
        for b in ((a + 1) % n, (a - 1) % n):
            if b not in occupied:
                out.append(tuple(sorted((occupied - {a}) | {b})))
    return out


@dataclass(frozen=True)
class TokenGraph:
    """The k-token graph of the n-cycle, vertices in lexicographic order.

    ``edges`` holds the adjacency lists as two int arrays (source, target),
    one column per directed edge, grouped by source; ``degrees`` holds
    the vertex degrees.
    """

    n: int
    k: int
    vertices: tuple[tuple[int, ...], ...]
    adjacency: tuple[tuple[int, ...], ...]
    index: dict = field(repr=False, compare=False)
    edges: np.ndarray = field(repr=False, compare=False)
    degrees: np.ndarray = field(repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.vertices)

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])


@lru_cache(maxsize=CACHE_SIZE)
def build_token_graph(n: int, k: int) -> TokenGraph:
    check_params(n, k)
    vertices = tuple(combinations(range(n), k))
    index = {v: i for i, v in enumerate(vertices)}
    adjacency = tuple(
        tuple(index[nb] for nb in token_neighbors(v, n)) for v in vertices)
    degrees = np.array([len(nbs) for nbs in adjacency], dtype=np.int64)
    edges = np.stack([np.repeat(np.arange(len(vertices)), degrees),
                      np.fromiter(chain.from_iterable(adjacency), dtype=np.int64,
                                  count=int(degrees.sum()))])
    edges.flags.writeable = False
    degrees.flags.writeable = False
    return TokenGraph(n, k, vertices, adjacency, index, edges, degrees)


def laplacian(graph: TokenGraph) -> np.ndarray:
    """Degree diagonal minus adjacency, in the graph's vertex order."""
    m = graph.order
    lap = np.zeros((m, m))
    np.subtract.at(lap, tuple(graph.edges), 1.0)
    lap[np.diag_indices(m)] += graph.degrees
    return lap


def brute_spectrum(n: int, k: int) -> SpectrumReport:
    """All C(n, k) Laplacian eigenvalues by dense symmetric eigensolve.

    Guarded at C(n, k) <= 5000 so runtimes stay in seconds.
    """
    check_params(n, k)
    size = comb(n, k)
    if size > DENSE_SPECTRUM_CAP:
        raise SizeLimitError(
            f"C({n},{k}) = {size} exceeds the dense spectrum cap {DENSE_SPECTRUM_CAP}")
    vals = np.linalg.eigvalsh(laplacian(build_token_graph(n, k)))
    return SpectrumReport(n, k, "brute", vals, None, np.ones(len(vals), dtype=bool))


def algebraic_connectivity(report: SpectrumReport, zero_tol: float = 1e-8) -> float:
    """Smallest eigenvalue above zero_tol of an already computed spectrum."""
    for v in report.kept:
        if v > zero_tol:
            return v
    raise ValueError("spectrum has no nonzero eigenvalue")
