"""Token graphs of cycles, built explicitly.

A configuration of k indistinguishable tokens on the cycle with n
vertices is a k-subset of Z_n.  Two configurations are adjacent when one
is reached from the other by moving a single token to an unoccupied
neighbouring cycle vertex; equivalently, their symmetric difference is
{a, b} with b = a +- 1 (mod n).  This module constructs that graph, its
Laplacian, and the dense-eigensolver spectrum that every other route in
the library is validated against.  ``k_subsets``, ``subset_rank`` and
``token_moves`` enumerate, place and connect configurations for every module.

The adjacency is stored once, in compressed sparse row (CSR) form: the
neighbours of vertex i are ``targets[offsets[i]:offsets[i + 1]]``.  A
product with the adjacency is then one gather and one segmented sum,
``np.add.reduceat(x[targets], offsets[:-1])``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations
from math import comb

import numpy as np

from .errors import ParameterDomainError, SizeLimitError
from .report import SpectrumReport
from .tolerances import ZERO_TOL

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


def check_sector(n: int, r: int) -> None:
    """Reject a sector index r outside [0, n) of the n-cycle."""
    if not 0 <= r < n:
        raise ParameterDomainError(f"sector r={r} must lie in [0, {n})")


def subset_rank(subsets, n: int) -> np.ndarray:
    """Lexicographic rank of each sorted k-subset of Z_n, over the last axis.

    ``subsets`` holds sorted rows s_0 < ... < s_(k-1) of elements of
    [0, n); a row's rank is its position in ``combinations(range(n), k)``,
    C(n, k) - 1 - sum over i of C(n - 1 - s_i, k - i) (Knuth, TAOCP 4A,
    7.2.1.3).  Rows are not validated.
    """
    subsets = np.asarray(subsets, dtype=np.int64)
    k = subsets.shape[-1]
    # binom[a * k + i] = C(a, k - i)
    binom = np.array([comb(a, k - i) for a in range(n) for i in range(k)], dtype=np.int64)
    return comb(n, k) - 1 - binom.take((n - 1 - subsets) * k + np.arange(k)).sum(axis=-1)


def k_subsets(n: int, k: int) -> np.ndarray:
    """Every k-subset of Z_n as a sorted row; row i has rank i (``subset_rank``)."""
    return np.fromiter(chain.from_iterable(combinations(range(n), k)), np.int64,
                       count=comb(n, k) * k).reshape(-1, k)


def token_moves(subsets, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every move of one token to a free adjacent vertex: (source row, target rank).

    Token i of a sorted row s of ``subsets`` moves to s_i + 1 unless token
    i + 1 sits there, and to s_i - 1 unless token i - 1 does (cyclically,
    mod n).  Moves come by row, then token, up before down; targets differ.
    """
    moved = np.stack([(subsets + 1) % n, (subsets - 1) % n], axis=2)
    blocker = np.stack([np.roll(subsets, -1, axis=1), np.roll(subsets, 1, axis=1)], axis=2)
    row, token, way = np.nonzero(moved != blocker)
    targets = subsets[row]
    targets[np.arange(len(row)), token] = moved[row, token, way]
    return row, subset_rank(np.sort(targets, axis=1), n)


@dataclass(frozen=True)
class TokenGraph:
    """The k-token graph of the n-cycle, vertices in lexicographic order.

    Vertex i is ``vertices[i]``, the subset of rank i (``subset_rank``).
    The adjacency is in CSR form: the directed edges leaving vertex i go
    to ``targets[offsets[i]:offsets[i + 1]]``, in ``token_moves`` order
    (moving token, up before down), and ``offsets`` has C(n, k) + 1
    entries.  ``degrees`` holds the vertex degrees, the differences of
    ``offsets``; every degree is at least 1 (see ``build_token_graph``).
    The arrays are read-only.
    """

    n: int
    k: int
    vertices: tuple[tuple[int, ...], ...]
    targets: np.ndarray = field(repr=False, compare=False)
    offsets: np.ndarray = field(repr=False, compare=False)
    degrees: np.ndarray = field(repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.vertices)

    def degree(self, i: int) -> int:
        return int(self.degrees[i])


@lru_cache(maxsize=CACHE_SIZE)
def build_token_graph(n: int, k: int) -> TokenGraph:
    """The token graph F_k(C_n) with its CSR adjacency.

    ``token_moves`` yields the moves grouped by source row, so its
    targets are the CSR column array as they come.  No vertex is
    isolated: with 1 <= k <= n/2 some token has a free cycle neighbour,
    which ``np.add.reduceat`` over ``offsets[:-1]`` relies on (it returns
    the segment's first entry, not 0, for an empty segment).
    """
    check_params(n, k)
    subsets = k_subsets(n, k)
    source, targets = token_moves(subsets, n)
    degrees = np.bincount(source, minlength=len(subsets))
    offsets = np.zeros(len(subsets) + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    for arr in (targets, offsets, degrees):
        arr.flags.writeable = False
    return TokenGraph(n, k, tuple(map(tuple, subsets.tolist())), targets, offsets, degrees)


def laplacian(graph: TokenGraph) -> np.ndarray:
    """Degree diagonal minus adjacency, in the graph's vertex order.

    A vertex's targets are distinct, so each off-diagonal entry is set once.
    """
    m = graph.order
    lap = np.zeros((m, m))
    lap[np.repeat(np.arange(m), graph.degrees), graph.targets] = -1.0
    lap[np.diag_indices(m)] = graph.degrees
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


def algebraic_connectivity(report: SpectrumReport) -> float:
    """Smallest eigenvalue above ZERO_TOL of an already computed spectrum."""
    for v in report.kept:
        if v > ZERO_TOL:
            return v
    raise ValueError("spectrum has no nonzero eigenvalue")
