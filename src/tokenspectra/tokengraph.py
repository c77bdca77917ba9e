"""Token graphs of cycles, built explicitly.

A configuration of k indistinguishable tokens on the cycle with n
vertices is a k-subset of Z_n.  Two configurations are adjacent when one
is reached from the other by moving a single token to an unoccupied
neighbouring cycle vertex; equivalently, their symmetric difference is
{a, b} with b = a +- 1 (mod n).  This module constructs that graph, its
Laplacian, and the dense-eigensolver spectrum that every other route in
the library is validated against.  That oracle splits the Laplacian by
the reflection X -> -X and, when 2k = n, the complement X -> Z_n - X,
permutations of the explicit vertex list checked exactly on the
adjacency, into one block per sign character; it never uses rotation,
the symmetry the orbit routes are built on.  ``k_subsets``,
``subset_rank`` and ``token_moves`` enumerate, place and connect
configurations for every module.

The adjacency is stored once, as a fixed-width token-slot table: slot
2i + way of vertex x holds the rank of x with its token i moved up
(way 0) or down (way 1), or the sentinel C(n, k) when that cycle vertex
is occupied.  A product with the adjacency is then one gather from a
vector padded with one trailing zero and a sum over the 2k slots,
``padded[moves].sum(axis=0)``, in O(k C(n, k)).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations
from math import comb
from numbers import Integral

import numpy as np

from .errors import CountMismatchError, NumericFailureError, ParameterDomainError, SizeLimitError
from .report import SpectrumReport
from .tolerances import ZERO_TOL

DENSE_SPECTRUM_CAP = 5000
# (n, k) pairs each cached table keeps; verify asks for each pair back to back
CACHE_SIZE = 32


def check_integers(**sizes) -> None:
    """Reject a size that is not an integer: floats, bools and strings; NumPy integers pass."""
    for name, value in sizes.items():
        # exact ints skip the ABC test, which costs more than the range check after it
        if type(value) is not int and (isinstance(value, bool) or not isinstance(value, Integral)):
            raise ParameterDomainError(f"{name}={value!r} must be an integer")


def check_params(n: int, k: int) -> tuple[int, int]:
    """Reject (n, k) outside 1 <= k <= n/2, n >= 3; return them as Python ints.

    Every route computes with the returned sizes, so a narrow NumPy
    integer cannot wrap.
    """
    check_integers(n=n, k=k)
    n, k = int(n), int(k)
    if n < 3:
        raise ParameterDomainError(f"cycle length n={n} must be at least 3")
    if k < 1 or 2 * k > n:
        raise ParameterDomainError(
            f"token count k={k} must satisfy 1 <= k <= n/2 for n={n}")
    return n, k


def check_sector(n: int, r: int) -> tuple[int, int]:
    """Reject a sector index r outside [0, n) of the n-cycle; return (n, r) as Python ints."""
    check_integers(n=n, r=r)
    n, r = int(n), int(r)
    if not 0 <= r < n:
        raise ParameterDomainError(f"sector r={r} must lie in [0, {n})")
    return n, r


def subset_rank(subsets, n: int) -> np.ndarray:
    """Lexicographic rank of each sorted k-subset of Z_n, over the last axis.

    ``subsets`` holds sorted rows s_0 < ... < s_(k-1) of elements of
    [0, n); a row's rank is its position in ``combinations(range(n), k)``,
    C(n, k) - 1 - sum over i of C(n - 1 - s_i, k - i) (Knuth, TAOCP 4A,
    7.2.1.3).  Rows are not validated.
    """
    subsets = np.asarray(subsets, dtype=np.int64)
    k = subsets.shape[-1]
    return comb(n, k) - 1 - _rank_table(n, k).take(subsets * k + np.arange(k)).sum(axis=-1)


@lru_cache(maxsize=CACHE_SIZE)
def _rank_table(n: int, k: int) -> np.ndarray:
    """table[s * k + i] = C(n - 1 - s, k - i) for s < n, i < k, read-only."""
    table = np.array([comb(n - 1 - s, k - i) for s in range(n) for i in range(k)], dtype=np.int64)
    table.flags.writeable = False
    return table


def k_subsets(n: int, k: int) -> np.ndarray:
    """Every k-subset of Z_n as a sorted row; row i has rank i (``subset_rank``)."""
    return np.fromiter(chain.from_iterable(combinations(range(n), k)), np.int64,
                       count=comb(n, k) * k).reshape(-1, k)


def token_moves(subsets, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every move of one token to a free adjacent vertex: (source row, slot, target rank).

    Token i of a sorted row s of ``subsets`` moves to s_i + 1 (way 0)
    unless token i + 1 sits there, and to s_i - 1 (way 1) unless token
    i - 1 does (cyclically, mod n); the move's slot is 2i + way.  Moves
    come by row, then slot; the targets of a row differ.
    """
    moved = np.stack([(subsets + 1) % n, (subsets - 1) % n], axis=2)
    blocker = np.stack([np.roll(subsets, -1, axis=1), np.roll(subsets, 1, axis=1)], axis=2)
    row, token, way = np.nonzero(moved != blocker)
    targets = subsets[row]
    targets[np.arange(len(row)), token] = moved[row, token, way]
    return row, 2 * token + way, subset_rank(np.sort(targets, axis=1), n)


@dataclass(frozen=True)
class TokenGraph:
    """The k-token graph of the n-cycle, vertices in lexicographic order.

    Vertex i is ``vertices[i]``, the subset of rank i (``subset_rank``).
    The adjacency is a token-slot table of shape (2k, C(n, k)):
    ``moves[2i + way, x]`` is the rank of vertex x with its token i moved
    up (way 0) or down (way 1), the ``token_moves`` slot, and C(n, k)
    when that cycle vertex is occupied.  ``degrees`` counts each vertex's
    valid slots; every degree is at least 1 (with 1 <= k <= n/2 some
    token has a free cycle neighbour).  The arrays are read-only.
    """

    n: int
    k: int
    vertices: tuple[tuple[int, ...], ...]
    moves: np.ndarray = field(repr=False, compare=False)
    degrees: np.ndarray = field(repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.vertices)

    def degree(self, i: int) -> int:
        return int(self.degrees[i])


@lru_cache(maxsize=CACHE_SIZE, typed=True)  # typed: 6.0 == 6 must reach check_params
def build_token_graph(n: int, k: int) -> TokenGraph:
    """The token graph F_k(C_n) with its token-slot adjacency."""
    n, k = check_params(n, k)
    subsets = k_subsets(n, k)
    m = len(subsets)
    source, slot, target = token_moves(subsets, n)
    moves = np.full((2 * k, m), m, dtype=np.int64)
    moves[slot, source] = target
    degrees = (moves < m).sum(axis=0)
    for arr in (moves, degrees):
        arr.flags.writeable = False
    return TokenGraph(n, k, tuple(map(tuple, subsets.tolist())), moves, degrees)


def laplacian(graph: TokenGraph) -> np.ndarray:
    """Degree diagonal minus adjacency, in the graph's vertex order.

    A vertex's targets are distinct, so each off-diagonal entry is set once.
    """
    m = graph.order
    lap = np.zeros((m, m))
    slot, source = np.nonzero(graph.moves < m)
    lap[source, graph.moves[slot, source]] = -1.0
    lap[np.diag_indices(m)] = graph.degrees
    return lap


def involutions(rows: np.ndarray, n: int) -> list[np.ndarray]:
    """The reflection X -> -X and, when 2k = n, the complement X -> Z_n - X.

    ``rows`` holds sorted k-subsets X of Z_n; entry i of each array is
    the rank (``subset_rank``) of the image of row i.  On all of
    ``k_subsets(n, k)`` each is a vertex permutation of the token graph.
    Neither is checked here; ``symmetry_blocks`` checks the permutations
    and ``necklaces.check_mirror`` and ``check_complement`` the orbit data.
    """
    m, k = rows.shape
    ranks = [subset_rank(np.sort(-rows % n, axis=1), n)]
    if 2 * k == n:
        # the complement of each sorted row, in ascending order
        free = np.ones((m, n), dtype=bool)
        free[np.arange(m)[:, None], rows] = False
        ranks.append(subset_rank(np.nonzero(free)[1].reshape(m, k), n))
    return ranks


def symmetry_blocks(graph: TokenGraph, gens: list[np.ndarray]) -> list[np.ndarray]:
    """The Laplacian split into one block per sign character of <gens>.

    ``gens`` are commuting involutive automorphisms of the graph, as
    vertex permutations; G is the abelian group of their products
    (element e applies the generators named by the bits of e) and
    character c of G is chi_c(e) = (-1)^popcount(c & e).  Each vertex
    has a lead, the least vertex of its G-orbit, reached by h_x in G,
    and a stabilizer of size s_x.  Block c has a row per lead a whose
    stabilizer lies in ker chi_c, with entries
    L_c[a, b] = sqrt(s_b / s_a) sum over y in G b of chi_c(h_y) L[a, y]
    (Serre, Linear Representations of Finite Groups, 2.3), built from
    the slot-table edges out of the leads; no C(n, k)-wide matrix is
    formed.  Before any block is built, each generator must be an
    involution and an automorphism (the sorted slot row of g(x) equals
    the sorted images of the slot row of x, sentinel to sentinel) and
    the generators must commute, or ``NumericFailureError`` names
    F_k(C_n) and the check.  The block sizes must add up to C(n, k)
    (``CountMismatchError``) and the block traces to the degree sum,
    exactly: each diagonal entry is a sum of integers.
    """
    m, moves = graph.order, graph.moves
    where = f"F_{graph.k}(C_{graph.n})"
    ident = np.arange(m)
    for i, g in enumerate(gens):
        if not np.array_equal(g[g], ident):
            raise NumericFailureError(f"{where}: symmetry {i} is not an involution")
        images = np.append(g, m)[moves]
        if not np.array_equal(np.sort(moves[:, g], axis=0), np.sort(images, axis=0)):
            raise NumericFailureError(f"{where}: symmetry {i} is not an automorphism")
    for i, j in combinations(range(len(gens)), 2):
        if not np.array_equal(gens[i][gens[j]], gens[j][gens[i]]):
            raise NumericFailureError(f"{where}: symmetries {i} and {j} do not commute")
    # orbit[e, x] is the image of x under element e
    orbit, chi = ident[None], np.ones((1, 1), dtype=np.int64)
    for g in gens:
        orbit = np.concatenate([orbit, g[orbit]])
        chi = np.kron([[1, 1], [1, -1]], chi)
    lead, h = orbit.min(axis=0), orbit.argmin(axis=0)
    is_lead = lead == ident
    leads = np.flatnonzero(is_lead)
    fixed = orbit == ident
    stab = np.count_nonzero(fixed, axis=0)
    # rows[c, x]: x is a lead and chi_c is 1 on its stabilizer
    rows = is_lead & ~((chi[:, :, None] < 0) & fixed).any(axis=1)
    slot, src = np.nonzero(moves[:, leads] < m)
    src = leads[src]
    y = moves[slot, src]
    col = lead[y]
    weight = np.sqrt(stab[col] / stab[src])
    blocks, trace = [], 0.0
    for c in range(len(chi)):
        at = np.cumsum(rows[c]) - 1
        size = int(rows[c].sum())
        keep = rows[c][src] & rows[c][col]
        block = np.bincount(at[src[keep]] * size + at[col[keep]],
                            -chi[c, h[y[keep]]] * weight[keep],
                            minlength=size * size).reshape(size, size)
        block[np.diag_indices(size)] += graph.degrees[rows[c]]
        trace += block.trace()
        blocks.append(block)
    rows_total = sum(map(len, blocks))
    if rows_total != m:
        raise CountMismatchError(
            f"{where}: symmetry blocks have {rows_total} rows for {m} vertices")
    if trace != graph.degrees.sum():
        raise NumericFailureError(f"{where}: symmetry block traces add up to {trace}, "
                                  f"not the degree sum {graph.degrees.sum()}")
    return blocks


def brute_spectrum(n: int, k: int) -> SpectrumReport:
    """All C(n, k) Laplacian eigenvalues by dense symmetric eigensolves.

    The Laplacian is split by the reflection and, when 2k = n, the
    complement of the explicit graph (``involutions``), never by
    rotation, into 2 or 4 blocks (``symmetry_blocks``, with its exact
    checks), and each block is solved densely.  Guarded at
    C(n, k) <= 5000 so runtimes stay in seconds.
    """
    n, k = check_params(n, k)
    size = comb(n, k)
    if size > DENSE_SPECTRUM_CAP:
        raise SizeLimitError(
            f"C({n},{k}) = {size} exceeds the dense spectrum cap {DENSE_SPECTRUM_CAP}")
    blocks = symmetry_blocks(build_token_graph(n, k), involutions(k_subsets(n, k), n))
    vals = np.sort(np.concatenate([np.linalg.eigvalsh(block) for block in blocks]))
    return SpectrumReport(n, k, "brute", vals, None, np.ones(len(vals), dtype=bool))


def algebraic_connectivity(report: SpectrumReport) -> float:
    """Smallest eigenvalue above ZERO_TOL of an already computed spectrum."""
    for v in report.kept:
        if v > ZERO_TOL:
            return v
    raise ParameterDomainError("spectrum has no nonzero eigenvalue")
