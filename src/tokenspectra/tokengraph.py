"""Token graphs of cycles, built explicitly.

A configuration of k indistinguishable tokens on the cycle with n
vertices is a k-subset of Z_n.  Two configurations are adjacent when one
is reached from the other by moving a single token to an unoccupied
neighbouring cycle vertex; equivalently, their symmetric difference is
{a, b} with b = a +- 1 (mod n).  This module constructs that graph, its
Laplacian, and the dense-eigensolver spectrum that every other route in
the library is validated against.  That oracle splits the Laplacian by
the reflection X -> -X, for even n also X -> n/2 - X, and, when 2k = n,
the complement X -> Z_n - X (``cycle_involutions``), as permutations of
the explicit vertex list checked exactly on the adjacency, into one
block per sign character, each solved as soon as it is built.  It never
reads orbit tables, sector phases or B(z), the data the orbit routes are
built on; its group holds the half turn X -> X + n/2 only as the product
of the two checked reflections.  ``k_subsets``, ``subset_rank``,
``subset_map`` and ``token_moves`` enumerate, place, map and connect
configurations for every module.

The adjacency is stored once, as a fixed-width token-slot table: slot
2i + way of vertex x holds the rank of x with its token i moved up
(way 0) or down (way 1), or the sentinel C(n, k) when that cycle vertex
is occupied.  A product with the adjacency is then one gather from a
vector padded with one trailing zero and a sum over the 2k slots,
``padded[moves].sum(axis=0)``, in O(k C(n, k)).
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations
from math import comb
from numbers import Integral

import numpy as np

from .errors import CountMismatchError, NumericFailureError, ParameterDomainError, SizeLimitError
from .report import SpectrumReport
from .tolerances import ZERO_TOL

# rows of the largest symmetry block brute force solves densely (``block_sizes``)
DENSE_SPECTRUM_CAP = 3500
# (n, k) pairs each cached table keeps; verify asks for each pair back to back
CACHE_SIZE = 32


def check_integers(**sizes) -> tuple[int, ...]:
    """Reject a size that is not an integer (float, bool, str); return all as Python ints.

    NumPy integers pass, converted, so a narrow one cannot wrap in the caller's arithmetic.
    """
    for name, value in sizes.items():
        # exact ints skip the ABC test, which costs more than the range check after it
        if type(value) is not int and (isinstance(value, bool) or not isinstance(value, Integral)):
            raise ParameterDomainError(f"{name}={value!r} must be an integer")
    return tuple(map(int, sizes.values()))


def check_params(n: int, k: int) -> tuple[int, int]:
    """Reject (n, k) outside 1 <= k <= n/2, n >= 3; every route computes with the returned ints."""
    n, k = check_integers(n=n, k=k)
    if n < 3:
        raise ParameterDomainError(f"cycle length n={n} must be at least 3")
    if k < 1 or 2 * k > n:
        raise ParameterDomainError(
            f"token count k={k} must satisfy 1 <= k <= n/2 for n={n}")
    return n, k


def check_sector(n: int, r: int) -> tuple[int, int]:
    """Reject a sector index r outside [0, n) of the n-cycle; return (n, r) as Python ints."""
    n, r = check_integers(n=n, r=r)
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


def cycle_involutions(n: int, k: int) -> list[tuple[np.ndarray, bool]]:
    """Brute force's generators, as (map of Z_n, complement flag), unchecked.

    X -> -X; when 2k = n, the complement X -> Z_n - X; for even n,
    X -> n/2 - X, which composes with X -> -X to the half turn.  They
    commute, so they generate an abelian group of order 2, 4 or 8.
    """
    points = np.arange(n)
    gens = [(-points % n, False)]
    if 2 * k == n:
        gens.append((points, True))
    if n % 2 == 0:
        gens.append(((n // 2 - points) % n, False))
    return gens


def subset_map(rows: np.ndarray, n: int, perm: np.ndarray, complement: bool = False) -> np.ndarray:
    """Rank (``subset_rank``) of the image of each sorted k-subset X in ``rows``.

    The image is perm(X), or its complement Z_n - perm(X) when
    ``complement``; ``perm`` is a permutation of Z_n, not validated.
    """
    image = perm[rows]
    if not complement:
        return subset_rank(np.sort(image, axis=1), n)
    m, k = rows.shape
    free = np.ones((m, n), dtype=bool)
    free[np.arange(m)[:, None], image] = False
    return subset_rank(np.nonzero(free)[1].reshape(m, n - k), n)


def block_sizes(n: int, k: int) -> list[int]:
    """Rows of each ``symmetry_blocks`` block by ``cycle_involutions``, from (n, k) alone.

    By character orthogonality block c has (1/|G|) sum over g in G of
    chi_c(g) fix(g) rows, fix(g) the number of k-subsets g fixes (Serre,
    Linear Representations of Finite Groups, 2.3), in the generator and
    character order of ``symmetry_blocks``.  Each g acts on Z_n as an
    involution with f fixed points and t = (n - f)/2 two-cycles, and fixes
    the sum over a = k mod 2 of C(f, a) C(t, (k - a)/2) subsets; followed
    by the complement it fixes 2^t (one point of each two-cycle) when
    f = 0, else none.  X -> -X fixes 1 point of Z_n for odd n and 2 for
    even n; X -> n/2 - X fixes 2 when 4 divides n, else none.  Nothing of
    the graph is built, so the size guard of ``brute_spectrum`` costs
    O(n |G|) whatever C(n, k) is.
    """
    n, k = check_params(n, k)
    points = np.arange(n)
    # element e applies the generators named by the bits of e, as in symmetry_blocks
    elements = [(points, False)]
    for perm, complement in cycle_involutions(n, k):
        elements += [(perm[p], complement != c) for p, c in elements]
    fix = []
    for perm, complement in elements:
        f = int(np.count_nonzero(perm == points))
        t = (n - f) // 2
        fix.append((0 if f else 2 ** t) if complement else
                   sum(comb(f, a) * comb(t, (k - a) // 2) for a in range(k % 2, min(f, k) + 1, 2)))
    return [sum(-x if (c & e).bit_count() % 2 else x for e, x in enumerate(fix)) // len(fix)
            for c in range(len(fix))]


def symmetry_blocks(graph: TokenGraph,
                    gens: list[tuple[np.ndarray, bool]]) -> Iterator[np.ndarray]:
    """The Laplacian split into one block per sign character of <gens>, yielded one by one.

    ``gens`` are (map of Z_n, complement flag) pairs, as from
    ``cycle_involutions``, and act on the vertices by ``subset_map``;
    G is the abelian group of their products (element e applies the
    generators named by the bits of e) and character c of G is
    chi_c(e) = (-1)^popcount(c & e).  Each vertex has a lead, the least
    vertex of its G-orbit, reached by h_x in G, and a stabilizer of size
    s_x.  Block c has a row per lead a whose stabilizer lies in ker chi_c,
    with entries
    L_c[a, b] = sqrt(s_b / s_a) sum over y in G b of chi_c(h_y) L[a, y]
    (Serre, Linear Representations of Finite Groups, 2.3), built from
    the slot-table edges out of the leads; no C(n, k)-wide matrix is
    formed.  Before the first block, each generator must be an
    involution and an automorphism (the sorted slot row of g(x) equals
    the sorted images of the slot row of x, sentinel to sentinel) and
    the generators must commute, or ``NumericFailureError`` names
    F_k(C_n) and the check.  After the last, the block sizes must add up
    to C(n, k) (``CountMismatchError``) and the block traces to the
    degree sum, exactly: each diagonal entry is a sum of integers.
    """
    m, moves = graph.order, graph.moves
    where = f"F_{graph.k}(C_{graph.n})"
    ident = np.arange(m)
    subsets = k_subsets(graph.n, graph.k)
    perms = [subset_map(subsets, graph.n, perm, complement) for perm, complement in gens]
    for i, g in enumerate(perms):
        if not np.array_equal(g[g], ident):
            raise NumericFailureError(f"{where}: symmetry {i} is not an involution")
        images = np.append(g, m)[moves]
        if not np.array_equal(np.sort(moves[:, g], axis=0), np.sort(images, axis=0)):
            raise NumericFailureError(f"{where}: symmetry {i} is not an automorphism")
    for i, j in combinations(range(len(perms)), 2):
        if not np.array_equal(perms[i][perms[j]], perms[j][perms[i]]):
            raise NumericFailureError(f"{where}: symmetries {i} and {j} do not commute")
    # orbit[e, x] is the image of x under element e
    orbit, chi = ident[None], np.ones((1, 1), dtype=np.int64)
    for g in perms:
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
    rows_total, trace = 0, 0.0
    for c in range(len(chi)):
        at = np.cumsum(rows[c]) - 1
        size = int(rows[c].sum())
        keep = rows[c][src] & rows[c][col]
        block = np.bincount(at[src[keep]] * size + at[col[keep]],
                            -chi[c, h[y[keep]]] * weight[keep],
                            minlength=size * size).reshape(size, size)
        block[np.diag_indices(size)] += graph.degrees[rows[c]]
        rows_total += size
        trace += block.trace()
        yield block
    if rows_total != m:
        raise CountMismatchError(
            f"{where}: symmetry blocks have {rows_total} rows for {m} vertices")
    if trace != graph.degrees.sum():
        raise NumericFailureError(f"{where}: symmetry block traces add up to {trace}, "
                                  f"not the degree sum {graph.degrees.sum()}")


def brute_spectrum(n: int, k: int) -> SpectrumReport:
    """All C(n, k) Laplacian eigenvalues by dense symmetric eigensolves.

    The Laplacian is split by the reflection X -> -X, for even n also
    X -> n/2 - X, and, when 2k = n, the complement of the explicit graph
    (``cycle_involutions``) into 2, 4 or 8 blocks (``symmetry_blocks``,
    with its exact checks), each solved densely as soon as it is built.
    No orbit table, sector phase or B(z) is read; the half turn enters
    only as the product of the two checked reflections.  The largest
    block must fit ``DENSE_SPECTRUM_CAP`` rows, which ``block_sizes``
    tells before any k-subset is enumerated (``SizeLimitError`` past it),
    and each block must have its predicted size before it is solved
    (``CountMismatchError`` naming the block).
    """
    n, k = check_params(n, k)
    sizes = block_sizes(n, k)
    if max(sizes) > DENSE_SPECTRUM_CAP:
        raise SizeLimitError(
            f"F_{k}(C_{n}): its largest symmetry block, {max(sizes)} rows, "
            f"exceeds the dense spectrum cap {DENSE_SPECTRUM_CAP}")
    vals = []
    for c, block in enumerate(symmetry_blocks(build_token_graph(n, k), cycle_involutions(n, k))):
        if len(block) != sizes[c]:
            raise CountMismatchError(f"F_{k}(C_{n}): symmetry block {c} has {len(block)} rows, "
                                     f"not the {sizes[c]} of character orthogonality")
        vals.append(np.linalg.eigvalsh(block))
    vals = np.sort(np.concatenate(vals))
    return SpectrumReport(n, k, "brute", vals)


def algebraic_connectivity(report: SpectrumReport) -> float:
    """Smallest eigenvalue above ZERO_TOL of an already computed spectrum."""
    lam = report.values[report.kept_mask & (report.values > ZERO_TOL)]
    if not len(lam):
        raise ParameterDomainError("spectrum has no nonzero eigenvalue")
    return float(lam.min())
