"""Spectrum assembly through the orbit polynomial matrix.

One row per rotation orbit of token configurations.  For each neighbour
A' of a representative A there is a unique representative B and shift s
with A' = B + s; the entry (A, B) collects a term -z^s, and the diagonal
carries the degree of A (plus -z^s terms when A is adjacent to rotations
of itself).  Evaluating at z = exp(2*pi*i*r/n) for r = 0..n-1 yields a
superset of the Laplacian spectrum of the token graph.  When all orbits
are full the union over r is exactly the spectrum (the matrix is a
genuine cyclic lift base); short orbits introduce spurious eigenvalues.

In sector r, call an orbit blocked when its period p is not divisible
by the sector order o(r) = n/gcd(n, r), so that w^(rp) != 1.  The
neighbours of a blocked representative are invariant under its period
shift, so each entry of its row in an unblocked column is a sum
z^s (1 + z^p + z^(2p) + ...) over a full period of w^(rp), which
vanishes.  B(w^r) is therefore block upper triangular over (unblocked
U, blocked X), and the sector solve reads the split off exactly:

* the kept values are the spectrum of H = D_U^(1/2) B_UU D_U^(-1/2),
  D = diag(orbit periods), which is Hermitian (the quotient-matrix
  argument for lifted graphs); their eigenvectors are
  [D_U^(-1/2) w; 0], which unroll to eigenvectors of the token graph;
* the discarded values are the spectrum of B_XX, only |X| wide.

Symmetries of the cycle that commute with rotation act within each
sector and cut H into independent blocks (``_sector_bases``).  When
2k = n, complementation X -> Z_n - X is a linear symmetry, so H splits
first over its +-1 eigenvectors ("items"); otherwise each orbit is an
item.  The reflection X -> -X, composed with complex conjugation, maps
items of one sign onto each other and squares to the identity (each
two-dimensional dihedral representation is of real type), so in a basis
of fixed items and item pairs with half phases H is a real symmetric
matrix S.  In the real sectors 0 and n/2 the reflection itself is
linear, and S splits into its even and odd parts.  Each basis vector
combines at most 4 orbits, so no sector is held dense: its cells, at
most 2k + 1 per row, come from the terms of B(z) (``LaurentMatrix.cells``),
the blocks of S are assembled from them with the coupling, skew, realness
and between-block checks on the way, and each block is solved by its own
real ``eigh``.  The kept residual is measured against the same cells,
ROW_BLOCK rows at a time in real arithmetic.

``sector_eigenpairs`` and ``filter_spurious`` keep the paper's literal
construction (a general eigensolve, then a rank test on the eigenspaces
restricted to the blocked rows) as an independent reference.

Sector computations are pure functions of immutable inputs; every r can
run independently.  Sectors r and n - r are complex conjugates of each
other, so only the sectors r <= n/2 are solved.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import NumericFailureError, ParameterDomainError, PhaseConsistencyError
from .laurent import LaurentMatrix, root_table
from .necklaces import OrbitTable, enumerate_orbits, sector_order
from .report import SpectrumReport
from .tolerances import (CLUSTER_TOL, IMAG_TOL, LIFT_RESIDUAL_TOL, LIFT_SUPPORT_TOL,
                         RANK_TOL, RESIDUAL_TOL, check_bound, quotient_tol)
from .tokengraph import (CACHE_SIZE, TokenGraph, build_token_graph, check_params, check_sector,
                         token_moves)

SQRT_HALF = np.sqrt(0.5)
ROW_BLOCK = 128  # rows of b D^(-1/2) Q built and checked at a time for the kept residual


@dataclass(frozen=True, eq=False)
class EigenPair:
    """One eigenvalue of a specialized sector matrix with its eigenvector."""

    value: float
    sector: int
    vector: np.ndarray
    residual: float


@dataclass(frozen=True, eq=False)
class ClusterVerdict:
    """Keep/discard decision for one eigenvalue cluster of a sector.

    ``value`` is the cluster mean (for a defective cluster the mean is
    the accurate eigenvalue; the individual values split by the square
    root of the backward error).  ``vectors`` holds an orthonormal basis
    of the kept eigenvectors, one column each.
    """

    value: float
    sector: int
    total: int
    kept: int
    vectors: np.ndarray

    @property
    def discarded(self) -> int:
        return self.total - self.kept


def build_poly_matrix(n: int, k: int) -> LaurentMatrix:
    """The orbit polynomial matrix of the k-token graph of the n-cycle.

    Rows and columns follow the cached ``enumerate_orbits(n, k)``.  Each
    neighbour sits at its smallest shift ``shift_of`` (fixed mod its orbit's
    period); the tests build the largest one as the invariance check.
    """
    orbits = enumerate_orbits(n, k)
    row, _, at = token_moves(np.array(orbits.reps), orbits.n)
    col, exp = orbits.orbit_of[at], orbits.shift_of[at]
    # each neighbour adds 1 to the diagonal and -z^s to its orbit's column
    return LaurentMatrix(orbits.n, orbits.count, np.tile(row, 2), np.concatenate([row, col]),
                         np.concatenate([np.zeros_like(exp), exp]),
                         np.repeat([1, -1], len(row)))


def sector_eigenpairs(matrix: LaurentMatrix, r: int) -> list[EigenPair]:
    """Eigenpairs of the specialized matrix at sector r, ascending.

    The specialized matrix is not Hermitian in general, so a general
    dense solver is used and realness is asserted afterwards.
    """
    b = matrix.specialize(r)
    try:
        vals, vecs = np.linalg.eig(b)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"eigensolver failed in sector {r}: {exc}") from exc
    check_bound(f"sector r={r}", "eigenvalue imaginary part",
                float(np.max(np.abs(vals.imag))), IMAG_TOL)
    order = np.argsort(vals.real)
    vals, vecs = vals[order], vecs[:, order]
    # residuals of the solver's complex eigenpairs; the realized values
    # can differ by up to IMAG_TOL, which the residual bound predates
    res = np.max(np.abs(b @ vecs - vecs * vals), axis=0)
    check_bound(f"sector r={r}", "eigenpair residual", float(np.max(res)), RESIDUAL_TOL)
    pairs = [EigenPair(float(val.real), r, vecs[:, idx], float(res[idx]))
             for idx, val in enumerate(vals)]
    return pairs


def blocked_mask(periods: np.ndarray, n: int, r: int) -> np.ndarray:
    """Mask of the orbits blocked in sector r of the n-cycle.

    An orbit is blocked when the sector order n/gcd(n, r) does not
    divide its period, so w^(rp) != 1 on it.  Full orbits are never
    blocked.  An array of sectors gives one row of the mask per sector.
    """
    return periods % (n // np.gcd(n, r))[..., None] != 0


def filter_spurious(pairs: list[EigenPair], orbits: OrbitTable,
                    r: int) -> list[ClusterVerdict]:
    """Kept multiplicity per eigenvalue cluster of one sector.

    Eigenvalues within CLUSTER_TOL are treated as one eigenspace.  The
    kept multiplicity is the cluster dimension minus the rank of the
    cluster basis restricted to the blocked-orbit rows; the kept vectors
    are the combinations vanishing there.  Working on eigenspaces (not
    individual eigenvectors) makes the decision independent of the
    arbitrary basis a solver returns for a degenerate eigenvalue.  The
    basis is orthonormalized first so the rank threshold has a fixed
    scale and nearly parallel vectors from a defective cluster cannot
    distort the decision.
    """
    blocked = blocked_mask(orbits.periods, orbits.n, r)
    verdicts = []
    i = 0
    while i < len(pairs):
        j = i + 1
        while j < len(pairs) and pairs[j].value - pairs[j - 1].value <= CLUSTER_TOL:
            j += 1
        group = pairs[i:j]
        m = len(group)
        basis = np.column_stack([p.vector for p in group])
        q, _, _ = np.linalg.svd(basis, full_matrices=False)
        mean = float(np.mean([p.value for p in group]))
        if blocked.any():
            restricted = q[blocked]
            _, sv, vh = np.linalg.svd(restricted)
            rank = int(np.sum(sv > RANK_TOL))
            kept_vecs = q @ vh.conj().T[:, rank:]
        else:
            rank = 0
            kept_vecs = q
        verdicts.append(ClusterVerdict(mean, r, m, m - rank, kept_vecs))
        i = j
    return verdicts


# the columns of a reflection pair of items (rows lo, hi) or of a fixed item
# (row lo): (lo + hi)/sqrt(2) and i (lo - hi)/sqrt(2) in a complex sector,
# before the half phase; (lo +- s hi)/sqrt(2) = EVEN +- s ODD in a real one
_PAIR = SQRT_HALF * np.array([[1, 1j], [1, -1j]])
_EVEN = SQRT_HALF * np.array([[1.0, 1.0], [0.0, 0.0]])
_ODD = SQRT_HALF * np.array([[0.0, 0.0], [1.0, -1.0]])
_FIXED = np.array([[1.0, 0.0], [0.0, 0.0]])


def _sector_bases(orbits: OrbitTable, rs: list[int]) -> list[tuple]:
    """The symmetry-adapted basis Q of each sector r in ``rs``, by rows.

    Each entry is (blocked, col, coef, sizes, square, piece): row i of Q
    holds coef[p, i] in column col[p, i] (zero coefficients pad the rows;
    the rows of the ``blocked`` orbits are zero), and the columns are
    numbered by parity, then by complement sign (-1 before +1), one
    block of ``sizes`` each.  S = Q^* H Q is block diagonal and real.
    All sectors are built at once, so a sector costs few numpy calls.

    * Items: the complement (C f)_i = gamma_i f_c(i), gamma_i =
      w^(r tc_i), is linear.  A pair l < j = c(l) gives the items
      (e_l +- gamma_j e_j)/sqrt(2) of sign +-1 (item l, then item j); an
      orbit that is its own complement is an item of sign gamma_l.  When
      2k != n, c is the identity: every orbit is an item of sign +1.
    * The reflection maps item a to w^(m_a) item tau(a), the item of
      a's sign in the complement group of sigma(a), m_a an integer.  A
      complex sector (0 < r < n/2) uses f -> P conj(f): phase * item_a
      for tau(a) = a, else phase * (item_a + item_b)/sqrt(2) and i *
      phase * (item_a - item_b)/sqrt(2), b = tau(a) > a, with the half
      phase w^(m_a / 2).  A real sector (r = 0, n/2) uses the parity
      w^(m_a) = +-1 of the linear reflection: item_a, or
      (item_a +- w^(m_a) item_b)/sqrt(2).

    Each column combines at most 2 items of at most 2 orbits.
    ``square`` is max|C^2 - I| and ``piece`` max|C q -+ q| over the
    columns, on the unblocked orbits, for the caller to check; both are
    exactly 0 when 2k != n.
    """
    n, nu = orbits.n, orbits.count
    every = np.arange(nu)
    comp, tc = orbits.complement_of, orbits.complement_shift
    if comp is None:
        comp, tc = every, np.zeros(nu, dtype=np.int64)
    rs = np.asarray(rs)[:, None]
    blocked = blocked_mask(orbits.periods, n, rs[:, 0])
    real = (rs == 0) | (2 * rs == n)
    # complement items: orbit i lies in items l = min(i, c(i)) and c(l)
    turn = rs * tc % n
    gamma = root_table(n)[turn]
    square = np.where(blocked, 0, np.abs(gamma * gamma[:, comp] - 1)).max(axis=1)
    lead, minus, own = np.minimum(every, comp), every > comp, every == comp
    plus = np.where(own, turn == 0, ~minus)
    # rows as wide as the most items an orbit lies in
    items = np.array([lead, comp[lead]])[:2 - own.all()]
    slot = np.where(minus, gamma, 1)[:, None] * np.where(
        own, [[1.0], [0.0]], SQRT_HALF * np.where(minus, [[1], [-1]], 1))[:len(items)]
    # the reflection on items: item a goes to w^(m_a) item tau(a)
    sigma, t = orbits.mirror_of, orbits.mirror_shift
    mirror = sigma[lead]
    head = lead[mirror]
    other = mirror != head
    tau = np.where(minus, comp[head], head)
    lo = np.flatnonzero(tau >= every)
    fixed = tau[lo] == lo
    group_of = np.searchsorted(lo, np.minimum(every, tau))
    side = (tau < every).astype(np.int64)
    # m_a = -r t_l, or -r (t_l + tc_sigma(l)) (+ n/2 for a - item) when
    # sigma(l) is not the lead of its complement group
    m = (-rs * (t[lead] + np.where(other, tc[mirror], 0))
         + np.where(other & minus, n // 2, 0))[:, lo]
    f = fixed[:, None, None]
    y = np.where(real[..., None, None],
                 np.where(f, _FIXED, _EVEN)
                 + root_table(n)[m % n].real[..., None, None] * np.where(f, 0, _ODD),
                 root_table(2 * n)[m % (2 * n)][..., None, None] * np.where(f, _FIXED, _PAIR))
    parity = real[..., None] & np.where(fixed[:, None], (m % n != 0)[..., None], [False, True])
    label = np.where(blocked[:, lo, None] | (fixed[:, None] & [False, True]), -1,
                     2 * parity + plus[:, lo, None])
    # number the columns block by block; padding columns point at column 0
    label = label.reshape(len(rs), -1)
    number = np.argsort(np.argsort(label, axis=1, kind="stable"), axis=1)
    number -= np.count_nonzero(label < 0, axis=1, keepdims=True)
    np.maximum(number, 0, out=number)
    # compose: row i, slot (u, c) is column c of the group of its item u
    g, row = group_of[items], side[items]
    col = number.reshape(len(rs), -1, 2)[:, g].transpose(0, 1, 3, 2).reshape(len(rs), -1, nu)
    coef = (y[:, g, row] * (slot * ~blocked[:, None])[..., None]).transpose(0, 1, 3, 2)
    # rows i and c(i) hold the same items in the same slots, and each
    # column takes the sign of its group's first item
    piece = np.abs(gamma[:, None, None] * coef[..., comp]
                   - np.where(plus[:, lo[g]], 1, -1)[:, :, None] * coef).max(axis=(1, 2, 3))
    coef = coef.reshape(len(rs), -1, nu)
    counts = np.count_nonzero(label[..., None] == np.arange(4), axis=1)
    return [(blocked[x], col[x], coef[x].real.copy() if real[x, 0] else coef[x],
             counts[x][counts[x] > 0], square[x], piece[x]) for x in range(len(rs))]


@dataclass(frozen=True, eq=False)
class SectorSolution:
    """Kept and discarded eigenvalues of one sector matrix, each ascending.

    ``residuals`` holds max|b v - lambda v| per kept value.  ``vectors``
    holds the kept eigenvectors, one unit column each, exactly zero on
    the blocked orbits; it is None when they were not asked for.
    ``blocks`` holds the size of each symmetry block solved by ``eigh``.
    """

    sector: int
    kept: np.ndarray
    residuals: np.ndarray
    discarded: np.ndarray
    vectors: np.ndarray | None = None
    blocks: tuple[int, ...] = ()


def _assemble(col: np.ndarray, coef: np.ndarray, i: np.ndarray, j: np.ndarray,
              h: np.ndarray, sizes: np.ndarray, where: str, tol: float) -> np.ndarray:
    """The real block diagonal S = Q^* H Q from the cells H[i, j] = h.

    Q is given by rows as ``_sector_bases`` returns it.  Each cell adds
    conj(Q[i, a]) H[i, j] Q[j, c] to S[a, c], at most 16 terms, summed by
    ``np.bincount``.  max|Im S| and the entries between blocks must stay
    within ``tol``.
    """
    m = int(sizes.sum())
    key = ((col[:, i] * m)[:, None] + col[:, j]).ravel()
    weight = (coef.conj()[:, i][:, None] * (coef[:, j] * h)).ravel()
    s = np.bincount(key, weight.real, m * m).reshape(m, m)
    if np.iscomplexobj(weight):
        imag = np.bincount(key, weight.imag, m * m)
        check_bound(where, "real form imaginary part max|Im S|",
                    float(np.abs(imag, out=imag).max(initial=0.0)), tol)
    if len(sizes) > 1:
        block = np.repeat(np.arange(len(sizes)), sizes)
        between = key[block[key // m] != block[key % m]]
        check_bound(where, "coupling between symmetry blocks max|S[a, c]|",
                    float(np.abs(s.reshape(-1)[between]).max(initial=0.0)), tol)
    return s


def _block_eigh(s: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of each diagonal block of s, ``sizes`` long each.

    Returns the values ascending and the vectors as one matrix, its rows
    in block order and its columns in the order of the values.
    """
    if len(sizes) == 1:
        return np.linalg.eigh(s)
    starts = (np.cumsum(sizes) - sizes).tolist()
    solved = [np.linalg.eigh(s[o:o + size, o:o + size])
              for o, size in zip(starts, sizes.tolist())]
    vals = np.concatenate([val for val, _ in solved])
    order = np.argsort(vals, kind="stable")
    place = np.empty(len(vals), dtype=np.int64)
    place[order] = np.arange(len(vals))
    u = np.zeros((len(vals), len(vals)))
    for o, (val, vec) in zip(starts, solved):
        u[o:o + len(val), place[o:o + len(val)]] = vec
    return vals[order], u


def _solve_sector(cells: tuple, orbits: OrbitTable, r: int, basis: tuple,
                  vectors: bool) -> SectorSolution:
    """Split the sector matrix b = B(w^r) into kept and discarded values.

    b is given by its cells (i, j, b[i, j], b[j, i]), sorted by row, and
    ``basis`` is the sector's entry of ``_sector_bases``.  The kept
    values are the eigenvalues of the Hermitian quotient
    H = D_U^(1/2) b[U, U] D_U^(-1/2) on the unblocked orbits U.  H is
    written in the symmetry-adapted basis as a real block diagonal S,
    assembled from the cells, and each block is solved by its own real
    ``eigh``.  Every check runs at tol = ``quotient_tol(max|b|)`` and
    raises ``NumericFailureError`` naming its quantity: b[X, U] must
    vanish, H must be Hermitian (skew is checked between each cell and
    its transpose cell), S real and zero between its blocks.  The kept
    vectors v are unit eigenvectors of b, exactly zero on the blocked
    orbits, and their residuals max|b v - v lambda|, blocked rows
    included, must stay within RESIDUAL_TOL.  The discarded values are
    ``eig`` of b[X, X]; their imaginary parts must stay within IMAG_TOL
    and their residuals within RESIDUAL_TOL.  No nu x nu matrix is held:
    S until its blocks are solved, then u and ROW_BLOCK rows at a time.
    """
    n, k = orbits.n, orbits.k
    where = f"F_{k}(C_{n}) sector r={r}"
    blocked, col, coef, sizes, square, piece = basis
    i, j, values, transposed = cells
    if (r == 0 or 2 * r == n) and not np.imag(values).any():
        values, transposed = values.real, transposed.real  # the root table gives +-1 exactly
    size = np.abs(values)
    tol = quotient_tol(float(size.max(initial=0.0)))
    out, into = blocked[i], blocked[j]
    check_bound(where, "blocked orbit coupling max|b[X, U]|",
                float(size[out > into].max(initial=0.0)), tol)
    inside = ~(out | into)
    root = np.sqrt(orbits.periods / orbits.periods.max())
    iu, ju = i[inside], j[inside]
    ratio = root[iu] / root[ju]
    h = values[inside] * ratio
    skew = np.abs(h - (transposed[inside] / ratio).conj())
    check_bound(where, "skew max|H - H^*|", float(skew.max(initial=0.0)), tol)
    check_bound(where, "complement square max|C^2 - I|", float(square), tol)
    check_bound(where, "complement piece eigenvalues max|C q - (+-q)|", float(piece), tol)
    s = _assemble(col, coef, iu, ju, h, sizes, where, tol)
    try:
        vals, u = _block_eigh(s, sizes)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"{where}: eigh failed: {exc}") from exc
    del s
    res, v = _kept_residuals(i, j, values, col, coef / root, u, vals, vectors)
    del u
    discarded = np.empty(0)
    if blocked.any():
        at = np.cumsum(blocked) - 1  # b[X, X] from the cells with both ends blocked
        both = blocked[i] & blocked[j]
        bxx = np.zeros((at[-1] + 1,) * 2, dtype=values.dtype)
        bxx[at[i[both]], at[j[both]]] = values[both]
        try:
            dvals, dvecs = np.linalg.eig(bxx)
        except np.linalg.LinAlgError as exc:
            raise NumericFailureError(f"{where}: eig of b[X, X] failed: {exc}") from exc
        check_bound(where, "discarded value imaginary part",
                    float(np.max(np.abs(dvals.imag))), IMAG_TOL)
        check_bound(where, "discarded eigenpair residual",
                    float(np.max(np.abs(bxx @ dvecs - dvecs * dvals))), RESIDUAL_TOL)
        discarded = np.sort(dvals.real)
    check_bound(where, "kept vector residual", float(np.max(res, initial=0.0)),
                RESIDUAL_TOL)
    return SectorSolution(r, vals, res, discarded, v, tuple(sizes.tolist()))


def _kept_residuals(i: np.ndarray, j: np.ndarray, values: np.ndarray, col: np.ndarray,
                    q: np.ndarray, u: np.ndarray, vals: np.ndarray, vectors: bool) -> tuple:
    """max|b v - v lambda| per column of v = q u, column scaled, and v if asked for.

    q = D^(-1/2) Q is given by rows as ``_sector_bases`` gives Q, and b's
    cells by row.  For each ROW_BLOCK rows, one ``np.bincount`` builds
    G = b[rows] q, its real part above its imaginary part, one gather per
    slot builds V = q[rows] u, and gap = G u - V lambda takes real
    products only.  max|gap|^2 and ||V||^2 add up per column, so the
    residual is sqrt(max / ||V||^2).
    """
    nu, m = col.shape[1], len(vals)
    v = np.empty((nu, m), dtype=q.dtype) if vectors else None
    # cell (i, j) adds b[i, j] q[j, a] to G[i, a] for each of row j's slots a
    key, weight = i * m + col[:, j], values * q[:, j]
    parts = 1 + np.iscomplexobj(weight)
    top = norm = end = 0
    for start in range(0, nu, ROW_BLOCK):
        rows, height = slice(start, start + ROW_BLOCK), min(ROW_BLOCK, nu - start)
        begin, end = end, i.searchsorted(start + ROW_BLOCK)
        part = q[0, rows, None] * u[col[0, rows]]
        for slot in range(1, len(col)):
            part += q[slot, rows, None] * u[col[slot, rows]]
        if vectors:
            v[rows] = part
        at, w = key[:, begin:end] - start * m, weight[:, begin:end]
        if parts > 1:  # the imaginary parts below the real ones
            at = np.concatenate([at, at + height * m], axis=None)
            w = np.concatenate([w.real, w.imag], axis=None)
            part = np.concatenate([part.real, part.imag])
        gap = np.bincount(at.ravel(), w.ravel(), parts * height * m).reshape(-1, m) @ u
        norm = norm + (part * part).sum(axis=0)
        part *= vals
        gap -= part
        gap *= gap
        top = np.maximum(top, (gap[:height] + gap[height:] if parts > 1 else gap).max(axis=0))
        del part, gap  # before the next block is built
    if vectors:
        v /= np.sqrt(norm)
    return np.sqrt(top / norm), v


def _sector_solutions(n: int, k: int, *, vectors: bool) -> list[SectorSolution]:
    """The ``SectorSolution`` of every sector r = 0..n-1, in sector order.

    Each sector is solved from the cells of B(w^r) (``LaurentMatrix.cells``);
    a cell without its transposed cell raises ``NumericFailureError``.
    Only the sectors r <= n/2 are solved.  The coefficients of B(z) are
    integers and the root table is conjugate symmetric, so B(w^(n-r)) is
    exactly the conjugate of B(w^r): its eigenvalues and residuals are
    the same and its eigenvectors the conjugates.  Both sectors have the
    same order n/gcd(n, r), so they block the same orbits.
    """
    orbits = enumerate_orbits(n, k)
    n, k = orbits.n, orbits.k
    matrix = build_poly_matrix(n, k)
    rs = list(range(n // 2 + 1))
    sols = []
    for r, basis in zip(rs, _sector_bases(orbits, rs)):
        i, j, values = matrix.cells(r)
        if r == 0:  # every sector has the same cells
            key, want = i * orbits.count + j, j * orbits.count + i
            flip = np.minimum(np.searchsorted(key, want), len(key) - 1)
            lost = np.flatnonzero(key[flip] != want)
            if len(lost):
                raise NumericFailureError(f"F_{k}(C_{n}): cell ({i[lost[0]]}, {j[lost[0]]}) "
                                          "of B(z) has no transposed cell")
        sols.append(_solve_sector((i, j, values, values[flip]), orbits, r, basis, vectors))
    for r in range(n // 2 + 1, n):
        sol = sols[n - r]
        conj = None if sol.vectors is None else sol.vectors.conj()
        sols.append(replace(sol, sector=r, vectors=conj))
    return sols


def full_spectrum(n: int, k: int) -> SpectrumReport:
    """Union of the kept sector spectra: one ``SpectrumReport`` row per sector."""
    n, k = check_params(n, k)
    sols = _sector_solutions(n, k, vectors=False)
    rows = [np.concatenate([sol.kept, sol.discarded]) for sol in sols]
    return SpectrumReport(n, k, "overlift", rows, [len(sol.kept) for sol in sols])


def kept_eigenpairs(n: int, k: int) -> list[EigenPair]:
    """Every kept eigenpair across all sectors, with verified residuals.

    Pairs come in sector order, ascending by value within a sector, each
    checked against its own sector's specialized matrix.
    """
    return [EigenPair(val, sol.sector, sol.vectors[:, col], res)
            for sol in _sector_solutions(n, k, vectors=True)
            for col, (val, res) in enumerate(zip(sol.kept.tolist(), sol.residuals.tolist()))]


@dataclass(frozen=True, eq=False)
class LiftedVector:
    """Eigenvector over all C(n, k) configurations, graph vertex order."""

    value: float
    sector: int
    values: np.ndarray
    residual: float


@lru_cache(maxsize=CACHE_SIZE)
def _lift_table(n: int, k: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Sector r's blocked orbit indices and configuration phases, read-only.

    The phase of configuration X = rep_i + j is w^(r*j).  At most
    CACHE_SIZE sectors are kept.
    """
    orbits = enumerate_orbits(n, k)
    blocked = np.flatnonzero(blocked_mask(orbits.periods, n, r))
    phases = root_table(n)[r * orbits.shift_of % n]
    for arr in (blocked, phases):
        arr.flags.writeable = False
    return blocked, phases


def lift_eigenvector(pair: EigenPair, orbits: OrbitTable,
                     graph: TokenGraph | None = None,
                     lap: np.ndarray | None = None) -> LiftedVector:
    """Unroll a kept quotient eigenvector to the full token graph.

    The configuration X = rep_i + j receives component f_i * w^(r*j)
    with w = exp(2*pi*i/n).  Well defined on a short orbit only when
    f_i = 0 or the sector order divides the orbit period, which the
    sector solver guarantees; a violation here is a solver bug and
    raises.  The residual |L x - lambda x| is checked at every vertex
    through the graph's token-slot adjacency, one gather and a sum over
    the 2k slots, so a lift costs O(k C(n, k)).  The blocked orbits and
    phases of each (n, k, r) are built once and cached (``_lift_table``,
    at most CACHE_SIZE sectors); (n, k) fixes them, because
    ``enumerate_orbits`` is the only constructor of an ``OrbitTable``.
    The graph and the orbit table are cached too, CACHE_SIZE (n, k)
    pairs each.  ``lap`` is accepted for compatibility but not read.  A
    vector, sector or graph that does not fit ``orbits`` raises
    ``ParameterDomainError``.
    """
    n, k = orbits.n, orbits.k
    if len(pair.vector) != orbits.count:
        raise ParameterDomainError(f"vector of length {len(pair.vector)} for the "
                                   f"{orbits.count} orbits of F_{k}(C_{n})")
    n, r = check_sector(n, pair.sector)
    if graph is None:
        graph = build_token_graph(n, k)
    elif (graph.n, graph.k) != (n, k):
        raise ParameterDomainError(f"token graph F_{graph.k}(C_{graph.n}) for the "
                                   f"orbits of F_{k}(C_{n})")
    blocked, phases = _lift_table(n, k, r)
    # every orbit has a configuration and every phase has modulus 1, so
    # the lift is zero exactly when the vector is
    size = np.abs(pair.vector)
    top = size.max()
    if top == 0:
        raise NumericFailureError("lifted vector is zero")
    loaded = blocked[size[blocked] > LIFT_SUPPORT_TOL * top]
    if len(loaded):
        i = int(loaded[0])
        raise PhaseConsistencyError(
            f"component {i} nonzero on orbit of period {orbits.periods[i]} "
            f"with sector order {sector_order(n, r)}")
    # the lift, followed by the zero that every occupied slot reads
    padded = np.zeros(graph.order + 1, dtype=complex)
    out = padded[:-1]
    np.multiply(pair.vector[orbits.orbit_of], phases, out=out)
    # L x = deg x - sum over neighbours
    res = (graph.degrees - pair.value) * out
    res -= padded[graph.moves].sum(axis=0)
    res = float(np.abs(res).max())
    if not res <= LIFT_RESIDUAL_TOL:  # a NaN fails too; the text is formatted only then
        check_bound(f"F_{k}(C_{n}) sector r={r}, eigenvalue {pair.value}",
                    "lifted vector residual", res, LIFT_RESIDUAL_TOL)
    return LiftedVector(pair.value, r, out, res)
