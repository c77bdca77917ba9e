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
U, blocked X), and ``solve_sector`` reads the split off exactly:

* the kept values are the spectrum of H = D_U^(1/2) B_UU D_U^(-1/2),
  D = diag(orbit periods), which is Hermitian (the quotient-matrix
  argument for lifted graphs); their eigenvectors are
  [D_U^(-1/2) w; 0], which unroll to eigenvectors of the token graph;
* the discarded values are the spectrum of B_XX, only |X| wide.

Symmetries of the cycle that commute with rotation act within each
sector and cut H into independent blocks (``_sector_bases``).  The
reflection X -> -X, composed with complex conjugation, is an
antiunitary symmetry of H that squares to the identity (each
two-dimensional dihedral representation is of real type), so in a basis
of fixed orbits and mirror pairs with half phases H is a real symmetric
matrix S.  In the real sectors 0 and n/2 the reflection itself is a
linear symmetry, and S splits into its even and odd parts.  When
2k = n, complementation X -> Z_n - X commutes with both and splits
every block once more.  Each basis vector combines at most 4 orbits, so
``solve_sector`` assembles the blocks of S from the nonzero cells of b
alone, checks the coupling, the skew, the realness and the entries
between blocks on the way, and solves each block by its own real
``eigh``; the kept residual is measured against b itself.

``sector_eigenpairs`` and ``filter_spurious`` keep the paper's literal
construction (a general eigensolve, then a rank test on the eigenspaces
restricted to the blocked rows) as an independent reference.

Sector computations are pure functions of immutable inputs; every r can
run independently.  Sectors r and n - r are complex conjugates of each
other, so only the sectors r <= n/2 are solved.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericFailureError, ParameterDomainError, PhaseConsistencyError
from .laurent import LaurentMatrix, root_table
from .necklaces import OrbitTable, enumerate_orbits, sector_order
from .report import SpectrumReport
from .tolerances import (CLUSTER_TOL, IMAG_TOL, LIFT_RESIDUAL_TOL, LIFT_SUPPORT_TOL,
                         RANK_TOL, RESIDUAL_TOL, check_bound, quotient_tol)
from .tokengraph import TokenGraph, build_token_graph, check_sector, token_moves

SQRT_HALF = np.sqrt(0.5)
COLUMN_CHUNK = 256  # kept vectors built and checked this many columns at a time


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue of a specialized sector matrix with its eigenvector."""

    value: float
    sector: int
    vector: np.ndarray
    residual: float


@dataclass(frozen=True)
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


def build_poly_matrix(n: int, k: int, shift: str = "smallest") -> LaurentMatrix:
    """The orbit polynomial matrix of the k-token graph of the n-cycle.

    Rows and columns follow the cached ``enumerate_orbits(n, k)``.
    ``shift`` picks the representative shift when the target orbit is
    short and the shift is only determined mod its period: "smallest"
    (default) or "largest".  Both choices leave the kept spectrum
    unchanged; entries differ.
    """
    if shift not in ("smallest", "largest"):
        raise ParameterDomainError(f"unknown shift choice {shift!r}")
    orbits = enumerate_orbits(n, k)
    row, at = token_moves(np.array(orbits.reps), n)
    col, exp = orbits.orbit_of[at], orbits.shift_of[at]
    if shift == "largest":
        exp = exp + n - orbits.periods[col]
    # each neighbour adds 1 to the diagonal and -z^s to its orbit's column
    return LaurentMatrix(n, orbits.count, np.tile(row, 2), np.concatenate([row, col]),
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
    blocked.
    """
    return periods % sector_order(n, r) != 0


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


# the columns of a reflection pair (rows lo, hi) or of a fixed orbit (row
# lo): (e_lo + e_hi)/sqrt(2) and i (e_lo - e_hi)/sqrt(2) in a complex sector,
# before the half phase; (e_lo +- s e_hi)/sqrt(2) = EVEN +- s ODD in a real one
_PAIR = SQRT_HALF * np.array([[1, 1j], [1, -1j]])
_EVEN = SQRT_HALF * np.array([[1.0, 1.0], [0.0, 0.0]])
_ODD = SQRT_HALF * np.array([[0.0, 0.0], [1.0, -1.0]])
_FIXED = np.array([[1.0, 0.0], [0.0, 0.0]])


def _sector_bases(orbits: OrbitTable, rs: list[int]) -> list[tuple]:
    """The symmetry-adapted basis Q of each sector r in ``rs``, by rows.

    Each entry is (blocked, col, coef, sizes, square, piece): row i of Q
    holds coef[p, i] in column col[p, i] (zero coefficients pad the rows;
    the rows of the ``blocked`` orbits are zero), and the columns are
    numbered block by block, ``sizes`` long each.  Every column combines
    at most 4 orbits, and S = Q^* H Q is block diagonal and real.  All
    sectors are built at once, so a sector costs few numpy calls.

    * A complex sector (0 < r < n/2) uses the reflection composed with
      complex conjugation, f -> P conj(f), P[i, sigma(i)] = w^(-r t_i):
      phase * e_i for a fixed orbit, phase * (e_i + e_j)/sqrt(2) and
      i * phase * (e_i - e_j)/sqrt(2) for a pair i < j = sigma(i), with
      the half phase exp(-i pi r t_i / n).  One block.
    * A real sector (r = 0, n/2) uses the parity of the linear
      reflection (R f)_i = s_i f_sigma(i), s_i = w^(r t_i) = +-1: e_i,
      even when s_i = +1, and (e_i +- s_i e_j)/sqrt(2).  Two blocks.
    * When 2k = n, the complement (C f)_i = w^(r tc_i) f_c(i) commutes
      with both and splits each block in two, -1 before +1.  A column q
      of a pair whose complement is another pair gives (q + C q)/sqrt(2)
      and (q - C q)/sqrt(2).  A pair that is its own complement keeps
      its columns, which C maps to +-themselves: in a real sector the
      parity columns already are, and in a complex one the pair
      (lo, hi = c(lo)) takes phase * (g e_lo +- conj(g) e_hi),
      g = w^(r tc_lo / 2).  ``square`` is max|C^2 - I| and ``piece``
      max|C q -+ q| over those columns, on the unblocked orbits, for the
      caller to check; both are None when 2k != n.
    """
    n, nu = orbits.n, orbits.count
    blocked = np.array([blocked_mask(orbits.periods, n, r) for r in rs])
    rs = np.asarray(rs)[:, None]
    real = (rs == 0) | (2 * rs == n)
    sigma = orbits.mirror_of
    lo = np.flatnonzero(sigma >= np.arange(nu))
    hi = sigma[lo]
    fixed = hi == lo
    pair_of = np.empty(nu, dtype=np.int64)
    pair_of[lo] = pair_of[hi] = np.arange(len(lo))
    side = (hi[pair_of] == np.arange(nu)) & ~fixed[pair_of]
    # the reflection: y[r, g] holds the two columns of pair g, rows (lo, hi)
    t = orbits.mirror_shift[lo]
    sign = root_table(n)[rs * t % n].real
    f = fixed[:, None, None]
    y = np.where(real[..., None, None],
                 np.where(f, _FIXED, _EVEN) + sign[..., None, None] * np.where(f, 0, _ODD),
                 root_table(2 * n)[-rs * t % (2 * n)][..., None, None]
                 * np.where(f, _FIXED, _PAIR))
    label = np.where(real[..., None], [0, 1], [0, 0]) + (real & fixed & (sign < 0))[..., None]
    label[:, fixed, 1] = -1
    comp = orbits.complement_of
    if comp is None:
        group_of, row_of, lead, square, piece = pair_of, side.astype(np.int64), lo, None, None
    else:
        image = pair_of[comp[lo]]
        joined = np.flatnonzero(image > np.arange(len(lo)))
        alone = np.flatnonzero(image == np.arange(len(lo)))
        gamma = root_table(n)[rs * orbits.complement_shift % n]
        square = np.where(blocked, 0, np.abs(gamma * gamma[:, comp] - 1)).max(axis=1)
        half = y[:, joined] * SQRT_HALF
        flipped = gamma[:, np.stack([comp[lo[joined]], comp[hi[joined]]], axis=1)]
        flipped = flipped[..., None] * half
        lab = label[:, joined]
        w_joined = np.concatenate([np.concatenate([half, half], axis=3),
                                   np.concatenate([flipped, -flipped], axis=3)], axis=2)
        lab_joined = np.concatenate([2 * lab + 1, 2 * lab], axis=2)
        rows = np.stack([lo[alone], hi[alone]], axis=1)
        swapped = comp[lo[alone]] != lo[alone]
        ya = y[:, alone]
        g = root_table(2 * n)[rs * np.where(swapped, orbits.complement_shift[lo[alone]], 0)
                              % (2 * n)]
        g = np.where(real, 1, g)[..., None]
        ya[:, :, 0] *= g
        ya[:, :, 1] *= g.conj()
        cy = gamma[:, rows][..., None] * np.where(swapped[:, None, None], ya[:, :, ::-1], ya)
        ones = np.where((ya.conj() * cy).sum(axis=2).real < 0, -1, 1)
        piece = np.abs(cy - ya * ones[:, :, None]).max(axis=(2, 3))
        piece = np.where(blocked[:, lo[alone]], 0, piece).max(axis=1, initial=0.0)
        w_alone = np.zeros(ya.shape[:2] + (4, 4), dtype=y.dtype)
        w_alone[..., :2, :2] = ya
        lab_alone = np.full(ya.shape[:2] + (4,), -1)
        lab_alone[..., :2] = 2 * label[:, alone] + (ones > 0)
        y = np.concatenate([w_joined, w_alone], axis=1)
        label = np.concatenate([lab_joined, lab_alone], axis=1)
        # an orbit of an image pair is row 2 or 3 of its preimage's group
        group = np.full(len(lo), -1)
        group[joined] = np.arange(len(joined))
        group[alone] = len(joined) + np.arange(len(alone))
        mine = group[pair_of] >= 0
        group_of = np.where(mine, group[pair_of], group[pair_of[comp]])
        row_of = np.where(mine, side, 2 + side[comp])
        lead = lo[np.concatenate([joined, alone])]
    # number the columns block by block; padding columns point at column 0
    label = np.where(blocked[:, lead, None], -1, label).reshape(len(rs), -1)
    number = np.empty_like(label)
    np.put_along_axis(number, np.argsort(label, axis=1, kind="stable"),
                      np.arange(label.shape[1]), axis=1)
    number -= np.count_nonzero(label < 0, axis=1, keepdims=True)
    np.maximum(number, 0, out=number)
    width = y.shape[-1]
    col = number.reshape(len(rs), -1, width).transpose(0, 2, 1)[:, :, group_of]
    coef = y.transpose(0, 3, 1, 2)[:, :, group_of, row_of] * ~blocked[:, None]
    counts = np.count_nonzero(label[..., None] == np.arange(2 * width), axis=1)
    return [(blocked[x], col[x], coef[x].real.copy() if real[x, 0] else coef[x],
             counts[x][counts[x] > 0], None if comp is None else square[x],
             None if comp is None else piece[x]) for x in range(len(rs))]


@dataclass(frozen=True)
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


def _real_form(b: np.ndarray, orbits: OrbitTable, basis: tuple, root: np.ndarray,
               where: str) -> np.ndarray:
    """The real block diagonal S of the sector matrix b in ``basis``.

    ``basis`` is one entry of ``_sector_bases``.  The nonzero cells of b
    are read once.  Within tol = ``quotient_tol(max|b|)``, b[X, U] must
    vanish, H = D_U^(1/2) b[U, U] D_U^(-1/2) must be Hermitian (checked
    between each cell and its transpose cell) and, when 2k = n, the
    complement must square to the identity and take +-1 on each column
    of a pair that is its own complement.  ``root`` is sqrt(p / top)
    for each orbit period p.
    """
    blocked, col, coef, sizes, square, piece = basis
    nu = orbits.count
    flat = b.reshape(-1)
    cells = np.flatnonzero(flat != 0)
    values = flat[cells]
    size = np.abs(values)
    tol = quotient_tol(float(size.max(initial=0.0)))
    i, j = np.divmod(cells, nu)
    out, into = blocked[i], blocked[j]
    check_bound(where, "blocked orbit coupling max|b[X, U]|",
                float(size[out > into].max(initial=0.0)), tol)
    inside = ~(out | into)
    i, j = i[inside], j[inside]
    ratio = root[i] / root[j]
    h = values[inside] * ratio
    skew = np.abs(h - (flat[j * nu + i] / ratio).conj())
    check_bound(where, "skew max|H - H^*|", float(skew.max(initial=0.0)), tol)
    if square is not None:
        check_bound(where, "complement square max|C^2 - I|", float(square), tol)
        check_bound(where, "complement piece eigenvalues max|C q - (+-q)|", float(piece), tol)
    return _assemble(col, coef, i, j, h, sizes, where, tol)


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


def solve_sector(b: np.ndarray, orbits: OrbitTable, r: int, *,
                 vectors: bool = True) -> SectorSolution:
    """Split the sector matrix b = B(w^r) into kept and discarded values.

    The kept values are the eigenvalues of the Hermitian quotient
    H = D_U^(1/2) b[U, U] D_U^(-1/2) on the unblocked orbits U.  H is
    written in the symmetry-adapted basis of ``_sector_bases`` as a real
    block diagonal S, assembled from the nonzero cells of b, and each
    block is solved by its own real ``eigh``.  Every check runs at
    tol = ``quotient_tol(max|b|)`` and raises ``NumericFailureError``
    naming its quantity: b[X, U] must vanish, H must be Hermitian, S
    real and zero between its blocks.  The kept vectors v are unit
    eigenvectors of b, exactly zero on the blocked orbits, and their
    residuals max|b v - v lambda| must stay within RESIDUAL_TOL.  The
    discarded values are ``eig`` of b[X, X]; their imaginary parts must
    stay within IMAG_TOL and their residuals within RESIDUAL_TOL.  A
    sector r outside [0, n) or a b that is not nu x nu for ``orbits``
    raises ``ParameterDomainError``.
    """
    check_sector(orbits.n, r)
    if np.shape(b) != (orbits.count, orbits.count):
        raise ParameterDomainError(f"sector matrix of shape {np.shape(b)} for the "
                                   f"{orbits.count} orbits of F_{orbits.k}(C_{orbits.n})")
    return _solve_sector(b, orbits, r, _sector_bases(orbits, [r])[0], vectors)


def _solve_sector(b: np.ndarray, orbits: OrbitTable, r: int, basis: tuple,
                  vectors: bool) -> SectorSolution:
    """``solve_sector`` in the sector's entry of ``_sector_bases``.

    Besides b, a sector holds S until its blocks are solved, then u and
    one chunk of COLUMN_CHUNK columns of v and of b v at a time, plus
    the returned vectors only when they are asked for.
    """
    n, k = orbits.n, orbits.k
    where = f"F_{k}(C_{n}) sector r={r}"
    blocked, col, coef, sizes = basis[:4]
    if (r == 0 or 2 * r == n) and not b.imag.any():
        b = b.real.copy()  # the root table gives +-1 exactly
    root = np.sqrt(orbits.periods / orbits.periods.max())
    s = _real_form(b, orbits, basis, root, where)
    try:
        vals, u = _block_eigh(s, sizes)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"{where}: eigh failed: {exc}") from exc
    del s
    # v = D^(-1/2) Q u, column scaled, and the residual of b v = v lambda,
    # one chunk of columns at a time
    coef = coef / root
    res = np.empty(len(vals))
    v = np.empty((len(root), len(vals)), dtype=coef.dtype) if vectors else None
    for c in range(0, len(vals), COLUMN_CHUNK):
        part = slice(c, c + COLUMN_CHUNK)
        chunk = coef[0, :, None] * u[col[0], part]
        for p in range(1, len(col)):
            chunk += coef[p, :, None] * u[col[p], part]
        chunk /= np.linalg.norm(chunk, axis=0)
        if vectors:
            v[:, part] = chunk
        gap = b @ chunk
        chunk *= vals[part]  # v lambda in place, so no third chunk is made
        gap -= chunk
        res[part] = np.abs(gap).max(axis=0)
        del chunk, gap  # before the next chunk is built
    del u
    discarded = np.empty(0)
    if blocked.any():
        bxx = b[np.ix_(blocked, blocked)]
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


def _sector_solutions(n: int, k: int, shift: str = "smallest", *,
                      vectors: bool) -> list[SectorSolution]:
    """The ``SectorSolution`` of every sector r = 0..n-1, in sector order.

    Only the sectors r <= n/2 are solved.  The coefficients of B(z) are
    integers and the root table is conjugate symmetric, so B(w^(n-r)) is
    exactly the conjugate of B(w^r): its eigenvalues and residuals are
    the same and its eigenvectors the conjugates.  Both sectors have the
    same order n/gcd(n, r), so they block the same orbits.
    """
    orbits = enumerate_orbits(n, k)
    matrix = build_poly_matrix(n, k, shift)
    rs = list(range(n // 2 + 1))
    sols = [_solve_sector(matrix.specialize(r), orbits, r, basis, vectors)
            for r, basis in zip(rs, _sector_bases(orbits, rs))]
    for r in range(n // 2 + 1, n):
        sol = sols[n - r]
        conj = None if sol.vectors is None else sol.vectors.conj()
        sols.append(replace(sol, sector=r, vectors=conj))
    return sols


def full_spectrum(n: int, k: int, shift: str = "smallest") -> SpectrumReport:
    """Union of the kept sector spectra, laid out by ``SpectrumReport.from_sectors``."""
    sols = _sector_solutions(n, k, shift, vectors=False)
    values = np.concatenate([v for sol in sols for v in (sol.kept, sol.discarded)])
    return SpectrumReport.from_sectors(n, k, "overlift", values, [len(sol.kept) for sol in sols],
                                       [len(sol.discarded) for sol in sols])


def kept_eigenpairs(n: int, k: int) -> list[EigenPair]:
    """Every kept eigenpair across all sectors, with verified residuals.

    Pairs come in sector order, ascending by value within a sector, each
    checked against its own sector's specialized matrix.
    """
    return [EigenPair(float(val), sol.sector, sol.vectors[:, col], float(sol.residuals[col]))
            for sol in _sector_solutions(n, k, vectors=True)
            for col, val in enumerate(sol.kept)]


@dataclass(frozen=True)
class LiftedVector:
    """Eigenvector over all C(n, k) configurations, graph vertex order."""

    value: float
    sector: int
    values: np.ndarray
    residual: float


def lift_eigenvector(pair: EigenPair, orbits: OrbitTable,
                     graph: TokenGraph | None = None,
                     lap: np.ndarray | None = None) -> LiftedVector:
    """Unroll a kept quotient eigenvector to the full token graph.

    The configuration X = rep_i + j receives component f_i * w^(r*j)
    with w = exp(2*pi*i/n).  Well defined on a short orbit only when
    f_i = 0 or the sector order divides the orbit period, which the
    sector solver guarantees; a violation here is a solver bug and
    raises.  The residual |L x - lambda x| is checked at every vertex
    through the graph's CSR adjacency, one gather and one segmented sum,
    so a lift costs O(C(n, k) + edges); ``lap`` is accepted for
    compatibility but not read.  A vector, sector or graph that does not
    fit ``orbits`` raises ``ParameterDomainError``.
    """
    n, k = orbits.n, orbits.k
    r = pair.sector
    if len(pair.vector) != orbits.count:
        raise ParameterDomainError(f"vector of length {len(pair.vector)} for the "
                                   f"{orbits.count} orbits of F_{k}(C_{n})")
    check_sector(n, r)
    if graph is None:
        graph = build_token_graph(n, k)
    elif (graph.n, graph.k) != (n, k):
        raise ParameterDomainError(f"token graph F_{graph.k}(C_{graph.n}) for the "
                                   f"orbits of F_{k}(C_{n})")
    # every orbit has a configuration and every phase has modulus 1, so
    # the lift is zero exactly when the vector is
    size = np.abs(pair.vector)
    top = size.max()
    if top == 0:
        raise NumericFailureError("lifted vector is zero")
    loaded = blocked_mask(orbits.periods, n, r)
    loaded &= size > LIFT_SUPPORT_TOL * top
    if loaded.any():
        i = int(np.argmax(loaded))
        raise PhaseConsistencyError(
            f"component {i} nonzero on orbit of period {orbits.periods[i]} "
            f"with sector order {sector_order(n, r)}")
    # w^(r*s) for each shift s, then one gather over the configurations
    out = pair.vector[orbits.orbit_of] * root_table(n)[r * np.arange(n) % n][orbits.shift_of]
    # L x = deg x - sum over neighbours; no vertex is isolated, so no
    # reduceat segment is empty (see build_token_graph)
    res = (graph.degrees - pair.value) * out
    res -= np.add.reduceat(out[graph.targets], graph.offsets[:-1])
    res = float(np.abs(res).max())
    check_bound(f"F_{k}(C_{n}) sector r={r}, eigenvalue {pair.value}",
                "lifted vector residual", res, LIFT_RESIDUAL_TOL)
    return LiftedVector(pair.value, r, out, res)

