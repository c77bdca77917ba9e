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

The reflection X -> -X of the cycle, composed with complex conjugation,
maps sector r to itself; on H it is an antiunitary symmetry that squares
to the identity (each two-dimensional dihedral representation is of
real type).  Reordering the orbits into fixed points and mirror pairs,
scaling by half phases and rotating each pair (``RealBasis``) makes H a
real symmetric matrix S, so every sector is solved by a real ``eigh``.
The realness of S is checked; the kept residual is still measured
against the complex H.

``sector_eigenpairs`` and ``filter_spurious`` keep the paper's literal
construction (a general eigensolve, then a rank test on the eigenspaces
restricted to the blocked rows) as an independent reference.

Sector computations are pure functions of immutable inputs; every r can
run independently.  Sectors r and n - r are complex conjugates of each
other, so only the sectors r <= n/2 are solved.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb

import numpy as np

from .errors import (CountMismatchError, NumericFailureError,
                     ParameterDomainError, PhaseConsistencyError)
from .laurent import LaurentMatrix, root_table
from .necklaces import OrbitTable, enumerate_orbits, sector_order
from .report import SpectrumReport
from .tokengraph import TokenGraph, build_token_graph, token_neighbors

DISCARD_REASON = "nonzero on short orbit whose period the sector order does not divide"
# absolute bounds of the sector solver: eigen-residuals of unit vectors,
# and the imaginary parts of the discarded values
RESIDUAL_TOL = 1e-8
IMAG_TOL = 1e-7
SQRT_HALF = np.sqrt(0.5)


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


def build_poly_matrix(n: int, k: int, orbits: OrbitTable | None = None,
                      shift: str = "smallest") -> LaurentMatrix:
    """The orbit polynomial matrix of the k-token graph of the n-cycle.

    ``shift`` picks the representative shift when the target orbit is
    short and the shift is only determined mod its period: "smallest"
    (default) or "largest".  Both choices leave the kept spectrum
    unchanged; entries differ.
    """
    if shift not in ("smallest", "largest"):
        raise ParameterDomainError(f"unknown shift choice {shift!r}")
    if orbits is None:
        orbits = enumerate_orbits(n, k)
    terms = []
    for i, rep in enumerate(orbits.reps):
        nbs = token_neighbors(rep, n)
        terms.append((i, i, 0, len(nbs)))
        for nb in nbs:
            j, s = orbits.locate(nb)
            if shift == "largest":
                s += n - orbits.periods[j]
            terms.append((i, j, s, -1))
    return LaurentMatrix.from_terms(n, orbits.count, *zip(*terms))


def sector_eigenpairs(matrix: LaurentMatrix, r: int, *,
                      imag_tol: float = 1e-7,
                      residual_tol: float = 1e-8) -> list[EigenPair]:
    """Eigenpairs of the specialized matrix at sector r, ascending.

    The specialized matrix is not Hermitian in general, so a general
    dense solver is used and realness is asserted afterwards.
    """
    b = matrix.specialize(r)
    try:
        vals, vecs = np.linalg.eig(b)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"eigensolver failed in sector {r}: {exc}") from exc
    bad_imag = float(np.max(np.abs(vals.imag)))
    if bad_imag > imag_tol:
        raise NumericFailureError(
            f"sector {r}: eigenvalue imaginary part {bad_imag:.3e} exceeds {imag_tol:.0e}")
    order = np.argsort(vals.real)
    vals, vecs = vals[order], vecs[:, order]
    # residuals of the solver's complex eigenpairs; the realized values
    # can differ by up to imag_tol, which the residual bound predates
    res = np.max(np.abs(b @ vecs - vecs * vals), axis=0)
    worst = float(np.max(res))
    if worst > residual_tol:
        raise NumericFailureError(
            f"sector {r}: eigenpair residual {worst:.3e} exceeds {residual_tol:.0e}")
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


def filter_spurious(pairs: list[EigenPair], orbits: OrbitTable, r: int, *,
                    cluster_tol: float = 1e-6,
                    rank_tol: float = 1e-8) -> list[ClusterVerdict]:
    """Kept multiplicity per eigenvalue cluster of one sector.

    Eigenvalues within cluster_tol are treated as one eigenspace.  The
    kept multiplicity is the cluster dimension minus the rank of the
    cluster basis restricted to the blocked-orbit rows; the kept vectors
    are the combinations vanishing there.  Working on eigenspaces (not
    individual eigenvectors) makes the decision independent of the
    arbitrary basis a solver returns for a degenerate eigenvalue.  The
    basis is orthonormalized first so the rank threshold has a fixed
    scale and nearly parallel vectors from a defective cluster cannot
    distort the decision.
    """
    blocked = blocked_mask(np.asarray(orbits.periods), orbits.n, r)
    verdicts = []
    i = 0
    while i < len(pairs):
        j = i + 1
        while j < len(pairs) and pairs[j].value - pairs[j - 1].value <= cluster_tol:
            j += 1
        group = pairs[i:j]
        m = len(group)
        basis = np.column_stack([p.vector for p in group])
        q, _, _ = np.linalg.svd(basis, full_matrices=False)
        mean = float(np.mean([p.value for p in group]))
        if blocked.any():
            restricted = q[blocked]
            _, sv, vh = np.linalg.svd(restricted)
            rank = int(np.sum(sv > rank_tol))
            kept_vecs = q @ vh.conj().T[:, rank:]
        else:
            rank = 0
            kept_vecs = q
        verdicts.append(ClusterVerdict(mean, r, m, m - rank, kept_vecs))
        i = j
    return verdicts


def check_bound(where: str, quantity: str, value: float, tol: float) -> None:
    """Raise NumericFailureError naming the failed quantity unless value <= tol."""
    if not value <= tol:  # a NaN fails too
        raise NumericFailureError(
            f"{where}: {quantity} {value:.3e} exceeds tol {tol:.3e}")


def hermitian_quotient(b: np.ndarray, periods: np.ndarray, blocked: np.ndarray,
                       where: str) -> tuple[np.ndarray, np.ndarray, float]:
    """The Hermitian quotient of a sector matrix on its unblocked orbits.

    ``b`` is the sector matrix, ``periods`` the orbit periods and
    ``blocked`` the mask of orbits whose period the sector order does
    not divide.  With U the unblocked and X the blocked orbits, b[X, U]
    must vanish and H = D_U^(1/2) b[U, U] D_U^(-1/2), D = diag(periods),
    must be Hermitian; both are checked within tol = 1e-8 (1 + max|b|),
    and a failure raises ``NumericFailureError`` prefixed by ``where``.
    Returns (H, scale, tol), where scale is the diagonal of D_U^(1/2)
    divided by its largest entry, so full orbits scale by exactly 1.
    """
    tol = 1e-8 * (1.0 + float(np.abs(b).max()))
    h = b
    if blocked.any():
        keep = np.flatnonzero(~blocked)
        coupling = float(np.abs(b.take(np.flatnonzero(blocked), 0).take(keep, 1))
                         .max(initial=0.0))
        check_bound(where, "blocked orbit coupling max|b[X, U]|", coupling, tol)
        h = b.take(keep, 0).take(keep, 1)
        periods = periods[keep]
    top = periods.max()
    short = np.flatnonzero(periods != top)
    scale = np.ones(len(periods))
    if short.size:
        scale[short] = np.sqrt(periods[short] / top)
        h = h.copy() if h is b else h
        h[short] *= scale[short, None]
        h[:, short] /= scale[short]
    skew = float(np.abs(h - h.conj().T).max())
    check_bound(where, "skew max|H - H^*|", skew, tol)
    return h, scale, tol


class RealBasis:
    """A unitary basis in which a sector's Hermitian quotient is real.

    The reflection X -> -X of the cycle maps sector r to sector n - r,
    and composed with complex conjugation it maps sector r to itself.
    On the quotient H of sector r it acts as f -> P conj(f) with
    P[i, sigma(i)] = w^(-r t_i), where sigma is the orbit reflection and
    t its shift; this map commutes with H and squares to the identity,
    so H is real in a basis of vectors it fixes.  Those are
    phase * e_i for a fixed point i of sigma, and
    phase * (e_i + e_j)/sqrt(2) and i * phase * (e_i - e_j)/sqrt(2) for a
    pair i < j = sigma(i), with the half phase exp(-i pi r t_i / n) of the
    pair's lower member.

    ``order`` lists the positions of H as [fixed points | pair lows |
    pair highs], ``phase`` holds the half phase of each entry of
    ``order``, and ``fixed`` counts the fixed points.
    """

    # a plain class: generating a dataclass would add about 1 ms to
    # every import of the package
    __slots__ = ("order", "phase", "fixed")

    def __init__(self, order: np.ndarray, phase: np.ndarray, fixed: int):
        self.order, self.phase, self.fixed = order, phase, fixed

    def _blocks(self) -> tuple[slice, slice]:
        f = self.fixed
        m = (len(self.order) - f) // 2
        return slice(f, f + m), slice(f + m, None)

    def reduce(self, h: np.ndarray, tol: float, where: str) -> np.ndarray:
        """The real symmetric matrix S of ``h`` in this basis.

        Rotates the pairs in place on contiguous views of one permuted
        copy of ``h``; max|Im S| must stay within tol, or
        ``NumericFailureError`` names it, prefixed by ``where``.
        """
        lo, hi = self._blocks()
        s = h.take(self.order, 0).take(self.order, 1)
        s *= self.phase.conj()[:, None]
        s *= self.phase
        # columns (lo + hi)/sqrt(2) and i (lo - hi)/sqrt(2), then the
        # rows as the conjugate transpose: (lo + hi)/sqrt(2), -i (lo - hi)/sqrt(2)
        diff = s[:, lo] - s[:, hi]
        s[:, lo] += s[:, hi]
        s[:, lo] *= SQRT_HALF
        np.multiply(diff, 1j * SQRT_HALF, out=s[:, hi])
        diff = s[lo] - s[hi]
        s[lo] += s[hi]
        s[lo] *= SQRT_HALF
        np.multiply(diff, -1j * SQRT_HALF, out=s[hi])
        del diff
        check_bound(where, "real form imaginary part max|Im S|",
                    float(np.abs(s.imag).max()), tol)
        return np.ascontiguousarray(s.real)

    def vectors(self, u: np.ndarray) -> np.ndarray:
        """Map eigenvectors of S (columns of ``u``) to eigenvectors of H."""
        lo, hi = self._blocks()
        w = np.empty(u.shape, dtype=complex)
        w[self.order[:self.fixed]] = u[:self.fixed] * self.phase[:self.fixed, None]
        half = (self.phase[lo] * SQRT_HALF)[:, None]
        w[self.order[lo]] = (u[lo] + 1j * u[hi]) * half
        w[self.order[hi]] = (u[lo] - 1j * u[hi]) * half
        return w


def reflection_basis(mirror_of: np.ndarray, mirror_shift: np.ndarray,
                     blocked: np.ndarray, r: int, n: int) -> RealBasis:
    """The ``RealBasis`` of sector r on the unblocked orbits.

    ``mirror_of`` and ``mirror_shift`` give the reflection of every
    orbit (see ``OrbitTable``); the reflection preserves periods and so
    maps unblocked orbits to unblocked ones.  Any representative of the
    shift modulo the period serves: another one only flips the sign of
    a basis vector.
    """
    keep = np.flatnonzero(~blocked)
    position = np.full(len(blocked), -1)
    position[keep] = np.arange(len(keep))
    mirror = position[mirror_of[keep]]
    here = np.arange(len(keep))
    fixed = np.flatnonzero(mirror == here)
    lows = np.flatnonzero(mirror > here)
    order = np.concatenate([fixed, lows, mirror[lows]])
    shift = mirror_shift[keep][np.concatenate([fixed, lows, lows])]
    phase = root_table(2 * n)[(-r * shift) % (2 * n)]
    return RealBasis(order, phase, len(fixed))


@dataclass(frozen=True)
class SectorSolution:
    """Kept and discarded eigenvalues of one sector matrix, each ascending.

    ``residuals`` holds max|b v - lambda v| per kept value.  ``vectors``
    holds the kept eigenvectors, one unit column each, exactly zero on
    the blocked orbits; it is None when they were not asked for.
    """

    sector: int
    kept: np.ndarray
    residuals: np.ndarray
    discarded: np.ndarray
    vectors: np.ndarray | None = None


def solve_sector(b: np.ndarray, orbits: OrbitTable, r: int, *,
                 vectors: bool = True) -> SectorSolution:
    """Split the sector matrix b = B(w^r) into kept and discarded values.

    The kept values are the eigenvalues of the Hermitian quotient H on
    the unblocked orbits (see ``hermitian_quotient``), found by a real
    ``eigh``: H is real at r = 0 and r = n/2, and elsewhere its real
    form S in the reflection basis (see ``RealBasis``) is solved.  The
    eigenvectors w of H give v = [D_U^(-1/2) w; 0] scaled to unit norm.
    Since b[X, U] vanishes, their residual against b is
    D_U^(-1/2) (H w - w lambda) on the rows U and b[X, U] v on the rows
    X, with the complex H; it must stay within RESIDUAL_TOL.  The
    discarded values are ``eig`` of b[X, X]; their imaginary parts must
    stay within IMAG_TOL and their residuals within RESIDUAL_TOL.
    """
    n, k = orbits.n, orbits.k
    where = f"F_{k}(C_{n}) sector r={r}"
    periods = np.asarray(orbits.periods)
    blocked = blocked_mask(periods, n, r)
    if not b.imag.any():
        b = b.real.copy()  # sectors 0 and n/2: the root table gives +-1 exactly
    h, scale, tol = hermitian_quotient(b, periods, blocked, where)
    basis = None
    if np.iscomplexobj(h):
        basis = reflection_basis(orbits.mirror_of, orbits.mirror_shift,
                                 blocked, r, n)
    try:
        vals, w = np.linalg.eigh(h if basis is None else basis.reduce(h, tol, where))
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"{where}: eigh failed: {exc}") from exc
    if basis is not None:
        w = basis.vectors(w)
    unscale = (1.0 / scale)[:, None]
    diff = h @ w
    diff -= w * vals
    diff *= unscale
    res = np.max(np.abs(diff), axis=0)
    del diff, h
    w *= unscale
    norms = np.linalg.norm(w, axis=0)
    w /= norms
    res /= norms
    discarded = np.empty(0)
    if blocked.any():
        res = np.maximum(res, np.max(np.abs(b[blocked][:, ~blocked] @ w), axis=0))
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
    full = None
    if vectors:
        full = np.zeros((len(periods), len(vals)), dtype=complex)
        full[~blocked] = w
    return SectorSolution(r, vals, res, discarded, full)


def _sector_solutions(matrix: LaurentMatrix, orbits: OrbitTable, *,
                      vectors: bool):
    """Yield the ``SectorSolution`` of every sector r = 0..n-1.

    Only the sectors r <= n/2 are solved.  The coefficients of B(z) are
    integers and the root table is conjugate symmetric, so B(w^(n-r)) is
    exactly the conjugate of B(w^r): its eigenvalues and residuals are
    the same and its eigenvectors the conjugates.  Both sectors have the
    same order n/gcd(n, r), so they block the same orbits.  Sector n - r
    is yielded right after sector r, so only one sector's vectors are
    held at a time.
    """
    n = matrix.n
    for r in range(n // 2 + 1):
        sol = solve_sector(matrix.specialize(r), orbits, r, vectors=vectors)
        yield sol
        if 0 < r < n - r:
            conj = None if sol.vectors is None else sol.vectors.conj()
            yield replace(sol, sector=n - r, vectors=conj)


def full_spectrum(n: int, k: int, shift: str = "smallest") -> SpectrumReport:
    """Union of the kept sector spectra; exactly C(n, k) values kept.

    Each sector's audit entries are ascending by value.
    """
    orbits = enumerate_orbits(n, k)
    matrix = build_poly_matrix(n, k, orbits, shift=shift)
    by_sector: list = [None] * n  # (values, kept mask) of each sector
    for sol in _sector_solutions(matrix, orbits, vectors=False):
        values = np.concatenate([sol.kept, sol.discarded])
        order = np.argsort(values, kind="stable")
        by_sector[sol.sector] = (values[order], order < len(sol.kept))
    values, kept = (np.concatenate(column) for column in zip(*by_sector))
    expected = comb(n, k)
    if kept.sum() != expected:
        raise CountMismatchError(
            f"kept {kept.sum()} eigenvalues for F_{k}(C_{n}), expected {expected}")
    sectors = np.repeat(np.arange(n), [len(v) for v, _ in by_sector])
    return SpectrumReport(n, k, "overlift", values, sectors, kept, DISCARD_REASON)


def kept_eigenpairs(n: int, k: int) -> list[EigenPair]:
    """Every kept eigenpair across all sectors, with verified residuals.

    Pairs come in sector order, ascending by value within a sector, each
    checked against its own sector's specialized matrix.
    """
    orbits = enumerate_orbits(n, k)
    matrix = build_poly_matrix(n, k, orbits)
    by_sector: list[list[EigenPair]] = [[] for _ in range(n)]
    for sol in _sector_solutions(matrix, orbits, vectors=True):
        by_sector[sol.sector] = [
            EigenPair(float(val), sol.sector, sol.vectors[:, col], float(sol.residuals[col]))
            for col, val in enumerate(sol.kept)]
    return [pair for pairs in by_sector for pair in pairs]


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
    raises.  The residual |L x - lambda x| is checked through the
    graph's edge arrays, so ``lap`` is accepted for compatibility but
    not read.
    """
    n, k = orbits.n, orbits.k
    if graph is None:
        graph = build_token_graph(n, k)
    r = pair.sector
    scale = float(np.max(np.abs(pair.vector)))
    loaded = blocked_mask(np.asarray(orbits.periods), n, r)
    loaded &= np.abs(pair.vector) > 1e-10 * scale
    if loaded.any():
        i = int(np.argmax(loaded))
        raise PhaseConsistencyError(
            f"component {i} nonzero on orbit of period {orbits.periods[i]} "
            f"with sector order {sector_order(n, r)}")
    out = pair.vector[orbits.orbit_of] * root_table(n)[(r * orbits.shift_of) % n]
    if not np.any(out):
        raise NumericFailureError("lifted vector is zero")
    # L x = deg x - sum over neighbours; bincount takes real weights only
    src, dst = graph.edges
    m = graph.order
    adj = (np.bincount(src, out.real[dst], m)
           + 1j * np.bincount(src, out.imag[dst], m))
    res = float(np.max(np.abs((graph.degrees - pair.value) * out - adj)))
    if res > 1e-8:
        raise NumericFailureError(
            f"lifted vector residual {res:.3e} for eigenvalue {pair.value} "
            f"in sector {r} of F_{k}(C_{n})")
    return LiftedVector(pair.value, r, out, res)


def expand_lift(base: LaurentMatrix) -> np.ndarray:
    """Expand a genuine cyclic lift base to its full order-(nu*n) matrix.

    Valid only when the base is reversal symmetric: the coefficient of
    z^e in entry (i, j) must equal the coefficient of z^(n-e) in entry
    (j, i).  Orbit matrices with short orbits fail this and are
    rejected; they do not expand to a genuine lift.  The spectrum of the
    result equals the union over r of the specialized spectra.
    """
    n, nu = base.n, base.order
    fwd = base.terms
    rev = LaurentMatrix.from_terms(n, nu, base.col, base.row, -base.exp,
                                   base.coeff).terms
    if not np.array_equal(fwd, rev):
        # a term in one list but not the other sits in an offending entry
        i, j, _, _ = min(set(map(tuple, fwd.tolist())) ^ set(map(tuple, rev.tolist())))
        raise ParameterDomainError(
            f"entry ({i},{j}) is not the exponent reversal of ({j},{i}); "
            "the matrix is not a genuine lift base")
    g = np.arange(n)
    rows = base.row[:, None] * n + g
    cols = base.col[:, None] * n + (g + base.exp[:, None]) % n
    out = np.zeros((nu * n, nu * n))
    np.add.at(out, (rows, cols), base.coeff[:, None])
    return out
