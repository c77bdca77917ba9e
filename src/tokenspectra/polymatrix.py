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
``RealBasis.reduce`` forms S from one copy of b and checks the coupling,
the skew and the realness on the way; the kept residual is measured
against b itself.

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
from .tolerances import (CLUSTER_TOL, IMAG_TOL, LIFT_RESIDUAL_TOL, LIFT_SUPPORT_TOL,
                         RANK_TOL, RESIDUAL_TOL, check_bound, quotient_tol)
from .tokengraph import TokenGraph, build_token_graph, token_moves

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

    ``order`` lists the unblocked orbits as [fixed points | pair lows |
    pair highs], ``phase`` holds the half phase of each entry of
    ``order`` and ``fixed`` counts the fixed points.  ``root`` holds
    sqrt(p / top) for the period p of each entry, top the largest, and
    ``blocked`` masks the blocked orbits.
    """

    # a plain class: generating a dataclass would add about 1 ms to
    # every import of the package
    __slots__ = ("order", "phase", "fixed", "root", "blocked")

    def __init__(self, order: np.ndarray, phase: np.ndarray, fixed: int,
                 periods: np.ndarray, blocked: np.ndarray):
        self.order, self.phase, self.fixed, self.blocked = order, phase, fixed, blocked
        self.root = np.sqrt(periods[order] / periods[order].max())

    def _blocks(self) -> tuple[slice, slice]:
        f = self.fixed
        m = (len(self.order) - f) // 2
        return slice(f, f + m), slice(f + m, None)

    def reduce(self, b: np.ndarray, where: str) -> np.ndarray:
        """The real symmetric matrix S of the sector matrix ``b`` in this basis.

        With U the unblocked and X the blocked orbits, b[X, U] must
        vanish, H = D_U^(1/2) b[U, U] D_U^(-1/2), D = diag(periods), must
        be Hermitian and S must be real, each within
        tol = ``quotient_tol(max|b|)``; a failure raises
        ``NumericFailureError`` naming the quantity, prefixed by ``where``.
        One permuted copy of b[U, U] has its rows scaled by
        conj(phase) * root and its columns by phase / root, which is
        H in the phased basis and has the same max|H - H^*|; then its
        pairs are rotated in place.
        """
        tol = quotient_tol(float(np.abs(b).max()))
        coupling = float(np.abs(b[np.ix_(self.blocked, self.order)]).max(initial=0.0))
        check_bound(where, "blocked orbit coupling max|b[X, U]|", coupling, tol)
        s = b[np.ix_(self.order, self.order)]
        s *= (self.phase.conj() * self.root)[:, None]
        s *= self.phase / self.root
        skew = np.conj(s.T)
        skew -= s
        check_bound(where, "skew max|H - H^*|", float(np.abs(skew).max()), tol)
        del skew
        if len(self.order) > self.fixed:
            lo, hi = self._blocks()
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
        """Map eigenvectors of S (columns of ``u``) to unit eigenvectors of b.

        The rotations and phases are undone and D_U^(-1/2) applied; the
        rows of the blocked orbits are exactly zero.
        """
        f = self.fixed
        factor = (self.phase / self.root)[:, None]
        v = np.zeros((len(self.blocked), u.shape[1]), dtype=self.phase.dtype)
        v[self.order[:f]] = u[:f] * factor[:f]
        if len(self.order) > f:
            lo, hi = self._blocks()
            half = factor[lo] * SQRT_HALF
            v[self.order[lo]] = (u[lo] + 1j * u[hi]) * half
            v[self.order[hi]] = (u[lo] - 1j * u[hi]) * half
        v /= np.linalg.norm(v, axis=0)
        return v


def reflection_basis(mirror_of: np.ndarray, mirror_shift: np.ndarray,
                     periods: np.ndarray, blocked: np.ndarray, r: int,
                     n: int) -> RealBasis:
    """The ``RealBasis`` of sector r on the unblocked orbits.

    ``mirror_of`` and ``mirror_shift`` give the reflection of every
    orbit (see ``OrbitTable``); the reflection preserves periods and so
    maps unblocked orbits to unblocked ones.  Any representative of the
    shift modulo the period serves: another one only flips the sign of
    a basis vector.
    """
    keep = np.flatnonzero(~blocked)
    mirror = mirror_of[keep]
    fixed = keep[mirror == keep]
    lows = keep[mirror > keep]
    order = np.concatenate([fixed, lows, mirror_of[lows]])
    shift = mirror_shift[np.concatenate([fixed, lows, lows])]
    phase = root_table(2 * n)[(-r * shift) % (2 * n)]
    return RealBasis(order, phase, len(fixed), periods, blocked)


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
    the unblocked orbits, found by a real ``eigh`` of its real form S
    (see ``RealBasis.reduce``).  A real b (r = 0 and r = n/2, and every
    sector when k = 1) is reduced in the basis where every unblocked
    orbit is fixed with phase 1, so S is H itself; any other b in the
    reflection basis.  The kept vectors v are unit eigenvectors of b,
    exactly zero on the blocked orbits, and their residuals
    max|b v - v lambda| must stay within RESIDUAL_TOL.  The discarded
    values are ``eig`` of b[X, X]; their imaginary parts must stay
    within IMAG_TOL and their residuals within RESIDUAL_TOL.
    """
    n, k = orbits.n, orbits.k
    where = f"F_{k}(C_{n}) sector r={r}"
    periods = orbits.periods
    blocked = blocked_mask(periods, n, r)
    if b.imag.any():
        basis = reflection_basis(orbits.mirror_of, orbits.mirror_shift, periods,
                                 blocked, r, n)
    else:
        b = b.real.copy()  # the root table gives +-1 exactly
        keep = np.flatnonzero(~blocked)
        basis = RealBasis(keep, np.ones(len(keep)), len(keep), periods, blocked)
    try:
        vals, v = np.linalg.eigh(basis.reduce(b, where))
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"{where}: eigh failed: {exc}") from exc
    v = basis.vectors(v)
    res = b @ v
    res -= v * vals
    res = np.max(np.abs(res), axis=0)
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
    return SectorSolution(r, vals, res, discarded, v if vectors else None)


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
    matrix = build_poly_matrix(n, k, orbits, shift=shift)
    sols = [solve_sector(matrix.specialize(r), orbits, r, vectors=vectors)
            for r in range(n // 2 + 1)]
    for r in range(n // 2 + 1, n):
        sol = sols[n - r]
        conj = None if sol.vectors is None else sol.vectors.conj()
        sols.append(replace(sol, sector=r, vectors=conj))
    return sols


def full_spectrum(n: int, k: int, shift: str = "smallest") -> SpectrumReport:
    """Union of the kept sector spectra; exactly C(n, k) values kept.

    Each sector's audit entries are its kept values, ascending, then its
    discarded values, ascending, so the kept mask follows from the counts
    alone and no tie between the two is broken by rounding.
    """
    sols = _sector_solutions(n, k, shift, vectors=False)
    columns = [v for sol in sols for v in (sol.kept, sol.discarded)]
    values, counts = np.concatenate(columns), [len(v) for v in columns]
    kept = np.repeat(np.tile([True, False], n), counts)
    expected = comb(n, k)
    if kept.sum() != expected:
        raise CountMismatchError(
            f"kept {kept.sum()} eigenvalues for F_{k}(C_{n}), expected {expected}")
    sectors = np.repeat(np.arange(n).repeat(2), counts)
    return SpectrumReport(n, k, "overlift", values, sectors, kept)


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
    compatibility but not read.
    """
    n, k = orbits.n, orbits.k
    if graph is None:
        graph = build_token_graph(n, k)
    r = pair.sector
    size = np.abs(pair.vector)
    loaded = blocked_mask(orbits.periods, n, r)
    loaded &= size > LIFT_SUPPORT_TOL * size.max()
    if loaded.any():
        i = int(np.argmax(loaded))
        raise PhaseConsistencyError(
            f"component {i} nonzero on orbit of period {orbits.periods[i]} "
            f"with sector order {sector_order(n, r)}")
    # w^(r*s) for each shift s, then one gather over the configurations
    out = pair.vector[orbits.orbit_of] * root_table(n)[r * np.arange(n) % n][orbits.shift_of]
    if not np.any(out):
        raise NumericFailureError("lifted vector is zero")
    # L x = deg x - sum over neighbours; no vertex is isolated, so no
    # reduceat segment is empty (see build_token_graph)
    res = (graph.degrees - pair.value) * out
    res -= np.add.reduceat(out[graph.targets], graph.offsets[:-1])
    res = float(np.abs(res).max())
    check_bound(f"F_{k}(C_{n}) sector r={r}, eigenvalue {pair.value}",
                "lifted vector residual", res, LIFT_RESIDUAL_TOL)
    return LiftedVector(pair.value, r, out, res)

