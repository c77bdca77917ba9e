"""Spectrum assembly through the orbit polynomial matrix.

One row per rotation orbit of token configurations.  For each neighbour
A' of a representative A there is a unique representative B and shift s
with A' = B + s; the entry (A, B) collects a term -z^s, and the diagonal
carries the degree of A (plus -z^s terms when A is adjacent to rotations
of itself).  Evaluating at z = exp(2*pi*i*r/n) for r = 0..n-1 yields a
superset of the Laplacian spectrum of the token graph.  When all orbits
are full the union over r is exactly the spectrum (the matrix is a
genuine cyclic lift base); short orbits introduce spurious eigenvalues,
which are removed by a rank test on the eigenvectors: a quotient vector
unrolls to a graph eigenvector iff on every short orbit either its
component vanishes or the sector order o(r) = n/gcd(n, r) divides the
orbit period.

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
from .report import SpectrumEntry, SpectrumReport
from .tokengraph import TokenGraph, build_token_graph, laplacian, token_neighbors

DISCARD_REASON = "nonzero on short orbit whose period the sector order does not divide"


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


def blocked_orbits(orbits: OrbitTable, r: int) -> list[int]:
    """Indices of short orbits whose period the sector order does not divide."""
    o_r = sector_order(orbits.n, r)
    return [i for i, p in enumerate(orbits.periods)
            if p < orbits.n and p % o_r != 0]


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
    blocked = blocked_orbits(orbits, r)
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
        if blocked:
            restricted = q[blocked, :]
            _, sv, vh = np.linalg.svd(restricted)
            rank = int(np.sum(sv > rank_tol))
            kept_vecs = q @ vh.conj().T[:, rank:]
        else:
            rank = 0
            kept_vecs = q
        verdicts.append(ClusterVerdict(mean, r, m, m - rank, kept_vecs))
        i = j
    return verdicts


def _sector_verdicts(matrix: LaurentMatrix, orbits: OrbitTable):
    """Yield (r, verdicts) once for every sector r = 0..n-1.

    Only the sectors r <= n/2 are solved.  The coefficients of B(z) are
    integers and the root table is conjugate symmetric, so B(w^(n-r)) is
    exactly the conjugate of B(w^r): its eigenvalues are the same and
    its eigenvectors the conjugates, with the same residuals and
    singular values.  Both sectors have the same order n/gcd(n, r), so
    they block the same orbits.  Sector n - r therefore takes the
    verdicts of sector r with conjugated vectors; it is yielded right
    after sector r, so only one sector's vectors are held at a time.
    """
    n = matrix.n
    for r in range(n // 2 + 1):
        verdicts = filter_spurious(sector_eigenpairs(matrix, r), orbits, r)
        yield r, verdicts
        if 0 < r < n - r:
            yield n - r, [replace(v, sector=n - r, vectors=v.vectors.conj())
                          for v in verdicts]


def full_spectrum(n: int, k: int, shift: str = "smallest") -> SpectrumReport:
    """Union of filtered sector spectra; exactly C(n, k) values kept."""
    orbits = enumerate_orbits(n, k)
    matrix = build_poly_matrix(n, k, orbits, shift=shift)
    by_sector: list[list[SpectrumEntry]] = [[] for _ in range(n)]
    kept: list[float] = []
    for r, verdicts in _sector_verdicts(matrix, orbits):
        for v in verdicts:
            kept.extend([v.value] * v.kept)
            by_sector[r].extend(SpectrumEntry(v.value, r, True)
                                for _ in range(v.kept))
            by_sector[r].extend(SpectrumEntry(v.value, r, False, DISCARD_REASON)
                                for _ in range(v.discarded))
    expected = comb(n, k)
    if len(kept) != expected:
        raise CountMismatchError(
            f"kept {len(kept)} eigenvalues for F_{k}(C_{n}), expected {expected}")
    entries = tuple(e for sector in by_sector for e in sector)
    return SpectrumReport(n, k, "overlift", entries, tuple(sorted(kept)))


def kept_eigenpairs(n: int, k: int) -> list[EigenPair]:
    """Every kept eigenpair across all sectors, with verified residuals.

    Pairs come in sector order, each checked against its own sector's
    specialized matrix.
    """
    orbits = enumerate_orbits(n, k)
    matrix = build_poly_matrix(n, k, orbits)
    by_sector: list[list[EigenPair]] = [[] for _ in range(n)]
    for r, verdicts in _sector_verdicts(matrix, orbits):
        vals = np.concatenate([np.full(v.kept, v.value) for v in verdicts])
        vecs = np.hstack([v.vectors for v in verdicts])
        res = np.max(np.abs(matrix.specialize(r) @ vecs - vecs * vals), axis=0)
        if np.any(res > 1e-8):
            raise NumericFailureError(
                f"kept vector residual {res.max():.3e} in sector {r} of F_{k}(C_{n})")
        by_sector[r] = [EigenPair(float(val), r, vecs[:, col], float(res[col]))
                        for col, val in enumerate(vals)]
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
    spurious filter guarantees; a violation here is a filtering bug and
    raises.  The residual is checked against the full Laplacian.
    """
    n, k = orbits.n, orbits.k
    if lap is None:
        lap = laplacian(graph if graph is not None else build_token_graph(n, k))
    r = pair.sector
    scale = float(np.max(np.abs(pair.vector)))
    for i in blocked_orbits(orbits, r):
        if abs(pair.vector[i]) > 1e-10 * scale:
            raise PhaseConsistencyError(
                f"component {i} nonzero on orbit of period {orbits.periods[i]} "
                f"with sector order {sector_order(n, r)}")
    out = pair.vector[orbits.orbit_of] * root_table(n)[(r * orbits.shift_of) % n]
    if not np.any(out):
        raise NumericFailureError("lifted vector is zero")
    # the Laplacian is real: one product with the real and imaginary parts
    parts = np.stack([out.real, out.imag], axis=1)
    diff = lap @ parts - pair.value * parts
    res = float(np.max(np.hypot(diff[:, 0], diff[:, 1])))
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
