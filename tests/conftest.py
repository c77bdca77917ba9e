"""Shared caches and references for the test suite.

Spectra are pure functions of (n, k), so tests share one computation
per pair instead of redoing dense eigensolves.  ``reference_brute`` is
the unsplit oracle, one ``eigvalsh`` of the whole Laplacian, the
reference for the library's block-split ``brute_spectrum``.
``token_neighbors`` is the move rule in plain set arithmetic, the tests'
independent reference for the library's array rule
``tokengraph.token_moves``.  ``edge_pairs``
reads a graph's token-slot adjacency back as (source, target) pairs.
``period`` finds a subset's period by rotating it (``rotate``) once per
divisor of n, the reference for the library's array rule
``necklaces.periods_of``.
``sturm_counts`` is the pivot loop of Barth, Martin and Wilkinson
(Numer. Math. 1967), the exact reference for the closed-form count
``twotoken._toeplitz_counts``; ``full_rows`` writes out the compact
two-token band that count reads, row by row, for it.
``assert_kept_then_discarded`` checks the sector routes' trail layout,
and ``shown_sectors`` with ``kept_first_ties`` the order a spectrum
command shows at a tie.

``RealBasis`` and ``reflection_basis`` are the dense route from a sector
matrix to its real symmetric form: one permuted copy of b, scaled by
half phases and rotated pair by pair, with no symmetry blocks.
``reference_sector`` solves a sector through them, the independent
reference for ``solve_sector``: the library's sector solve
(``polymatrix._solve_sector``) on the nonzero cells of a dense sector
matrix, the entry the tests perturb b through.

``build_poly_matrix`` places a neighbour in a short orbit at its
smallest shift, which is fixed only mod the orbit's period.
``largest_shift_matrix`` is the other extreme choice, and
``largest_shift_spectrum`` its kept and discarded values laid out as
``full_spectrum``'s; every choice must keep the same spectrum.
``matrix_at_shift`` and ``spectrum_at_shift`` pick either by name.

A Laurent polynomial mod z^n = 1 is a dict {exponent: coefficient}
with canonical exponents in [0, n), ascending, and no zero
coefficient: the form of a ``LaurentMatrix.entries`` cell.
``parse_laurent`` reads the paper's published matrices into that form,
``eval_root`` evaluates one with ``cmath`` term by term, and
``expand_lift`` unrolls a genuine lift base to the full cyclic lift.
"""
import cmath
import math
import re
from functools import lru_cache

import numpy as np

from tokenspectra import (LaurentMatrix, ParameterDomainError, SpectrumReport,
                          brute_spectrum, build_poly_matrix, build_token_graph,
                          enumerate_orbits, full_spectrum, laplacian, spectrum_2token)
from tokenspectra.laurent import root_table
from tokenspectra.polymatrix import _sector_bases, _solve_sector, blocked_mask
from tokenspectra.tokengraph import check_sector
from tokenspectra.tolerances import CLUSTER_TOL, check_bound, quotient_tol

SQRT_HALF = np.sqrt(0.5)


@lru_cache(maxsize=None)
def cached_brute(n, k):
    return brute_spectrum(n, k)


def reference_brute(n, k):
    """Every Laplacian eigenvalue of F_k(C_n), ascending, by one dense ``eigvalsh``."""
    return np.linalg.eigvalsh(laplacian(build_token_graph(n, k)))


@lru_cache(maxsize=None)
def cached_overlift(n, k):
    return full_spectrum(n, k)


@lru_cache(maxsize=None)
def cached_contfrac(n):
    return spectrum_2token(n)


def token_neighbors(subset, n):
    """Configurations reached by one token move to an empty adjacent vertex.

    Moves are listed token by token, up before down: the order of
    ``token_moves``.
    """
    occupied = set(subset)
    out = []
    for a in subset:
        for b in ((a + 1) % n, (a - 1) % n):
            if b not in occupied:
                out.append(tuple(sorted((occupied - {a}) | {b})))
    return out


def rotate(subset, shift, n):
    return tuple(sorted((x + shift) % n for x in subset))


def period(subset, n):
    """Smallest positive rotation fixing the subset; divides n."""
    s = tuple(sorted(subset))
    return next(d for d in range(1, n + 1) if n % d == 0 and rotate(s, d, n) == s)


def edge_pairs(graph):
    """Every directed edge (source, target) of a token graph, by source, then slot.

    Edges are read from the valid slots of ``moves``, not from ``degrees``.
    """
    source, slot = np.nonzero(graph.moves.T < graph.order)
    return list(zip(source.tolist(), graph.moves[slot, source].tolist()))


def assert_kept_then_discarded(report):
    """Each sector's row is its kept values, ascending, then its discarded ones, ascending."""
    rows = report.values.reshape(report.n, -1)
    kept = report.kept_mask.reshape(rows.shape)
    for r, m in enumerate(report.kept_counts.tolist()):
        assert kept[r, :m].all() and not kept[r, m:].any(), r
        assert np.all(np.diff(rows[r, :m]) >= 0) and np.all(np.diff(rows[r, m:]) >= 0), r


def sturm_counts(a, e2, x, full):
    """Eigenvalues below each point, for rows of tridiagonal matrices.

    Row i of ``a`` (diagonal) and ``e2`` (squared couplings, all
    positive) is a real symmetric tridiagonal matrix, and row i of ``x``
    holds its points; ``full`` marks the matrices that use their last
    diagonal entry.  The count is the number of negative pivots d of the
    LDL^T factorization of S - x (Sylvester's law of inertia).
    Signed-zero rule: a pivot keeps the sign IEEE arithmetic gives it
    and counts by its sign bit, so a zero pivot +-0 makes e2/d = +-inf
    and the next pivot -+inf, the limit as that pivot tends to zero from
    its side, and the one after sees +-0 again; the count is that at x
    moved by an infinitesimal.  Positive e2 rules out 0/0.
    """
    counts = np.empty(x.shape, dtype=np.min_scalar_type(a.shape[1]))
    last = a.shape[1] - 1
    with np.errstate(divide="ignore", over="ignore"):
        d = a[:, :1] - x
        t = np.empty_like(d)
        neg = np.signbit(d)
        counts[...] = neg
        for j in range(1, last + 1):
            np.divide(e2[:, j - 1:j], d, out=t)
            np.subtract(a[:, j:j + 1], x, out=d)
            d -= t
            np.signbit(d, out=neg)
            if j == last:
                neg &= full[:, None]
            counts += neg
    return counts


def full_rows(a, e2, nu):
    """The compact bands (a, e2) of head, interior and tail rows written out to nu rows each.

    Row 1 of ``a`` and coupling 0 of ``e2`` fill the interior; order 2
    has no interior row.
    """
    rows = np.minimum(np.arange(nu), 1)
    rows[-1] = a.shape[1] - 1
    return a[:, rows], e2[:, rows[1:] - 1]


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


def solve_sector(b, orbits, r, *, vectors=True):
    """``polymatrix._solve_sector`` on the cells of the dense nu x nu sector matrix b.

    A sector r outside [0, n) raises ``ParameterDomainError``; a missing
    transposed cell reads as 0.
    """
    check_sector(orbits.n, r)
    nu = orbits.count
    flat = np.asarray(b).reshape(-1)
    cells = np.flatnonzero(flat)
    i, j = np.divmod(cells, nu)
    return _solve_sector((i, j, flat[cells], flat[j * nu + i]), orbits, r,
                         _sector_bases(orbits, [r])[0], vectors)


def reference_sector(b, orbits, r):
    """(kept, discarded) of the sector matrix b = B(w^r), each ascending, by the dense route.

    A real b is reduced with every unblocked orbit fixed and phase 1, any
    other b in the reflection basis; the discarded values are ``eig`` of
    b[X, X].
    """
    periods = np.asarray(orbits.periods)
    blocked = blocked_mask(periods, orbits.n, r)
    if b.imag.any():
        basis = reflection_basis(orbits.mirror_of, orbits.mirror_shift, periods,
                                 blocked, r, orbits.n)
    else:
        b = b.real.copy()
        keep = np.flatnonzero(~blocked)
        basis = RealBasis(keep, np.ones(len(keep)), len(keep), periods, blocked)
    kept = np.linalg.eigh(basis.reduce(b, "reference"))[0]
    discarded = np.sort(np.linalg.eig(b[np.ix_(blocked, blocked)])[0].real)
    return kept, discarded


def largest_shift_matrix(n, k):
    """B(z) with every neighbour at its largest shift.

    The library's terms, with the exponent of each negative (neighbour)
    term raised by n - period of its column's orbit.
    """
    m = build_poly_matrix(n, k)
    periods = enumerate_orbits(n, k).periods
    exp = np.where(m.coeff < 0, m.exp + n - periods[m.col], m.exp)
    return LaurentMatrix(n, m.order, m.row, m.col, exp, m.coeff)


def largest_shift_spectrum(n, k):
    """``largest_shift_matrix`` solved by ``solve_sector`` in every sector, as a report."""
    orbits = enumerate_orbits(n, k)
    m = largest_shift_matrix(n, k)
    sols = [solve_sector(m.specialize(r), orbits, r, vectors=False) for r in range(n)]
    rows = [np.concatenate([sol.kept, sol.discarded]) for sol in sols]
    return SpectrumReport(n, k, "overlift", rows, [len(sol.kept) for sol in sols])


def matrix_at_shift(n, k, shift):
    """B(z) at the "smallest" (the library's) or the "largest" shift."""
    return {"smallest": build_poly_matrix, "largest": largest_shift_matrix}[shift](n, k)


def spectrum_at_shift(n, k, shift):
    """The overlift report of ``matrix_at_shift``."""
    return {"smallest": full_spectrum, "largest": largest_shift_spectrum}[shift](n, k)


_CELL_RE = re.compile(r"(\d+\.\d{4})(\*?)")


def shown_sectors(out, audit):
    """(values, kept) of each sector in the order a spectrum command printed them.

    ``out`` is CSV output, or with ``audit`` the text table, where each
    row is a sector (merged with its conjugate) and * marks a discarded value.
    """
    if audit:
        rows = [_CELL_RE.findall(line) for line in out.splitlines()
                if line.startswith("  r=")]
        return [([float(v) for v, _ in cells], [not star for _, star in cells])
                for cells in rows]
    by_sector = {}
    for line in out.splitlines()[1:]:
        r, value, kept = line.split(",")
        values, flags = by_sector.setdefault(r, ([], []))
        values.append(float(value))
        flags.append(kept == "true")
    return list(by_sector.values())


def kept_first_ties(values, kept):
    """Count the kept and discarded pairs within CLUSTER_TOL; each shows kept first."""
    values, kept = np.asarray(values), np.asarray(kept)
    pos = np.arange(len(values))
    tied = (np.abs(values[:, None] - values) <= CLUSTER_TOL) & kept[:, None] & ~kept
    assert (pos[:, None] < pos)[tied].all(), values[tied.any(axis=0)]
    return np.count_nonzero(tied)


_TERM_RE = re.compile(r"([+-]?)(\d*)(z(?:\^(-?\d+))?)?")


def parse_laurent(text, n):
    """Parse signed-monomial text like ``6-z^2-z^-2`` into canonical form."""
    s = text.replace(" ", "")
    acc = {}
    pos = 0
    while pos < len(s):
        # every group is optional, so the pattern matches; a term needs digits or z
        sign, digits, zpart, expo = (m := _TERM_RE.match(s, pos)).groups()
        if not digits and not zpart:
            raise ParameterDomainError(f"cannot parse {text!r} at {s[pos:]!r}")
        coeff = (int(digits) if digits else 1) * (-1 if sign == "-" else 1)
        e = ((int(expo) if expo is not None else 1) if zpart else 0) % n
        acc[e] = acc.get(e, 0) + coeff
        pos = m.end()
    return {e: c for e, c in sorted(acc.items()) if c != 0}


def eval_root(coeffs, n, r):
    """Value of {exponent: coefficient} at z = exp(2*pi*i*r/n)."""
    return sum((c * cmath.exp(2j * math.pi * ((r * e) % n) / n)
                for e, c in coeffs.items()), start=0j)


def expand_lift(base):
    """Expand a genuine cyclic lift base to its full order-(nu*n) matrix.

    Valid only when the base is reversal symmetric: the coefficient of
    z^e in entry (i, j) must equal the coefficient of z^(n-e) in entry
    (j, i).  Orbit matrices with short orbits fail this and are
    rejected; they do not expand to a genuine lift.  The spectrum of the
    result equals the union over r of the specialized spectra.
    """
    n, nu = base.n, base.order
    fwd = base.terms
    rev = LaurentMatrix(n, nu, base.col, base.row, -base.exp, base.coeff).terms
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
