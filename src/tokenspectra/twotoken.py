"""Closed forms for two tokens on a cycle.

With two tokens the orbit representatives are the distance classes
{0, h} for h = 1..nu with nu = floor(n/2), and the orbit polynomial
matrix is tridiagonal.  Writing Z = (4 - lambda)/(2 cos(r pi/n)) and
alpha = 1/cos(r pi/n), the eigenvector ratios satisfy a backward
continued fraction Q_{h-1} = 1/(Z - Q_h) whose terminal value depends on
the parity of n and r, and the sector eigenvalues solve Q_1 = Z - alpha.

Clearing the fraction gives the three-term relation
Z f_h = f_{h-1} + f_{h+1}.  With Z = 2 cos(theta), the paper's
rho_{1,2} = exp(+-i theta), each case's bottom boundary fixes f_h up to
scale, and the top boundary f_0 = alpha f_1 becomes a trigonometric
secular equation in p = n/2 (nu + 1/2 for odd n, nu for even n):

    cos(p theta) = alpha cos((p - 1) theta)    for even r,
    sin(p theta) = alpha sin((p - 1) theta)    for odd r.

For even n and odd r the half-turn orbit is blocked and the recurrence
stops one orbit early; the sine form encodes that truncation.  Without
its alpha entry the recurrence matrix has the closed-form roots
theta = (j - 1/2) pi/p (even r) or j pi/p (odd r), the zeros of the left
side.  Adding the positive rank-one entry alpha raises each root in Z
by less than one gap (interlacing), so the j-th root lies strictly
between two consecutive zeros, except the top root, which may leave the
band Z <= 2.  On the j-th bracket (j = 1, 2, ...) the equation reads
p theta - phi - (j - 1) pi = atan((1 - alpha cos theta)/(alpha sin theta)),
phi = 0 or pi/2 by the parity of r, which is nearly linear in theta;
``_solve_sectors`` solves it for all roots of all sectors at once by
Newton steps safeguarded by the brackets.  A top root above Z = 2 is
found as Z = 2 cosh(t) from the ratio form
cosh t + sinh t T((p - 1) t) = alpha, T = tanh (even r) or coth (odd r),
which cannot overflow.  In sector 0 the top root is Z = 2 exactly
(lambda = 0), and at r = n/2 the sector matrix is diagonal.  (Yueh,
"Eigenvalues of several tridiagonal matrices", Appl. Math. E-Notes 2005.)

The roots are checked against the sector matrix itself, read from
``root_table`` with the same powers z, conj(z) and z^nu as ``build_b2``,
band by band and without a dense matrix (``_check_roots``): its Hermitian
quotient H must not couple a blocked orbit and must be Hermitian, and
since the reflection X -> -X of the cycle fixes every orbit {0, h},
diagonal phases must make H a real symmetric tridiagonal S.  Sturm
counts of S (Barth, Martin and Wilkinson, Numer. Math. 1967) then show
that the i-th smallest root lies within tol of the i-th eigenvalue of S,
multiplicities included.  Conjugate sectors r and n - r share their
roots.  Multiplied through by t = 2 cos(r pi/n), the same recurrence
runs on polynomials in w = 4 - lambda as (R, S) -> (S, w S - t^2 R)
and yields the sector characteristic polynomial t^2 R - (2 - lambda) S.
Nothing divides by t, so the half turn t = 0 needs no case of its own,
and the leading coefficient is +-1.  Diagonalizing the 2x2 transfer
step gives a closed form in rho_{1,2} = (Z +- sqrt(Z^2 - 4))/2.

Case split for even n.  At r = n/2 the sector matrix is diagonal with
entries 2, 4, ..., 4.  When nu = n/2 is even the sector order 2 divides
the half-turn orbit period and all nu values are kept; when nu is odd
(n = 2 mod 4) one value 4 is spurious, exactly as in the other odd-r
sectors, and nu - 1 values are kept.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import NumericFailureError, ParameterDomainError, PoleError
from .laurent import root_table
from .report import SpectrumReport
from .tokengraph import check_sector
from .tolerances import (BRANCH_GUARD, CLOSED_FORM_IMAG_TOL, NEWTON_STEP_TOL,
                         POLE_TOL, check_bound, quotient_tol)

NEWTON_MAX_STEPS = 64
SQRT_HALF = np.sqrt(0.5)


def _check_sector(n: int, r: int) -> None:
    if n < 4:
        raise ParameterDomainError(f"two-token closed forms need n >= 4, got {n}")
    check_sector(n, r)


def _check_finite(lam: float) -> None:
    """NaN and infinities pass no pole or branch test, so they are refused first."""
    if not math.isfinite(lam):
        raise ParameterDomainError(f"lambda must be finite, got {lam}")


def _kept_counts(n: int, rs: np.ndarray) -> np.ndarray:
    """Kept values per sector: nu, less the blocked half-turn orbit (even n, odd r)."""
    return n // 2 - ((n % 2 == 0) & (rs % 2 == 1))


def _sector_band(n: int, rs: np.ndarray):
    """The bands (lower, diag, upper) of B(w^r) for the sectors rs.

    One row per sector.  Diagonal (2, 4, ..., 4); couplings -1-z below
    and -1-1/z above.  For odd n the last diagonal entry gains
    -z^nu - z^-nu; for even n the bottom coupling becomes
    -1-z-z^nu-z^(nu+1) = -(1+z)(1+z^nu).  Powers of z come from
    ``root_table``, so sector n - r is exactly the conjugate of sector r;
    for even n, z^nu = (-1)^r exactly, so the bottom coupling of an odd
    sector is exactly zero.
    """
    nu = n // 2
    table = root_table(n)
    z, zbar, z_nu = (table[v % n, None] for v in (rs, n - rs, rs * nu))
    diag = np.full((len(rs), nu), 4.0 + 0j)
    diag[:, 0] = 2.0
    lower = np.repeat(-1 - z, nu - 1, axis=1)
    upper = np.repeat(-1 - zbar, nu - 1, axis=1)
    if n % 2:
        diag[:, -1:] = 4 - z_nu - z_nu.conj()
    else:
        lower[:, -1:] = -(1 + z) * (1 + z_nu)
    return lower, diag, upper


def build_b2(n: int, r: int) -> np.ndarray:
    """The specialized tridiagonal sector matrix at z = exp(2*pi*i*r/n).

    The dense form of ``_sector_band``; ``build_b2(n, n - r)`` is exactly
    the conjugate of ``build_b2(n, r)``.
    """
    _check_sector(n, r)
    lower, diag, upper = (v[0] for v in _sector_band(n, np.array([r])))
    return np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)


def _terminal(n: int, r: int, w, t):
    """The terminal pair (R, S), Q = t R/S, of the backward recurrence.

    At w = Z and t = 1 this is the pair of the recurrence in Z itself.
    With w = 4 - lambda, a ``Polynomial``, and t = 2 cos(r pi/n) it is
    that pair scaled by t, so nothing divides by t.  Odd n ends at
    1/(Z - (-1)^r), even r at 2/Z, and odd r at 0, past the blocked
    half-turn orbit.
    """
    if n % 2:
        return 1, w - (-1) ** r * t
    if r % 2 == 0:
        return 2, w
    return 0, 1


def contfrac_q1(lam: float, n: int, r: int) -> float:
    """Q_1 by backward recurrence from the case's terminal value."""
    _check_sector(n, r)
    _check_finite(lam)
    if 2 * r == n:
        raise ParameterDomainError(
            f"r = n/2 = {r} has no continued fraction (cos(r pi/n) = 0)")
    c = math.cos(math.pi * r / n)
    z = (4.0 - lam) / (2.0 * c)
    rr, ss = _terminal(n, r, z, 1)
    if abs(ss) < POLE_TOL:
        raise PoleError(f"terminal denominator vanishes at lambda={lam}")
    q = rr / ss
    for _ in range(n // 2 - 2):
        den = z - q
        if abs(den) < POLE_TOL:
            raise PoleError(f"continued fraction hits a pole at lambda={lam}")
        q = 1.0 / den
    return q


def _newton(func, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The root of ``func`` in each bracket (lo, hi), elementwise.

    ``func(x)`` returns (f, df/dx); f must be negative at lo, positive at
    hi and have one root between.  Each iteration shrinks the bracket by
    the sign of f and takes the Newton step, or bisects when that step
    leaves the bracket, until every step is below NEWTON_STEP_TOL of its
    starting bracket.
    """
    x = 0.5 * (lo + hi)
    small = NEWTON_STEP_TOL * (hi - lo)
    for _ in range(NEWTON_MAX_STEPS):
        f, df = func(x)
        lo = np.where(f < 0, x, lo)
        hi = np.where(f > 0, x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            new = x - f / df
        # a step below rounding (new == x) may sit on a bracket end
        new = np.where((new > lo) & (new < hi) | (new == x), new, 0.5 * (lo + hi))
        done = np.abs(new - x) <= small
        x = new
        if done.all():
            break
    return x


def _solve_sectors(n: int, rs: np.ndarray) -> np.ndarray:
    """Kept eigenvalues of the sectors rs, 0 <= r <= n/2, ascending.

    One row of nu per sector: the first ``_kept_counts`` entries hold the
    roots and the rest are nan.  Root j = 0, 1, ... of the bracket phase
    form (module docstring) lies at theta_j + s, theta_j = (j + phi/pi) pi/p,
    |s| < pi/(2p); lambda = 4 - 4 cos(r pi/n) cos(theta).
    """
    nu = n // 2
    p = n / 2
    roots = np.empty((len(rs), nu))
    col = np.arange(nu)
    half = 2 * rs == n
    roots[half] = np.where(col == 0, 2.0, 4.0)
    sec = np.flatnonzero(~half)
    c = np.cos(np.pi * rs[sec] / n)
    alpha = 1.0 / c
    odd = rs[sec] % 2 == 1
    # the secular ratio trig(p theta)/trig((p - 1) theta) at theta = 0 is
    # 1 for even r and p/(p - 1) for odd r; a larger alpha puts the top
    # root above Z = 2, and alpha = 1 puts it at Z = 2 (sector 0)
    above = (rs[sec] > 0) & (alpha > np.where(odd, p / (p - 1), 1.0))
    roots[sec[rs[sec] == 0], 0] = 0.0
    row, j = np.nonzero((col < _kept_counts(n, rs[sec])[:, None])
                        & ((col > 0) | (odd & ~above)[:, None]))
    theta_j = (j + 0.5 * odd[row]) * (np.pi / p)
    a_row = alpha[row]

    def phase(s):
        cos = np.cos(theta_j + s)
        f = p * s - np.arctan2(1 - a_row * cos, a_row * np.sin(theta_j + s))
        return f, p - a_row * (a_row - cos) / (1 - 2 * a_row * cos + a_row * a_row)

    w = np.full(len(row), np.pi / (2 * p))
    roots[sec[row], j] = 4 - 4 * c[row] * np.cos(theta_j + _newton(phase, -w, w))

    top = np.flatnonzero(above)
    q, a_top, t_odd = p - 1, alpha[top], odd[top]

    def ratio(t):
        sinh, cosh, tanh = np.sinh(t), np.cosh(t), np.tanh(q * t)
        ratio_t = np.where(t_odd, 1 / tanh, tanh)
        return (cosh + sinh * ratio_t - a_top,
                sinh + cosh * ratio_t + q * sinh * (1 - ratio_t * ratio_t))

    # Weyl: the top root lies below 2 + alpha
    t = _newton(ratio, np.zeros(len(top)), np.arccosh(1 + a_top / 2))
    roots[sec[top], 0] = 4 - 4 * c[top] * np.cosh(t)
    roots[col >= _kept_counts(n, rs)[:, None]] = np.nan
    return roots


def _check_sectors(n: int, rs: np.ndarray, quantity: str, values: np.ndarray,
                   tol: np.ndarray) -> None:
    """``check_bound`` on the first sector whose value exceeds its tol."""
    bad = ~(values <= tol)  # a NaN fails too
    if bad.any():
        i = int(np.argmax(bad))
        check_bound(f"F_2(C_{n}) sector r={rs[i]}", quantity, float(values[i]),
                    float(tol[i]))


def _quotient_band(n: int, rs: np.ndarray, band):
    """The bands of the Hermitian quotients H, their kept sizes and tols.

    Orbit h = 1..nu has period n, except the half-turn orbit h = n/2 of
    even n, which has period n/2 and is blocked in the odd sectors.  As
    in ``polymatrix.solve_sector``, the blocked coupling
    b[nu-1, nu-2] must vanish within tol = ``quotient_tol(max|b|)``, and
    H = D^(1/2) b D^(-1/2) on the first m kept orbits.  Band entries past
    m are zero.  ``band`` is left unchanged.
    """
    lower, diag, upper = (np.array(v, dtype=complex) for v in band)
    biggest = np.maximum(np.abs(diag).max(axis=1),
                         np.maximum(np.abs(lower), np.abs(upper)).max(axis=1))
    tol = quotient_tol(biggest)
    m = _kept_counts(n, rs)
    if n % 2 == 0:
        blocked = m < n // 2
        _check_sectors(n, rs, "blocked orbit coupling max|b[X, U]|",
                       np.where(blocked, np.abs(lower[:, -1]), 0.0), tol)
        lower[:, -1] *= SQRT_HALF
        upper[:, -1] /= SQRT_HALF
        lower[blocked, -1] = upper[blocked, -1] = diag[blocked, -1] = 0
    return (lower, diag, upper), m, tol


def _sturm_counts(a: np.ndarray, e2: np.ndarray, x: np.ndarray,
                  full: np.ndarray) -> np.ndarray:
    """Eigenvalues below each point, for a row of tridiagonal matrices.

    Column i of ``a`` (diagonal) and ``e2`` (squared couplings, all
    positive) is a real symmetric tridiagonal matrix, and column i of
    ``x`` holds its points; ``full`` marks the matrices that use their
    last diagonal entry.  The count is the number of negative pivots d
    of the LDL^T factorization of S - x (Sylvester's law of inertia).
    Signed-zero rule: a pivot keeps the sign IEEE arithmetic gives it
    and counts by its sign bit, so a zero pivot +-0 makes e2/d = +-inf
    and the next pivot -+inf, the limit as that pivot tends to zero from
    its side, and the one after sees +-0 again; the count is that at x
    moved by an infinitesimal.  Positive e2 rules out 0/0.  Matrices
    run along the contiguous axis.
    """
    counts = np.empty(x.shape, dtype=np.min_scalar_type(len(a)))
    last = len(a) - 1
    with np.errstate(divide="ignore", over="ignore"):
        d = a[0] - x
        t = np.empty_like(d)
        neg = np.signbit(d)
        counts[...] = neg
        for j in range(1, last + 1):
            np.divide(e2[j - 1], d, out=t)
            np.subtract(a[j], x, out=d)
            d -= t
            np.signbit(d, out=neg)
            if j == last:
                neg &= full
            counts += neg
    return counts


def _root_gap(a: np.ndarray, e2: np.ndarray, roots: np.ndarray) -> float:
    """max|roots - eig(S)| for one matrix, by bisection on Sturm counts."""
    radius = 2.0 * math.sqrt(e2.max(initial=0.0))
    lo = np.full((len(a), 1), a.min() - radius)
    hi = np.full((len(a), 1), a.max() + radius)
    rank = np.arange(len(a))[:, None]
    for _ in range(64):  # enough halvings of the Gershgorin interval to reach rounding
        mid = 0.5 * (lo + hi)
        below = _sturm_counts(a[:, None], e2[:, None], mid, np.ones(1, bool)) > rank
        hi = np.where(below, mid, hi)
        lo = np.where(below, lo, mid)
    return float(np.max(np.abs(roots - 0.5 * (lo + hi)[:, 0])))


def _check_roots(n: int, rs: np.ndarray, roots: np.ndarray, band) -> None:
    """Check the kept roots of the sectors rs against their sector bands.

    ``roots`` holds one row per sector, as ``_solve_sectors`` returns
    them; entries past the kept count are ignored.  On the Hermitian
    quotient H (``_quotient_band``) the skew max|H - H^*| must stay
    within tol.  The reflection of the cycle fixes every orbit,
    -{0, h} = {0, h} + (n - h), so the phases exp(-i pi r (n - h)/n) turn
    H into a real symmetric S with the same eigenvalues (the reflection
    basis of ``polymatrix.solve_sector`` with every orbit fixed), and
    max|Im S| must stay within tol; the phases leave the diagonal as it
    is, and the skew bounds its imaginary part.  Then for the sorted
    roots x_i, Sturm counts of S must show
    count(x_i - tol) <= i < count(x_i + tol), that is, the i-th
    eigenvalue of S lies within tol of x_i, which also checks
    multiplicities.  A failure raises ``NumericFailureError`` naming n,
    r, the quantity, its value and tol.
    """
    nu = n // 2
    (lower, diag, upper), m, tol = _quotient_band(n, rs, band)
    skew = np.maximum(2 * np.abs(diag.imag).max(axis=1),
                      np.abs(upper - lower.conj()).max(axis=1))
    _check_sectors(n, rs, "skew max|H - H^*|", skew, tol)
    phase = root_table(2 * n)[(-rs[:, None] * (n - np.arange(1, nu + 1))) % (2 * n)]
    lower = lower * phase[:, 1:].conj() * phase[:, :-1]
    upper = upper * phase[:, :-1].conj() * phase[:, 1:]
    imag = np.maximum(np.abs(lower.imag), np.abs(upper.imag)).max(axis=1)
    _check_sectors(n, rs, "real form imaginary part max|Im S|", imag, tol)

    # one column per sector from here on
    a = np.ascontiguousarray(diag.real.T)
    e2 = np.maximum(np.ascontiguousarray(lower.real.T) ** 2, np.finfo(float).tiny)
    rank = np.arange(nu)[:, None]
    kept = rank < m
    x = np.where(kept, np.sort(np.where(kept, roots.T, np.inf), axis=0), 0.0)
    counts = _sturm_counts(a, e2, np.concatenate([x - tol, x + tol]), m == nu)
    ok = (counts[:nu] <= rank) & (rank < counts[nu:]) & np.isfinite(x)
    bad = ~(ok | ~kept).all(axis=0)
    if bad.any():
        i = int(np.argmax(bad))
        where = f"F_2(C_{n}) sector r={rs[i]}"
        gap = _root_gap(a[:m[i], i], e2[:m[i] - 1, i], x[:m[i], i])
        check_bound(where, "root gap max|roots - eig(S)|", gap, float(tol[i]))
        raise NumericFailureError(
            f"{where}: Sturm counts put a root at least tol {tol[i]:.3e} "
            "from its eigenvalue")


def sector_roots(n: int, r: int) -> np.ndarray:
    """Kept eigenvalues of one sector, ascending.

    Solves the secular equation of sector min(r, n - r), which has the
    same roots, and checks them against the band of sector r itself (see
    ``_solve_sectors`` and ``_check_roots``).
    """
    _check_sector(n, r)
    rs = np.array([r])
    roots = _solve_sectors(n, np.minimum(rs, n - rs))
    _check_roots(n, rs, roots, _sector_band(n, rs))
    return roots[0, :_kept_counts(n, rs)[0]]


def spectrum_2token(n: int) -> SpectrumReport:
    """All C(n, 2) eigenvalues of the two-token graph, by sectors.

    Only the sectors r <= n/2 are solved and checked.  B has integer
    coefficients, so B(w^(n-r)) is the conjugate of B(w^r); the two
    Hermitian quotients are conjugate and have the same eigenvalues, and
    sector n - r takes the roots of sector r.  Each sector contributes
    nu values: its kept roots, then in the odd sectors of even n the
    spurious 4 of the blocked half-turn orbit
    (``SpectrumReport.from_sectors``).
    """
    _check_sector(n, 0)  # sector 0 exists for every n; this checks n
    nu = n // 2
    rs = np.arange(nu + 1)
    roots = _solve_sectors(n, rs)
    _check_roots(n, rs, roots, _sector_band(n, rs))
    sectors = np.arange(n)
    kept = _kept_counts(n, sectors)
    values = np.where(np.arange(nu) < kept[:, None], roots[np.minimum(sectors, n - sectors)], 4.0)
    return SpectrumReport.from_sectors(n, 2, "contfrac", values.ravel(), kept, nu - kept)


def _transfer_polynomial(n: int, r: int) -> np.polynomial.Polynomial:
    """The sector equation as a polynomial in lambda, leading coefficient +-1.

    Folds r to min(r, n - r), which has the same polynomial, and runs the
    transfer recurrence multiplied through by t = 2 cos(r pi/n), t = 0 at
    the half turn: (R, S) -> (S, w S - t^2 R) in w = 4 - lambda, from the
    case's terminal pair, then forms t^2 R - (2 - lambda) S.
    """
    from numpy.polynomial import Polynomial  # not loaded by import tokenspectra
    r = min(r, n - r)
    t = 2 * math.cos(math.pi * r / n) if 2 * r < n else 0.0
    w = Polynomial([4.0, -1.0])
    rr, ss = _terminal(n, r, w, t)
    for _ in range(n // 2 - 2):
        rr, ss = ss, w * ss - t * t * rr
    return t * t * rr - (w - 2) * ss


def charpoly_sector(n: int, r: int) -> np.ndarray:
    """Monic coefficients (descending powers) of the sector polynomial.

    Roots are exactly the kept sector eigenvalues: degree nu for odd n
    and for even r, nu - 1 for odd r of even n (the spurious 4 is not a
    root).  At r = n/2 the polynomial is (lambda - 2)(lambda - 4)^m with
    m = nu - 1 or nu - 2 by the parity of nu.  Sectors r and n - r give
    identical coefficients.  Coefficients that overflow a float raise
    ``NumericFailureError``.
    """
    _check_sector(n, r)
    with np.errstate(over="ignore", invalid="ignore"):
        p = _transfer_polynomial(n, r)
    # the lead is exactly +-1, so this is monic; adding 0.0 clears negative zeros
    coeffs = p.coef[::-1] * p.coef[-1] + 0.0
    bad = np.count_nonzero(~np.isfinite(coeffs))
    if bad:
        raise NumericFailureError(f"F_2(C_{n}) sector r={r}: the sector polynomial overflows, "
                                  f"{bad} of {len(coeffs)} coefficients are not finite")
    return coeffs


def charpoly_rho_form(n: int, r: int, lam: float) -> float:
    """The closed-form sector value at one lambda, via rho_1 and rho_2.

    rho_{1,2} = (Z +- sqrt(Z^2 - 4))/2 diagonalize the transfer step.
    Complex intermediates occur when Z^2 < 4; the result is real.  Not
    defined within BRANCH_GUARD of the branch point Z^2 = 4; the polynomial
    form is authoritative everywhere.  Equals charpoly_sector up to one
    multiplicative constant per (n, r).
    """
    _check_sector(n, r)
    _check_finite(lam)
    nu = n // 2
    if 2 * r == n:
        return float(math.prod(lam - v for v in sector_roots(n, r)))
    c = math.cos(math.pi * r / n)
    z = (4.0 - lam) / (2.0 * c)
    alpha = 1.0 / c
    disc = z * z - 4.0
    if abs(disc) <= BRANCH_GUARD:
        raise PoleError(f"lambda={lam} puts Z^2-4 = {disc:.4f} inside the "
                        f"+-{BRANCH_GUARD} guard band")
    s = cmath.sqrt(complex(disc))
    rho1 = (z + s) / 2.0
    rho2 = (z - s) / 2.0
    if n % 2:
        sign = (-1) ** r
        val = ((rho2 - sign) * (rho2 - alpha) * rho2 ** (nu - 1)
               - (rho1 - sign) * (rho1 - alpha) * rho1 ** (nu - 1)) / s
    elif r % 2 == 0:
        val = ((1 - (z - alpha) * rho2) * rho2 ** (nu - 2)
               + (1 - (z - alpha) * rho1) * rho1 ** (nu - 2))
    else:
        val = ((1 - (z - alpha) * rho1) * rho1 ** (nu - 2)
               - (1 - (z - alpha) * rho2) * rho2 ** (nu - 2)) / s
    check_bound(f"F_2(C_{n}) sector r={r} at lambda={lam}", "closed form imaginary part",
                abs(val.imag), CLOSED_FORM_IMAG_TOL)
    return float(val.real)
