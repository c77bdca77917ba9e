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
``root_table`` with the powers z, conj(z), z^(nu-1) and z^nu of B(z),
without a dense matrix (``_check_roots``).  Its rows 1..nu-2 are equal,
so its band is held as a head, one interior and a tail row.  Its
Hermitian quotient H must not couple a blocked orbit and must be
Hermitian, and since the reflection X -> -X of the cycle fixes every
orbit {0, h}, diagonal phases must make H a real symmetric tridiagonal
S, Toeplitz inside: diagonal 4, couplings e = 2|cos(r pi/n)|.  There
the pivots of the LDL^T factorization of S - x, over e, run
q -> Z - 1/q with Z = (4 - x)/e, so the count of negative pivots, the
number of eigenvalues below x, has a closed form with no loop over the
rows: an angle inside the band |Z| < 2 and at most one sign change
outside it (discrete Sturm oscillation; Teschl, "Jacobi Operators and
Completely Integrable Nonlinear Lattices", AMS 2000).  Counts at
x_i -+ tol show that the i-th smallest root x_i lies within tol of the
i-th eigenvalue of S, multiplicities included.  The same count, by
bisection, measures the gap of a failed check; the pivot loop of Barth,
Martin and Wilkinson (Numer. Math. 1967) is its exact reference in the
tests.  Conjugate sectors r and n - r share their roots.

Multiplied through by t = 2 cos(r pi/n), the same recurrence runs on
polynomials in w = 4 - lambda as (R, S) -> (S, w S - t^2 R) and yields
the sector characteristic polynomial t^2 R - (2 - lambda) S.  Nothing
divides by t, so the half turn t = 0 needs no case of its own, and the
leading coefficient is +-1.  Diagonalizing the 2x2 transfer step gives a
closed form in rho_{1,2} = (Z +- sqrt(Z^2 - 4))/2, real and continuous
through Z^2 = 4 with no guard band, that starts from ``_terminal``'s
pair, so ``_terminal`` is the one case split of all three forms.

Case split for even n.  At r = n/2 the sector matrix is diagonal with
entries 2, 4, ..., 4.  When nu = n/2 is even the sector order 2 divides
the half-turn orbit period and all nu values are kept; when nu is odd
(n = 2 mod 4) one value 4 is spurious, exactly as in the other odd-r
sectors, and nu - 1 values are kept.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import NumericFailureError, ParameterDomainError, PoleError
from .laurent import root_table
from .report import SpectrumReport
from .tokengraph import check_sector
from .tolerances import NEWTON_STEP_TOL, POLE_TOL, check_bound, quotient_tol

NEWTON_MAX_STEPS = 64
COUNT_BLOCK = 1 << 16  # points per block of sectors in the root check
SQRT_HALF = np.sqrt(0.5)


def _check_sector(n: int, r: int) -> tuple[int, int]:
    """``check_sector``, and n >= 4."""
    n, r = check_sector(n, r)
    if n < 4:
        raise ParameterDomainError(f"two-token closed forms need n >= 4, got {n}")
    return n, r


def _check_finite(lam: float) -> None:
    """NaN and infinities pass no pole or branch test, so they are refused first."""
    if not math.isfinite(lam):
        raise ParameterDomainError(f"lambda must be finite, got {lam}")


def _kept_counts(n: int, rs: np.ndarray) -> np.ndarray:
    """Kept values per sector: nu, less the blocked half-turn orbit (even n, odd r)."""
    return n // 2 - ((n % 2 == 0) & (rs % 2 == 1))


def _sector_band(n: int, rs: np.ndarray):
    """The distinct entries (lower, diag, upper) of B(w^r) for the sectors rs.

    One row per sector, entry for entry B(z) of ``build_poly_matrix(n, 2)``,
    every neighbour at its smallest shift.  Diagonal (2, 4, ..., 4);
    couplings -1-z below and -1-1/z above.  For odd n the last diagonal
    entry gains -z^nu - z^-nu; for even n the bottom coupling becomes
    -(1+z)(1+z^nu) and the top one -1-z^(nu-1).  Rows 1..nu-2 are equal, so
    only the head, one interior and the tail row are held: min(nu, 3)
    diagonal columns.  Powers of z come from ``root_table``, so sector
    n - r is exactly the conjugate of sector r, and for even n,
    z^nu = (-1)^r exactly zeroes odd sectors' bottom coupling.
    """
    nu = n // 2
    width = min(nu, 3)
    table = root_table(n)
    z, zbar, z_nu = (table[v % n, None] for v in (rs, n - rs, rs * nu))
    diag = np.full((len(rs), width), 4.0 + 0j)
    diag[:, 0] = 2.0
    lower = np.repeat(-1 - z, width - 1, axis=1)
    upper = np.repeat(-1 - zbar, width - 1, axis=1)
    if n % 2:
        diag[:, -1:] = 4 - z_nu - z_nu.conj()
    else:
        lower[:, -1:] = -(1 + z) * (1 + z_nu)
        upper[:, -1:] = -1 - table[rs * (nu - 1) % n, None]
    return lower, diag, upper


def build_b2(n: int, r: int) -> np.ndarray:
    """The specialized tridiagonal sector matrix at z = exp(2*pi*i*r/n).

    ``_sector_band`` with its interior row repeated nu - 2 times;
    ``build_b2(n, n - r)`` is exactly the conjugate of ``build_b2(n, r)``.
    """
    n, r = _check_sector(n, r)
    lower, diag, upper = (v[0] for v in _sector_band(n, np.array([r])))
    rows = np.minimum(np.arange(n // 2), 1)
    rows[-1] = len(diag) - 1
    off = rows[1:] - 1
    return np.diag(diag[rows]) + np.diag(lower[off], -1) + np.diag(upper[off], 1)


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
    """Q_1 by backward recurrence from the case's terminal value.

    A denominator below POLE_TOL raises ``PoleError`` naming n, r and lambda.
    """
    n, r = _check_sector(n, r)
    _check_finite(lam)
    if 2 * r == n:
        raise ParameterDomainError(
            f"r = n/2 = {r} has no continued fraction (cos(r pi/n) = 0)")
    c = math.cos(math.pi * r / n)
    z = (4.0 - lam) / (2.0 * c)
    where = f"F_2(C_{n}) sector r={r} at lambda={lam}"
    rr, ss = _terminal(n, r, z, 1)
    if abs(ss) < POLE_TOL:
        raise PoleError(f"{where}: terminal denominator vanishes")
    q = rr / ss
    for _ in range(n // 2 - 2):
        den = z - q
        if abs(den) < POLE_TOL:
            raise PoleError(f"{where}: continued fraction hits a pole")
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


def _band_pivots(head: np.ndarray, half: np.ndarray, steps: int):
    """Negative pivots of rows 0..steps, and the last pivot, inside the band.

    ``head`` is the first pivot and ``half`` = Z/2 = cos(theta), |Z| < 2,
    both over the interior coupling e, so pivot j is
    sin(beta + (j + 1) theta)/sin(beta + j theta) with beta in (0, pi).
    Rows 0..steps-1 hold floor(phi/pi) negative pivots, phi = beta + steps
    theta, and the last pivot is cos(theta) + sin(theta) cot(phi).  Both
    come from one split of phi into turns of pi and a remainder held in
    [0, pi], so where rounding moves phi across a turn, the count and the
    last pivot's pole move together, and the total stays the same.
    """
    sin = np.sqrt((1 - half) * (1 + half))
    phi = np.arctan2(sin, head - half) + steps * np.arccos(half)
    turns = np.floor(phi / np.pi)
    last = half + sin / np.tan((phi - turns * np.pi).clip(0, np.pi))
    return turns + np.signbit(last), last


def _edge_pivots(head: np.ndarray, half: np.ndarray, steps: int):
    """``_band_pivots`` outside the band, |Z| >= 2, from one sign change.

    For Z = 2 cosh(t) the pivots are ratios f_(j+1)/f_j of
    f_j = a rho^j + b rho^-j, rho = exp(t), a = head - 1/rho and
    b = rho - head.  f_0 > 0, so rows 0..steps hold one negative pivot
    when f_(steps+1) < 0 and none otherwise.  Up to positive factors,
    f_j is a + b rho^(-2j) once rho^(-2j) is small, and
    1 + b expm1(-2jt)/(2 sinh t) near the band edge, which at t = 0 is
    the parabolic 1 - bj.  Z <= -2 mirrors Z >= 2: negating every pivot
    flips every sign bit.
    """
    flip = half < 0
    head = np.where(flip, -head, head)
    h = np.abs(half)
    sinh = np.sqrt(h - 1) * np.sqrt(h + 1)
    rho = h + sinh
    t = np.log1p(h - 1 + sinh)
    b = rho - head
    j = np.array([[steps], [steps + 1]])
    power = -2 * j * t
    decay = np.exp(power)
    near = np.where(sinh > 0, np.expm1(power) / (2 * sinh), -j)
    f = np.where(decay[1] < 0.5, head - 1 / rho + b * decay, 1 + b * near)
    neg = np.signbit(f[1])
    last = rho * f[1] / f[0]
    return np.where(flip, steps + 1 - neg, neg), np.where(flip, -last, last)


def _toeplitz_counts(a: np.ndarray, e2: np.ndarray, x: np.ndarray,
                     full: np.ndarray, steps: int) -> np.ndarray:
    """Eigenvalues below each point, per row of tridiagonal matrices, in closed form.

    Row i of ``a`` (diagonal) and ``e2`` (squared couplings, all
    positive) is a real symmetric tridiagonal matrix T of order
    steps + 2, and row i of ``x`` holds its points; ``full`` marks the
    matrices that use their last diagonal entry.  T is Toeplitz inside:
    its head a[:, 0], then ``steps`` rows of diagonal a[:, 1] and
    couplings e = sqrt(e2[:, 0]) into them, then its tail a[:, -1] with
    coupling e2[:, -1]; no other column is read.  The count is the
    number of negative pivots of the LDL^T factorization of T - x
    (Sylvester's law of inertia).  Over e the head pivot is
    (a[:, 0] - x)/e, and the interior runs the pivot recurrence
    q -> Z - 1/q, Z = (a[:, 1] - x)/e, in closed form (discrete Sturm
    oscillation; Teschl, Jacobi Operators and Completely Integrable
    Nonlinear Lattices, AMS 2000, ch. 4): ``_band_pivots`` on every point
    with Z clipped to the band, then ``_edge_pivots`` on the points out
    of it.  The tail, used where ``full``, is one generic pivot.  No loop
    runs over the rows.  Away from the eigenvalues, where only rounding
    decides, the count equals the pivot loop's.
    """
    e = np.sqrt(e2[:, :1])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        head = (a[:, :1] - x) / e
        half = 0.5 * (a[:, 1:2] - x) / e
        count, last = _band_pivots(head, half.clip(-1, 1), steps)
        edge = np.abs(half) >= 1
        if edge.any():
            count[edge], last[edge] = _edge_pivots(head[edge], half[edge], steps)
        tail = a[:, -1:] - x - e2[:, -1:] / (e * last)
        return (count + (np.signbit(tail) & full[:, None])).astype(np.min_scalar_type(steps + 2))


def _root_gap(a: np.ndarray, e2: np.ndarray, full: np.ndarray, roots: np.ndarray,
              steps: int) -> float:
    """max|roots - eig(S)| for one sector, by bisection on ``_toeplitz_counts``.

    ``a``, ``e2`` and ``full`` are the sector's single row and ``steps``
    its interior length, as the check counts on them, and ``roots`` its
    sorted kept roots.
    """
    radius = 2.0 * math.sqrt(e2.max())
    lo = np.full((1, len(roots)), a.min() - radius)
    hi = np.full((1, len(roots)), a.max() + radius)
    rank = np.arange(len(roots))
    for _ in range(64):  # enough halvings of the Gershgorin interval to reach rounding
        mid = 0.5 * (lo + hi)
        below = _toeplitz_counts(a, e2, mid, full, steps) > rank
        hi = np.where(below, mid, hi)
        lo = np.where(below, lo, mid)
    return float(np.max(np.abs(roots - 0.5 * (lo + hi)[0])))


def _real_band(n: int, rs: np.ndarray, band):
    """The real symmetric S of each sector, in the columns of ``_sector_band``.

    Orbit h = 1..nu has period n, except the half-turn orbit h = n/2 of
    even n, which has period n/2 and is blocked in the odd sectors.  As
    in the overlift sector solve (``polymatrix._solve_sector``), the
    blocked (tail) coupling must vanish within tol = ``quotient_tol(max|b|)``,
    and the Hermitian quotient H = D^(1/2) b D^(-1/2) on the m kept
    orbits, its entries past m zero, must have skew max|H - H^*| within
    tol.  The reflection of the cycle fixes every orbit,
    -{0, h} = {0, h} + (n - h), so the phases exp(-i pi r (n - h)/n) turn
    H into a real symmetric S with the same eigenvalues (that solve's
    reflection basis, every orbit fixed), and max|Im S| must stay within
    tol.  Neighbouring
    phases differ by the one factor exp(-i pi r/n), which multiplies
    every coupling below the diagonal and leaves the diagonal, whose
    imaginary part the skew bounds.  Returns the diagonal a, contiguous,
    the squared couplings e2 (floored at the smallest normal float), the
    kept sizes and the tols.  ``band`` is left unchanged.
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
    skew = np.maximum(2 * np.abs(diag.imag).max(axis=1),
                      np.abs(upper - lower.conj()).max(axis=1))
    _check_sectors(n, rs, "skew max|H - H^*|", skew, tol)
    turn = root_table(2 * n)[-rs % (2 * n), None]
    lower *= turn
    upper *= turn.conj()
    imag = np.maximum(np.abs(lower.imag), np.abs(upper.imag)).max(axis=1)
    _check_sectors(n, rs, "real form imaginary part max|Im S|", imag, tol)
    return diag.real.copy(), np.maximum(lower.real ** 2, np.finfo(float).tiny), m, tol


def _check_roots(n: int, rs: np.ndarray, roots: np.ndarray, band) -> None:
    """Check the kept roots of the sectors rs against their sector bands.

    ``roots`` holds one row per sector, as ``_solve_sectors`` returns
    them; entries past the kept count are ignored.  The band must have a
    real form S (``_real_band``).  Then for the sorted roots x_i the
    closed-form counts of S (``_toeplitz_counts``), taken in blocks of
    sectors, must show count(x_i - tol) <= i < count(x_i + tol): the
    i-th eigenvalue of S lies within tol of x_i, which also checks
    multiplicities.  A failure raises ``NumericFailureError`` naming n,
    r, the quantity, its value and tol; a failed count reports the gap
    that bisection on the same count measures (``_root_gap``).
    """
    nu = n // 2
    a, e2, m, tol = _real_band(n, rs, band)
    rank = np.arange(nu)
    kept = rank < m[:, None]
    x = np.where(kept, np.sort(np.where(kept, roots, np.inf), axis=1), 0.0)
    ok = ~kept | np.isfinite(x)
    full = m == nu
    step = max(1, COUNT_BLOCK // (2 * nu))
    for lo in range(0, len(rs), step):
        rows = slice(lo, lo + step)
        xs, dx = x[rows], tol[rows, None]
        counts = _toeplitz_counts(a[rows], e2[rows], np.concatenate([xs - dx, xs + dx], axis=1),
                                  full[rows], nu - 2)
        ok[rows] &= ~kept[rows] | (counts[:, :nu] <= rank) & (rank < counts[:, nu:])
    bad = ~ok.all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        where = f"F_2(C_{n}) sector r={rs[i]}"
        one = slice(i, i + 1)
        gap = _root_gap(a[one], e2[one], full[one], x[i, :m[i]], nu - 2)
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
    n, r = _check_sector(n, r)
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
    n, _ = _check_sector(n, 0)  # sector 0 exists for every n; this checks n
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
    n, r = _check_sector(n, r)
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

    rho_{1,2} = (Z +- sqrt(Z^2 - 4))/2 diagonalize the transfer step of
    ``contfrac_q1``.  From the pair (R, S) = (S_-1, S_0) of
    ``_terminal(n, r, Z, 1)`` the recurrence gives S_j = S U_j - R U_(j-1),
    U_j = (rho_1^(j+1) - rho_2^(j+1))/(rho_1 - rho_2) = U_j(Z/2) (Chebyshev,
    second kind), so the sector value alpha S_m - S_(m+1), m = floor(n/2) - 2
    the step count of ``contfrac_q1``, is the divided difference of
    f(rho) = rho^m (alpha - rho)(rho S - R) over rho_1 and rho_2.  It is
    real for every lambda and continuous through Z^2 = 4; there is no guard
    band.  With x = |Z|/2 and sigma = sign Z, U_j(Z/2) = sigma^j U_j(x).
    For x < 1, U_j(x) = sin((j + 1) theta)/sin theta, theta = acos x (at
    Z/2 itself theta nears pi, where it loses digits).  For x >= 1,
    rho_1 = 1/rho_2 = sigma (x + sqrt(x^2 - 1)) = sigma exp(acosh x), and
    the product rule f[rho_1, rho_2] = (alpha - rho_1)(rho_1 S - R) U_(m-1)(Z/2)
    + rho_2^m (alpha S + R - Z S) avoids the cancellation of
    alpha S_m - S_(m+1) near the top root.  At r = n/2 it is the product
    of lambda - v over the kept diagonal 2, 4, ..., 4, with no solve.
    Equals charpoly_sector up to one constant factor per (n, r).  A value
    past the float range raises ``NumericFailureError`` naming n, r and lambda.
    """
    n, r = _check_sector(n, r)
    _check_finite(lam)
    if 2 * r == n:
        val = math.prod([lam - 2.0] + [lam - 4.0] * (_kept_counts(n, r) - 1))
    else:
        c = math.cos(math.pi * r / n)
        z = (4.0 - lam) / (2.0 * c)
        alpha = 1.0 / c
        rr, ss = _terminal(n, r, z, 1)
        m, x, sigma = n // 2 - 2, abs(z) / 2, math.copysign(1.0, z)
        try:
            if x < 1:
                theta = math.acos(x)
                u_prev, u_m, u_next = (sigma ** j * math.sin((j + 1) * theta) / math.sin(theta)
                                       for j in (m - 1, m, m + 1))
                val = alpha * (ss * u_m - rr * u_prev) - (ss * u_next - rr * u_m)
            else:
                t, e_t = math.acosh(x), x + math.sqrt((x - 1) * (x + 1))
                rho1, rho2 = sigma * e_t, sigma / e_t  # e_t rounds closer than exp(t)
                u = math.exp((m - 1) * t) * math.expm1(-2 * m * t) / math.expm1(-2 * t) if t else m
                val = rho2 ** m * (alpha * ss + rr - z * ss)
                if m:  # U_(-1) = 0, but the product before it may overflow
                    val += (alpha - rho1) * (rho1 * ss - rr) * sigma ** (m - 1) * u
        except OverflowError:  # a power past the float range
            val = math.inf
    if not math.isfinite(val):
        raise NumericFailureError(f"F_2(C_{n}) sector r={r} at lambda={lam}: "
                                  "the closed form passes the float range")
    return float(val)
