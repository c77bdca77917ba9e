"""Closed forms for two tokens on a cycle.

With two tokens the orbit representatives are the distance classes
{0, h} for h = 1..nu with nu = floor(n/2), and the orbit polynomial
matrix is tridiagonal.  Writing Z = (4 - lambda)/(2 cos(r pi/n)) and
alpha = 1/cos(r pi/n), the eigenvector ratios satisfy a backward
continued fraction Q_{h-1} = 1/(Z - Q_h) whose terminal value depends on
the parity of n and r, and the sector eigenvalues solve Q_1 = Z - alpha.

Clearing the fraction turns the recurrence into a three-term relation
Z f_h = f_{h-1} + f_{h+1} with boundary entries alpha and, per case,
(-1)^r, a doubled last coupling, or truncation.  The sector roots are
therefore eigenvalues of a small real symmetric tridiagonal matrix in
the variable Z, which is how this module computes them (the expanded
monomial coefficients are too ill conditioned for reliable roots once
cos(r pi/n) is small).  The roots of a sector are checked together
against the sector matrix by one real ``eigvalsh``: the reflection
X -> -X of the cycle fixes every orbit {0, h}, so diagonal phases turn
the Hermitian quotient of the sector matrix into a real symmetric
tridiagonal matrix with the same eigenvalues.  Conjugate sectors r and
n - r share their roots.  The same recurrence, run on
polynomials, yields the sector characteristic polynomial, and
diagonalizing the 2x2 transfer step gives a closed form in
rho_{1,2} = (Z +- sqrt(Z^2 - 4))/2.

Case split for even n.  At r = n/2 the sector matrix is diagonal with
entries 2, 4, ..., 4.  When nu = n/2 is even the sector order 2 divides
the half-turn orbit period and all nu values are kept; when nu is odd
(n = 2 mod 4) one value 4 is spurious, exactly as in the other odd-r
sectors, and nu - 1 values are kept.
"""
from __future__ import annotations

import cmath
import math
import warnings
from math import comb

import numpy as np
from numpy.polynomial import Polynomial

from .errors import (CountMismatchError, NumericFailureError,
                     ParameterDomainError, PoleError)
from .laurent import root_table
from .polymatrix import (DISCARD_REASON, blocked_mask, check_bound,
                         hermitian_quotient, reflection_basis)
from .report import SpectrumEntry, SpectrumReport


def half_order(n: int) -> int:
    return n // 2


def _check_sector(n: int, r: int) -> None:
    if n < 4:
        raise ParameterDomainError(f"two-token closed forms need n >= 4, got {n}")
    if not 0 <= r < n:
        raise ParameterDomainError(f"sector r={r} must lie in [0, {n})")


def _is_half_turn(n: int, r: int) -> bool:
    return n % 2 == 0 and 2 * r == n


def build_b2(n: int, r: int) -> np.ndarray:
    """The specialized tridiagonal sector matrix at z = exp(2*pi*i*r/n).

    Diagonal (2, 4, ..., 4); couplings -1-z below and -1-1/z above.  For
    odd n the last diagonal entry gains -z^nu - z^-nu; for even n the
    bottom coupling becomes -1-z-z^nu-z^(nu+1) = -(1+z)(1+z^nu).  Powers
    of z come from ``root_table``, so ``build_b2(n, n - r)`` is exactly
    the conjugate of ``build_b2(n, r)``; for even n, z^nu = (-1)^r
    exactly, so the bottom coupling of an odd sector is exactly zero.
    """
    _check_sector(n, r)
    nu = half_order(n)
    table = root_table(n)
    z, zbar, z_nu = table[r], table[(n - r) % n], table[(r * nu) % n]
    m = np.zeros((nu, nu), dtype=complex)
    idx = np.arange(nu - 1)
    m[idx + 1, idx + 1] = 4.0
    m[0, 0] = 2.0
    m[idx, idx + 1] = -1 - zbar
    m[idx + 1, idx] = -1 - z
    if n % 2:
        m[nu - 1, nu - 1] = 4 - z_nu - z_nu.conjugate()
    else:
        m[nu - 1, nu - 2] = -(1 + z) * (1 + z_nu)
    return m


def contfrac_q1(lam: float, n: int, r: int, pole_tol: float = 1e-12) -> float:
    """Q_1 by backward recurrence from the case's terminal value."""
    _check_sector(n, r)
    if _is_half_turn(n, r):
        raise ParameterDomainError(
            f"r = n/2 = {r} has no continued fraction (cos(r pi/n) = 0)")
    nu = half_order(n)
    c = math.cos(math.pi * r / n)
    z = (4.0 - lam) / (2.0 * c)
    if n % 2:
        den = z - (-1) ** r
        if abs(den) < pole_tol:
            raise PoleError(f"terminal denominator vanishes at lambda={lam}")
        q = 1.0 / den
    elif r % 2 == 0:
        if abs(z) < pole_tol:
            raise PoleError(f"terminal denominator vanishes at lambda={lam}")
        q = 2.0 / z
    else:
        q = 0.0
    for _ in range(nu - 2):
        den = z - q
        if abs(den) < pole_tol:
            raise PoleError(f"continued fraction hits a pole at lambda={lam}")
        q = 1.0 / den
    return q


def _case_tag(n: int, r: int) -> str:
    if n % 2:
        return "odd"
    if _is_half_turn(n, r):
        return "half"
    return "even-even" if r % 2 == 0 else "even-odd"


def _half_turn_kept(n: int) -> list[float]:
    nu = half_order(n)
    fours = nu - 1 if nu % 2 == 0 else nu - 2
    return [2.0] + [4.0] * fours


def _verify_roots(n: int, r: int, roots: np.ndarray, b: np.ndarray) -> None:
    """Check the kept roots of sector r against its sector matrix b.

    Orbit h = 1..nu has period n, except the half-turn orbit h = n/2 of
    even n, which has period n/2 and is blocked in the odd sectors.
    ``hermitian_quotient`` checks that b does not couple a blocked orbit
    to the others and forms the Hermitian matrix H = D^(1/2) b D^(-1/2)
    on the kept orbits, whose eigenvalues are the kept values with
    multiplicity.  The reflection of the cycle fixes every orbit,
    -{0, h} = {0, h} + (n - h), so the phases exp(-i pi r (n - h)/n)
    turn H into a real symmetric S with the same eigenvalues (see
    ``RealBasis``).  The sorted roots must match ``eigvalsh(S)``
    elementwise within the same tol = 1e-8 (1 + max|b|), which also
    checks multiplicities.
    """
    where = f"F_2(C_{n}) sector r={r}"
    nu = half_order(n)
    periods = np.full(nu, n)
    if n % 2 == 0:
        periods[-1] = n // 2
    blocked = blocked_mask(periods, n, r)
    h, _, tol = hermitian_quotient(b, periods, blocked, where)
    if len(roots) != len(h):
        raise CountMismatchError(
            f"{where}: produced {len(roots)} roots, expected {len(h)}")
    basis = reflection_basis(np.arange(nu), n - np.arange(1, nu + 1), blocked, r, n)
    s = basis.reduce(h, tol, where)
    gap = float(np.max(np.abs(np.sort(roots) - np.linalg.eigvalsh(s))))
    check_bound(where, "root gap max|roots - eigvalsh(S)|", gap, tol)


def sector_roots(n: int, r: int) -> np.ndarray:
    """Kept eigenvalues of one sector, ascending.

    Away from r = n/2 the Z-values are eigenvalues of the symmetric
    tridiagonal matrix encoding the recurrence; lambda = 4 - 2 cos(r
    pi/n) Z.  The roots are verified together against the sector matrix
    by one Hermitian ``eigvalsh`` (see ``_verify_roots``).  At r = n/2
    the values are read off the diagonal sector matrix.
    """
    _check_sector(n, r)
    nu = half_order(n)
    case = _case_tag(n, r)
    if case == "half":
        return np.array(_half_turn_kept(n))
    c = math.cos(math.pi * r / n)
    alpha = 1.0 / c
    if case == "odd":
        dim = nu
        diag = np.zeros(dim)
        diag[0] = alpha
        diag[-1] += (-1) ** r
        off = np.ones(dim - 1)
    elif case == "even-even":
        dim = nu
        diag = np.zeros(dim)
        diag[0] = alpha
        off = np.ones(dim - 1)
        off[-1] = math.sqrt(2.0)  # symmetrized doubled terminal coupling
    else:
        dim = nu - 1
        diag = np.zeros(dim)
        diag[0] = alpha
        off = np.ones(dim - 1)
    if dim == 1:
        zs = diag[:1].copy()
    else:
        j = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        zs = np.linalg.eigvalsh(j)
    roots = np.sort(4.0 - 2.0 * c * zs)
    if case == "even-odd" and np.any(np.abs(roots - 4.0) < 1e-8):
        warnings.warn(
            f"sector ({n}, r={r}) produced a kept root at 4 within 1e-8",
            stacklevel=2)
    _verify_roots(n, r, roots, build_b2(n, r))
    return roots


def spectrum_2token(n: int) -> SpectrumReport:
    """All C(n, 2) eigenvalues of the two-token graph, by sectors.

    Only the sectors r <= n/2 are solved.  B has integer coefficients,
    so B(w^(n-r)) is the conjugate of B(w^r); the two Hermitian
    quotients are conjugate and have the same eigenvalues, and sector
    n - r takes the roots of sector r.
    """
    if n < 4:
        raise ParameterDomainError(f"two-token spectrum needs n >= 4, got {n}")
    solved = [sector_roots(n, r).tolist() for r in range(n // 2 + 1)]
    entries: list[SpectrumEntry] = []
    kept: list[float] = []
    for r in range(n):
        roots = solved[min(r, n - r)]
        kept.extend(roots)
        entries.extend(SpectrumEntry(v, r, True) for v in roots)
        case = _case_tag(n, r)
        if case == "even-odd" or (case == "half" and half_order(n) % 2):
            entries.append(SpectrumEntry(4.0, r, False, DISCARD_REASON))
    expected = comb(n, 2)
    if len(kept) != expected:
        raise CountMismatchError(
            f"collected {len(kept)} eigenvalues for F_2(C_{n}), expected {expected}")
    return SpectrumReport(n, 2, "contfrac", tuple(entries), tuple(sorted(kept)))


def _transfer_polynomial(n: int, r: int) -> Polynomial:
    """The sector equation as a polynomial in lambda, not yet monic.

    Runs the transfer recurrence (R, S) -> (S, Z S - R) on polynomials,
    from the case's terminal pair, then forms R - (Z - alpha) S.
    """
    nu = half_order(n)
    c = math.cos(math.pi * r / n)
    alpha = 1.0 / c
    z = Polynomial([4.0 / (2 * c), -1.0 / (2 * c)])
    if n % 2:
        rr, ss = Polynomial([1.0]), z - (-1) ** r
        steps = nu - 2
    elif r % 2 == 0:
        rr, ss = Polynomial([2.0]), z.copy()
        steps = nu - 2
    else:
        rr, ss = Polynomial([1.0]), z.copy()
        steps = nu - 3
    if steps < 0:
        # one inverse transfer step; the 2x2 step has determinant 1
        rr, ss = z * rr - ss, rr
        steps = 0
    for _ in range(steps):
        rr, ss = ss, z * ss - rr
    return rr - (z - alpha) * ss


def charpoly_sector(n: int, r: int) -> np.ndarray:
    """Monic coefficients (descending powers) of the sector polynomial.

    Roots are exactly the kept sector eigenvalues: degree nu for odd n
    and for even r away from the half turn, nu - 1 for odd r (the
    spurious 4 is not a root).  At r = n/2 the polynomial is
    (lambda - 2)(lambda - 4)^m with m = nu - 1 or nu - 2 by the parity
    of nu.
    """
    _check_sector(n, r)
    if _is_half_turn(n, r):
        p = Polynomial.fromroots(_half_turn_kept(n))
    else:
        p = _transfer_polynomial(n, r)
        p = p / p.coef[-1]
    return p.coef[::-1] + 0.0  # adding 0.0 clears negative zeros


def charpoly_rho_form(n: int, r: int, lam: float,
                      guard: float = 0.1) -> float:
    """The closed-form sector value at one lambda, via rho_1 and rho_2.

    rho_{1,2} = (Z +- sqrt(Z^2 - 4))/2 diagonalize the transfer step.
    Complex intermediates occur when Z^2 < 4; the result is real.  Not
    defined within ``guard`` of the branch point Z^2 = 4; the polynomial
    form is authoritative everywhere.  Equals charpoly_sector up to one
    multiplicative constant per (n, r).
    """
    _check_sector(n, r)
    nu = half_order(n)
    if _is_half_turn(n, r):
        fours = nu - 1 if nu % 2 == 0 else nu - 2
        return float((lam - 2.0) * (lam - 4.0) ** fours)
    c = math.cos(math.pi * r / n)
    z = (4.0 - lam) / (2.0 * c)
    alpha = 1.0 / c
    disc = z * z - 4.0
    if abs(disc) <= guard:
        raise PoleError(
            f"lambda={lam} puts Z^2-4 = {disc:.4f} inside the +-{guard} guard band")
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
    if abs(val.imag) > 1e-8:
        raise NumericFailureError(
            f"closed form returned imaginary part {val.imag:.3e} at lambda={lam}")
    return float(val.real)
