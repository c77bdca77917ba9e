import cmath
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest
from conftest import (assert_kept_then_discarded, cached_brute, cached_contfrac,
                      cached_overlift, full_rows, reflection_basis, sturm_counts,
                      token_neighbors)
from numpy.testing import assert_allclose

from tokenspectra import (NumericFailureError, ParameterDomainError,
                          PoleError, build_poly_matrix,
                          charpoly_rho_form, charpoly_sector, contfrac_q1,
                          multisets_close, sector_roots, spectrum_2token, twotoken)
from tokenspectra.polymatrix import blocked_mask, check_bound
from tokenspectra.tolerances import quotient_tol
from tokenspectra.twotoken import (_check_roots, _real_band, _sector_band, _solve_sectors,
                                   _terminal, _toeplitz_counts, build_b2)

SQRT5 = math.sqrt(5)

TABLE_2TOKEN_7 = {
    0: [0, 2.0, 6.0],
    1: [0.7530, 3.9363, 7.1125],
    2: [1.1633, 2.4450, 5.1446],
    3: [1.9019, 3.8019, 4.7411],
}
TABLE_2TOKEN_8 = {
    0: [0, 1.5060, 4.8900, 7.60387],
    1: [0.5857, 3.1259, 6.2882],      # the published 4.0 is spurious
    2: [0.9486, 2.0, 4.5173, 6.5340],
    3: [1.7117, 3.4142, 4.8740],      # the published 4.0 is spurious
    4: [2.0, 4.0, 4.0, 4.0],
}

# sector polynomials for n = 5, exact coefficients (descending)
PHI_5 = {
    0: [1.0, -4.0, 0.0],
    1: [1.0, -SQRT5 / 2 - 13 / 2, 15 / 2 + SQRT5 / 2],
    2: [1.0, SQRT5 / 2 - 13 / 2, 15 / 2 - SQRT5 / 2],
}


def sample_lambdas(count=20, lo=-3.0, hi=11.0):
    return np.linspace(lo, hi, count) + 0.0137  # offset dodges exact poles


# Dense references.  The library solves the secular equation and checks
# the roots with Sturm counts on the band; these are the dense routes it
# replaced, kept to compare against.

def dense_sector_roots(n, r):
    """Kept roots of sector r (r != n/2) from eigvalsh of the recurrence matrix J.

    J is tridiag(1) in Z with alpha = 1/cos(r pi/n) in its first entry
    and, per case, (-1)^r in its last entry (odd n), a symmetrized
    doubled last coupling sqrt(2) (even n, even r), or one orbit fewer
    (even n, odd r); lambda = 4 - 2 cos(r pi/n) Z.
    """
    nu = n // 2
    c = math.cos(math.pi * r / n)
    dim = nu - 1 if n % 2 == 0 and r % 2 else nu
    diag = np.zeros(dim)
    diag[0] = 1.0 / c
    off = np.ones(dim - 1)
    if n % 2:
        diag[-1] += (-1) ** r
    elif r % 2 == 0:
        off[-1] = math.sqrt(2.0)
    j = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    return np.sort(4.0 - 2.0 * c * np.linalg.eigvalsh(j))


def two_token_basis(n, r):
    """The reflection basis of sector r: every orbit {0, h} is fixed, shift n - h."""
    nu = n // 2
    periods = np.full(nu, n)
    if n % 2 == 0:
        periods[-1] = n // 2
    return reflection_basis(np.arange(nu), n - np.arange(1, nu + 1), periods,
                            blocked_mask(periods, n, r), r, n)


def dense_verify_roots(n, r, roots, b):
    """The dense check: roots against eigvalsh of the real form S of b."""
    where = f"F_2(C_{n}) sector r={r}"
    s = two_token_basis(n, r).reduce(b, where)
    assert len(roots) == len(s)
    gap = float(np.max(np.abs(np.sort(roots) - np.linalg.eigvalsh(s))))
    check_bound(where, "root gap max|roots - eigvalsh(S)|", gap,
                quotient_tol(float(np.abs(b).max())))


def banded(n, r):
    """(rs, roots, band) of one sector, as mutable arrays for perturbing."""
    rs = np.array([r])
    return rs, _solve_sectors(n, np.minimum(rs, n - rs)), list(_sector_band(n, rs))


def failure_pattern(n, r, quantity):
    """The message of a failed bound: n, r, the quantity, its value and tol."""
    return (rf"^F_2\(C_{n}\) sector r={r}: {re.escape(quantity)} "
            r"\d\.\d{3}e[-+]\d+ exceeds tol \d\.\d{3}e[-+]\d+$")


class TestBuildB2:
    def test_odd_corner(self):
        b = build_b2(7, 2)
        assert b.shape == (3, 3)
        z = np.exp(2j * np.pi * 2 / 7)
        assert abs(b[2, 2] - (4 - z ** 3 - z ** -3)) < 1e-12
        assert abs(b[0, 0] - 2) < 1e-12

    def test_half_turn_sector_is_diagonal(self):
        b = build_b2(8, 4)
        assert_allclose(b, np.diag([2.0, 4.0, 4.0, 4.0]), atol=1e-12)

    def test_even_n_sector_zero_row_sums(self):
        b = build_b2(6, 0)
        assert_allclose(b.imag, 0, atol=1e-12)
        assert_allclose(b.sum(axis=1), 0, atol=1e-12)

    def test_matches_general_orbit_matrix(self):
        # same representatives, same order and every neighbour at its
        # smallest shift, so the matrices agree entry for entry
        for n in range(4, 61):
            m = build_poly_matrix(n, 2)
            for r in range(n):
                assert_allclose(build_b2(n, r), m.specialize(r), rtol=0, atol=1e-14,
                                err_msg=f"n={n}, r={r}")

    def test_matches_loop_reference(self):
        # entry by entry, with complex powers of cmath.exp
        for n in range(4, 14):
            nu = n // 2
            for r in range(n):
                z = cmath.exp(2j * math.pi * r / n)
                want = np.zeros((nu, nu), dtype=complex)
                for h in range(nu):
                    want[h, h] = 2.0 if h == 0 else 4.0
                for h in range(nu - 1):
                    want[h, h + 1] = -1 - z.conjugate()
                    want[h + 1, h] = -1 - z
                if n % 2:
                    want[-1, -1] = 4 - z ** nu - z.conjugate() ** nu
                else:
                    want[-1, -2] = -1 - z - z ** nu - z ** (nu + 1)
                    want[-2, -1] = -1 - z ** (nu - 1)
                assert_allclose(build_b2(n, r), want, atol=1e-12)

    @pytest.mark.parametrize("n", range(4, 61))
    def test_band_holds_each_distinct_entry_once(self, n):
        # head, one interior and tail row: the dense matrix repeats the
        # interior row and nothing else
        width = min(n // 2, 3)
        lower, diag, upper = _sector_band(n, np.arange(n))
        assert diag.shape == (n, width) and lower.shape == upper.shape == (n, width - 1)
        for r in range(n):
            b = build_b2(n, r)
            d, lo, up = np.diag(b), np.diag(b, -1), np.diag(b, 1)
            assert np.array_equal(diag[r], np.r_[d[0], d[1:-1][:1], d[-1]]), r
            assert (d[1:-1] == diag[r, 1]).all(), r
            for band, dense in ((lower[r], lo), (upper[r], up)):
                assert np.array_equal(band, np.r_[dense[:-1][:1], dense[-1]]), r
                assert (dense[:-1] == band[0]).all(), r

    def test_conjugate_sectors_exact(self):
        for n in range(4, 17):
            for r in range(n):
                assert np.array_equal(build_b2(n, (n - r) % n),
                                      build_b2(n, r).conj()), (n, r)

    def test_even_n_odd_sector_coupling_exactly_zero(self):
        for n in (4, 6, 8, 10, 12):
            for r in range(1, n, 2):
                assert build_b2(n, r)[-1, -2] == 0, (n, r)

    def test_domain(self):
        with pytest.raises(ParameterDomainError):
            build_b2(3, 0)
        with pytest.raises(ParameterDomainError):
            build_b2(8, 8)


class TestContfracQ1:
    def test_identity_n7(self):
        for r in (0, 1, 3, 5):
            s = (-1) ** r
            kept = 0
            for lam in sample_lambdas():
                z = (4 - lam) / (2 * math.cos(math.pi * r / 7))
                den = z * z - s * z - 1
                if abs(den) < 1e-3:
                    continue
                want = (z - s) / den
                assert abs(contfrac_q1(lam, 7, r) - want) < 1e-9 * (1 + abs(want))
                kept += 1
            assert kept >= 15

    def test_identity_n8_even_r(self):
        for r in (0, 2, 6):
            kept = 0
            for lam in sample_lambdas():
                z = (4 - lam) / (2 * math.cos(math.pi * r / 8))
                den = z * (z * z - 3)
                if abs(den) < 1e-3:
                    continue
                want = (z * z - 2) / den
                assert abs(contfrac_q1(lam, 8, r) - want) < 1e-9 * (1 + abs(want))
                kept += 1
            assert kept >= 15

    def test_identity_n8_odd_r(self):
        for r in (1, 3, 5, 7):
            kept = 0
            for lam in sample_lambdas():
                z = (4 - lam) / (2 * math.cos(math.pi * r / 8))
                if abs(z * z - 1) < 1e-3:
                    continue
                want = z / (z * z - 1)
                assert abs(contfrac_q1(lam, 8, r) - want) < 1e-9 * (1 + abs(want))
                kept += 1
            assert kept >= 15

    def test_sector_equation_holds_at_roots(self):
        for n, r in [(7, 1), (9, 2), (8, 1), (10, 2), (12, 5)]:
            c = math.cos(math.pi * r / n)
            alpha = 1 / c
            for lam in sector_roots(n, r):
                try:
                    q1 = contfrac_q1(float(lam), n, r)
                except PoleError:
                    continue
                z = (4 - lam) / (2 * c)
                assert abs(q1 - (z - alpha)) < 1e-6

    def test_half_turn_rejected(self):
        with pytest.raises(ParameterDomainError):
            contfrac_q1(1.0, 8, 4)

    def test_pole_raises(self):
        # lambda = 2 makes the odd-n terminal denominator vanish at r = 0
        with pytest.raises(PoleError, match=r"^F_2\(C_7\) sector r=0 at lambda=2\.0: "
                                            r"terminal denominator vanishes$"):
            contfrac_q1(2.0, 7, 0)

    def test_pole_inside_the_recurrence_raises(self):
        # at r = 0 of n = 8, Q = 2/Z, then Z - Q vanishes at Z^2 = 2
        lam = 4.0 - 2.0 * math.sqrt(2.0)
        with pytest.raises(PoleError, match=rf"^F_2\(C_8\) sector r=0 at lambda={lam}: "
                                            r"continued fraction hits a pole$"):
            contfrac_q1(lam, 8, 0)


class TestSectorRoots:
    def test_7_2(self):
        assert_allclose(sector_roots(7, 2), TABLE_2TOKEN_7[2], atol=1e-3)

    def test_8_1_excludes_four(self):
        roots = sector_roots(8, 1)
        assert_allclose(roots, TABLE_2TOKEN_8[1], atol=1e-3)
        assert np.all(np.abs(roots - 4.0) > 1e-8)

    def test_8_4_diagonal_case(self):
        assert_allclose(sector_roots(8, 4), [2.0, 4.0, 4.0, 4.0], atol=1e-12)

    def test_6_3_half_turn_with_odd_half(self):
        # n = 2 mod 4: the half-turn sector keeps one value fewer
        assert_allclose(sector_roots(6, 3), [2.0, 4.0], atol=1e-12)

    def test_matrix_eigenvalues_are_roots_plus_spurious_four(self):
        for n in (6, 8, 10, 12):
            for r in range(n):
                spectrum = np.sort(np.linalg.eigvals(build_b2(n, r)).real)
                roots = sector_roots(n, r)
                if r % 2 or (2 * r == n and (n // 2) % 2):
                    rebuilt = np.sort(np.append(roots, 4.0))
                else:
                    rebuilt = roots
                assert_allclose(spectrum, rebuilt, atol=1e-7), (n, r)

    def test_odd_n_matrix_eigenvalues_match(self):
        for n in (5, 7, 9, 13):
            for r in range(n):
                spectrum = np.sort(np.linalg.eigvals(build_b2(n, r)).real)
                assert_allclose(spectrum, sector_roots(n, r), atol=1e-7)


# one sector of each case: odd, even-even, even-odd
VERIFY_CASES = [(9, 2), (12, 4), (12, 5)]
# and the failure gap at nu = 2 (n = 4 with its blocked m = 1 sector, n = 5)
# and at n = 1000, blocked and not
ROOT_GAP_CASES = [*VERIFY_CASES, (4, 0), (4, 1), (5, 1), (5, 2), (1000, 3), (1000, 250)]


class TestVerifyRoots:
    """Negative controls of the banded check, each run on the dense reference too."""

    @pytest.mark.parametrize("n,r", VERIFY_CASES)
    def test_accepts_true_roots(self, n, r):
        rs, roots, band = banded(n, r)
        _check_roots(n, rs, roots, band)
        dense_verify_roots(n, r, sector_roots(n, r), build_b2(n, r))

    @pytest.mark.parametrize("n,r", ROOT_GAP_CASES)
    def test_rejects_perturbed_root(self, n, r):
        rs, roots, band = banded(n, r)
        m = len(sector_roots(n, r))
        roots[0, min(1, m - 1)] += 1e-6
        with pytest.raises(NumericFailureError,
                           match=failure_pattern(n, r, "root gap max|roots - eig(S)|")):
            _check_roots(n, rs, roots, band)
        with pytest.raises(NumericFailureError):
            dense_verify_roots(n, r, roots[0, :m], build_b2(n, r))

    @pytest.mark.parametrize("n,r", ROOT_GAP_CASES)
    def test_reported_gap_is_the_dense_gap(self, n, r, monkeypatch):
        # the gap a failed count reports, measured on the band's own row,
        # is that of eigvalsh of the dense real form
        rs, roots, band = banded(n, r)
        m = len(sector_roots(n, r))
        roots[0, m - 1] -= 3e-6
        reported = {}

        def record(where, quantity, value, tol):
            reported[quantity] = value
            check_bound(where, quantity, value, tol)

        monkeypatch.setattr(twotoken, "check_bound", record)
        with pytest.raises(NumericFailureError,
                           match=failure_pattern(n, r, "root gap max|roots - eig(S)|")):
            _check_roots(n, rs, roots, band)
        s = two_token_basis(n, r).reduce(build_b2(n, r), "")
        want = np.max(np.abs(np.sort(roots[0, :m]) - np.linalg.eigvalsh(s)))
        assert abs(reported["root gap max|roots - eig(S)|"] - want) <= 1e-12

    @pytest.mark.parametrize("n,r", VERIFY_CASES)
    def test_rejects_duplicated_root(self, n, r):
        b = build_b2(n, r)
        rs, roots, band = banded(n, r)
        roots[0, 2] = roots[0, 1]
        kept = roots[0, :len(sector_roots(n, r))]
        # every value is still an eigenvalue of b, so a per-root smallest
        # singular value test accepts the list; multiplicities do not
        tol = 1e-8 * (1.0 + float(np.max(np.abs(b))))
        eye = np.eye(len(b))
        assert all(np.linalg.svd(b - lam * eye, compute_uv=False)[-1] <= tol
                   for lam in kept)
        with pytest.raises(NumericFailureError,
                           match=failure_pattern(n, r, "root gap max|roots - eig(S)|")):
            _check_roots(n, rs, roots, band)
        with pytest.raises(NumericFailureError):
            dense_verify_roots(n, r, kept, b)

    @pytest.mark.parametrize("n,r", VERIFY_CASES)
    def test_rejects_reflection_breaking_perturbation(self, n, r):
        # Hermitian, so the skew check passes, but the phases no longer
        # make H real
        rs, roots, band = banded(n, r)
        band[2][0, 0] *= 1 + 1e-6j
        band[0][0, 0] *= 1 - 1e-6j
        with pytest.raises(NumericFailureError, match=failure_pattern(
                n, r, "real form imaginary part max|Im S|")):
            _check_roots(n, rs, roots, band)
        b = build_b2(n, r)
        b[0, 1] += 1e-6 * b[0, 1] * 1j
        b[1, 0] -= 1e-6 * b[1, 0] * 1j
        with pytest.raises(NumericFailureError,
                           match=rf"F_2\(C_{n}\) sector r={r}: real form imaginary part"):
            dense_verify_roots(n, r, sector_roots(n, r), b)

    @pytest.mark.parametrize("n,r", VERIFY_CASES)
    def test_rejects_skew_perturbation(self, n, r):
        rs, roots, band = banded(n, r)
        band[2][0, 0] += 1e-6
        with pytest.raises(NumericFailureError,
                           match=failure_pattern(n, r, "skew max|H - H^*|")):
            _check_roots(n, rs, roots, band)
        b = build_b2(n, r)
        b[0, 1] += 1e-6
        with pytest.raises(NumericFailureError, match="skew"):
            dense_verify_roots(n, r, sector_roots(n, r), b)

    @pytest.mark.parametrize("n,r", VERIFY_CASES)
    def test_rejects_imaginary_diagonal(self, n, r):
        # an imaginary diagonal entry makes H non-Hermitian, so the skew
        # check (2e-6) sees it before the realness check (1e-6) does
        rs, roots, band = banded(n, r)
        band[1][0, 1] += 1e-6j
        with pytest.raises(NumericFailureError,
                           match=failure_pattern(n, r, "skew max|H - H^*|")):
            _check_roots(n, rs, roots, band)
        b = build_b2(n, r)
        b[1, 1] += 1e-6j
        with pytest.raises(NumericFailureError, match="skew"):
            dense_verify_roots(n, r, sector_roots(n, r), b)

    def test_rejects_blocked_orbit_coupling(self):
        n, r = 12, 5
        rs, roots, band = banded(n, r)
        band[0][0, -1] = 1e-6
        with pytest.raises(NumericFailureError, match=failure_pattern(
                n, r, "blocked orbit coupling max|b[X, U]|")):
            _check_roots(n, rs, roots, band)
        b = build_b2(n, r)
        b[-1, -2] = 1e-6
        with pytest.raises(NumericFailureError, match="blocked orbit"):
            dense_verify_roots(n, r, sector_roots(n, r), b)

    @pytest.mark.parametrize("n,r", VERIFY_CASES)
    def test_rejects_non_toeplitz_interior(self, n, r):
        # one interior coupling off by 1e-6 relative: H stays Hermitian
        # and its real form real, but the roots are no longer those of S
        # (the band holds one interior row, so only the dense b has this)
        b = build_b2(n, r)
        b[2, 1] *= 1 + 1e-6
        b[1, 2] *= 1 + 1e-6
        with pytest.raises(NumericFailureError, match="root gap"):
            dense_verify_roots(n, r, sector_roots(n, r), b)

    @pytest.mark.parametrize("n,r", VERIFY_CASES)
    def test_root_gap_boundary_at_tol(self, n, r):
        # a root 0.9 tol from its eigenvalue of S passes, and one 1.1 tol
        # from it fails
        rs, roots, band = banded(n, r)
        b = build_b2(n, r)
        tol = quotient_tol(float(np.abs(b).max()))
        eig = np.linalg.eigvalsh(two_token_basis(n, r).reduce(b, ""))
        for shift, passes in ((0.9 * tol, True), (1.1 * tol, False)):
            moved = roots.copy()
            moved[0, 1] = eig[1] + shift
            if passes:
                _check_roots(n, rs, moved, band)
            else:
                with pytest.raises(NumericFailureError):
                    _check_roots(n, rs, moved, band)

    def test_band_left_unchanged(self):
        rs, roots, band = banded(12, 4)
        before = [v.copy() for v in band]
        _check_roots(12, rs, roots, band)
        assert all(np.array_equal(a, b) for a, b in zip(band, before))


class TestBandedSectors:
    @pytest.mark.parametrize("n", [*range(4, 81), 127, 128, 199, 200])
    def test_roots_match_dense_recurrence_matrix(self, n):
        roots = _solve_sectors(n, np.arange(n // 2 + 1))
        for r in range(n // 2 + 1):
            if 2 * r == n:
                continue
            want = dense_sector_roots(n, r)
            assert_allclose(roots[r, :len(want)], want, rtol=0, atol=1e-12)
            assert np.isnan(roots[r, len(want):]).all()

    def test_half_turn_and_sector_zero_exact(self):
        for n in (8, 10, 11):
            nu = n // 2
            roots = _solve_sectors(n, np.arange(nu + 1))
            assert roots[0, 0] == 0.0
            if n % 2 == 0:
                m = nu - nu % 2  # the half-turn orbit is blocked for odd nu
                assert roots[nu, :m].tolist() == [2.0] + [4.0] * (m - 1)

    @pytest.mark.parametrize("n", range(4, 61))
    def test_real_band_matches_dense_real_form(self, n):
        # the band under the phases of _check_roots is the real form S
        # that RealBasis.reduce makes of the dense sector matrix
        rs = np.arange(n)
        a, e2, m, tol = _real_band(n, rs, _sector_band(n, rs))
        tiny = np.finfo(float).tiny
        assert a.flags.c_contiguous and a.shape == (n, min(n // 2, 3))
        a, e2 = full_rows(a, e2, n // 2)
        for r in rs:
            b = build_b2(n, r)
            s = two_token_basis(n, r).reduce(b, "")
            k = m[r]
            assert s.shape == (k, k)
            want_tol = quotient_tol(float(np.abs(b).max()))
            assert abs(tol[r] - want_tol) <= 1e-13 * want_tol
            assert_allclose(a[r, :k], np.diag(s), rtol=0, atol=1e-13)
            assert_allclose(np.sqrt(e2[r, :k - 1]), np.abs(np.diag(s, -1)), rtol=0, atol=1e-13)
            assert_allclose(np.diag(s, -1), np.diag(s, 1), rtol=0, atol=1e-13)
            assert not a[r, k:].any() and (e2[r, k - 1:] == tiny).all()

    @pytest.mark.parametrize("n", range(4, 17))
    def test_dense_check_accepts_roots(self, n):
        for r in range(n):
            dense_verify_roots(n, r, sector_roots(n, r), build_b2(n, r))

    @pytest.mark.parametrize("n", [4, 5, 12, 13, 60, 61])
    def test_no_dense_linear_algebra(self, n, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense linear algebra in the two-token route")

        for name in ("eigvalsh", "eigh", "eig", "eigvals", "svd"):
            monkeypatch.setattr(np.linalg, name, refuse)
        report = spectrum_2token(n)
        assert len(report.kept) == comb(n, 2)
        sector_roots(n, n - 1)


class TestSturmCounts:
    """The reference pivot loop against eigvalsh and at exact zero pivots."""

    def test_matches_eigvalsh(self):
        # one matrix per row, as the sectors are passed
        rng = np.random.default_rng(11)
        a = rng.normal(size=(9, 6)).T
        e2 = rng.uniform(0.01, 2.0, size=(8, 6)).T
        x = rng.normal(scale=3.0, size=(40, 6)).T
        full = np.array([True, False, True, True, False, True])
        counts = sturm_counts(a, e2, x, full)
        for i in range(6):
            m = 9 if full[i] else 8
            off = np.sqrt(e2[i, :m - 1])
            eig = np.linalg.eigvalsh(np.diag(a[i, :m]) + np.diag(off, 1) + np.diag(off, -1))
            assert counts[i].tolist() == [int(np.sum(eig < v)) for v in x[i]]

    def test_zero_pivots(self):
        # S = [[0, 1], [1, 0]] has eigenvalues -1 and 1; at x = 0 the first
        # pivot is exactly +0 and the second -inf
        a = np.zeros((1, 2))
        e2 = np.ones((1, 1))
        x = np.array([[0.0, -1.5, 1.5, -0.5, 0.5]])
        assert sturm_counts(a, e2, x, np.array([True]))[0].tolist() == [1, 0, 2, 1, 1]
        # diag(2, 4, 4) with couplings floored at the smallest normal
        # float: exact zero pivots at x = 2 and x = 4 give no 0/0, and the
        # counts are those of the eigenvalues 2 - tiny/2 and 4 -+ sqrt(tiny)
        a = np.array([[2.0, 4.0, 4.0]])
        e2 = np.full((1, 2), np.finfo(float).tiny)
        x = np.array([[2.0, 4.0, 3.0, 5.0]])
        assert sturm_counts(a, e2, x, np.array([True]))[0].tolist() == [1, 2, 1, 3]


def checked_points(n):
    """Every sector r <= n/2 of the real form S, with the points to count at.

    One row per sector: every value x_i -+ tol of ``spectrum_2token(n)``,
    then seeded points uniform in [-1, 10] and [3.9, 4.1] and within 1e-9
    of both band edges 4 -+ 2e, e the interior coupling.
    """
    nu = n // 2
    rs = np.arange(nu + 1)
    a, e2, m, tol = _real_band(n, rs, _sector_band(n, rs))
    report = spectrum_2token(n)
    x = np.stack([report.values[report.sectors == r] for r in rs])
    rng = np.random.default_rng(n)
    e = np.sqrt(e2[:, 0])
    size = (20, len(rs))
    points = [x.T - tol, x.T + tol, rng.uniform(-1, 10, size), rng.uniform(3.9, 4.1, size)]
    points += [edge + rng.uniform(-1e-9, 1e-9, size) for edge in (4 - 2 * e, 4 + 2 * e)]
    return a, e2, np.concatenate(points).T, m == nu


class TestToeplitzCounts:
    """The closed-form count against the reference pivot loop, as integers."""

    @pytest.mark.parametrize("n", [*range(4, 131), 199, 200, 301, 1000])
    def test_equals_sturm_counts_on_every_sector(self, n):
        # n = 4 and 5 have no interior rows; for even n the last row
        # is the half turn, whose couplings are zero (floored at tiny)
        a, e2, x, full = checked_points(n)
        if n % 2 == 0:
            assert (e2[-1] == np.finfo(float).tiny).all()
        got = _toeplitz_counts(a, e2, x, full, n // 2 - 2)
        want = sturm_counts(*full_rows(a, e2, n // 2), x, full)
        assert got.dtype == want.dtype
        bad = np.argwhere(got != want)
        assert not len(bad), [(x[r, i], r, got[r, i], want[r, i]) for r, i in bad[:5]]

    @pytest.mark.parametrize("nu", range(2, 41))
    def test_synthetic_bands_at_the_band_edge_and_a_zero_head_pivot(self, nu):
        # e = 1 and diagonal 4 inside, so x = 2 and x = 6 put |Z| = 2
        # exactly (the parabolic pivots) and x = a0 zeroes the head pivot;
        # a0 = 2 and 6 do both at once.  A blocked 2 x 2 band is the
        # 1 x 1 matrix [a0], whose eigenvalue is x = a0 itself, where the
        # count rests on rounding alone, so nu = 2 keeps its tail row.
        rng = np.random.default_rng(nu)
        rows = 24
        a = np.full((rows, nu), 4.0)
        a[:, 0] = np.concatenate([[2.0, 6.0], rng.uniform(-1, 9, rows - 2)])
        a[:, -1] = rng.uniform(-1, 9, rows)
        e2 = np.ones((rows, nu - 1))
        e2[:, -1] = rng.uniform(0.1, 3.0, rows)
        full = (np.arange(rows) % 2 == 0) | (nu == 2)
        x = np.stack([np.full(rows, 2.0), np.full(rows, 6.0), a[:, 0]], axis=1)
        assert np.array_equal(_toeplitz_counts(a, e2, x, full, nu - 2),
                              sturm_counts(a, e2, x, full))

    @pytest.mark.parametrize("nu", [3, 6, 20, 60])
    def test_synthetic_bands_with_a_zero_last_interior_pivot(self, nu):
        # the head row is chosen so that beta + L theta is a multiple of
        # pi: pivot L - 1 is zero up to rounding, and the remainder of that
        # angle can round below zero, which the count must hold in [0, pi]
        rng = np.random.default_rng(nu)
        steps = nu - 2
        theta = rng.uniform(0.05, np.pi - 0.05, 4000)
        beta = rng.integers(1, steps + 1, 4000) * np.pi - steps * theta
        inside = (beta > 0.01) & (beta < np.pi - 0.01)
        theta, beta = theta[inside], beta[inside]
        x = 4 - 2 * np.cos(theta)
        a = np.full((len(x), nu), 4.0)
        a[:, 0] = x + np.cos(theta) + np.sin(theta) / np.tan(beta)
        a[:, -1] = rng.uniform(-1, 9, len(x))
        e2 = np.ones((len(x), nu - 1))
        e2[:, -1] = rng.uniform(0.1, 3.0, len(x))
        full = np.ones(len(x), bool)
        assert np.array_equal(_toeplitz_counts(a, e2, x[:, None], full, steps),
                              sturm_counts(a, e2, x[:, None], full))

    @pytest.mark.parametrize("n", range(4, 131, 2))
    def test_half_turn_at_its_head_value(self, n):
        # at x = 2 the head pivot is zero and Z = 2/sqrt(tiny), far out of
        # band, where only the unsubtracted form a + b rho^(-2j) keeps the
        # sign of the pivots; S's eigenvalue 2 - tiny/2 lies below x
        nu = n // 2
        rs = np.array([nu])
        a, e2, m, _ = _real_band(n, rs, _sector_band(n, rs))
        x = np.array([[2.0, 3.0, 0.0, 9.0]])
        got = _toeplitz_counts(a, e2, x, m == nu, nu - 2)
        assert got[0].tolist() == sturm_counts(*full_rows(a, e2, nu), x, m == nu)[0].tolist()
        assert got[0, 0] == 1


class TestSpectrum2Token:
    def test_n7_table(self):
        report = cached_contfrac(7)
        want = sorted(TABLE_2TOKEN_7[0]
                      + 2 * TABLE_2TOKEN_7[1]
                      + 2 * TABLE_2TOKEN_7[2]
                      + 2 * TABLE_2TOKEN_7[3])
        assert multisets_close(report.kept, want, 1e-3)

    def test_n8_table_and_exclusions(self):
        report = cached_contfrac(8)
        assert len(report.kept) == 28
        dropped = ~report.kept_mask
        assert np.count_nonzero(dropped) == 4
        assert report.values[dropped].tolist() == [4.0] * 4
        assert sorted(report.sectors[dropped].tolist()) == [1, 3, 5, 7]

    def test_n5_algebraic_connectivity(self):
        report = cached_contfrac(5)
        nonzero = [v for v in report.kept if v > 1e-8]
        assert abs(nonzero[0] - (5 - SQRT5) / 2) < 1e-9

    @pytest.mark.parametrize("n", list(range(4, 21)))
    def test_matches_brute(self, n):
        assert multisets_close(cached_contfrac(n).kept,
                               cached_brute(n, 2).kept, 1e-8)

    @pytest.mark.parametrize("n", list(range(4, 41)))
    def test_matches_overlift(self, n):
        assert multisets_close(cached_contfrac(n).kept,
                               cached_overlift(n, 2).kept, 1e-8)

    def test_case_counts(self):
        for n in (8, 12):  # n = 0 mod 4: the published partition
            nu = n // 2
            per_sector = [len(sector_roots(n, r)) for r in range(n)]
            even_not_half = sum(per_sector[r] for r in range(0, n, 2) if 2 * r != n)
            odd = sum(per_sector[r] for r in range(1, n, 2))
            half = per_sector[n // 2]
            assert even_not_half == nu * (n // 2 - 1)
            assert half == nu
            assert odd == (nu - 1) * (n // 2)
            assert even_not_half + half + odd == comb(n, 2)
        for n in (6, 10):  # n = 2 mod 4: the half-turn sector is an odd sector
            nu = n // 2
            per_sector = [len(sector_roots(n, r)) for r in range(n)]
            assert sum(per_sector) == comb(n, 2)
            assert per_sector[n // 2] == nu - 1

    def test_sector_trail_is_kept_block_then_discarded_block(self):
        for n in range(4, 41):
            assert_kept_then_discarded(cached_contfrac(n))

    @pytest.mark.parametrize("n", range(7, 13))
    def test_conjugate_sectors_identical(self, n):
        report = cached_contfrac(n)
        for r in range(1, n):
            a, b = report.sectors == r, report.sectors == n - r
            assert report.values[a].tolist() == report.values[b].tolist(), (n, r)
            assert report.kept_mask[a].tolist() == report.kept_mask[b].tolist(), (n, r)

    @pytest.mark.parametrize("n", [200, 201, 1000, 1001])
    def test_trace_invariants_beyond_brute_cap(self, n):
        # tr L = sum of degrees and tr L^2 = sum deg^2 + sum deg; each
        # degree counts the token moves {a, b} -> {a +- 1, b} and
        # {a, b +- 1} onto a free vertex, not a closed form.  The moves
        # are vectorized over all pairs and checked against the graph's
        # neighbours on every pair up to n = 201, where that loop is cheap,
        # and on 50 random pairs beyond it.
        a, b = np.triu_indices(n, 1)
        degrees = sum(((t + step) % n != a) & ((t + step) % n != b)
                      for t in (a, b) for step in (1, -1)).tolist()
        if n <= 201:
            assert degrees == [len(token_neighbors(pair, n))
                               for pair in combinations(range(n), 2)]
        else:
            rng = np.random.default_rng(n)
            for i in rng.integers(len(a), size=50):
                assert degrees[i] == len(token_neighbors((a[i], b[i]), n))
        kept = spectrum_2token(n).kept
        assert len(kept) == comb(n, 2)
        tol = 1e-8 * len(kept)  # 1e-8 per eigenvalue
        assert abs(math.fsum(kept) - sum(degrees)) <= tol
        want = sum(d * d for d in degrees) + sum(degrees)
        got = math.fsum(v * v for v in kept)
        assert abs(got - want) <= 2 * max(kept) * tol

    def test_domain(self):
        with pytest.raises(ParameterDomainError):
            spectrum_2token(3)


class TestCharpolySector:
    def test_import_leaves_numpy_polynomial_unloaded(self):
        # the sector polynomials load numpy.polynomial on first use only
        import tokenspectra
        src = os.path.dirname(os.path.dirname(tokenspectra.__file__))
        code = ("import sys, numpy; before = 'numpy.polynomial' in sys.modules; "
                "import tokenspectra; print(before, 'numpy.polynomial' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src}).stdout.split()
        if out[0] == "True":
            pytest.skip("this numpy loads numpy.polynomial on import")
        assert out == ["False", "False"]

    def test_n5_exact(self):
        for r, want in PHI_5.items():
            assert_allclose(charpoly_sector(5, r), want, atol=1e-9)
        # conjugate sectors share the polynomial
        assert_allclose(charpoly_sector(5, 4), charpoly_sector(5, 1), atol=1e-9)
        assert_allclose(charpoly_sector(5, 3), charpoly_sector(5, 2), atol=1e-9)

    def test_n9_r1_verified_coefficients(self):
        # independent route: characteristic polynomial of the sector matrix
        want = np.poly(build_b2(9, 1)).real
        got = charpoly_sector(9, 1)
        assert_allclose(got, want, atol=1e-9)
        assert_allclose(got, [1, -15.8794, 80.1976, -136.2222, 47.7602], atol=5e-3)
        # published print of the same quartic, looser (truncated digits)
        assert_allclose(got, [1, -15.88, 80.19, -136.2, 47.79], atol=5e-2)
        roots = np.sort(np.roots(got))
        assert abs(roots[0] - 0.4679) < 1e-3

    def test_n8_r1_coefficients(self):
        got = charpoly_sector(8, 1)
        assert_allclose(got, [1, -10, 25.17, -11.51], atol=5e-3)
        roots = np.sort(np.roots(got))
        assert abs(roots[0] - 0.5857) < 1e-3
        # the spurious 4 is not a root of the sector polynomial
        want = np.polydiv(np.poly(build_b2(8, 1)).real, [1.0, -4.0])[0]
        assert_allclose(got, want, atol=1e-9)

    def test_half_turn_polynomials(self):
        assert_allclose(charpoly_sector(8, 4),
                        np.poly([2.0, 4.0, 4.0, 4.0]), atol=1e-12)
        assert_allclose(charpoly_sector(6, 3), np.poly([2.0, 4.0]), atol=1e-12)

    @pytest.mark.parametrize("n", range(4, 17))
    def test_roots_reproduce_sector_roots(self, n):
        for r in range(n):
            coeffs = charpoly_sector(n, r)
            if n % 2 == 0 and 2 * r == n:
                # repeated roots defeat companion-matrix extraction; the
                # polynomial itself is exactly the product over the roots
                assert_allclose(coeffs, np.poly(sector_roots(n, r)), atol=1e-12)
                continue
            roots = np.sort(np.roots(coeffs).real)
            assert_allclose(roots, sector_roots(n, r), atol=1e-7)

    @pytest.mark.parametrize("n", [5, 6, 8, 9, 11, 12])
    def test_product_over_sectors_is_brute_charpoly(self, n):
        brute = cached_brute(n, 2).kept
        rng = np.random.default_rng(1234)
        for lam in rng.uniform(-2, 12, size=20):
            product = 1.0
            for r in range(n):
                product *= np.polyval(charpoly_sector(n, r), lam)
            want = np.prod([lam - mu for mu in brute])
            assert abs(product - want) <= 1e-6 * max(abs(want), 1e-6)

    @pytest.mark.parametrize("n", range(4, 40))
    def test_conjugate_sectors_bit_identical(self, n):
        for r in range(1, n):
            assert np.array_equal(charpoly_sector(n, r), charpoly_sector(n, n - r))

    @pytest.mark.parametrize("n,r", [(310, 154), (600, 299)])
    def test_finite_near_the_half_turn(self, n, r):
        # the scaled recurrence never divides by 2 cos(r pi/n), so it stays
        # finite wherever the monic coefficients fit in a float
        got = charpoly_sector(n, r)
        want = np.poly(sector_roots(n, r))
        assert np.isfinite(got).all() and len(got) == len(want)
        scale = np.abs(want).max()  # keeps the norms below the float range
        assert (np.linalg.norm((got - want) / scale)
                <= 1e-13 * np.linalg.norm(want / scale))

    @pytest.mark.parametrize("n,r", [(900, 450), (2000, 5)])
    def test_overflow_raises(self, n, r):
        # the monic coefficients themselves pass the float range; the
        # overflow is reported once, as a typed error, and no numpy warning
        # escapes
        with pytest.raises(NumericFailureError,
                           match=rf"^F_2\(C_{n}\) sector r={r}: the sector polynomial "
                                 r"overflows, \d+ of \d+ coefficients are not finite$"):
            charpoly_sector(n, r)


def exact_rho_form(n, r, lam):
    """alpha S_m - S_(m+1) and |alpha S_m| + |S_(m+1)| in exact rationals.

    The same float Z and alpha as ``charpoly_rho_form``, run through
    ``_terminal``'s recurrence.
    """
    c = math.cos(math.pi * r / n)
    z, alpha = Fraction((4.0 - lam) / (2.0 * c)), Fraction(1.0 / c)
    rr, ss = (Fraction(v) for v in _terminal(n, r, z, 1))
    for _ in range(n // 2 - 2):
        rr, ss = ss, z * ss - rr
    nxt = z * ss - rr
    return alpha * ss - nxt, abs(alpha * ss) + abs(nxt)


class TestCharpolyRhoForm:
    @pytest.mark.parametrize("n,r", [(7, 0), (7, 1), (9, 2), (5, 1),
                                     (8, 0), (8, 1), (8, 2), (10, 1), (12, 2)])
    def test_proportional_to_sector_polynomial(self, n, r):
        coeffs = charpoly_sector(n, r)
        rng = np.random.default_rng(7)
        ratio = None
        checked = 0
        for lam in rng.uniform(-4, 13, size=40):
            val = charpoly_rho_form(n, r, float(lam))
            ref = np.polyval(coeffs, lam)
            if abs(ref) < 1e-9:
                continue
            if ratio is None:
                ratio = val / ref
            else:
                assert abs(val / ref - ratio) < 1e-6 * (1 + abs(ratio))
            checked += 1
            if checked >= 10:
                break
        assert checked >= 10

    def test_n5_r0_matches_quadratic_up_to_constant(self):
        lam = 10.0
        ratio = charpoly_rho_form(5, 0, lam) / (lam * lam - 4 * lam)
        lam2 = -3.0
        assert abs(charpoly_rho_form(5, 0, lam2)
                   - ratio * (lam2 * lam2 - 4 * lam2)) < 1e-9 * (1 + abs(ratio))

    def test_branch_point_root(self):
        # r = 0 puts Z(0) = 2 exactly on the branch point Z^2 = 4, and
        # lambda = 0 is a root of sector 0
        assert charpoly_rho_form(7, 0, 0.0) == 0.0

    @pytest.mark.parametrize("n", range(6, 41))
    def test_matches_exact_recurrence(self, n):
        # on a Z grid and at and around the branch points Z = +-2
        zs = [*np.linspace(-3.5, 3.5, 15), *(s * 2 + d for s in (1, -1)
                                             for d in (0, 1e-9, -1e-9, 1e-4, -1e-4))]
        for r in range((n + 1) // 2):
            c = math.cos(math.pi * r / n)
            for z in zs:
                lam = 4 - 2 * c * z
                want, scale = exact_rho_form(n, r, lam)
                err = abs(Fraction(charpoly_rho_form(n, r, lam)) - want)
                assert err <= Fraction(1e-11) * scale, (r, z)

    @pytest.mark.parametrize("n", range(6, 61))
    def test_relative_error_next_to_the_top_root(self, n):
        # outside the band alpha S_m - S_(m+1) cancels near the top root
        # (relative error up to 2.3e-11 here); the product rule does not
        for r in range((n + 1) // 2):
            c = math.cos(math.pi * r / n)
            for lam in sector_roots(n, r)[0] + np.array([-1e-3, 1e-3]):
                if abs((4 - lam) / (2 * c)) < 2:
                    continue
                want, _ = exact_rho_form(n, r, float(lam))
                err = abs(Fraction(charpoly_rho_form(n, r, float(lam))) - want)
                assert err <= Fraction(5e-12) * abs(want), (r, lam)

    @pytest.mark.parametrize("n,r", [(250, 1), (251, 3), (120, 1)])
    def test_extreme_roots_near_the_branch_point(self, n, r):
        # both extreme roots have |Z^2 - 4| < 0.02 here; the form stays
        # proportional to the root product right next to them
        roots = sector_roots(n, r)
        log_ratios = []
        for lam in (roots[0] - 1e-3, roots[0] + 1e-6, roots[-1] - 1e-6, roots[-1] + 1e-6):
            val = charpoly_rho_form(n, r, float(lam))
            assert math.isfinite(val)
            diffs = lam - roots
            sign = np.sign(val) * np.prod(np.sign(diffs))
            log_ratios.append((sign, math.log(abs(val)) - np.log(np.abs(diffs)).sum()))
        signs, logs = zip(*log_ratios)
        assert len(set(signs)) == 1
        assert max(logs) - min(logs) <= 1e-9

    def test_zero_is_sector_zero_root_by_polynomial_route(self):
        assert abs(np.polyval(charpoly_sector(7, 0), 0.0)) < 1e-9

    def test_complex_band_returns_real(self):
        # inside the oscillatory band Z^2 < 4 the arithmetic is real too
        n, r = 9, 1
        c = math.cos(math.pi * r / n)
        lam = 4 - 0.5 * (2 * c)  # Z = 0.5
        val = charpoly_rho_form(n, r, lam)
        assert isinstance(val, float)

    def test_half_turn_value(self):
        assert charpoly_rho_form(8, 4, 5.0) == (5 - 2) * (5 - 4) ** 3

    def test_half_turn_needs_no_solve(self, monkeypatch):
        # the diagonal values are known, so neither the secular solve nor
        # the band check runs, and the product is the one over sector_roots
        cases = [(n, lam) for n in range(4, 40, 2) for lam in sample_lambdas(9)]
        want = [math.prod(lam - v for v in sector_roots(n, n // 2).tolist())
                for n, lam in cases]

        def refuse(*args):
            raise AssertionError("the half turn needs no solve")
        monkeypatch.setattr(twotoken, "_solve_sectors", refuse)
        monkeypatch.setattr(twotoken, "_check_roots", refuse)
        assert [charpoly_rho_form(n, n // 2, float(lam)) for n, lam in cases] == want

    def test_nan_lambda_raises(self):
        # a domain error, raised before any arithmetic
        with pytest.raises(ParameterDomainError, match="lambda must be finite"):
            charpoly_rho_form(7, 1, math.nan)

    @pytest.mark.parametrize("n,r", [(205, 1), (250, 1), (250, 7), (301, 2), (1000, 1)])
    def test_large_n_proportional_to_root_product(self, n, r):
        # real arithmetic outside the band: no imaginary part leaks from a
        # power of a negative rho at Z < -2.  The root product passes the
        # float range at n = 1000, so the ratio is compared in logarithms.
        roots = sector_roots(n, r)
        log_ratios = []
        for lam in (-1.0, -0.5, 8.2, 8.5, 9.0, 12.0):
            val = charpoly_rho_form(n, r, lam)
            assert isinstance(val, float) and math.isfinite(val)
            diffs = lam - roots
            sign = np.sign(val) * np.prod(np.sign(diffs))
            log_ratios.append((sign, math.log(abs(val)) - np.log(np.abs(diffs)).sum()))
        signs, logs = zip(*log_ratios)
        assert len(set(signs)) == 1
        assert max(logs) - min(logs) <= 1e-9

    @pytest.mark.parametrize("n,r,lam", [(4, 1, 1e200), (4, 3, -1e300), (5, 1, 1e150),
                                         (5, 2, 1e150)])
    def test_no_step_value_that_fits(self, n, r, lam):
        # with m = 0 steps (n = 4, 5) the factor U_(-1) is 0, so the
        # product before it, which would overflow, must not be formed
        roots = sector_roots(n, r).tolist()
        val = charpoly_rho_form(n, r, lam)
        assert math.isfinite(val)
        ratio = val / math.prod(lam - v for v in roots)
        want = charpoly_rho_form(n, r, 10.0) / math.prod(10.0 - v for v in roots)
        assert abs(ratio - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("n,r,lam", [(2001, 1, -50.0), (1000, 3, -50.0), (300, 1, 1e10),
                                         (9, 1, 1e200), (1000, 500, 1e10), (4, 0, 1e200),
                                         (5, 1, 1e200)])
    def test_float_range_is_a_typed_error(self, n, r, lam):
        # an overflowing power, or a non-finite value, is reported once with
        # its point; no OverflowError and no numpy warning escapes
        with pytest.raises(NumericFailureError,
                           match=rf"^F_2\(C_{n}\) sector r={r} at lambda={re.escape(str(lam))}: "
                                 r"the closed form passes the float range$"):
            charpoly_rho_form(n, r, lam)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("closed_form", [
    lambda lam: contfrac_q1(lam, 9, 1),
    lambda lam: charpoly_rho_form(8, 4, lam),
    lambda lam: charpoly_rho_form(8, 1, lam),
], ids=["contfrac_q1", "rho_form_half_turn", "rho_form"])
def test_non_finite_lambda_is_a_domain_error(closed_form, lam):
    with pytest.raises(ParameterDomainError, match="lambda must be finite"):
        closed_form(lam)
