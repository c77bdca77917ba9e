import cmath
import math
import tracemalloc
from dataclasses import replace
from math import comb

import numpy as np
import pytest
from conftest import (RealBasis, assert_kept_then_discarded, cached_brute, cached_overlift,
                      expand_lift, kept_first_ties, parse_laurent, reference_sector,
                      reflection_basis, rotate, shown_sectors)
from numpy.testing import assert_allclose

from tokenspectra import cli, polymatrix
from tokenspectra import (CountMismatchError, EigenPair, LaurentMatrix, NumericFailureError,
                          ParameterDomainError, PhaseConsistencyError,
                          build_poly_matrix,
                          build_token_graph, enumerate_orbits, filter_spurious,
                          full_spectrum, kept_eigenpairs, laplacian,
                          lift_eigenvector, multisets_close, sector_eigenpairs)
from tokenspectra.polymatrix import (COLUMN_CHUNK, _sector_solutions, blocked_mask,
                                     solve_sector)
from tokenspectra.tokengraph import subset_rank
from tokenspectra.tolerances import quotient_tol

# published orbit matrix of the 3-token graph of the 6-cycle, under the
# canonical representatives 012, 013, 014, 024 (rows in that order)
MATRIX_6_3 = [
    ["2", "-1", "-z", "0"],
    ["-1", "4", "-1-z^2", "-z"],
    ["-z^-1", "-1-z^-2", "4", "-1"],
    ["0", "-z-z^3-z^5", "-1-z^2-z^4", "6"],
]

# published orbit matrix of the 4-token graph of the 8-cycle; canonical
# representatives 0123, 0124, 0125, 0126, 0134, 0135, 0136, 0145, 0146, 0246
MATRIX_8_4 = [
    ["2", "-1", "0", "-z", "0", "0", "0", "0", "0", "0"],
    ["-1", "4", "-1", "0", "-1", "0", "-z", "0", "0", "0"],
    ["0", "-1", "4", "-1", "0", "-1", "0", "0", "-z", "0"],
    ["-z^-1", "0", "-1", "4", "-z^-2", "0", "-1", "0", "0", "0"],
    ["0", "-1", "0", "-z^2", "4", "-1", "0", "0", "-z^3", "0"],
    ["0", "0", "-1", "0", "-1", "6", "-1-z^2", "-1", "0", "-z"],
    ["0", "-z^-1", "0", "-1", "0", "-1-z^-2", "6", "0", "-z^2-1", "0"],
    ["0", "0", "0", "0", "0", "-z^4-1", "0", "4", "-z^4-1", "0"],
    ["0", "0", "-z^-1", "0", "-z^-3", "0", "-1-z^-2", "-1", "6", "-1"],
    ["0", "0", "0", "0", "0", "-z^-1-z^-3-z^3-z", "0", "0", "-1-z^2-z^4-z^-2", "8"],
]

# per-sector eigenvalue tables (values as published, 4 digit precision)
SECTORS_7_3 = {
    0: [0, 2.0, 5.0, 5.0, 6.0],
    1: [0.7530, 2.91929, 3.9363, 5.7238, 7.1125],
    2: [1.1633, 2.4450, 3.8385, 5.1446, 9.2103],
    3: [1.2696, 1.9019, 3.8019, 4.7411, 7.0383],
}
SECTORS_6_3 = {
    0: [0, 2.7639, 6.0, 7.2361],
    1: [1.0, 4.0, 5.0, 6.0],
    2: [1.4384, 3.0, 5.5616, 6.0],
    3: [1.3944, 2.0, 4.0, 8.6056],
}
SECTORS_8_4 = {
    0: [0, 1.506, 3.246, 4, 4, 4.890, 5.452, 6, 7.604, 11.30],
    1: [0.586, 2.215, 3.126, 4, 4.586, 5.025, 5.257, 6.288, 8, 8.917],
    # the published cell 7.230 breaks the trace identity (each row must
    # sum to the diagonal total 48); the verified value is 7.2361
    2: [0.949, 2, 2.764, 3.097, 4.5173, 5.194, 6.534, 7.2361, 7.709, 8],
    3: [1.108, 1.712, 3.414, 3.469, 4, 4.874, 5.718, 7.414, 8, 8.290],
    # likewise 1.330 and 9.34 are misprints for 1.3399 and 9.3993
    4: [1.079, 1.3399, 2.0, 4, 4, 4, 5.522, 6.403, 9.3993, 10.257],
}
SECTORS_8_4_PUBLISHED_R4 = [1.079, 1.330, 2.0, 4, 4, 4, 5.522, 6.403, 9.34, 10.257]


def parse_matrix(rows, n):
    return [[parse_laurent(cell, n) for cell in row] for row in rows]


class TestBuildPolyMatrix:
    def test_6_3_entry_for_entry(self):
        m = build_poly_matrix(6, 3)
        want = parse_matrix(MATRIX_6_3, 6)
        for i in range(4):
            for j in range(4):
                assert m.entries[i][j] == want[i][j], (i, j)

    def test_8_4_entry_for_entry(self):
        m = build_poly_matrix(8, 4)
        want = parse_matrix(MATRIX_8_4, 8)
        for i in range(10):
            for j in range(10):
                assert m.entries[i][j] == want[i][j], (i, j)

    def test_7_3_degrees_and_self_orbit_diagonal(self):
        m = build_poly_matrix(7, 3)
        orbits = enumerate_orbits(7, 3)
        g = build_token_graph(7, 3)
        degrees = sorted(m.entries[i][i][0] for i in range(5))
        assert degrees == [2, 4, 4, 4, 6]
        # the degree-6 representative is adjacent to rotations of itself
        i = orbits.reps.index((0, 2, 4))
        assert m.entries[i][i] == parse_laurent("6-z^2-z^-2", 7)
        for j, rep in enumerate(orbits.reps):
            assert m.entries[j][j][0] == g.degree(subset_rank(rep, 7))

    def test_off_diagonal_coefficients_negative(self):
        m = build_poly_matrix(8, 4)
        for i in range(m.order):
            for j in range(m.order):
                for e, c in m.entries[i][j].items():
                    if i == j and e == 0:
                        assert c > 0
                    else:
                        assert c == -1

    def test_specialize_at_one_zero_row_sums(self):
        for n, k in [(6, 3), (7, 3), (8, 4), (9, 2)]:
            b = build_poly_matrix(n, k).specialize(0)
            assert_allclose(b.sum(axis=1), 0, atol=1e-12)

    def test_all_ones_kernel_at_sector_zero(self):
        b = build_poly_matrix(8, 4).specialize(0)
        assert_allclose(b @ np.ones(10), 0, atol=1e-12)

    def test_shift_choice_changes_entries_not_spectrum(self):
        small = build_poly_matrix(6, 3, shift="smallest")
        large = build_poly_matrix(6, 3, shift="largest")
        assert small.entries != large.entries
        from tokenspectra import full_spectrum
        a = full_spectrum(6, 3, shift="smallest")
        b = full_spectrum(6, 3, shift="largest")
        assert multisets_close(a.kept, b.kept, 1e-8)

    def test_bad_shift_choice(self):
        with pytest.raises(ParameterDomainError):
            build_poly_matrix(6, 3, shift="median")


class TestSectorEigenpairs:
    def test_7_3_sector_0(self):
        m = build_poly_matrix(7, 3)
        vals = [p.value for p in sector_eigenpairs(m, 0)]
        assert_allclose(vals, SECTORS_7_3[0], atol=1e-3)

    def test_6_3_sector_3(self):
        m = build_poly_matrix(6, 3)
        vals = [p.value for p in sector_eigenpairs(m, 3)]
        assert_allclose(vals, SECTORS_6_3[3], atol=1e-3)

    def test_8_4_sector_4(self):
        m = build_poly_matrix(8, 4)
        vals = [p.value for p in sector_eigenpairs(m, 4)]
        assert_allclose(vals, SECTORS_8_4[4], atol=5e-3)
        assert abs(sum(vals) - 48.0) < 1e-9  # trace of the sector matrix
        assert_allclose(vals, SECTORS_8_4_PUBLISHED_R4, atol=0.06)

    @pytest.mark.parametrize("nk,table", [((7, 3), SECTORS_7_3),
                                          ((6, 3), SECTORS_6_3),
                                          ((8, 4), SECTORS_8_4)])
    def test_published_sector_tables(self, nk, table):
        n, k = nk
        m = build_poly_matrix(n, k)
        for r, want in table.items():
            vals = [p.value for p in sector_eigenpairs(m, r)]
            assert_allclose(vals, want, atol=5e-3)
            mirrored = [p.value for p in sector_eigenpairs(m, (n - r) % n)]
            assert_allclose(mirrored, want, atol=5e-3)

    def test_residuals_small_and_sorted(self):
        m = build_poly_matrix(8, 4)
        for r in range(8):
            pairs = sector_eigenpairs(m, r)
            assert all(p.residual < 1e-8 for p in pairs)
            vals = [p.value for p in pairs]
            assert vals == sorted(vals)


class TestFilterSpurious:
    def test_6_3_sector_1_drops_six(self):
        orbits = enumerate_orbits(6, 3)
        m = build_poly_matrix(6, 3)
        verdicts = filter_spurious(sector_eigenpairs(m, 1), orbits, 1)
        six = [v for v in verdicts if abs(v.value - 6) < 1e-6]
        assert len(six) == 1 and six[0].kept == 0 and six[0].total == 1
        kept_total = sum(v.kept for v in verdicts)
        assert kept_total == 3

    def test_6_3_sector_1_six_vector_loaded_on_short_orbit(self):
        # the 6-eigenvector has a nonzero component on the period-2 orbit
        orbits = enumerate_orbits(6, 3)
        m = build_poly_matrix(6, 3)
        pairs = sector_eigenpairs(m, 1)
        six = next(p for p in pairs if abs(p.value - 6) < 1e-6)
        short = orbits.reps.index((0, 2, 4))
        assert abs(six.vector[short]) > 0.1
        assert np.flatnonzero(blocked_mask(np.asarray(orbits.periods), 6, 1)).tolist() == [short]

    def test_6_3_sector_0_keeps_six(self):
        orbits = enumerate_orbits(6, 3)
        m = build_poly_matrix(6, 3)
        verdicts = filter_spurious(sector_eigenpairs(m, 0), orbits, 0)
        six = next(v for v in verdicts if abs(v.value - 6) < 1e-6)
        assert six.kept == 1
        # its kept eigenvector vanishes on the short orbit
        short = orbits.reps.index((0, 2, 4))
        assert abs(six.vectors[short, 0]) < 1e-10

    def test_coprime_case_keeps_everything(self):
        orbits = enumerate_orbits(7, 3)
        m = build_poly_matrix(7, 3)
        for r in range(7):
            assert np.flatnonzero(blocked_mask(np.asarray(orbits.periods), 7, r)).tolist() == []
            verdicts = filter_spurious(sector_eigenpairs(m, r), orbits, r)
            assert all(v.kept == v.total for v in verdicts)


class TestFullSpectrum:
    def test_6_3_audit(self):
        report = cached_overlift(6, 3)
        assert len(report.kept) == 20
        dropped = ~report.kept_mask
        assert np.count_nonzero(dropped) == 4
        assert np.all(np.abs(report.values[dropped] - 6) < 1e-6)
        assert sorted(report.sectors[dropped].tolist()) == [1, 2, 4, 5]
        # each sector keeps one value per orbit it does not block
        periods = np.array(enumerate_orbits(6, 3).periods)
        assert np.bincount(report.sectors[report.kept_mask]).tolist() == [
            np.count_nonzero(~blocked_mask(periods, 6, r)) for r in range(6)]

    def test_a_lost_kept_value_raises(self, monkeypatch):
        sols = _sector_solutions(8, 3, vectors=False)
        sols[2] = replace(sols[2], kept=sols[2].kept[1:], residuals=sols[2].residuals[1:])
        monkeypatch.setattr(polymatrix, "_sector_solutions", lambda *_, **__: sols)
        with pytest.raises(CountMismatchError,
                           match=r"kept 55 eigenvalues for F_3\(C_8\), expected C\(8, 3\) = 56"):
            full_spectrum(8, 3)

    def test_8_4_audit(self):
        report = cached_overlift(8, 4)
        assert len(report.kept) == 70
        dropped = ~report.kept_mask
        eights = dropped & (np.abs(report.values - 8) < 1e-6)
        fours = dropped & (np.abs(report.values - 4) < 1e-6)
        assert np.count_nonzero(eights) == 6 and np.count_nonzero(fours) == 4
        assert np.count_nonzero(dropped) == 10
        assert sorted(report.sectors[fours].tolist()) == [1, 3, 5, 7]

    def test_7_3_no_discards(self):
        report = cached_overlift(7, 3)
        assert len(report.kept) == 35
        assert report.kept_mask.all()

    @pytest.mark.parametrize("n", range(3, 10))
    def test_oracle_equivalence_small(self, n):
        for k in range(1, n // 2 + 1):
            lifted = cached_overlift(n, k)
            brute = cached_brute(n, k)
            assert multisets_close(lifted.kept, brute.kept, 1e-8), (n, k)

    def test_discard_count_identity(self):
        for n, k in [(6, 3), (8, 4), (10, 2), (12, 4), (9, 3)]:
            report = cached_overlift(n, k)
            nu = enumerate_orbits(n, k).count
            assert len(report.values) == n * nu
            assert np.count_nonzero(~report.kept_mask) == n * nu - comb(n, k)

    def test_sector_conjugacy_of_kept_values(self):
        for n, k in [(6, 3), (8, 4), (9, 3)]:
            report = cached_overlift(n, k)
            for r in range(1, n):
                a = report.values[report.kept_mask & (report.sectors == r)]
                b = report.values[report.kept_mask & (report.sectors == n - r)]
                assert multisets_close(a, b, 1e-8)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_sector_trail_is_kept_block_then_discarded_block(self, n):
        for k in range(1, n // 2 + 1):
            assert_kept_then_discarded(cached_overlift(n, k))

    # every case with n <= 16 where a kept and a discarded value of one
    # sector tie below 1e-9 (lambda = 4 in sector n/2, n = 2 mod 4); the
    # library lists them in blocks, and every CLI format shows kept first
    @pytest.mark.parametrize("shift", ["smallest", "largest"])
    @pytest.mark.parametrize("n,k", [(6, 2), (10, 2), (10, 4), (14, 2), (14, 4), (14, 6)])
    def test_kept_values_precede_tied_discarded_ones(self, n, k, shift, monkeypatch,
                                                      capsys):
        report = full_spectrum(n, k, shift)
        assert_kept_then_discarded(report)
        monkeypatch.setattr(cli, "overlift_spectrum", lambda *_: report)
        for flags, audit in ((("--format", "csv"), False), (("--audit",), True)):
            assert cli.main(["spectrum", "--n", str(n), "--k", str(k), *flags]) == 0
            ties = sum(kept_first_ties(values, kept) for values, kept in
                       shown_sectors(capsys.readouterr().out, audit))
            assert ties > 0

    @pytest.mark.parametrize("n,k", [(6, 3), (8, 4), (9, 3), (12, 6)])
    def test_conjugate_sector_entries_identical(self, n, k):
        report = cached_overlift(n, k)
        for r in range(1, n):
            a, b = report.sectors == r, report.sectors == n - r
            assert report.values[a].tolist() == report.values[b].tolist()
            assert report.kept_mask[a].tolist() == report.kept_mask[b].tolist()


def _blocked_mask(orbits, r):
    return blocked_mask(np.asarray(orbits.periods), orbits.n, r)


def _reference_basis(b, orbits, r):
    """(b, basis) as ``reference_sector`` reduces them.

    A real b is reduced as a real array, every unblocked orbit fixed with
    phase 1; any other b in the reflection basis.
    """
    periods = np.asarray(orbits.periods)
    blocked = _blocked_mask(orbits, r)
    if b.imag.any():
        return b, reflection_basis(orbits.mirror_of, orbits.mirror_shift, periods,
                                   blocked, r, orbits.n)
    keep = np.flatnonzero(~blocked)
    return b.real.copy(), RealBasis(keep, np.ones(len(keep)), len(keep), periods, blocked)


def _traced_peak(vectors):
    # the traced peak of one solve at (16, 8), r = 1, in units of b.nbytes
    orbits = enumerate_orbits(16, 8)
    b = build_poly_matrix(16, 8).specialize(1)
    tracemalloc.start()
    try:
        solve_sector(b, orbits, 1, vectors=vectors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / b.nbytes


class TestSolveSector:
    @pytest.mark.parametrize("n", range(3, 15))
    def test_matches_eig_and_filter_route(self, n):
        # kept and discarded multisets of every sector against the
        # paper's construction: general eig, then the rank filter
        for k in range(1, n // 2 + 1):
            orbits = enumerate_orbits(n, k)
            for shift in ("smallest", "largest"):
                m = build_poly_matrix(n, k, shift=shift)
                for r in range(n):
                    sol = solve_sector(m.specialize(r), orbits, r, vectors=False)
                    verdicts = filter_spurious(sector_eigenpairs(m, r), orbits, r)
                    kept = [v.value for v in verdicts for _ in range(v.kept)]
                    dropped = [v.value for v in verdicts for _ in range(v.discarded)]
                    assert multisets_close(sol.kept, kept, 1e-8), (n, k, shift, r)
                    assert multisets_close(sol.discarded, dropped, 1e-8), (n, k, shift, r)

    @pytest.mark.parametrize("shape", [(5, 5), (7, 6), (10, 10)])
    def test_matrix_of_another_shape_raises(self, shape):
        orbits = enumerate_orbits(8, 3)
        b = np.zeros(shape, dtype=complex)
        with pytest.raises(ParameterDomainError,
                           match=rf"sector matrix of shape \({shape[0]}, {shape[1]}\) "
                                 r"for the 7 orbits of F_3\(C_8\)"):
            solve_sector(b, orbits, 1)

    def test_blocked_coupling_raises(self):
        orbits = enumerate_orbits(6, 3)
        b = build_poly_matrix(6, 3).specialize(1)
        short = orbits.reps.index((0, 2, 4))
        b[short, 0] += 1e-6
        with pytest.raises(NumericFailureError,
                           match=r"F_3\(C_6\) sector r=1: blocked orbit coupling"):
            solve_sector(b, orbits, 1)

    def test_non_hermitian_quotient_raises(self):
        orbits = enumerate_orbits(8, 4)
        b = build_poly_matrix(8, 4).specialize(3)
        b[0, 1] += 1e-6
        with pytest.raises(NumericFailureError,
                           match=r"F_4\(C_8\) sector r=3: skew .* exceeds tol"):
            solve_sector(b, orbits, 3)

    def test_residual_failure_names_its_context(self, monkeypatch):
        orbits = enumerate_orbits(6, 3)
        b = build_poly_matrix(6, 3).specialize(1)
        eigh = np.linalg.eigh

        def shifted_eigh(h):
            vals, vecs = eigh(h)
            return vals + 1e-6, vecs

        monkeypatch.setattr(np.linalg, "eigh", shifted_eigh)
        with pytest.raises(NumericFailureError,
                           match=r"F_3\(C_6\) sector r=1: kept vector residual "
                                 r"\d\.\d{3}e-0[67] exceeds tol 1\.000e-08"):
            solve_sector(b, orbits, 1)

    def test_imaginary_discarded_value_raises(self):
        orbits = enumerate_orbits(6, 3)
        b = build_poly_matrix(6, 3).specialize(1)
        short = orbits.reps.index((0, 2, 4))
        b[short, short] += 1e-3j
        with pytest.raises(NumericFailureError,
                           match=r"sector r=1: discarded value imaginary part 1\.000e-03"):
            solve_sector(b, orbits, 1)

    @pytest.mark.parametrize("n,k", [(6, 3), (8, 4), (9, 3), (12, 6)])
    def test_kept_vectors_vanish_on_blocked_orbits(self, n, k):
        orbits = enumerate_orbits(n, k)
        m = build_poly_matrix(n, k)
        for r in range(n):
            sol = solve_sector(m.specialize(r), orbits, r)
            assert np.all(sol.vectors[_blocked_mask(orbits, r)] == 0)
            assert_allclose(np.linalg.norm(sol.vectors, axis=0), 1.0, atol=1e-12)
            assert np.all(sol.residuals < 1e-8)
            assert list(sol.kept) == sorted(sol.kept)
            assert list(sol.discarded) == sorted(sol.discarded)
            assert len(sol.kept) + len(sol.discarded) == orbits.count

    def test_vectors_not_kept_on_request(self):
        orbits = enumerate_orbits(8, 4)
        b = build_poly_matrix(8, 4).specialize(2)
        assert solve_sector(b, orbits, 2, vectors=False).vectors is None

    @pytest.mark.parametrize("n,k", [(6, 3), (8, 4), (9, 3), (12, 6)])
    def test_residuals_are_those_of_the_returned_vectors(self, n, k):
        # one product against b itself, blocked rows included
        orbits = enumerate_orbits(n, k)
        m = build_poly_matrix(n, k)
        for r in range(n):
            b, _ = _reference_basis(m.specialize(r), orbits, r)
            sol = solve_sector(b, orbits, r)
            want = np.max(np.abs(b @ sol.vectors - sol.vectors * sol.kept), axis=0)
            assert np.array_equal(sol.residuals, want), (n, k, r)

    def test_residuals_across_a_column_chunk_boundary(self):
        # 429 kept columns at (15, 7), r = 1: two chunks of COLUMN_CHUNK
        orbits = enumerate_orbits(15, 7)
        b = build_poly_matrix(15, 7).specialize(1)
        sol = solve_sector(b, orbits, 1)
        assert len(sol.kept) > COLUMN_CHUNK
        want = np.max(np.abs(b @ sol.vectors - sol.vectors * sol.kept), axis=0)
        assert_allclose(sol.residuals, want, rtol=0, atol=1e-15)
        bare = solve_sector(b, orbits, 1, vectors=False)
        assert np.array_equal(bare.kept, sol.kept)
        assert np.array_equal(bare.residuals, sol.residuals)

    @pytest.mark.parametrize("n", range(3, 15))
    def test_matches_the_dense_reference(self, n):
        # the symmetry blocks give the values of one dense real form
        for k in range(1, n // 2 + 1):
            orbits = enumerate_orbits(n, k)
            for shift in ("smallest", "largest"):
                m = build_poly_matrix(n, k, shift=shift)
                for r in range(n):
                    b = m.specialize(r)
                    sol = solve_sector(b, orbits, r, vectors=False)
                    kept, discarded = reference_sector(b, orbits, r)
                    assert len(sol.kept) == len(kept), (n, k, shift, r)
                    assert len(sol.discarded) == len(discarded), (n, k, shift, r)
                    assert_allclose(sol.kept, kept, rtol=0, atol=1e-12)
                    assert_allclose(sol.discarded, discarded, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n,k,r,blocks", [
        (14, 7, 1, (127, 118)), (14, 7, 0, (48, 85, 70, 43)),
        (15, 7, 0, (232, 197)), (15, 7, 1, (429,)), (12, 6, 1, (40, 35))])
    def test_symmetry_blocks(self, n, k, r, blocks):
        # the complement splits k = n/2; the parity splits r = 0 and n/2
        orbits = enumerate_orbits(n, k)
        sol = solve_sector(build_poly_matrix(n, k).specialize(r), orbits, r,
                           vectors=False)
        assert sol.blocks == blocks
        assert sum(blocks) == len(sol.kept)

    def test_conjugate_sectors_share_blocks(self):
        sols = _sector_solutions(8, 4, vectors=False)
        for r in range(1, 8):
            assert sols[r].blocks == sols[8 - r].blocks

    def test_complement_breaking_perturbation_raises(self):
        # orbits 0 and 2 of (8, 4) are fixed by the reflection, and the
        # complement maps 2 onto 4: a symmetric b[0, 2] couples two blocks
        orbits = enumerate_orbits(8, 4)
        assert orbits.mirror_of[2] == 2 and orbits.complement_of[2] == 4
        b = build_poly_matrix(8, 4).specialize(0)
        b[0, 2] += 1e-6
        b[2, 0] += 1e-6
        with pytest.raises(NumericFailureError,
                           match=r"F_4\(C_8\) sector r=0: coupling between symmetry blocks"):
            solve_sector(b, orbits, 0)

    @pytest.mark.parametrize("r,quantity", [
        (1, "complement square"), (2, "complement square"),
        (4, "coupling between symmetry blocks")])
    def test_corrupted_complement_shift_raises(self, r, quantity):
        # orbit 0 is its own complement; one more step breaks C^2 = I in
        # sectors 1 and 2, and at r = 4 flips the sign C takes on e_0
        orbits = enumerate_orbits(8, 4)
        shift = orbits.complement_shift.copy()
        shift[0] += 1
        broken = replace(orbits, complement_shift=shift)
        b = build_poly_matrix(8, 4).specialize(r)
        solve_sector(b, orbits, r)
        with pytest.raises(NumericFailureError, match=rf"sector r={r}: {quantity}"):
            solve_sector(b, broken, r)

    def test_complement_piece_sign_raises(self):
        # the complement fixes the orbit of 012459 and its mirror image
        # 0125910; half a period more on one shift flips C on one of them
        # only, so C no longer commutes with the reflection there
        orbits = enumerate_orbits(12, 6)
        i = orbits.reps.index((0, 1, 2, 4, 5, 9))
        j = orbits.mirror_of[i]
        assert j != i and orbits.complement_of[i] == i and orbits.complement_of[j] == j
        shift = orbits.complement_shift.copy()
        shift[i] += orbits.periods[i] // 2
        broken = replace(orbits, complement_shift=shift)
        b = build_poly_matrix(12, 6).specialize(1)
        with pytest.raises(NumericFailureError,
                           match=r"sector r=1: complement piece eigenvalues max\|C q - \(\+-q\)\|"):
            solve_sector(b, broken, 1)

    def test_peak_memory_of_a_complex_sector(self):
        # S is assembled from the cells of b, and v and b v are built one
        # column chunk at a time: the peak stays below two copies of b
        peak = _traced_peak(vectors=False)
        assert peak < 2.0, peak

    def test_peak_memory_with_the_kept_vectors(self):
        # the returned vectors add about one copy of b; no full b v is held
        peak = _traced_peak(vectors=True)
        assert peak < 2.32, peak


class TestReflectionBasis:
    @pytest.mark.parametrize("n", range(3, 15))
    def test_real_form_of_every_sector(self, n):
        # S = V^* H V, H = D^(1/2) b D^(-1/2) on the unblocked orbits, is
        # real within tol, and ``vectors`` gives D^(-1/2) V, column scaled
        for k in range(1, n // 2 + 1):
            orbits = enumerate_orbits(n, k)
            periods = np.asarray(orbits.periods)
            for shift in ("smallest", "largest"):
                m = build_poly_matrix(n, k, shift=shift)
                for r in range(n):
                    b, basis = _reference_basis(m.specialize(r), orbits, r)
                    blocked = _blocked_mask(orbits, r)
                    keep = np.flatnonzero(~blocked)
                    root = np.sqrt(periods[keep])
                    h = b[np.ix_(keep, keep)] * root[:, None] / root
                    tol = quotient_tol(np.abs(b).max())
                    s = basis.reduce(b, "test")
                    v = basis.vectors(np.eye(len(keep)))
                    assert not v[blocked].any()
                    v = v[keep] * root[:, None]
                    v /= np.linalg.norm(v, axis=0)
                    assert_allclose(v.conj().T @ v, np.eye(len(keep)), rtol=0, atol=1e-13)
                    full = v.conj().T @ h @ v
                    assert np.max(np.abs(full.imag)) <= tol, (n, k, shift, r)
                    assert_allclose(s, full.real, rtol=0, atol=1e-12)
                    assert_allclose(s, s.T, rtol=0, atol=tol)

    def test_order_is_fixed_points_then_pairs(self):
        orbits = enumerate_orbits(8, 4)
        periods = np.asarray(orbits.periods)
        blocked = blocked_mask(periods, 8, 3)
        basis = reflection_basis(orbits.mirror_of, orbits.mirror_shift, periods,
                                 blocked, 3, 8)
        sigma = orbits.mirror_of
        f = basis.fixed
        m = (len(basis.order) - f) // 2
        assert sorted(basis.order.tolist()) == np.flatnonzero(~blocked).tolist()
        assert np.all(sigma[basis.order[:f]] == basis.order[:f])
        assert np.array_equal(sigma[basis.order[f:f + m]], basis.order[f + m:])
        assert_allclose(basis.phase[f:f + m], basis.phase[f + m:], rtol=0, atol=0)

    @pytest.mark.parametrize("r", [0, 4])
    def test_skew_of_a_real_sector_raises(self, r):
        # a real b skips the phases and pairs, not the skew check
        orbits = enumerate_orbits(8, 4)
        b = build_poly_matrix(8, 4).specialize(r)
        b[0, 1] += 1e-6
        with pytest.raises(NumericFailureError,
                           match=rf"^F_4\(C_8\) sector r={r}: skew max\|H - H\^\*\| "):
            solve_sector(b, orbits, r)

    def test_reflection_breaking_perturbation_raises(self):
        # a Hermitian perturbation that the reflection does not map to
        # itself keeps H Hermitian but makes its real form complex
        orbits = enumerate_orbits(8, 4)
        b = build_poly_matrix(8, 4).specialize(3)
        assert orbits.mirror_of[0] == 0 and orbits.mirror_of[1] == 3
        b[0, 1] += 1e-6j
        b[1, 0] -= 1e-6j
        with pytest.raises(NumericFailureError,
                           match=r"F_4\(C_8\) sector r=3: real form imaginary part "
                                 r"max\|Im S\| \d\.\d{3}e-0[67] exceeds tol 9\.000e-08"):
            solve_sector(b, orbits, 3)

    def test_corrupted_mirror_shift_raises(self):
        orbits = enumerate_orbits(9, 3)
        fixed = int(np.flatnonzero(orbits.mirror_of == np.arange(orbits.count))[0])
        shift = orbits.mirror_shift.copy()
        shift[fixed] += 1
        broken = replace(orbits, mirror_shift=shift)
        b = build_poly_matrix(9, 3).specialize(2)
        solve_sector(b, orbits, 2)
        with pytest.raises(NumericFailureError,
                           match=r"F_3\(C_9\) sector r=2: real form imaginary part"):
            solve_sector(b, broken, 2)

    def test_real_sectors_use_the_reflection_parity(self):
        # r = 0 and r = n/2 are real and split by the parity of the linear
        # reflection; shifting every mirror shift by one flips the sign
        # of the reflection at r = n/2, which only swaps its two parities
        orbits = enumerate_orbits(8, 4)
        m = build_poly_matrix(8, 4)
        broken = replace(orbits, mirror_shift=orbits.mirror_shift + 1)
        for r in (0, 4):
            b = m.specialize(r)
            assert not b.imag.any()
            sol = solve_sector(b, broken, r)
            assert np.isrealobj(sol.kept) and np.isrealobj(sol.vectors)
            assert len(sol.blocks) > 1
            assert_allclose(sol.kept, solve_sector(b, orbits, r).kept, rtol=0, atol=0)


class TestKeptEigenpairs:
    @pytest.mark.parametrize("n,k", [(6, 3), (8, 4), (9, 3)])
    def test_conjugate_sector_vectors(self, n, k):
        m = build_poly_matrix(n, k)
        by_sector = {}
        for pair in kept_eigenpairs(n, k):
            by_sector.setdefault(pair.sector, []).append(pair)
        assert sorted(by_sector) == list(range(n))
        for r in range(1, n):
            b = m.specialize(n - r)
            assert len(by_sector[r]) == len(by_sector[n - r])
            for p, q in zip(by_sector[r], by_sector[n - r]):
                assert q.value == p.value
                assert np.array_equal(q.vector, p.vector.conj())
                assert np.max(np.abs(b @ q.vector - q.value * q.vector)) < 1e-8
                assert q.residual < 1e-8


class TestLiftEigenvector:
    def test_constant_kernel_vector(self):
        orbits = enumerate_orbits(6, 3)
        nu = orbits.count
        pair = EigenPair(0.0, 0, np.ones(nu) / math.sqrt(nu), 0.0)
        lifted = lift_eigenvector(pair, orbits)
        assert lifted.residual < 1e-12
        assert np.ptp(lifted.values.real) < 1e-12

    def test_published_six_eigenvector(self):
        # quotient vector (0, -1, 1, 0) for eigenvalue 6 in sector 0
        orbits = enumerate_orbits(6, 3)
        f = np.array([0.0, -1.0, 1.0, 0.0]) / math.sqrt(2)
        lifted = lift_eigenvector(EigenPair(6.0, 0, f, 0.0), orbits)
        assert lifted.residual < 1e-8

    def test_two_token_smallest_sector_1(self):
        orbits = enumerate_orbits(7, 2)
        m = build_poly_matrix(7, 2)
        pairs = sector_eigenpairs(m, 1)
        assert abs(pairs[0].value - 0.7530) < 1e-3
        lifted = lift_eigenvector(pairs[0], orbits)
        assert lifted.residual < 1e-8

    def test_phase_consistency_guard(self):
        # a vector loaded on the short orbit in a blocked sector must raise
        orbits = enumerate_orbits(6, 3)
        short = orbits.reps.index((0, 2, 4))
        f = np.zeros(4)
        f[short] = 1.0
        with pytest.raises(PhaseConsistencyError):
            lift_eigenvector(EigenPair(6.0, 1, f, 0.0), orbits)

    def test_matches_configuration_walk(self):
        # reference: the configuration X = rep_i + j gets f_i * w^(r*j)
        n, k = 8, 4
        orbits = enumerate_orbits(n, k)
        g = build_token_graph(n, k)
        lap = laplacian(g)
        for pair in kept_eigenpairs(n, k):
            want = np.zeros(g.order, dtype=complex)
            for i, (rep, p) in enumerate(zip(orbits.reps, orbits.periods)):
                for j in range(p):
                    want[subset_rank(rotate(rep, j, n), n)] = pair.vector[i] * cmath.exp(
                        2j * math.pi * ((pair.sector * j) % n) / n)
            got = lift_eigenvector(pair, orbits, g, lap).values
            assert_allclose(got, want, rtol=0, atol=1e-13)

    def test_all_kept_pairs_lift_small(self):
        for n, k in [(6, 3), (7, 2), (8, 4)]:
            orbits = enumerate_orbits(n, k)
            g = build_token_graph(n, k)
            lap = laplacian(g)
            for pair in kept_eigenpairs(n, k):
                lifted = lift_eigenvector(pair, orbits, g, lap)
                assert lifted.residual < 1e-8


    # odd n, short orbits and k = n/2
    @pytest.mark.parametrize("n,k", [(8, 4), (9, 3), (10, 5), (12, 6)])
    def test_sparse_residual_matches_dense_laplacian(self, n, k):
        orbits = enumerate_orbits(n, k)
        g = build_token_graph(n, k)
        lap = laplacian(g)
        for pair in kept_eigenpairs(n, k):
            lifted = lift_eigenvector(pair, orbits, g)
            dense = np.max(np.abs(lap @ lifted.values - pair.value * lifted.values))
            assert abs(lifted.residual - dense) <= 1e-12

    def test_wrong_eigenvalue_raises(self):
        orbits = enumerate_orbits(8, 4)
        pair = kept_eigenpairs(8, 4)[5]
        with pytest.raises(NumericFailureError, match="lifted vector residual"):
            lift_eigenvector(replace(pair, value=pair.value + 1e-3), orbits)

    def test_vector_of_another_orbit_table_raises(self):
        orbits = enumerate_orbits(12, 6)
        pair = kept_eigenpairs(12, 5)[0]
        with pytest.raises(ParameterDomainError, match=r"vector of length 66 for the 80 orbits"):
            lift_eigenvector(pair, orbits)

    @pytest.mark.parametrize("sector", [-1, 12])
    def test_sector_outside_the_cycle_raises(self, sector):
        orbits = enumerate_orbits(12, 5)
        pair = replace(kept_eigenpairs(12, 5)[0], sector=sector)
        with pytest.raises(ParameterDomainError,
                           match=rf"sector r={sector} must lie in \[0, 12\)"):
            lift_eigenvector(pair, orbits)

    def test_graph_of_another_token_count_raises(self):
        orbits = enumerate_orbits(12, 5)
        pair = kept_eigenpairs(12, 5)[0]
        with pytest.raises(ParameterDomainError,
                           match=r"token graph F_6\(C_12\) for the orbits of F_5\(C_12\)"):
            lift_eigenvector(pair, orbits, build_token_graph(12, 6))

    def test_nan_vector_or_value_raises(self):
        orbits = enumerate_orbits(8, 3)
        pair = kept_eigenpairs(8, 3)[5]
        vector = pair.vector.copy()
        vector[np.argmax(np.abs(vector))] = np.nan
        for bad in (replace(pair, vector=vector), replace(pair, value=np.nan)):
            with pytest.raises(NumericFailureError, match="lifted vector residual nan"):
                lift_eigenvector(bad, orbits)


class TestExpandLift:
    def test_7_3_lift_oracle(self):
        m = build_poly_matrix(7, 3)
        big = expand_lift(m)
        assert big.shape == (35, 35)
        assert_allclose(big, big.T)
        spec = np.sort(np.linalg.eigvalsh(big))
        union = np.sort(np.concatenate(
            [np.linalg.eigvals(m.specialize(r)).real for r in range(7)]))
        assert_allclose(spec, union, atol=1e-8)
        assert multisets_close(spec, cached_brute(7, 3).kept, 1e-8)

    def test_7_2_lift_matches_brute(self):
        m = build_poly_matrix(7, 2)
        spec = np.linalg.eigvalsh(expand_lift(m))
        assert multisets_close(spec, cached_brute(7, 2).kept, 1e-8)

    def test_loop_base_gives_cycle(self):
        base = LaurentMatrix(4, 1, [0, 0, 0], [0, 0, 0], [0, 1, 3], [2, -1, -1])
        assert base.entries == ((parse_laurent("2-z-z^3", 4),),)
        spec = np.sort(np.linalg.eigvalsh(expand_lift(base)))
        assert_allclose(spec, [0, 2, 2, 4], atol=1e-12)

    def test_matches_entrywise_expansion(self):
        # reference: entry (i, j) term c z^e puts c at (i*n + g, j*n + g + e)
        for n, k in [(7, 2), (7, 3), (5, 2)]:
            m = build_poly_matrix(n, k)
            want = np.zeros((m.order * n, m.order * n))
            for i, row in enumerate(m.entries):
                for j, p in enumerate(row):
                    for e, c in p.items():
                        for g in range(n):
                            want[i * n + g, j * n + (g + e) % n] += c
            assert np.array_equal(expand_lift(m), want)

    def test_rejects_short_orbit_base(self):
        with pytest.raises(ParameterDomainError):
            expand_lift(build_poly_matrix(6, 3))
        with pytest.raises(ParameterDomainError):
            expand_lift(build_poly_matrix(8, 4))


class TestShiftInvariance:
    @pytest.mark.parametrize("n,k", [(6, 3), (8, 4), (10, 4), (12, 6)])
    def test_largest_shift_same_kept_multiset(self, n, k):
        from tokenspectra import full_spectrum
        alt = full_spectrum(n, k, shift="largest")
        assert multisets_close(alt.kept, cached_overlift(n, k).kept, 1e-8)
