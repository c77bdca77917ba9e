"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria carry both
a tolerance and a runtime budget; both are asserted.  Shared spectra are
computed once per session through the conftest caches.
"""
import time
from math import comb

import numpy as np
import pytest
from conftest import (cached_brute, cached_contfrac, cached_overlift, expand_lift,
                      largest_shift_spectrum)
from numpy.testing import assert_allclose

from tokenspectra import (build_poly_matrix, build_token_graph, charpoly_sector,
                          count_burnside, count_polya, enumerate_orbits,
                          kept_eigenpairs, laplacian,
                          lift_eigenvector, multiset_contains, multisets_close)
from tokenspectra.report import max_multiset_deviation
from tokenspectra.tokengraph import algebraic_connectivity

# published orbit-count table, rows k = 2..7, columns n = 3..12
ORBIT_COUNT_TABLE = {
    2: {3: 1, 4: 2, 5: 2, 6: 3, 7: 3, 8: 4, 9: 4, 10: 5, 11: 5, 12: 6},
    3: {3: 1, 4: 1, 5: 2, 6: 4, 7: 5, 8: 7, 9: 10, 10: 12, 11: 15, 12: 19},
    4: {4: 1, 5: 1, 6: 3, 7: 5, 8: 10, 9: 14, 10: 22, 11: 30, 12: 43},
    5: {5: 1, 6: 1, 7: 3, 8: 7, 9: 14, 10: 26, 11: 42, 12: 66},
    6: {6: 1, 7: 1, 8: 4, 9: 10, 10: 22, 11: 42, 12: 80},
    7: {7: 1, 8: 1, 9: 4, 10: 12, 11: 30, 12: 66},
}

TABLE_7_3 = {
    0: [0, 2.0, 5.0, 5.0, 6.0],
    1: [0.7530, 2.91929, 3.9363, 5.7238, 7.1125],
    2: [1.1633, 2.4450, 3.8385, 5.1446, 9.2103],
    3: [1.2696, 1.9019, 3.8019, 4.7411, 7.0383],
}

TABLE_2TOKEN_7 = {
    0: [0, 2.0, 6.0],
    1: [0.7530, 3.9363, 7.1125],
    2: [1.1633, 2.4450, 5.1446],
    3: [1.9019, 3.8019, 4.7411],
}
# kept values only; sectors 1 and 3 additionally discard one 4
TABLE_2TOKEN_8 = {
    0: [0, 1.5060, 4.8900, 7.60387],
    1: [0.5857, 3.1259, 6.2882],
    2: [0.9486, 2.0, 4.5173, 6.5340],
    3: [1.7117, 3.4142, 4.8740],
    4: [2.0, 4.0, 4.0, 4.0],
}

ENUMERATION_CAP = 10_000  # largest C(n, k) enumerated inside criterion 1

ALL_PAIRS = [(n, k) for n in range(3, 13) for k in range(1, n // 2 + 1)]


def _elapsed_since(t0):
    return time.perf_counter() - t0


def _report(num, budget, elapsed, detail):
    print(f"PASS criterion {num}: {detail} ({elapsed:.2f}s < {budget:.0f}s)")


def test_criterion_1_orbit_counts():
    t0 = time.perf_counter()
    for k, row in ORBIT_COUNT_TABLE.items():
        for n, want in row.items():
            assert count_burnside(n, k) == want, (n, k)
            assert count_polya(n, k) == want, (n, k)
    enumerated_cells = 0
    for n in range(3, 31):
        for k in range(1, n // 2 + 1):
            b = count_burnside(n, k)
            assert b == count_polya(n, k), (n, k)
            if comb(n, k) <= ENUMERATION_CAP:
                assert enumerate_orbits(n, k).count == b, (n, k)
                enumerated_cells += 1
    elapsed = _elapsed_since(t0)
    assert elapsed < 1.0
    _report(1, 1, elapsed,
            f"orbit table exact; routes agree for n<=30 "
            f"(enumeration on {enumerated_cells} cells with C(n,k)<={ENUMERATION_CAP})")


def test_criterion_2_7_3_table_with_zero_discards():
    t0 = time.perf_counter()
    report = cached_overlift(7, 3)
    assert len(report.kept) == 35
    assert report.kept_mask.all()
    for r, want in TABLE_7_3.items():
        got = report.values[report.sectors == r]
        assert multisets_close(got, want, 1e-3), r
        mirrored = report.values[report.sectors == (7 - r) % 7]
        assert multisets_close(mirrored, want, 1e-3), r
    for v in (0.7530, 3.9363, 7.1125):
        assert np.any(np.abs(report.values[report.sectors == 1] - v) < 1e-3)
    elapsed = _elapsed_since(t0)
    assert elapsed < 1.0
    _report(2, 1, elapsed, "F_3(C_7) sector table reproduced, no discards")


def test_criterion_3_discard_audit():
    t0 = time.perf_counter()
    r63 = cached_overlift(6, 3)
    assert len(r63.kept) == 20
    dropped = ~r63.kept_mask
    assert np.count_nonzero(dropped) == 4
    assert np.all(np.abs(r63.values[dropped] - 6.0) < 1e-6)
    assert sorted(r63.sectors[dropped].tolist()) == [1, 2, 4, 5]
    r84 = cached_overlift(8, 4)
    assert len(r84.kept) == 70
    dropped = r84.values[~r84.kept_mask]
    assert np.count_nonzero(np.abs(dropped - 8.0) < 1e-6) == 6
    assert np.count_nonzero(np.abs(dropped - 4.0) < 1e-6) == 4
    assert len(dropped) == 10
    elapsed = _elapsed_since(t0)
    assert elapsed < 2.0
    _report(3, 2, elapsed,
            "F_3(C_6) drops four 6s; F_4(C_8) drops six 8s and four 4s")


def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for n, k in ALL_PAIRS:
        lifted = cached_overlift(n, k)
        brute = cached_brute(n, k)
        assert multisets_close(lifted.kept, brute.kept, 1e-8), (n, k)
        worst = max(worst, max_multiset_deviation(lifted.kept, brute.kept))
    elapsed = _elapsed_since(t0)
    assert elapsed < 60.0
    _report(4, 60, elapsed,
            f"overlift = brute for {len(ALL_PAIRS)} pairs up to n=12 "
            f"(worst deviation {worst:.2e})")


def test_criterion_5_two_token_tables_and_sweep():
    t0 = time.perf_counter()
    rep7 = cached_contfrac(7)
    for r, want in TABLE_2TOKEN_7.items():
        got = rep7.values[rep7.kept_mask & (rep7.sectors == r)]
        assert multisets_close(got, want, 1e-3), r
    rep8 = cached_contfrac(8)
    for r, want in TABLE_2TOKEN_8.items():
        got = rep8.values[rep8.kept_mask & (rep8.sectors == r)]
        assert multisets_close(got, want, 1e-3), r
    starred = ~rep8.kept_mask & (np.abs(rep8.values - 4.0) < 1e-6)
    assert np.count_nonzero(starred) == 4
    assert sorted(rep8.sectors[starred].tolist()) == [1, 3, 5, 7]
    for n in range(4, 41):
        assert multisets_close(cached_contfrac(n).kept,
                               cached_brute(n, 2).kept, 1e-8), n
    elapsed = _elapsed_since(t0)
    assert elapsed < 10.0
    _report(5, 10, elapsed,
            "two-token tables reproduced; matches brute for n = 4..40")


def test_criterion_6_characteristic_polynomials():
    t0 = time.perf_counter()
    sqrt5 = np.sqrt(5.0)
    assert_allclose(charpoly_sector(5, 0), [1, -4, 0], atol=1e-9)
    assert_allclose(charpoly_sector(5, 1),
                    [1, -sqrt5 / 2 - 13 / 2, 15 / 2 + sqrt5 / 2], atol=1e-9)
    assert_allclose(charpoly_sector(5, 2),
                    [1, sqrt5 / 2 - 13 / 2, 15 / 2 - sqrt5 / 2], atol=1e-9)
    # quartic for n=9, r=1: coefficients verified against the independent
    # dense characteristic polynomial of the sector matrix (two published
    # digits fail that check; see the repository notes)
    got9 = charpoly_sector(9, 1)
    from tokenspectra.twotoken import build_b2
    assert_allclose(got9, np.poly(build_b2(9, 1)).real, atol=1e-9)
    assert_allclose(got9, [1, -15.8794, 80.1976, -136.2222, 47.7602], atol=5e-3)
    assert_allclose(got9, [1, -15.88, 80.19, -136.2, 47.79], atol=5e-2)
    assert abs(np.sort(np.roots(got9))[0] - 0.4679) < 1e-3
    got8 = charpoly_sector(8, 1)
    assert_allclose(got8, [1, -10, 25.17, -11.51], atol=5e-3)
    assert abs(np.sort(np.roots(got8))[0] - 0.5857) < 1e-3
    elapsed = _elapsed_since(t0)
    assert elapsed < 1.0
    _report(6, 1, elapsed, "sector polynomials match (exact for n=5)")


def test_criterion_7_property_suite():
    t0 = time.perf_counter()
    # shift-choice invariance of the kept multiset
    for n, k in ALL_PAIRS:
        alt = largest_shift_spectrum(n, k)
        assert multisets_close(alt.kept, cached_overlift(n, k).kept, 1e-8), (n, k)
    # sector conjugacy of raw specialized spectra and of kept values
    for n, k in ALL_PAIRS:
        matrix = build_poly_matrix(n, k)
        report = cached_overlift(n, k)
        for r in range(1, (n + 1) // 2):
            a = np.sort(np.linalg.eigvals(matrix.specialize(r)).real)
            b = np.sort(np.linalg.eigvals(matrix.specialize(n - r)).real)
            assert_allclose(a, b, atol=1e-8)
            ka = report.values[report.kept_mask & (report.sectors == r)]
            kb = report.values[report.kept_mask & (report.sectors == n - r)]
            assert multisets_close(ka, kb, 1e-8), (n, k, r)
    # discard counts
    for n, k in ALL_PAIRS:
        report = cached_overlift(n, k)
        nu = enumerate_orbits(n, k).count
        assert np.count_nonzero(~report.kept_mask) == n * nu - comb(n, k), (n, k)
    # every kept eigenpair lifts with a small residual
    lifts = 0
    for n, k in ALL_PAIRS:
        orbits = enumerate_orbits(n, k)
        graph = build_token_graph(n, k)
        lap = laplacian(graph)
        for pair in kept_eigenpairs(n, k):
            lifted = lift_eigenvector(pair, orbits, graph, lap)
            assert lifted.residual < 1e-8, (n, k, pair.value)
            lifts += 1
    # algebraic connectivity equal across k; spectral containment
    for n in range(3, 13):
        reports = [cached_brute(n, k) for k in range(1, n // 2 + 1)]
        conns = [algebraic_connectivity(rep) for rep in reports]
        assert max(conns) - min(conns) <= 1e-8, n
        for sub, sup in zip(reports, reports[1:]):
            assert multiset_contains(sup.kept, sub.kept, 1e-8), n
    elapsed = _elapsed_since(t0)
    assert elapsed < 120.0
    _report(7, 120, elapsed,
            f"shift invariance, conjugacy, discard counts, {lifts} lifted "
            f"eigenvectors, connectivity and containment")


def test_criterion_8_expand_lift_oracle():
    t0 = time.perf_counter()
    matrix = build_poly_matrix(7, 3)
    big = expand_lift(matrix)
    assert big.shape == (35, 35)
    spec = np.sort(np.linalg.eigvalsh(big))
    union = np.sort(np.concatenate(
        [np.linalg.eigvals(matrix.specialize(r)).real for r in range(7)]))
    assert_allclose(spec, union, atol=1e-8)
    elapsed = _elapsed_since(t0)
    assert elapsed < 1.0
    _report(8, 1, elapsed,
            "35 lift eigenvalues equal the union over sectors")
