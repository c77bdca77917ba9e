from itertools import combinations
from math import comb, gcd

import numpy as np
import pytest

from tokenspectra import (NumericFailureError, ParameterDomainError,
                          build_token_graph, count_burnside, count_moreau,
                          count_polya, enumerate_orbits, period)
from tokenspectra.necklaces import (check_complement, check_mirror, euler_phi, moebius,
                                   periods_of, rotate)
from tokenspectra.tokengraph import k_subsets, subset_rank

# orbit counts for k = 2..7, n = 3..12 (blank cells omitted)
ORBIT_COUNT_TABLE = {
    2: {3: 1, 4: 2, 5: 2, 6: 3, 7: 3, 8: 4, 9: 4, 10: 5, 11: 5, 12: 6},
    3: {3: 1, 4: 1, 5: 2, 6: 4, 7: 5, 8: 7, 9: 10, 10: 12, 11: 15, 12: 19},
    4: {4: 1, 5: 1, 6: 3, 7: 5, 8: 10, 9: 14, 10: 22, 11: 30, 12: 43},
    5: {5: 1, 6: 1, 7: 3, 8: 7, 9: 14, 10: 26, 11: 42, 12: 66},
    6: {6: 1, 7: 1, 8: 4, 9: 10, 10: 22, 11: 42, 12: 80},
    7: {7: 1, 8: 1, 9: 4, 10: 12, 11: 30, 12: 66},
}

# counts of necklaces with 8 marked beads, n = 8..17
EIGHT_TOKEN_SEQUENCE = [1, 1, 5, 15, 43, 99, 217, 429, 810, 1430]


class TestPeriod:
    def test_alternating_6(self):
        assert period((0, 2, 4), 6) == 2

    def test_contiguous_6(self):
        assert period((0, 1, 2), 6) == 6

    def test_alternating_8(self):
        assert period((0, 2, 4, 6), 8) == 2

    def test_half_turn(self):
        assert period((0, 3), 6) == 3
        assert period((0, 1, 4, 5), 8) == 4

    def test_divides_n(self):
        for n in (6, 8, 9, 12):
            for k in range(1, n // 2 + 1):
                table = enumerate_orbits(n, k)
                assert all(n % p == 0 for p in table.periods)

    @pytest.mark.parametrize("n", [6, 9, 12])
    def test_vectorized_periods_match_period(self, n):
        # every subset, not only the orbit representatives
        for k in range(1, n // 2 + 1):
            subsets = k_subsets(n, k)
            assert periods_of(subsets, n).tolist() == [period(s, n) for s in subsets.tolist()]

    def test_rejects_bad_subset(self):
        with pytest.raises(ParameterDomainError):
            period((0, 0, 2), 6)
        with pytest.raises(ParameterDomainError):
            period((0, 7), 6)


class TestEnumerateOrbits:
    def test_7_3_five_representatives(self):
        assert enumerate_orbits(7, 3).count == 5

    def test_8_4_period_profile(self):
        table = enumerate_orbits(8, 4)
        assert table.count == 10
        profile = sorted(table.periods)
        assert profile == [2, 4] + [8] * 8

    def test_6_3_period_profile(self):
        table = enumerate_orbits(6, 3)
        assert table.count == 4
        assert sorted(table.periods) == [2, 6, 6, 6]

    def test_representatives_canonical_and_sorted(self):
        table = enumerate_orbits(9, 3)
        assert list(table.reps) == sorted(table.reps)
        for rep in table.reps:
            assert all(rotate(rep, j, 9) >= rep for j in range(9))

    @pytest.mark.parametrize("n,k", [(6, 3), (8, 4), (9, 3), (10, 4)])
    def test_lookup_round_trip_total(self, n, k):
        # every subset is rep + shift at its rank, with the smallest shift
        table = enumerate_orbits(n, k)
        subsets = list(combinations(range(n), k))
        assert len(table.orbit_of) == len(table.shift_of) == comb(n, k)
        assert subset_rank(subsets, n).tolist() == list(range(comb(n, k)))
        for subset, i, j in zip(subsets, table.orbit_of.tolist(),
                                table.shift_of.tolist()):
            assert rotate(table.reps[i], j, n) == subset
            assert 0 <= j < table.periods[i]

    @pytest.mark.parametrize("n,k", [(6, 3), (8, 4), (9, 3)])
    def test_orbit_arrays_follow_vertex_order(self, n, k):
        table = enumerate_orbits(n, k)
        graph = build_token_graph(n, k)
        at = subset_rank(graph.vertices, n)
        assert at.tolist() == list(range(graph.order))
        assert [rotate(table.reps[i], j, n) for i, j in
                zip(table.orbit_of[at].tolist(), table.shift_of[at].tolist())] == list(
            graph.vertices)

    def test_caches_are_bounded(self):
        for cached in (enumerate_orbits, build_token_graph):
            assert cached.cache_info().maxsize is not None

    def test_orbit_sizes_sum(self):
        for n in range(3, 13):
            for k in range(1, n // 2 + 1):
                assert sum(enumerate_orbits(n, k).periods) == comb(n, k)


class TestMirror:
    @pytest.mark.parametrize("n", range(3, 15))
    def test_reflection_invariants(self, n):
        for k in range(1, n // 2 + 1):
            table = enumerate_orbits(n, k)
            sigma, t = table.mirror_of, table.mirror_shift
            periods = np.array(table.periods)
            assert np.array_equal(sigma[sigma], np.arange(table.count)), (n, k)
            assert np.array_equal(periods[sigma], periods), (n, k)
            assert not np.any((t[sigma] - t) % periods), (n, k)
            for i, rep in enumerate(table.reps):
                reflected = tuple(sorted(-x % n for x in rep))
                assert rotate(table.reps[sigma[i]], t[i], n) == reflected

    def test_two_tokens_fix_every_orbit(self):
        # -{0, h} = {0, h} + (n - h), the data the two-token check assumes
        for n in range(4, 31):
            table = enumerate_orbits(n, 2)
            h = np.arange(1, n // 2 + 1)
            assert [rep for rep in table.reps] == [(0, x) for x in h.tolist()]
            assert np.array_equal(table.mirror_of, np.arange(len(h)))
            assert not np.any((table.mirror_shift - (n - h)) % np.array(table.periods))

    def test_mirror_arrays_read_only(self):
        table = enumerate_orbits(8, 4)
        with pytest.raises(ValueError):
            table.mirror_shift[0] = 1

    def test_check_mirror_rejects_broken_data(self):
        table = enumerate_orbits(8, 4)
        sigma, t = table.mirror_of.copy(), table.mirror_shift.copy()
        periods = np.array(table.periods)
        check_mirror(sigma, t, periods)
        not_involution = sigma.copy()
        not_involution[0] = 1  # orbit 1 reflects to orbit 3, not back to 0
        with pytest.raises(NumericFailureError, match="not an involution"):
            check_mirror(not_involution, t, periods)
        swapped = np.arange(len(sigma))
        long, short = 0, table.periods.tolist().index(2)
        swapped[[long, short]] = short, long
        with pytest.raises(NumericFailureError, match="preserve periods"):
            check_mirror(swapped, t, periods)
        pair = int(np.flatnonzero(sigma != np.arange(len(sigma)))[0])
        shifted = t.copy()
        shifted[pair] += 1
        with pytest.raises(NumericFailureError, match="modulo the orbit period"):
            check_mirror(sigma, shifted, periods)


class TestComplement:
    def test_only_at_half_density(self):
        for n in range(3, 17):
            for k in range(1, n // 2 + 1):
                table = enumerate_orbits(n, k)
                assert (table.complement_of is None) == (2 * k != n), (n, k)
                assert (table.complement_shift is None) == (2 * k != n), (n, k)

    @pytest.mark.parametrize("n", range(4, 17, 2))
    def test_complement_is_a_rotated_representative(self, n):
        table = enumerate_orbits(n, n // 2)
        c, tc = table.complement_of, table.complement_shift
        for i, rep in enumerate(table.reps):
            complement = tuple(sorted(set(range(n)) - set(rep)))
            assert rotate(table.reps[c[i]], tc[i], n) == complement, (n, i)
        check_complement(c, tc, np.array(table.periods), table.mirror_of)

    def test_complement_arrays_read_only(self):
        table = enumerate_orbits(8, 4)
        with pytest.raises(ValueError):
            table.complement_shift[0] = 1

    def test_check_complement_rejects_broken_data(self):
        table = enumerate_orbits(8, 4)
        c, tc = table.complement_of.copy(), table.complement_shift.copy()
        periods, sigma = np.array(table.periods), table.mirror_of
        check_complement(c, tc, periods, sigma)
        not_involution = c.copy()
        not_involution[0] = 1  # orbit 1 complements to orbit 3, not back to 0
        with pytest.raises(NumericFailureError, match="not an involution"):
            check_complement(not_involution, tc, periods, sigma)
        swapped = np.arange(len(c))
        long, short = 0, table.periods.tolist().index(4)
        swapped[[long, short]] = short, long
        with pytest.raises(NumericFailureError, match="preserve periods"):
            check_complement(swapped, tc, periods, sigma)
        # orbits 1 and 2 have period 8, and the reflection maps 1 to 3
        assert sigma[1] == 3 and sigma[2] == 2 and sigma[3] == 1
        crossed = np.arange(len(c))
        crossed[[1, 2]] = 2, 1
        with pytest.raises(NumericFailureError, match="commute with the reflection"):
            check_complement(crossed, tc, periods, sigma)
        shifted = tc.copy()
        shifted[0] += 1  # orbit 0 is its own complement
        with pytest.raises(NumericFailureError, match="modulo the orbit period"):
            check_complement(c, shifted, periods, sigma)


class TestCounts:
    def test_burnside_examples(self):
        assert count_burnside(8, 4) == 10
        assert count_burnside(12, 6) == 80
        for n in (3, 7, 20):
            assert count_burnside(n, 1) == 1

    def test_polya_examples(self):
        assert count_polya(10, 5) == 26
        assert count_polya(5, 2) == 2

    def test_eight_token_sequence(self):
        got = [count_polya(n, 8) for n in range(8, 18)]
        assert got == EIGHT_TOKEN_SEQUENCE

    def test_moreau_examples(self):
        assert count_moreau(8, 4) == 8
        assert count_moreau(7, 3) == 5
        assert count_moreau(4, 2) == 1

    def test_moreau_4_2_by_enumeration(self):
        table = enumerate_orbits(4, 2)
        assert sum(1 for p in table.periods if p == 4) == 1

    def test_table_of_counts(self):
        for k, row in ORBIT_COUNT_TABLE.items():
            for n, want in row.items():
                assert count_burnside(n, k) == want, (n, k)
                assert count_polya(n, k) == want, (n, k)

    def test_three_routes_agree_with_enumeration(self):
        for n in range(3, 15):
            for k in range(1, n // 2 + 1):
                table = enumerate_orbits(n, k)
                assert count_burnside(n, k) == count_polya(n, k) == table.count
                aperiodic = sum(1 for p in table.periods if p == n)
                assert count_moreau(n, k) == aperiodic

    def test_coprime_case_all_orbits_full(self):
        for n, k in [(7, 3), (9, 4), (11, 5), (10, 3)]:
            assert gcd(n, k) == 1
            table = enumerate_orbits(n, k)
            assert all(p == n for p in table.periods)
            assert table.count * n == comb(n, k)
            assert count_moreau(n, k) == table.count

    def test_domain_errors(self):
        with pytest.raises(ParameterDomainError):
            count_burnside(5, 6)
        with pytest.raises(ParameterDomainError):
            count_polya(5, 0)
        with pytest.raises(ParameterDomainError):
            count_moreau(0, 1)


class TestSectorOrder:
    def test_identity_rotation(self):
        from tokenspectra.necklaces import sector_order
        for n in (4, 7, 12):
            assert sector_order(n, 0) == 1

    def test_product_with_gcd_is_n(self):
        from tokenspectra.necklaces import sector_order
        for n in (6, 8, 9, 12, 30):
            for r in range(n):
                assert gcd(n, r) * sector_order(n, r) == n


class TestNumberTheoryHelpers:
    def test_euler_phi(self):
        values = [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
        assert [euler_phi(m) for m in range(1, 13)] == values

    def test_moebius(self):
        values = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
        assert [moebius(m) for m in range(1, 13)] == values

    def test_phi_divisor_sum(self):
        for n in (12, 30, 97):
            assert sum(euler_phi(d) for d in range(1, n + 1) if n % d == 0) == n
