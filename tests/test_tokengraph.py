import ast
import math
import re
from dataclasses import replace
from math import comb
from pathlib import Path

import numpy as np
import pytest
from conftest import cached_brute, edge_pairs, reference_brute, token_neighbors
from numpy.testing import assert_allclose

from tokenspectra import (NumericFailureError, ParameterDomainError, SizeLimitError,
                          brute_spectrum, build_poly_matrix, build_token_graph,
                          charpoly_rho_form, charpoly_sector, contfrac_q1, count_burnside,
                          enumerate_orbits, full_spectrum, kept_eigenpairs, laplacian,
                          lift_eigenvector, multiset_contains, sector_roots, spectrum_2token,
                          tokengraph)
from tokenspectra.polymatrix import solve_sector
from tokenspectra.tokengraph import (DENSE_SPECTRUM_CAP, algebraic_connectivity, involutions,
                                     k_subsets, subset_rank, symmetry_blocks)


PAIRS_TO_16 = [(n, k) for n in range(3, 17) for k in range(1, n // 2 + 1)]
PAIRS_TO_CAP = [(n, k) for n, k in PAIRS_TO_16 if n <= 14 and comb(n, k) <= DENSE_SPECTRUM_CAP]


def cycle_laplacian_spectrum(n):
    """Independent closed form: 4 sin^2(pi r / n) for r = 0..n-1."""
    return sorted(4 * math.sin(math.pi * r / n) ** 2 for r in range(n))


class TestBuildTokenGraph:
    def test_vertex_count_7_2(self):
        assert build_token_graph(7, 2).order == 21

    def test_degree_of_contiguous_block_6_3(self):
        g = build_token_graph(6, 3)
        assert g.degree(subset_rank((0, 1, 2), 6)) == 2

    def test_8_4_order_and_alternating_degree(self):
        g = build_token_graph(8, 4)
        assert g.order == 70
        assert g.degree(subset_rank((0, 2, 4, 6), 8)) == 8

    @pytest.mark.parametrize("n,k", [(3, 2), (5, 3), (6, 4), (4, 0), (6, -1)])
    def test_rejects_bad_token_count(self, n, k):
        with pytest.raises(ParameterDomainError):
            build_token_graph(n, k)

    def test_rejects_short_cycle(self):
        with pytest.raises(ParameterDomainError):
            build_token_graph(2, 1)

    def test_vertices_lexicographic(self):
        g = build_token_graph(6, 2)
        assert list(g.vertices) == sorted(g.vertices)

    @pytest.mark.parametrize("n,k", PAIRS_TO_16)
    def test_adjacency_symmetric_loop_free(self, n, k):
        pairs = edge_pairs(build_token_graph(n, k))
        assert all(i != j for i, j in pairs)
        assert len(set(pairs)) == len(pairs)
        assert set(pairs) == {(j, i) for i, j in pairs}

    @pytest.mark.parametrize("n,k", PAIRS_TO_16)
    def test_degree_is_twice_the_block_count(self, n, k):
        # oracle-free past the set-based reference: each maximal run of
        # cyclically consecutive tokens moves its first token down and its
        # last token up, and nothing else moves
        v = np.array(build_token_graph(n, k).vertices)
        blocks = np.count_nonzero((np.roll(v, -1, axis=1) - v) % n != 1, axis=1)
        assert build_token_graph(n, k).degrees.tolist() == (2 * blocks).tolist()

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(3, 13) for k in range(1, n // 2 + 1)])
    def test_slot_table_invariants(self, n, k):
        # slot 2i + way of vertex x: token i of x moved up (way 0) or down
        # (way 1), or the sentinel C(n, k) when that cycle vertex is taken
        g = build_token_graph(n, k)
        m = g.order
        assert g.moves.shape == (2 * k, m)
        assert not g.moves.flags.writeable and not g.degrees.flags.writeable
        for x, v in enumerate(g.vertices):
            for slot in range(2 * k):
                token, way = divmod(slot, 2)
                to = (v[token] + (1, -1)[way]) % n
                if to in v:
                    assert g.moves[slot, x] == m, (x, slot)
                else:
                    moved = tuple(sorted(set(v) - {v[token]} | {to}))
                    assert g.vertices[g.moves[slot, x]] == moved, (x, slot)
        assert np.array_equal(g.degrees, np.count_nonzero(g.moves < m, axis=0))
        assert g.degrees.min() >= 1
        pairs = edge_pairs(g)
        assert set(pairs) == {(j, i) for i, j in pairs}
        index = {v: i for i, v in enumerate(g.vertices)}
        want = np.zeros((m, m))
        for i, v in enumerate(g.vertices):
            for nb in token_neighbors(v, n):
                want[i, index[nb]] = -1.0
                want[i, i] += 1.0
        assert np.array_equal(laplacian(g), want)

    @pytest.mark.parametrize("n,k", [(6, 2), (7, 3), (8, 4), (9, 2)])
    def test_adjacent_iff_symmetric_difference_is_cycle_edge(self, n, k):
        g = build_token_graph(n, k)
        for i, j in edge_pairs(g):
            diff = sorted(set(g.vertices[i]) ^ set(g.vertices[j]))
            assert len(diff) == 2
            x, y = diff
            assert (y - x) % n in (1, n - 1)

    def test_vertex_counts_match_binomials(self):
        for n in range(3, 13):
            for k in range(1, n // 2 + 1):
                assert build_token_graph(n, k).order == comb(n, k)

    def test_degree_counts_token_moves(self):
        g = build_token_graph(8, 3)
        for i, v in enumerate(g.vertices):
            assert g.degree(i) == len(token_neighbors(v, 8))


class TestLaplacian:
    def test_one_token_is_cycle_laplacian(self):
        n = 7
        lap = laplacian(build_token_graph(n, 1))
        expected = np.zeros((n, n))
        for i in range(n):
            expected[i, i] = 2
            expected[i, (i + 1) % n] = -1
            expected[i, (i - 1) % n] = -1
        assert_allclose(lap, expected)

    def test_6_3_contiguous_row(self):
        g = build_token_graph(6, 3)
        lap = laplacian(g)
        i = subset_rank((0, 1, 2), 6)
        row = lap[i]
        assert row[i] == 2
        assert sorted(row) == [-1, -1] + [0] * (g.order - 3) + [2]

    def test_4_2_zero_row_sums(self):
        lap = laplacian(build_token_graph(4, 2))
        assert lap.shape == (6, 6)
        assert_allclose(lap.sum(axis=1), 0, atol=1e-12)

    def test_edge_arrays_follow_adjacency(self):
        g = build_token_graph(8, 3)
        assert edge_pairs(g) == [
            (i, j) for i, v in enumerate(g.vertices)
            for j in subset_rank(token_neighbors(v, 8), 8).tolist()]
        assert g.degrees.tolist() == [g.degree(i) for i in range(g.order)]

    def test_symmetric_psd(self):
        lap = laplacian(build_token_graph(7, 3))
        assert_allclose(lap, lap.T)
        assert np.linalg.eigvalsh(lap).min() > -1e-9


class TestBruteSpectrum:
    def test_one_token_closed_form(self):
        for n in (3, 5, 8, 11):
            assert_allclose(cached_brute(n, 1).kept,
                            cycle_laplacian_spectrum(n), atol=1e-9)

    def test_smallest_eigenvalue_zero(self):
        assert abs(cached_brute(8, 3).kept[0]) < 1e-9

    def test_6_3_contains_six_exactly_once(self):
        vals = cached_brute(6, 3).kept
        assert sum(1 for v in vals if abs(v - 6) < 1e-6) == 1

    def test_5_2_algebraic_connectivity(self):
        conn = algebraic_connectivity(cached_brute(5, 2))
        assert abs(conn - (5 - math.sqrt(5)) / 2) < 1e-9

    def test_algebraic_connectivity_needs_a_nonzero_value(self):
        report = replace(cached_brute(5, 2), values=np.zeros(10))
        with pytest.raises(ParameterDomainError, match="no nonzero eigenvalue"):
            algebraic_connectivity(report)

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            cached_brute(25, 5)

    def test_degree_sum_is_twice_edges(self):
        g = build_token_graph(9, 3)
        degsum = np.count_nonzero(g.moves < g.order)
        assert degsum % 2 == 0
        # trace of the Laplacian equals the degree sum
        assert_allclose(np.trace(laplacian(g)), degsum)

    def test_containment_and_connectivity_small(self):
        # deeper sweep lives in the acceptance suite
        for n in (6, 7, 8, 9):
            reports = [cached_brute(n, k) for k in range(1, n // 2 + 1)]
            for sub, sup in zip(reports, reports[1:]):
                assert multiset_contains(sup.kept, sub.kept, 1e-8)
            conns = [algebraic_connectivity(rep) for rep in reports]
            assert max(conns) - min(conns) < 1e-8


class TestSymmetryBlocks:
    @pytest.mark.parametrize("n,k", PAIRS_TO_CAP)
    def test_matches_the_unsplit_reference(self, n, k):
        assert_allclose(cached_brute(n, k).kept, reference_brute(n, k), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n,k", PAIRS_TO_16)
    def test_block_sizes_add_up_to_the_vertex_count(self, n, k):
        g = build_token_graph(n, k)
        sizes = [len(block) for block in symmetry_blocks(g, involutions(k_subsets(n, k), n))]
        assert sum(sizes) == comb(n, k)
        assert len(sizes) == (4 if 2 * k == n else 2)

    @pytest.mark.parametrize("n,k", [(7, 3), (8, 4), (10, 5)])
    def test_involutions_row_by_row(self, n, k):
        # each image built with set arithmetic on one row at a time
        rows = k_subsets(n, k)
        rank = {tuple(x): i for i, x in enumerate(rows.tolist())}
        want = [[rank[tuple(sorted(-v % n for v in x))] for x in rows.tolist()]]
        if 2 * k == n:
            want.append([rank[tuple(sorted(set(range(n)) - set(x)))] for x in rows.tolist()])
        assert [g.tolist() for g in involutions(rows, n)] == want
        reps = np.array(enumerate_orbits(n, k).reps)
        assert [g.tolist() for g in involutions(reps, n)] == [
            [w[rank[tuple(x)]] for x in reps.tolist()] for w in want]

    def test_rejects_a_generator_that_is_not_an_involution(self):
        g = build_token_graph(6, 2)
        with pytest.raises(NumericFailureError,
                           match=r"F_2\(C_6\): symmetry 0 is not an involution"):
            symmetry_blocks(g, [np.roll(np.arange(g.order), 1)])

    def test_rejects_a_swap_of_two_degrees(self):
        g = build_token_graph(6, 2)
        x, y = int(np.argmin(g.degrees)), int(np.argmax(g.degrees))
        assert g.degrees[x] != g.degrees[y]
        swap = np.arange(g.order)
        swap[[x, y]] = y, x
        with pytest.raises(NumericFailureError,
                           match=r"F_2\(C_6\): symmetry 0 is not an automorphism"):
            symmetry_blocks(g, [swap])

    def test_rejects_generators_that_do_not_commute(self):
        # X -> -X and X -> 1 - X are automorphisms whose product is a rotation by 1
        n, k = 7, 3
        g, subsets = build_token_graph(n, k), k_subsets(n, k)
        gens = [subset_rank(np.sort((s - subsets) % n, axis=1), n) for s in (0, 1)]
        with pytest.raises(NumericFailureError,
                           match=r"F_3\(C_7\): symmetries 0 and 1 do not commute"):
            symmetry_blocks(g, gens)

    def test_imports_no_rotation_module(self):
        tree = ast.parse(Path(tokengraph.__file__).read_text())
        relative = {node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level}
        assert relative == {"errors", "report", "tolerances"}
        assert not relative & {"necklaces", "polymatrix", "laurent", "twotoken"}


# every public routine that takes a sector index of F_3(C_8) or F_2(C_8)
SECTOR_CALLS = {
    "specialize": lambda r: build_poly_matrix(8, 3).specialize(r),
    "solve_sector": lambda r: solve_sector(build_poly_matrix(8, 3).specialize(1),
                                           enumerate_orbits(8, 3), r),
    "lift_eigenvector": lambda r: lift_eigenvector(replace(kept_eigenpairs(8, 3)[0], sector=r),
                                                   enumerate_orbits(8, 3)),
    "sector_roots": lambda r: sector_roots(8, r),
    "charpoly_sector": lambda r: charpoly_sector(8, r),
    "contfrac_q1": lambda r: contfrac_q1(1.0, 8, r),
    "charpoly_rho_form": lambda r: charpoly_rho_form(8, r, 1.0),
}


@pytest.mark.parametrize("r", [-1, 8])
@pytest.mark.parametrize("call", sorted(SECTOR_CALLS))
def test_sector_outside_the_cycle_raises(call, r):
    with pytest.raises(ParameterDomainError, match=rf"sector r={r} must lie in \[0, 8\)"):
        SECTOR_CALLS[call](r)


# sizes that are not integers, each named in the error; the cached
# (6, 3) tables must not let 6.0 past the check
NOT_INTEGERS = [
    (sector_roots, (7, 1.0), "r=1.0"),
    (spectrum_2token, (4.0,), "n=4.0"),
    (full_spectrum, (6.0, 3), "n=6.0"),
    (count_burnside, (6, 3.0), "k=3.0"),
    (brute_spectrum, (5, True), "k=True"),
    (build_token_graph, ("6", 3), "n='6'"),
    (enumerate_orbits, (6, np.True_), "k=np.True_"),
]


@pytest.mark.parametrize("call,args,named", NOT_INTEGERS,
                         ids=[f"{call.__name__}{args}" for call, args, _ in NOT_INTEGERS])
def test_non_integer_sizes_raise_the_typed_error(call, args, named):
    full_spectrum(6, 3)
    with pytest.raises(ParameterDomainError, match=rf"^{re.escape(named)} must be an integer$"):
        call(*args)


def test_numpy_integer_sizes_pass():
    n, k = np.int64(6), np.int32(3)
    assert np.array_equal(full_spectrum(n, k).kept, full_spectrum(6, 3).kept)
    assert np.array_equal(brute_spectrum(n, k).kept, brute_spectrum(6, 3).kept)
    assert count_burnside(n, k) == count_burnside(6, 3)
    assert np.array_equal(sector_roots(np.uint8(7), np.uint8(1)), sector_roots(7, 1))
    assert np.array_equal(spectrum_2token(np.uint8(9)).values, spectrum_2token(9).values)
    assert np.array_equal(charpoly_sector(np.uint8(9), np.uint8(2)), charpoly_sector(9, 2))
