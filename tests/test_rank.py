"""The lexicographic rank against dict-based references.

``reference_orbits`` is the plain filter enumeration with a dict from
every k-subset to (orbit, shift), periods from ``conftest.period``; ``reference_terms`` and
``reference_edges`` locate each move of the set-based reference rule
``conftest.token_neighbors`` through such dicts.  The library derives
the same data from its array move rule ``token_moves`` and
``subset_rank`` alone.
"""
from itertools import combinations
from math import comb

import numpy as np
import pytest
from conftest import edge_pairs, period, rotate, token_neighbors

from tokenspectra import (NumericFailureError, build_poly_matrix,
                          build_token_graph, enumerate_orbits, necklaces)
from tokenspectra.tokengraph import subset_rank

SMALL_PAIRS = [(n, k) for n in range(3, 15) for k in range(1, n // 2 + 1)]


def reference_orbits(n, k):
    """(reps, periods, lookup) by filter enumeration over all subsets."""
    reps, periods, lookup = [], [], {}
    for s in combinations(range(n), k):
        if s not in lookup:
            p = period(s, n)
            for j in range(p):
                lookup[rotate(s, j, n)] = (len(reps), j)
            reps.append(s)
            periods.append(p)
    return reps, periods, lookup


def reference_terms(n, k, shift):
    """Sorted (row, col, exp, coeff) rows of B(z), one neighbour at a time."""
    reps, periods, lookup = reference_orbits(n, k)
    cells = {}
    for i, rep in enumerate(reps):
        nbs = token_neighbors(rep, n)
        cells[i, i, 0] = cells.get((i, i, 0), 0) + len(nbs)
        for nb in nbs:
            j, s = lookup[nb]
            if shift == "largest":
                s = (s + n - periods[j]) % n
            cells[i, j, s] = cells.get((i, j, s), 0) - 1
    return sorted((*key, c) for key, c in cells.items() if c)


def reference_edges(n, k):
    vertices = list(combinations(range(n), k))
    index = {v: i for i, v in enumerate(vertices)}
    return [(i, index[nb]) for i, v in enumerate(vertices)
            for nb in token_neighbors(v, n)]


class TestSubsetRank:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_position_in_combinations(self, n):
        for k in range(1, n + 1):
            subsets = list(combinations(range(n), k))
            assert subset_rank(subsets, n).tolist() == list(range(len(subsets)))

    def test_ends_of_18_9(self):
        first, last = tuple(range(9)), tuple(range(9, 18))
        assert subset_rank([first, last], 18).tolist() == [0, comb(18, 9) - 1]

    def test_one_row_and_stacked_rows(self):
        assert subset_rank((0, 2, 4), 6) == 5
        stacked = np.array([[[0, 1, 2], [3, 4, 5]], [[0, 2, 4], [1, 3, 5]]])
        assert subset_rank(stacked, 6).tolist() == [[0, 19], [5, 14]]


class TestAgainstDictReference:
    @pytest.mark.parametrize("n,k", SMALL_PAIRS)
    def test_orbit_table(self, n, k):
        reps, periods, lookup = reference_orbits(n, k)
        table = enumerate_orbits(n, k)
        assert list(table.reps) == reps
        assert list(table.periods) == periods
        located = [lookup[s] for s in combinations(range(n), k)]
        assert list(zip(table.orbit_of.tolist(), table.shift_of.tolist())) == located
        mirrored = [lookup[tuple(sorted(-x % n for x in rep))] for rep in reps]
        assert list(zip(table.mirror_of.tolist(),
                        table.mirror_shift.tolist())) == mirrored

    @pytest.mark.parametrize("n,k", SMALL_PAIRS)
    def test_matrix_terms(self, n, k):
        for shift in ("smallest", "largest"):
            terms = build_poly_matrix(n, k, shift=shift).terms.tolist()
            assert terms == [list(t) for t in reference_terms(n, k, shift)], shift

    @pytest.mark.parametrize("n,k", SMALL_PAIRS)
    def test_edges(self, n, k):
        graph = build_token_graph(n, k)
        assert edge_pairs(graph) == reference_edges(n, k)
        assert graph.degrees.tolist() == [
            len(token_neighbors(v, n)) for v in graph.vertices]


def test_orbit_sizes_checked_against_period(monkeypatch):
    # periods come from the smallest fixing rotation, not from the orbit
    # sizes, so a wrong period is caught by comparing it with them
    enumerate_orbits.cache_clear()
    monkeypatch.setattr(necklaces, "periods_of", lambda subsets, n: np.full(len(subsets), n))
    try:
        with pytest.raises(NumericFailureError, match="orbit sizes"):
            enumerate_orbits(6, 3)  # orbit (0, 2, 4) has period 2
        enumerate_orbits(7, 3)  # every orbit is full: n is right
    finally:
        enumerate_orbits.cache_clear()
