from dataclasses import replace

import numpy as np
import pytest
from conftest import cached_brute, cached_contfrac, cached_overlift

from tokenspectra import (CountMismatchError, ParameterDomainError, SpectrumReport,
                          multiset_contains, multisets_close)
from tokenspectra.report import max_multiset_deviation


def loop_multisets_close(a, b, tol):
    """The Python loop these comparisons replaced, as the reference."""
    a, b = sorted(a), sorted(b)
    if len(a) != len(b):
        return False
    return all(abs(x - y) <= tol for x, y in zip(a, b))


def loop_multiset_contains(sup, sub, tol):
    """The greedy sweep the closed form replaced, as the reference."""
    sup, sub = sorted(sup), sorted(sub)
    i = 0
    for x in sub:
        while i < len(sup) and sup[i] < x - tol:
            i += 1
        if i >= len(sup) or sup[i] > x + tol:
            return False
        i += 1
    return True


def loop_max_deviation(a, b):
    a, b = sorted(a), sorted(b)
    if len(a) != len(b):
        raise ValueError("size mismatch")
    return max((abs(x - y) for x, y in zip(a, b)), default=0.0)


class TestMultisets:
    def test_random_against_loops(self):
        rng = np.random.default_rng(5)
        for trial in range(300):
            size = int(rng.integers(0, 12))
            a = rng.normal(size=size)
            b = rng.permutation(a + rng.normal(scale=10.0 ** -rng.integers(6, 12), size=size))
            tol = float(10.0 ** -rng.integers(6, 12))
            assert multisets_close(a, b, tol) == loop_multisets_close(a, b, tol)
            assert max_multiset_deviation(a, b) == loop_max_deviation(a, b)
        assert not multisets_close([1.0, 2.0], [1.0], 1.0)
        with pytest.raises(ValueError):
            max_multiset_deviation([1.0, 2.0], [1.0])

    def test_size_mismatch_is_a_typed_error_naming_both_sizes(self):
        with pytest.raises(ParameterDomainError, match=r"^size mismatch: 3 vs 2$"):
            max_multiset_deviation([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_contains_against_loop(self):
        rng = np.random.default_rng(7)
        outcomes = set()
        for trial in range(2000):
            sup = rng.integers(0, 12, size=int(rng.integers(0, 10))) / 4.0
            sub = rng.integers(0, 12, size=int(rng.integers(0, 8))) / 4.0
            if trial % 2:  # a sub-multiset of sup, moved by up to 2 tol
                sub = rng.choice(sup, size=min(len(sup), len(sub)), replace=False) \
                    + rng.choice([-0.5, -0.25, 0.0, 0.25, 0.5], size=min(len(sup), len(sub)))
            tol = float(rng.choice([0.0, 0.25, 0.5]))
            want = loop_multiset_contains(sup, sub, tol)
            assert multiset_contains(sup, sub, tol) is want, (sup, sub, tol)
            outcomes.add(want)
        assert outcomes == {True, False}
        assert multiset_contains([], [])
        assert multiset_contains([1.0], [])
        assert not multiset_contains([], [1.0])

    def test_ties_at_exactly_tol(self):
        # dyadic values: every difference below is exact, so |x - y| hits
        # tol exactly, which both routes accept
        rng = np.random.default_rng(6)
        tol = 0.25
        for _ in range(100):
            a = rng.integers(-40, 40, size=8) / 8.0
            shift = rng.choice([-tol, 0.0, tol], size=8)
            b = rng.permutation(a + shift)
            assert multisets_close(a, b, tol) == loop_multisets_close(a, b, tol)
            assert max_multiset_deviation(a, b) == loop_max_deviation(a, b)
        assert multisets_close([0.0, 1.0], [1.25, 0.25], tol)
        assert not multisets_close([0.0, 1.0], [1.25, 0.25], np.nextafter(tol, 0.0))
        assert max_multiset_deviation((3.0, 1.0), [1.25, 3.0]) == tol


class TestSpectrumReport:
    def test_columns_read_only(self):
        report = cached_contfrac(8)
        for column in (report.values, report.sectors, report.kept_mask):
            assert not column.flags.writeable
        with pytest.raises(ValueError):
            report.values[0] = 1.0

    def test_views(self):
        # one row per sector, kept values first; the columns follow from
        # the rows and counts, and kept is the one view
        rows = np.array([[1.0, 3.0], [2.0, 4.0], [0.5, 5.0]])
        report = SpectrumReport(3, 1, "demo", rows, [1, 1, 1])
        rows[0, 0] = 9.0  # the report holds a copy
        assert "sectors" not in report.__dict__  # computed only when read
        assert report.kept == (0.5, 1.0, 2.0)
        assert all(type(v) is float for v in report.kept)
        assert report.values.tolist() == [1.0, 3.0, 2.0, 4.0, 0.5, 5.0]
        assert report.sectors.tolist() == [0, 0, 1, 1, 2, 2]
        assert report.kept_mask.tolist() == [True, False] * 3
        assert report.kept_counts.tolist() == [1, 1, 1]
        assert (report.values.dtype, report.sectors.dtype, report.kept_mask.dtype) == (
            np.float64, np.int64, np.bool_)
        assert report.values[~report.kept_mask].tolist() == [3.0, 4.0, 5.0]
        for column in (report.values, report.sectors, report.kept_mask, report.kept_counts):
            assert not column.flags.writeable

    def test_flat_values_and_replace(self):
        rows = [[1.0, 3.0], [2.0, 4.0], [0.5, 5.0]]
        report = SpectrumReport(3, 1, "demo", rows, [1, 1, 1])
        flat = SpectrumReport(3, 1, "demo", np.ravel(rows), [1, 1, 1])
        for name in ("values", "sectors", "kept_mask", "kept_counts"):
            assert np.array_equal(getattr(report, name), getattr(flat, name)), name
        moved = replace(report, values=report.values + 1.0)
        assert moved.kept == (1.5, 2.0, 3.0)
        assert moved.kept_mask.tolist() == report.kept_mask.tolist()

    @pytest.mark.parametrize("values", [[[1.0, 2.0]], [[[1.0]]], [[1.0], [2.0]]])
    def test_values_without_counts_are_flat(self, values):
        with pytest.raises(ParameterDomainError, match=r"values without counts must be 1-D"):
            SpectrumReport(3, 1, "demo", values)

    def test_brute_has_no_sectors(self):
        report = cached_brute(6, 2)
        assert report.sectors is None
        assert report.kept_mask.all()
        assert report.values.tolist() == list(report.kept)

    @pytest.mark.parametrize("method", ["contfrac", "overlift"])
    def test_views_agree_with_columns(self, method):
        report = cached_contfrac(12) if method == "contfrac" else cached_overlift(8, 4)
        assert len(report.values) == len(report.sectors) == len(report.kept_mask)
        assert sorted(set(report.sectors.tolist())) == list(range(report.n))
        assert report.kept == tuple(sorted(report.values[report.kept_mask].tolist()))


class TestFromSectors:
    # a sector route's trail: F_2(C_4) has C(4, 2) = 6 vertices, and each
    # sector row holds two values, its kept ones first
    VALUES = [0.0, 2.0, 2.0, 4.0, 4.0, 4.0, 2.0, 4.0]
    ROWS = np.reshape(VALUES, (4, 2)).tolist()

    def test_layout_from_counts(self):
        report = SpectrumReport(4, 2, "demo", self.ROWS, [2, 1, 2, 1])
        assert (report.n, report.k, report.method) == (4, 2, "demo")
        assert report.values.tolist() == self.VALUES
        assert report.sectors.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]
        assert report.kept_mask.tolist() == [True, True, True, False,
                                             True, True, True, False]
        assert report.kept == (0.0, 2.0, 2.0, 2.0, 4.0, 4.0)

    @pytest.mark.parametrize("kept,discarded", [([2, 1, 1, 1], [0, 1, 1, 1]),
                                                ([2, 2, 2, 1], [0, 0, 0, 1])])
    def test_kept_count_off_by_one_raises(self, kept, discarded):
        # the counts split every row of two, but keep one value too few or too many
        assert np.add(kept, discarded).tolist() == [2] * 4
        with pytest.raises(CountMismatchError,
                           match=rf"kept {sum(kept)} eigenvalues for F_2\(C_4\), "
                                 r"expected C\(4, 2\) = 6"):
            SpectrumReport(4, 2, "demo", self.VALUES, kept)

    @pytest.mark.parametrize("discarded", [[0, 1, 0, 0], [0, 1, 0, 2]])
    def test_counts_that_miss_values_raise(self, discarded):
        # rows as long as their kept and discarded counts are ragged
        rows = [[4.0] * w for w in np.add([2, 1, 2, 1], discarded).tolist()]
        with pytest.raises(CountMismatchError,
                           match=r"^F_2\(C_4\): trail rows of more than one width$"):
            SpectrumReport(4, 2, "demo", rows, [2, 1, 2, 1])

    @pytest.mark.parametrize("values,kept", [
        (ROWS[:3], [2, 2, 2]),  # three rows for four sectors
        (ROWS[:3], [2, 1, 2, 1]),
        (VALUES[:7], [2, 1, 2, 1]),  # 7 values in 4 rows
        ([ROWS], [2, 1, 2, 1]),  # three dimensions
        (ROWS, [3, 1, 1, 1]),  # a count past the row width
        (ROWS, [-1, 3, 2, 2]),
        (ROWS, [2, 1, 2]),  # one count short
        (ROWS, [[2, 1], [2, 1]]),
        (ROWS, [2.0, 1.0, 2.0, 1.0]),  # counts must be integers
        (ROWS, [True, True, True, True]),
    ])
    def test_shapes_and_counts_checked(self, values, kept):
        with pytest.raises(CountMismatchError, match=r"^F_2\(C_4\): need 4 rows of one width "
                                                     r"nu and counts in \[0, nu\]"):
            SpectrumReport(4, 2, "demo", values, kept)
