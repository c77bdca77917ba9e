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
        # the columns keep the trail order and dtypes; kept is the one view
        report = SpectrumReport(5, 2, "demo", [3.0, 1.0, 4.0, 2.0], [0, 0, 1, 1],
                                [True, True, False, True])
        assert report.kept == (1.0, 2.0, 3.0)
        assert all(type(v) is float for v in report.kept)
        assert report.values.tolist() == [3.0, 1.0, 4.0, 2.0]
        assert report.sectors.tolist() == [0, 0, 1, 1]
        assert report.kept_mask.tolist() == [True, True, False, True]
        assert (report.values.dtype, report.sectors.dtype, report.kept_mask.dtype) == (
            np.float64, np.int64, np.bool_)
        assert report.values[~report.kept_mask].tolist() == [4.0]

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
    # F_2(C_4) has C(4, 2) = 6 vertices; each sector lists two values
    VALUES = [0.0, 2.0, 2.0, 4.0, 4.0, 4.0, 2.0, 4.0]

    def test_layout_from_counts(self):
        report = SpectrumReport.from_sectors(4, 2, "demo", self.VALUES, [2, 1, 2, 1],
                                             [0, 1, 0, 1])
        assert (report.n, report.k, report.method) == (4, 2, "demo")
        assert report.values.tolist() == self.VALUES
        assert report.sectors.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]
        assert report.kept_mask.tolist() == [True, True, True, False,
                                             True, True, True, False]
        assert report.kept == (0.0, 2.0, 2.0, 2.0, 4.0, 4.0)

    @pytest.mark.parametrize("kept,discarded", [([2, 1, 1, 1], [0, 1, 1, 1]),
                                                ([2, 2, 2, 1], [0, 0, 0, 1])])
    def test_kept_count_off_by_one_raises(self, kept, discarded):
        with pytest.raises(CountMismatchError,
                           match=rf"kept {sum(kept)} eigenvalues for F_2\(C_4\), "
                                 r"expected C\(4, 2\) = 6"):
            SpectrumReport.from_sectors(4, 2, "demo", self.VALUES, kept, discarded)

    @pytest.mark.parametrize("discarded", [[0, 1, 0, 0], [0, 1, 0, 2]])
    def test_counts_that_miss_values_raise(self, discarded):
        with pytest.raises(CountMismatchError,
                           match=rf"cover {6 + sum(discarded)} of 8 values"):
            SpectrumReport.from_sectors(4, 2, "demo", self.VALUES, [2, 1, 2, 1], discarded)
