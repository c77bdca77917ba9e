import numpy as np
import pytest
from conftest import cached_brute, cached_contfrac, cached_overlift

from tokenspectra import SpectrumEntry, SpectrumReport, multisets_close
from tokenspectra.report import max_multiset_deviation


def loop_multisets_close(a, b, tol):
    """The Python loop these comparisons replaced, as the reference."""
    a, b = sorted(a), sorted(b)
    if len(a) != len(b):
        return False
    return all(abs(x - y) <= tol for x, y in zip(a, b))


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
        report = SpectrumReport(5, 2, "demo", [3.0, 1.0, 4.0, 2.0], [0, 0, 1, 1],
                                [True, True, False, True], "spurious")
        assert report.kept == (1.0, 2.0, 3.0)
        assert all(type(v) is float for v in report.kept)
        assert report.entries == (SpectrumEntry(3.0, 0, True), SpectrumEntry(1.0, 0, True),
                                  SpectrumEntry(4.0, 1, False, "spurious"),
                                  SpectrumEntry(2.0, 1, True))
        assert report.discarded == (SpectrumEntry(4.0, 1, False, "spurious"),)
        assert report.sector_entries(1) == report.entries[2:]
        assert report.sector_entries(2) == ()
        assert all(type(e.value) is float and type(e.sector) is int for e in report.entries)

    def test_brute_has_no_sectors(self):
        report = cached_brute(6, 2)
        assert report.sectors is None
        assert report.sector_entries(0) == ()
        assert [e.value for e in report.entries] == list(report.kept)
        assert all(e.sector is None and e.kept and e.reason == "" for e in report.entries)

    @pytest.mark.parametrize("method", ["contfrac", "overlift"])
    def test_views_agree_with_columns(self, method):
        report = cached_contfrac(12) if method == "contfrac" else cached_overlift(8, 4)
        entries = report.entries
        assert len(entries) == len(report.values)
        assert report.discarded == tuple(e for e in entries if not e.kept)
        for r in range(report.n):
            assert report.sector_entries(r) == tuple(e for e in entries if e.sector == r)
        assert report.kept == tuple(sorted(e.value for e in entries if e.kept))
