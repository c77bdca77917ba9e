"""Spectrum containers and tolerant multiset comparisons.

Spectra are compared as sorted multisets, pointwise with an absolute
tolerance.  Containment uses greedy interval matching on the sorted
lists, which is exact for a uniform tolerance.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SpectrumEntry:
    """One computed eigenvalue with provenance and its keep/discard fate."""

    value: float
    sector: int | None
    kept: bool
    reason: str = ""


@dataclass(frozen=True)
class SpectrumReport:
    """Multiset of Laplacian eigenvalues with a removal audit trail.

    ``kept`` is the ascending spectrum of the graph.  ``entries`` records
    every value that was computed, including the discarded ones with the
    reason for removal.  ``sector`` is None for methods that do not work
    sector by sector (brute force).
    """

    n: int
    k: int
    method: str
    entries: tuple[SpectrumEntry, ...]
    kept: tuple[float, ...]

    @property
    def discarded(self) -> tuple[SpectrumEntry, ...]:
        return tuple(e for e in self.entries if not e.kept)

    def sector_entries(self, r: int) -> tuple[SpectrumEntry, ...]:
        return tuple(e for e in self.entries if e.sector == r)


def multisets_close(a, b, tol: float = 1e-8) -> bool:
    """Whether two real multisets agree pointwise after ascending sort."""
    a = sorted(a)
    b = sorted(b)
    if len(a) != len(b):
        return False
    return all(abs(x - y) <= tol for x, y in zip(a, b))


def max_multiset_deviation(a, b) -> float:
    """Largest pointwise gap between two equal-size sorted multisets."""
    a = sorted(a)
    b = sorted(b)
    if len(a) != len(b):
        raise ValueError(f"size mismatch: {len(a)} vs {len(b)}")
    return max((abs(x - y) for x, y in zip(a, b)), default=0.0)


def multiset_contains(sup, sub, tol: float = 1e-8) -> bool:
    """Whether every element of ``sub`` matches a distinct element of ``sup``.

    Greedy sweep over both sorted lists; each sub element consumes the
    smallest unused sup element within tolerance.
    """
    sup = sorted(sup)
    sub = sorted(sub)
    i = 0
    for x in sub:
        while i < len(sup) and sup[i] < x - tol:
            i += 1
        if i >= len(sup) or sup[i] > x + tol:
            return False
        i += 1
    return True

