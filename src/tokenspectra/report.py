"""Spectrum containers and tolerant multiset comparisons.

Spectra are compared as sorted multisets, pointwise with an absolute
tolerance.  Containment uses greedy interval matching on the sorted
lists, which is exact for a uniform tolerance.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class SpectrumEntry:
    """One computed eigenvalue with provenance and its keep/discard fate."""

    value: float
    sector: int | None
    kept: bool
    reason: str = ""


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Multiset of Laplacian eigenvalues with a removal audit trail.

    The trail is stored by columns: entry i has value ``values[i]``,
    sector ``sectors[i]`` and keep flag ``kept_mask[i]``, and every
    discarded entry has the one ``reason``.  ``sectors`` is None for
    methods that do not work sector by sector (brute force).  The arrays
    are read-only copies.  ``kept`` is the ascending spectrum of the
    graph; ``entries``, ``discarded`` and ``sector_entries`` build
    ``SpectrumEntry`` views of the trail on demand, in trail order.
    """

    n: int
    k: int
    method: str
    values: np.ndarray
    sectors: np.ndarray | None
    kept_mask: np.ndarray
    reason: str = ""

    def __post_init__(self):
        for name, dtype in (("values", float), ("sectors", np.int64),
                            ("kept_mask", bool)):
            column = getattr(self, name)
            if column is not None:
                column = np.array(column, dtype=dtype)
                column.flags.writeable = False
                object.__setattr__(self, name, column)

    @cached_property
    def kept(self) -> tuple[float, ...]:
        return tuple(np.sort(self.values[self.kept_mask], kind="stable").tolist())

    def _entries(self, index: np.ndarray) -> tuple[SpectrumEntry, ...]:
        sectors = ([None] * len(index) if self.sectors is None
                   else self.sectors[index].tolist())
        return tuple(SpectrumEntry(v, r, kept, "" if kept else self.reason)
                     for v, r, kept in zip(self.values[index].tolist(), sectors,
                                           self.kept_mask[index].tolist()))

    @property
    def entries(self) -> tuple[SpectrumEntry, ...]:
        return self._entries(np.arange(len(self.values)))

    @property
    def discarded(self) -> tuple[SpectrumEntry, ...]:
        return self._entries(np.flatnonzero(~self.kept_mask))

    def sector_entries(self, r: int) -> tuple[SpectrumEntry, ...]:
        if self.sectors is None:
            return ()
        return self._entries(np.flatnonzero(self.sectors == r))


def _sorted_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    return np.sort(np.asarray(a, dtype=float)), np.sort(np.asarray(b, dtype=float))


def multisets_close(a, b, tol: float = 1e-8) -> bool:
    """Whether two real multisets agree pointwise after ascending sort."""
    a, b = _sorted_pair(a, b)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))


def max_multiset_deviation(a, b) -> float:
    """Largest pointwise gap between two equal-size sorted multisets."""
    a, b = _sorted_pair(a, b)
    if a.shape != b.shape:
        raise ValueError(f"size mismatch: {len(a)} vs {len(b)}")
    return float(np.max(np.abs(a - b), initial=0.0))


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

