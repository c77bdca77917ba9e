"""Spectrum containers and tolerant multiset comparisons.

Spectra are compared as sorted multisets, pointwise with an absolute
tolerance.  Containment uses greedy interval matching on the sorted
lists, which is exact for a uniform tolerance.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from .errors import CountMismatchError, ParameterDomainError
from .tolerances import AGREE_TOL


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Multiset of Laplacian eigenvalues with a removal audit trail.

    The trail is stored by columns, and these columns are the whole
    interface: entry i has value ``values[i]``, sector ``sectors[i]`` and
    keep flag ``kept_mask[i]``.  ``sectors`` is None for methods that do
    not work sector by sector (brute force); ``from_sectors`` is the one
    builder of a sector route's trail.  The arrays are read-only copies.
    ``kept`` is the ascending spectrum of the graph; the discarded values
    are ``values[~kept_mask]``.
    """

    n: int
    k: int
    method: str
    values: np.ndarray
    sectors: np.ndarray | None
    kept_mask: np.ndarray

    def __post_init__(self):
        for name, dtype in (("values", float), ("sectors", np.int64),
                            ("kept_mask", bool)):
            column = getattr(self, name)
            if column is not None:
                column = np.array(column, dtype=dtype)
                column.flags.writeable = False
                object.__setattr__(self, name, column)

    @classmethod
    def from_sectors(cls, n: int, k: int, method: str, values, kept, discarded) -> SpectrumReport:
        """The trail of a sector route from its values and per-sector counts.

        ``values`` lists, for r = 0..n-1 in turn, the ``kept[r]`` kept values
        of sector r, then its ``discarded[r]`` discarded ones, each ascending,
        so the kept mask follows from the counts and no tie is broken by
        rounding.  Raises ``CountMismatchError`` unless the counts cover
        ``values`` and exactly C(n, k) values are kept.
        """
        counts = np.column_stack([kept, discarded]).ravel()
        mask = np.repeat(np.tile([True, False], n), counts)
        if len(mask) != len(values) or mask.sum() != comb(n, k):
            raise CountMismatchError(
                f"kept {mask.sum()} eigenvalues for F_{k}(C_{n}), expected C({n}, {k}) = "
                f"{comb(n, k)}; the sector counts cover {len(mask)} of {len(values)} values")
        return cls(n, k, method, values, np.repeat(np.arange(n).repeat(2), counts), mask)

    @cached_property
    def kept(self) -> tuple[float, ...]:
        return tuple(np.sort(self.values[self.kept_mask], kind="stable").tolist())


def _sorted_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    return np.sort(np.asarray(a, dtype=float)), np.sort(np.asarray(b, dtype=float))


def multisets_close(a, b, tol: float = AGREE_TOL) -> bool:
    """Whether two real multisets agree pointwise after ascending sort."""
    a, b = _sorted_pair(a, b)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))


def max_multiset_deviation(a, b) -> float:
    """Largest pointwise gap between two equal-size sorted multisets."""
    a, b = _sorted_pair(a, b)
    if a.shape != b.shape:
        raise ParameterDomainError(f"size mismatch: {len(a)} vs {len(b)}")
    return float(np.max(np.abs(a - b), initial=0.0))


def multiset_contains(sup, sub, tol: float = AGREE_TOL) -> bool:
    """Whether every element of ``sub`` matches a distinct element of ``sup``.

    Greedy sweep over both sorted lists; each sub element consumes the
    smallest unused sup element within tolerance.  With L_j the first sup
    position at or above sub_j - tol, the j-th sub element takes position
    p_j = max(p_(j-1) + 1, L_j) = j + max over i <= j of (L_i - i).
    """
    sup, sub = _sorted_pair(sup, sub)
    j = np.arange(len(sub))
    pos = j + np.maximum.accumulate(np.searchsorted(sup, sub - tol) - j)
    return bool(np.all(pos < len(sup)) and np.all(sup[pos] <= sub + tol))

