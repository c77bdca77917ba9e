"""Spectrum containers and tolerant multiset comparisons.

Spectra are compared as sorted multisets, pointwise with an absolute
tolerance.  Containment uses greedy interval matching on the sorted
lists, which is exact for a uniform tolerance.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb

import numpy as np

from .errors import CountMismatchError, ParameterDomainError
from .tolerances import AGREE_TOL


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Multiset of Laplacian eigenvalues with a removal audit trail.

    A sector route gives each sector r a row of width nu: its
    ``kept_counts[r]`` kept values, then its discarded ones, each ascending.
    ``values`` (the n rows, or their entries in row order) is stored flat;
    ``kept_mask`` and ``sectors`` follow from the counts, which must be
    integers in [0, nu] that keep C(n, k) values (``CountMismatchError``).
    Brute force gives no counts: ``sectors`` is None and every value is kept.
    The arrays are read-only copies; ``kept`` is the ascending spectrum.
    """

    n: int
    k: int
    method: str
    values: np.ndarray
    kept_counts: np.ndarray | None = None
    kept_mask: np.ndarray = field(init=False)

    def __post_init__(self):
        n, k, counts = self.n, self.k, self.kept_counts
        try:
            values = np.array(self.values, dtype=float)
        except ValueError as exc:  # ragged rows
            raise CountMismatchError(f"F_{k}(C_{n}): trail rows of more than one width") from exc
        if counts is None:
            if values.ndim != 1:
                raise ParameterDomainError(f"values without counts must be 1-D: {values.shape}")
            mask = np.ones(len(values), dtype=bool)
        else:
            counts, nu = np.array(counts), values.size // max(n, 1)
            if (values.shape not in ((n, nu), (n * nu,)) or counts.shape != (n,)
                    or counts.dtype.kind not in "iu" or np.any((counts < 0) | (counts > nu))):
                raise CountMismatchError(f"F_{k}(C_{n}): need {n} rows of one width nu and counts "
                                         f"in [0, nu]; got shape {values.shape}, counts {counts}")
            if counts.sum() != comb(n, k):
                raise CountMismatchError(f"kept {counts.sum()} eigenvalues for F_{k}(C_{n}), "
                                         f"expected C({n}, {k}) = {comb(n, k)}")
            mask = (np.arange(nu) < counts[:, None]).ravel()
        values = values.ravel()
        for name, column in ("values", values), ("kept_counts", counts), ("kept_mask", mask):
            if column is not None:
                column.flags.writeable = False
            object.__setattr__(self, name, column)

    @cached_property
    def sectors(self) -> np.ndarray | None:
        """The sector of each entry of ``values``, int64; None without counts."""
        if self.kept_counts is None:
            return None
        sectors = np.arange(self.n).repeat(len(self.values) // self.n)
        sectors.flags.writeable = False
        return sectors

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

