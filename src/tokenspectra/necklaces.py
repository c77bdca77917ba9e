"""Rotation orbits of k-subsets of Z_n (fixed-density binary necklaces).

One orbit per necklace with k black and n-k white beads.  The orbit
table fixes a canonical representative per orbit (the lexicographically
least rotation), records each orbit's period, and places every subset by
its rank (``subset_rank``) as rep + shift.  Three counting routes are provided:

* fixed-point count:  T(n,k) = (1/n) * sum over r with o(r) | k of
  C(d(r), k/o(r)), where d(r) = gcd(n, r) and o(r) = n/d(r);
* totient count:      T(n,k) = (1/n) * sum over d | gcd(n,k) of
  phi(d) * C(n/d, k/d);
* Moebius count of aperiodic orbits:
  M(n,k) = (1/n) * sum over d | gcd(n,k) of mu(d) * C(n/d, k/d).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, gcd, isqrt

import numpy as np

from .errors import NumericFailureError, ParameterDomainError
from .tokengraph import (CACHE_SIZE, check_integers, check_params, involutions, k_subsets,
                         subset_rank)


def sector_order(n: int, r: int) -> int:
    """Multiplicative order of the rotation by r, n / gcd(n, r)."""
    return n // gcd(n, r)


def divisors(n: int) -> list[int]:
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _prime_factors(m: int) -> dict[int, int]:
    """{p: e} with m the product of the p^e, by trial division; m stays small."""
    factors: dict[int, int] = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        factors[m] = 1
    return factors


def euler_phi(m: int) -> int:
    result = m
    for p in _prime_factors(m):
        result -= result // p
    return result


def moebius(m: int) -> int:
    exponents = _prime_factors(m).values()
    return 0 if any(e > 1 for e in exponents) else (-1) ** len(exponents)


def periods_of(subsets: np.ndarray, n: int) -> np.ndarray:
    """The period of every sorted row of ``subsets``, in one pass per divisor.

    A row's period is the smallest positive rotation fixing it, a divisor
    of n.  For each divisor d of n, ascending, the rows still without a
    period are rotated by d and ranked (``subset_rank``); a row whose rank
    is unchanged has period d.  Rotation by n fixes every row.
    """
    ranks = subset_rank(subsets, n)
    out = np.zeros(len(subsets), dtype=np.int64)
    todo = np.arange(len(subsets))
    for d in divisors(n):
        fixed = subset_rank(np.sort((subsets[todo] + d) % n, axis=1), n) == ranks[todo]
        out[todo[fixed]] = d
        todo = todo[~fixed]
    return out


@dataclass(frozen=True)
class OrbitTable:
    """Canonical orbit data for Z_n acting on k-subsets by rotation.

    ``reps`` are lexicographically least in their orbits and sorted.
    ``orbit_of`` and ``shift_of`` are int arrays over all k-subsets in
    lexicographic order, the vertex order of the token graph: the subset
    of rank x (``subset_rank``) is rep_(orbit_of[x]) + shift_of[x], with
    the smallest nonnegative shift.  ``periods`` is an int array of the
    orbit periods.  The reflection X -> -X of the cycle
    maps orbit i onto orbit ``mirror_of[i]``:
    -rep_i = rep_(mirror_of[i]) + ``mirror_shift[i]``.  When 2k = n,
    complementation X -> Z_n - X maps orbit i onto orbit
    ``complement_of[i]``: Z_n - rep_i = rep_(complement_of[i]) +
    ``complement_shift[i]``; both are None otherwise.  Immutable after
    construction; the arrays are read-only.
    """

    n: int
    k: int
    reps: tuple[tuple[int, ...], ...]
    periods: np.ndarray = field(repr=False, compare=False)
    orbit_of: np.ndarray = field(repr=False, compare=False)
    shift_of: np.ndarray = field(repr=False, compare=False)
    mirror_of: np.ndarray = field(repr=False, compare=False)
    mirror_shift: np.ndarray = field(repr=False, compare=False)
    complement_of: np.ndarray | None = field(default=None, repr=False, compare=False)
    complement_shift: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def count(self) -> int:
        return len(self.reps)


@lru_cache(maxsize=CACHE_SIZE, typed=True)  # typed: 6.0 == 6 must reach check_params
def enumerate_orbits(n: int, k: int) -> OrbitTable:
    """One canonical representative per orbit, with periods and positions.

    The least rotation of a subset X contains 0, so it is X - x for some
    x in X: of those k rotations, the one of least rank is the
    representative of X's orbit and the first x that reaches it is the
    shift.  The periods come from ``periods_of`` (the smallest rotation
    fixing each representative) and must equal the orbit sizes.
    """
    check_params(n, k)
    subsets = k_subsets(n, k)
    least = np.arange(len(subsets))
    shift_of = np.zeros(len(subsets), dtype=np.int64)
    for i in range(k):
        # X - x_i in ascending order is X rolled left by i, minus x_i, mod n
        x = subsets[:, i]
        rank = subset_rank((np.roll(subsets, -i, axis=1) - x[:, None]) % n, n)
        better = rank < least
        least[better] = rank[better]
        shift_of[better] = x[better]
    rep_at = np.flatnonzero(least == np.arange(len(subsets)))
    orbit_of = np.searchsorted(rep_at, least)
    reps = subsets[rep_at]
    periods = periods_of(reps, n)
    if not np.array_equal(periods, np.bincount(orbit_of)):
        raise NumericFailureError("orbit periods do not match the orbit sizes")
    mirror, *comp = involutions(reps, n)
    mirror_of, mirror_shift = orbit_of[mirror], shift_of[mirror]
    check_mirror(mirror_of, mirror_shift, periods)
    arrays = [periods, orbit_of, shift_of, mirror_of, mirror_shift]
    if 2 * k == n:
        arrays += [orbit_of[comp[0]], shift_of[comp[0]]]
        check_complement(*arrays[-2:], periods, mirror_of)
    for arr in arrays:
        arr.flags.writeable = False
    return OrbitTable(n, k, tuple(map(tuple, reps.tolist())), *arrays)


def check_mirror(mirror_of: np.ndarray, mirror_shift: np.ndarray,
                 periods: np.ndarray) -> None:
    """Check the reflection data of an orbit table.

    The reflection is an involution on orbits that preserves periods,
    and reflecting twice is the identity, so the two shifts of a mirror
    pair agree modulo the orbit period.  Raises ``NumericFailureError``
    naming the first invariant that fails.
    """
    if not np.array_equal(mirror_of[mirror_of], np.arange(len(mirror_of))):
        raise NumericFailureError("the orbit reflection is not an involution")
    if not np.array_equal(periods[mirror_of], periods):
        raise NumericFailureError("the orbit reflection does not preserve periods")
    if np.any((mirror_shift[mirror_of] - mirror_shift) % periods):
        raise NumericFailureError(
            "mirror shifts of a reflected pair differ modulo the orbit period")


def check_complement(complement_of: np.ndarray, complement_shift: np.ndarray,
                     periods: np.ndarray, mirror_of: np.ndarray) -> None:
    """Check the complementation data of an orbit table with 2k = n.

    Complementation is an involution on orbits that preserves periods
    and commutes with the reflection; complementing twice is the
    identity, so the two shifts of a complementary pair add up to 0
    modulo the orbit period.  Raises ``NumericFailureError`` naming the
    first invariant that fails.
    """
    c = complement_of
    if not np.array_equal(c[c], np.arange(len(c))):
        raise NumericFailureError("the orbit complement is not an involution")
    if not np.array_equal(periods[c], periods):
        raise NumericFailureError("the orbit complement does not preserve periods")
    if not np.array_equal(c[mirror_of], mirror_of[c]):
        raise NumericFailureError("the orbit complement does not commute with the reflection")
    if np.any((complement_shift[c] + complement_shift) % periods):
        raise NumericFailureError(
            "complement shifts of a complementary pair do not cancel modulo the orbit period")


def _exact_div(total: int, n: int, what: str) -> int:
    q, rem = divmod(total, n)
    if rem:
        raise NumericFailureError(f"{what} sum {total} is not divisible by {n}")
    return q


def _check_count_domain(n: int, k: int) -> None:
    """The counts hold for 1 <= k <= n, wider than ``check_params``."""
    check_integers(n=n, k=k)
    if n < 1 or k < 1 or k > n:
        raise ParameterDomainError(f"need 1 <= k <= n, got n={n}, k={k}")


def count_burnside(n: int, k: int) -> int:
    """Orbit count via the fixed-point sum over all rotations."""
    _check_count_domain(n, k)
    total = 0
    for r in range(n):
        o = sector_order(n, r)
        if k % o == 0:
            total += comb(n // o, k // o)
    return _exact_div(total, n, "fixed-point")


def count_polya(n: int, k: int) -> int:
    """Orbit count via the totient sum over divisors of gcd(n, k)."""
    _check_count_domain(n, k)
    total = sum(euler_phi(d) * comb(n // d, k // d) for d in divisors(gcd(n, k)))
    return _exact_div(total, n, "totient")


def count_moreau(n: int, k: int) -> int:
    """Count of aperiodic orbits (period exactly n), via the Moebius sum."""
    _check_count_domain(n, k)
    total = sum(moebius(d) * comb(n // d, k // d) for d in divisors(gcd(n, k)))
    return _exact_div(total, n, "Moebius")
