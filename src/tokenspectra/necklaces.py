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
from .tokengraph import CACHE_SIZE, check_params, check_token_set, k_subsets, subset_rank


def sector_order(n: int, r: int) -> int:
    """Multiplicative order of the rotation by r, n / gcd(n, r)."""
    return n // gcd(n, r)


def divisors(n: int) -> list[int]:
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def euler_phi(m: int) -> int:
    # trial division; m stays small at desk scale
    result = m
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def moebius(m: int) -> int:
    if m == 1:
        return 1
    result = 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


def rotate(subset, shift: int, n: int) -> tuple[int, ...]:
    return tuple(sorted((x + shift) % n for x in subset))


def period(subset, n: int) -> int:
    """Smallest positive rotation fixing the subset; divides n."""
    s = check_token_set(subset, n)
    for d in divisors(n):
        if rotate(s, d, n) == s:
            return d
    raise NumericFailureError("rotation by n must fix every subset")


def periods_of(subsets: np.ndarray, n: int) -> np.ndarray:
    """``period`` of every sorted row of ``subsets``, in one pass per divisor.

    For each divisor d of n, ascending, the rows still without a period
    are rotated by d and ranked (``subset_rank``); a row whose rank is
    unchanged has period d.  Rotation by n fixes every row.
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
    -rep_i = rep_(mirror_of[i]) + ``mirror_shift[i]``.  Immutable after
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

    @property
    def count(self) -> int:
        return len(self.reps)


@lru_cache(maxsize=CACHE_SIZE)
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
    mirror = subset_rank(np.sort(-reps % n, axis=1), n)
    mirror_of, mirror_shift = orbit_of[mirror], shift_of[mirror]
    check_mirror(mirror_of, mirror_shift, periods)
    for arr in (periods, orbit_of, shift_of, mirror_of, mirror_shift):
        arr.flags.writeable = False
    return OrbitTable(n, k, tuple(map(tuple, reps.tolist())), periods, orbit_of, shift_of,
                      mirror_of, mirror_shift)


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


def _exact_div(total: int, n: int, what: str) -> int:
    q, rem = divmod(total, n)
    if rem:
        raise NumericFailureError(f"{what} sum {total} is not divisible by {n}")
    return q


def _check_count_domain(n: int, k: int) -> None:
    """The counts hold for 1 <= k <= n, wider than ``check_params``."""
    if n < 1 or k < 1 or k > n:
        raise ParameterDomainError(f"need 1 <= k <= n, got n={n}, k={k}")


def count_burnside(n: int, k: int) -> int:
    """Orbit count via the fixed-point sum over all rotations."""
    _check_count_domain(n, k)
    total = 0
    for r in range(n):
        d = gcd(n, r) if r else n
        o = n // d
        if k % o == 0:
            total += comb(d, k // o)
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
