"""Shared caches and references for the test suite.

Spectra are pure functions of (n, k), so tests share one computation
per pair instead of redoing dense eigensolves.  ``token_neighbors`` is
the move rule in plain set arithmetic, the tests' independent reference
for the library's array rule ``tokengraph.token_moves``.  ``edge_pairs``
reads a graph's CSR adjacency back as (source, target) pairs.
``assert_kept_then_discarded`` checks the sector routes' trail layout,
and ``shown_sectors`` with ``kept_first_ties`` the order a spectrum
command shows at a tie.

A Laurent polynomial mod z^n = 1 is a dict {exponent: coefficient}
with canonical exponents in [0, n), ascending, and no zero
coefficient: the form of a ``LaurentMatrix.entries`` cell.
``parse_laurent`` reads the paper's published matrices into that form,
``eval_root`` evaluates one with ``cmath`` term by term, and
``expand_lift`` unrolls a genuine lift base to the full cyclic lift.
"""
import cmath
import math
import re
from functools import lru_cache

import numpy as np

from tokenspectra import (LaurentMatrix, ParameterDomainError, brute_spectrum,
                          full_spectrum, spectrum_2token)
from tokenspectra.tolerances import CLUSTER_TOL


@lru_cache(maxsize=None)
def cached_brute(n, k):
    return brute_spectrum(n, k)


@lru_cache(maxsize=None)
def cached_overlift(n, k):
    return full_spectrum(n, k)


@lru_cache(maxsize=None)
def cached_contfrac(n):
    return spectrum_2token(n)


def token_neighbors(subset, n):
    """Configurations reached by one token move to an empty adjacent vertex.

    Moves are listed token by token, up before down: the order of
    ``token_moves``.
    """
    occupied = set(subset)
    out = []
    for a in subset:
        for b in ((a + 1) % n, (a - 1) % n):
            if b not in occupied:
                out.append(tuple(sorted((occupied - {a}) | {b})))
    return out


def edge_pairs(graph):
    """Every directed edge (source, target) of a token graph, in CSR order.

    Sources are read from the lengths of the ``offsets`` segments, not
    from ``degrees``.
    """
    source = np.repeat(np.arange(graph.order), np.diff(graph.offsets))
    return list(zip(source.tolist(), graph.targets.tolist()))


def assert_kept_then_discarded(report):
    """Each sector's trail is its kept values, ascending, then its discarded ones, ascending."""
    for r in range(report.n):
        values = report.values[report.sectors == r]
        kept = report.kept_mask[report.sectors == r]
        m = np.count_nonzero(kept)
        assert kept[:m].all() and not kept[m:].any(), r
        assert np.all(np.diff(values[:m]) >= 0) and np.all(np.diff(values[m:]) >= 0), r


_CELL_RE = re.compile(r"(\d+\.\d{4})(\*?)")


def shown_sectors(out, audit):
    """(values, kept) of each sector in the order a spectrum command printed them.

    ``out`` is CSV output, or with ``audit`` the text table, where each
    row is a sector (merged with its conjugate) and * marks a discarded value.
    """
    if audit:
        rows = [_CELL_RE.findall(line) for line in out.splitlines()
                if line.startswith("  r=")]
        return [([float(v) for v, _ in cells], [not star for _, star in cells])
                for cells in rows]
    by_sector = {}
    for line in out.splitlines()[1:]:
        r, value, kept = line.split(",")
        values, flags = by_sector.setdefault(r, ([], []))
        values.append(float(value))
        flags.append(kept == "true")
    return list(by_sector.values())


def kept_first_ties(values, kept):
    """Count the kept and discarded pairs within CLUSTER_TOL; each shows kept first."""
    values, kept = np.asarray(values), np.asarray(kept)
    pos = np.arange(len(values))
    tied = (np.abs(values[:, None] - values) <= CLUSTER_TOL) & kept[:, None] & ~kept
    assert (pos[:, None] < pos)[tied].all(), values[tied.any(axis=0)]
    return np.count_nonzero(tied)


_TERM_RE = re.compile(r"([+-]?)(\d*)(z(?:\^(-?\d+))?)?")


def parse_laurent(text, n):
    """Parse signed-monomial text like ``6-z^2-z^-2`` into canonical form."""
    s = text.replace(" ", "")
    acc = {}
    pos = 0
    while pos < len(s):
        # every group is optional, so the pattern matches; a term needs digits or z
        sign, digits, zpart, expo = (m := _TERM_RE.match(s, pos)).groups()
        if not digits and not zpart:
            raise ParameterDomainError(f"cannot parse {text!r} at {s[pos:]!r}")
        coeff = (int(digits) if digits else 1) * (-1 if sign == "-" else 1)
        e = ((int(expo) if expo is not None else 1) if zpart else 0) % n
        acc[e] = acc.get(e, 0) + coeff
        pos = m.end()
    return {e: c for e, c in sorted(acc.items()) if c != 0}


def eval_root(coeffs, n, r):
    """Value of {exponent: coefficient} at z = exp(2*pi*i*r/n)."""
    return sum((c * cmath.exp(2j * math.pi * ((r * e) % n) / n)
                for e, c in coeffs.items()), start=0j)


def expand_lift(base):
    """Expand a genuine cyclic lift base to its full order-(nu*n) matrix.

    Valid only when the base is reversal symmetric: the coefficient of
    z^e in entry (i, j) must equal the coefficient of z^(n-e) in entry
    (j, i).  Orbit matrices with short orbits fail this and are
    rejected; they do not expand to a genuine lift.  The spectrum of the
    result equals the union over r of the specialized spectra.
    """
    n, nu = base.n, base.order
    fwd = base.terms
    rev = LaurentMatrix(n, nu, base.col, base.row, -base.exp, base.coeff).terms
    if not np.array_equal(fwd, rev):
        # a term in one list but not the other sits in an offending entry
        i, j, _, _ = min(set(map(tuple, fwd.tolist())) ^ set(map(tuple, rev.tolist())))
        raise ParameterDomainError(
            f"entry ({i},{j}) is not the exponent reversal of ({j},{i}); "
            "the matrix is not a genuine lift base")
    g = np.arange(n)
    rows = base.row[:, None] * n + g
    cols = base.col[:, None] * n + (g + base.exp[:, None]) % n
    out = np.zeros((nu * n, nu * n))
    np.add.at(out, (rows, cols), base.coeff[:, None])
    return out
