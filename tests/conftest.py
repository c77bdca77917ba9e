"""Shared caches and references for the test suite.

Spectra are pure functions of (n, k), so tests share one computation
per pair instead of redoing dense eigensolves.  ``token_neighbors`` is
the move rule in plain set arithmetic, the tests' independent reference
for the library's array rule ``tokengraph.token_moves``.  ``edge_pairs``
reads a graph's CSR adjacency back as (source, target) pairs.
"""
from functools import lru_cache

import numpy as np

from tokenspectra import brute_spectrum, full_spectrum, spectrum_2token


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
