"""Property tests over random cycles and token counts.

Each example draws k, then n with C(n, k) <= MAX_VERTICES, so that the
dense oracle stays about a second at the largest draw; two tokens get
their own draws, which also compare the closed-form route.  The move
rule ``token_moves`` is checked on random configurations of cycles up to
n = 40, far past the dense oracle, by unranking each target.  The
examples are derandomized: every run checks the same cases and takes
the same time.
"""
from math import comb

import numpy as np

from conftest import cached_brute, cached_contfrac, cached_overlift
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenspectra import multisets_close
from tokenspectra.tokengraph import token_moves

MAX_VERTICES = 2000
MAX_K = 6  # C(14, 7) = 3432 is past the cap, C(13, 6) = 1716 is not


def _largest_n(k: int) -> int:
    n = 2 * k
    while comb(n + 1, k) <= MAX_VERTICES:
        n += 1
    return n


@st.composite
def cycles(draw):
    k = draw(st.integers(1, MAX_K))
    n = draw(st.integers(max(3, 2 * k), _largest_n(k)))
    return n, k


@st.composite
def configurations(draw):
    """(n, rows): a few sorted k-subsets of Z_n, n <= 40, one k per draw."""
    n = draw(st.integers(3, 40))
    k = draw(st.integers(1, n - 1))
    row = st.sets(st.integers(0, n - 1), min_size=k, max_size=k).map(sorted)
    return n, draw(st.lists(row, min_size=1, max_size=5))


def _unrank(rank, n, k):
    """The k-subset of Z_n at ``rank`` in lexicographic order."""
    out, x = [], 0
    for left in range(k, 0, -1):
        while comb(n - 1 - x, left - 1) <= rank:
            rank -= comb(n - 1 - x, left - 1)
            x += 1
        out.append(x)
        x += 1
    return out


def _check(n, k):
    overlift = cached_overlift(n, k)
    assert len(overlift.kept) == comb(n, k)
    assert multisets_close(overlift.kept, cached_brute(n, k).kept, 1e-8), (n, k)
    if k == 2:
        assert multisets_close(cached_contfrac(n).kept, overlift.kept, 1e-8), n


@settings(max_examples=8, deadline=None, derandomize=True)
@given(cycles())
def test_overlift_matches_brute(nk):
    _check(*nk)


@settings(max_examples=5, deadline=None, derandomize=True)
@given(st.integers(4, _largest_n(2)))
def test_two_token_routes_agree(n):
    _check(n, 2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(configurations())
def test_token_moves_are_single_steps(config):
    n, rows = config
    source, slot, target = token_moves(np.array(rows), n)
    assert sorted(source.tolist()) == source.tolist()
    for i, row in enumerate(rows):
        ranks = target[source == i].tolist()
        slots = slot[source == i].tolist()
        assert slots == sorted(set(slots)), (n, row)
        assert len(set(ranks)) == len(ranks), (n, row)
        assert len(ranks) == sum((a + d) % n not in row for a in row for d in (1, -1))
        for rank, s in zip(ranks, slots):
            moved = _unrank(rank, n, len(row))
            assert len(moved) == len(row)
            gone, came = set(row) - set(moved), set(moved) - set(row)
            assert len(gone) == len(came) == 1, (n, row, moved)
            # slot 2t + way moves token t up (way 0) or down (way 1)
            assert gone == {row[s // 2]}, (n, row, moved, s)
            assert came == {(row[s // 2] + (1, -1)[s % 2]) % n}, (n, row, moved, s)
