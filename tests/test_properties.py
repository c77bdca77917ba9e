"""Property tests over random cycles and token counts.

Each example draws k, then n with C(n, k) <= MAX_VERTICES, so that the
dense oracle stays about a second at the largest draw; two tokens get
their own draws, which also compare the closed-form route.  The examples
are derandomized: every run checks the same cases and takes the same
time.
"""
from math import comb

from conftest import cached_brute, cached_contfrac, cached_overlift
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenspectra import multisets_close

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
