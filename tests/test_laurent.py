import cmath
import math
import random

import numpy as np
import pytest
from conftest import eval_root, matrix_at_shift, parse_laurent
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from tokenspectra import LaurentMatrix, ParameterDomainError, build_poly_matrix, tokengraph
from tokenspectra.laurent import root_table


def one_cell(n, terms):
    """The 1x1 LaurentMatrix whose entry sums the (exponent, coefficient) terms."""
    exps, coeffs = zip(*terms) if terms else ((), ())
    return LaurentMatrix(n, 1, [0] * len(exps), [0] * len(exps), exps, coeffs)


def text(n, terms, balanced=False):
    return one_cell(n, terms).cell_texts(balanced)[0][0]


def random_terms(rng, n, max_terms=5):
    return [(rng.randrange(-2 * n, 2 * n), rng.randint(-4, 4))
            for _ in range(rng.randint(0, max_terms))]


@st.composite
def term_matrices(draw):
    """A LaurentMatrix from random integer term arrays, repeats and zeros included."""
    n = draw(st.integers(1, 12))
    order = draw(st.integers(1, 4))
    count = draw(st.integers(0, 12))

    def column(lo, hi):
        return draw(st.lists(st.integers(lo, hi), min_size=count, max_size=count))

    return LaurentMatrix(n, order, column(0, order - 1), column(0, order - 1),
                         column(-3 * n, 3 * n), column(-12, 12))


class TestLaurentPoly:
    """Canonical storage and evaluation of one entry, as a 1x1 matrix."""

    def test_canonical_storage(self):
        m = one_cell(6, [(7, 2), (-2, 1), (1, -2), (0, 0)])
        assert m.entries == (({4: 1},),)  # exponent 7 = 1 cancels the -2 there

    def test_negative_exponent_wraps(self):
        assert np.array_equal(one_cell(6, [(-2, 1)]).terms, one_cell(6, [(4, 1)]).terms)

    def test_eval_vanishing_sum(self):
        # z + z^3 + z^5 at the primitive 6th root: w(1 + w^2 + w^4) = 0
        m = one_cell(6, [(1, 1), (3, 1), (5, 1)])
        assert abs(m.specialize(1)[0, 0]) < 1e-12

    def test_eval_constant(self):
        m = one_cell(9, [(0, 1)])
        for r in range(9):
            assert m.specialize(r)[0, 0] == 1

    def test_eval_inverse_monomial(self):
        n = 7
        expected = cmath.exp(2j * math.pi / n).conjugate()
        assert abs(one_cell(n, [(n - 1, 1)]).specialize(1)[0, 0] - expected) < 1e-12
        assert abs(one_cell(n, [(-1, 1)]).specialize(1)[0, 0] - expected) < 1e-12

    def test_eval_rejects_bad_sector(self):
        with pytest.raises(ParameterDomainError):
            one_cell(5, [(0, 1)]).specialize(5)
        with pytest.raises(ParameterDomainError):
            one_cell(5, [(0, 1)]).specialize(-1)

    def test_conjugate_sectors(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(3, 12)
            m = one_cell(n, random_terms(rng, n))
            r = rng.randrange(1, n)
            assert m.specialize(r)[0, 0] == m.specialize(n - r)[0, 0].conjugate()
            assert abs(m.specialize(r)[0, 0] - eval_root(m.entries[0][0], n, r)) < 1e-12


class TestRendering:
    def test_signed_monomial_style(self):
        assert text(6, [(0, -1), (2, -1)]) == "-1-z^2"

    def test_canonical_multi_term(self):
        assert text(6, [(1, -1), (3, -1), (5, -1)]) == "-z-z^3-z^5"

    def test_balanced_corner(self):
        terms = [(0, 4), (4, -1), (5, -1)]
        assert text(9, terms, balanced=True) == "4-z^4-z^-4"
        assert text(9, terms) == "4-z^4-z^5"

    def test_loop_entry(self):
        terms = [(0, 2), (1, -1), (3, -1)]
        assert text(4, terms) == "2-z-z^3"
        assert text(4, terms, balanced=True) == "2-z-z^-1"

    def test_zero_and_coefficients(self):
        assert text(5, []) == "0"
        assert text(5, [(1, 2), (1, -2)]) == "0"
        assert text(5, [(2, 3)]) == "3z^2"
        assert text(5, [(0, 1), (1, 2)]) == "1+2z"
        assert text(5, [(0, -12), (4, 10)], balanced=True) == "-12+10z^-1"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(term_matrices())
    def test_parse_round_trip(self, m):
        # every cell, in both exponent styles, parses back to its terms
        for balanced in (False, True):
            cells = m.cell_texts(balanced)
            assert len(cells) == m.order and all(len(row) == m.order for row in cells)
            for row, want_row in zip(cells, m.entries):
                for cell, want in zip(row, want_row):
                    assert parse_laurent(cell, m.n) == want, (cell, want)

    def test_parse_paper_style(self):
        assert parse_laurent("6 - z^2 - z^-2", 7) == {0: 6, 2: -1, 5: -1}
        assert parse_laurent("-1-z^-2", 6) == {0: -1, 4: -1}
        assert parse_laurent("-z^4-1", 8) == {0: -1, 4: -1}

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParameterDomainError):
            parse_laurent("2**z", 5)


class TestLaurentMatrix:
    def test_specialize_at_one_has_zero_row_sums(self):
        m = build_poly_matrix(6, 3)
        b = m.specialize(0)
        assert_allclose(b.imag, 0, atol=1e-12)
        assert_allclose(b.sum(axis=1), 0, atol=1e-12)

    def test_specialized_entry_at_half_turn(self):
        # -z - z^3 - z^5 at z = -1 evaluates to 3
        m = build_poly_matrix(6, 3)
        b = m.specialize(3)
        assert abs(b[3, 1] - 3.0) < 1e-12

    def test_constant_matrix_fixed_by_specialize(self):
        m = LaurentMatrix(5, 3, range(3), range(3), [0] * 3, [1] * 3)
        for r in range(5):
            assert_allclose(m.specialize(r), np.eye(3))

    def test_render_contains_expected_entries(self):
        text = build_poly_matrix(6, 3).render()
        assert "-z-z^3-z^5" in text
        assert "-1-z^2-z^4" in text

    def test_render_latex_shape(self):
        tex = build_poly_matrix(4, 1).render_latex()
        assert tex.startswith("\\begin{pmatrix}")
        assert "2-z-z^3" in tex

    @pytest.mark.parametrize("n,k", [(6, 3), (8, 4), (9, 3), (12, 6)])
    @pytest.mark.parametrize("shift", ["smallest", "largest"])
    def test_specialize_matches_entrywise_evaluation(self, n, k, shift):
        m = matrix_at_shift(n, k, shift)
        grid = m.entries
        for r in range(n):
            want = np.array([[eval_root(p, n, r) for p in row] for row in grid])
            assert_allclose(m.specialize(r), want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n,k", [(6, 3), (8, 4), (9, 3), (12, 6)])
    def test_conjugate_sectors_exact(self, n, k):
        m = build_poly_matrix(n, k)
        for r in range(1, n):
            assert np.array_equal(m.specialize(n - r), m.specialize(r).conj())

    def test_root_table_keeps_the_tables_of_n_and_2n(self):
        # a sector pipeline reads the tables of n and 2n for each cached (n, k)
        assert root_table.cache_info().maxsize == 2 * tokengraph.CACHE_SIZE

    def test_root_table_conjugate_symmetric(self):
        for n in range(1, 20):
            table = root_table(n)
            assert len(table) == n
            assert np.array_equal(table[(n - np.arange(n)) % n], table.conj())
            assert_allclose(table, np.exp(2j * np.pi * np.arange(n) / n),
                            rtol=0, atol=1e-14)

    def test_grid_round_trip(self):
        # the grid lists exactly the canonical terms, cell by cell
        for shift in ("smallest", "largest"):
            m = matrix_at_shift(8, 4, shift)
            grid = m.entries
            assert len(grid) == m.order and all(len(row) == m.order for row in grid)
            terms = [[i, j, e, c] for i, row in enumerate(grid)
                     for j, p in enumerate(row) for e, c in p.items()]
            assert terms == m.terms.tolist()
            again = LaurentMatrix(8, m.order, *m.terms[::-1].T)
            assert np.array_equal(again.terms, m.terms)

    def test_terms_canonical(self):
        m = LaurentMatrix(5, 2, [1, 0, 0, 1], [0, 1, 1, 0],
                          [7, -1, 4, 2], [3, 2, -2, 1])
        # z^-1 and z^4 cancel in (0, 1); z^7 = z^2 merges in (1, 0)
        assert m.terms.tolist() == [[1, 0, 2, 4]]
        assert m.entries == (({}, {}), ({2: 4}, {}))

    def test_specialize_rejects_bad_sector(self):
        with pytest.raises(ParameterDomainError):
            build_poly_matrix(6, 3).specialize(6)


def dense_reference(m, r):
    """B(w^r) with every term added into its entry one by one (``np.add.at``)."""
    out = np.zeros((m.order, m.order), dtype=complex)
    np.add.at(out, (m.row, m.col), m.coeff * np.exp(2j * np.pi * (r * m.exp % m.n) / m.n))
    return out


ORBIT_MATRICES = [(n, k) for n in range(3, 15) for k in range(1, n // 2 + 1)]


class TestCells:
    """``cells(r)``: one value per (row, col) that holds a term."""

    @pytest.mark.parametrize("n,k", ORBIT_MATRICES)
    def test_cells_scatter_to_specialize(self, n, k):
        # the cells are the distinct (row, col) of the terms, sorted, and
        # cover every nonzero entry of an independent dense evaluation
        for shift in ("smallest", "largest"):
            m = matrix_at_shift(n, k, shift)
            pattern = np.unique(m.row * m.order + m.col)
            for r in range(n):
                i, j, values = m.cells(r)
                assert np.array_equal(i * m.order + j, pattern), (n, k, shift, r)
                b = np.zeros((m.order, m.order), dtype=complex)
                b[i, j] = values
                assert np.array_equal(m.specialize(r), b), (n, k, shift, r)
                want = dense_reference(m, r)
                assert_allclose(b, want, rtol=0, atol=1e-14, err_msg=str((n, k, shift, r)))
                off = np.ones_like(b, dtype=bool)
                off[i, j] = False
                assert not want[off].any(), (n, k, shift, r)

    @pytest.mark.parametrize("n,k", ORBIT_MATRICES)
    def test_conjugate_cells_exact(self, n, k):
        m = build_poly_matrix(n, k)
        for r in range(1, n):
            i, j, values = m.cells(r)
            ci, cj, conj = m.cells(n - r)
            assert np.array_equal(ci, i) and np.array_equal(cj, j)
            assert np.array_equal(conj, values.conj()), (n, k, r)
            assert np.array_equal(m.specialize(n - r), m.specialize(r).conj()), (n, k, r)

    @pytest.mark.parametrize("n,k", ORBIT_MATRICES)
    def test_every_cell_has_its_transposed_cell(self, n, k):
        # the neighbour relation is symmetric, and no off-diagonal term cancels
        for shift in ("smallest", "largest"):
            m = matrix_at_shift(n, k, shift)
            i, j, _ = m.cells(0)
            assert set(zip(i.tolist(), j.tolist())) == set(zip(j.tolist(), i.tolist()))

    @given(term_matrices(), st.integers(0, 11))
    def test_random_term_sets(self, m, r):
        # repeated and cancelling terms: a cancelled term leaves no cell,
        # a cancelling sum of distinct exponents stays a cell
        r %= m.n
        i, j, values = m.cells(r)
        key = i * m.order + j
        assert np.array_equal(key, np.unique(m.row * m.order + m.col))
        assert_allclose(m.specialize(r), dense_reference(m, r), rtol=0, atol=1e-12)

    def test_cells_are_read_only(self):
        m = build_poly_matrix(8, 4)
        i, j, values = m.cells(3)
        assert not i.flags.writeable and not j.flags.writeable
        values[0] = 0  # the values are the caller's own
        assert m.cells(3)[2][0] != 0

    def test_cells_reject_bad_sector(self):
        with pytest.raises(ParameterDomainError):
            build_poly_matrix(6, 3).cells(6)
