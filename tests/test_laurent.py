import cmath
import math
import random

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tokenspectra import (LaurentMatrix, LaurentPoly, ParameterDomainError,
                          build_poly_matrix, parse_laurent)
from tokenspectra.laurent import root_table


def random_poly(rng, n, max_terms=5):
    terms = [(rng.randrange(-2 * n, 2 * n), rng.randint(-4, 4))
             for _ in range(rng.randint(0, max_terms))]
    return LaurentPoly.from_terms(n, terms)


class TestLaurentPoly:
    def test_canonical_storage(self):
        p = LaurentPoly.from_terms(6, [(7, 2), (-2, 1), (1, -2), (0, 0)])
        assert p.coeffs == {4: 1}  # exponent 7 = 1 cancels the -2 there

    def test_negative_exponent_wraps(self):
        assert LaurentPoly.from_terms(6, [(-2, 1)]) == LaurentPoly.from_terms(6, [(4, 1)])

    def test_eval_vanishing_sum(self):
        # z + z^3 + z^5 at the primitive 6th root: w(1 + w^2 + w^4) = 0
        p = LaurentPoly.from_terms(6, [(1, 1), (3, 1), (5, 1)])
        assert abs(p.eval_root(1)) < 1e-12

    def test_eval_constant(self):
        p = LaurentPoly.from_terms(9, [(0, 1)])
        for r in range(9):
            assert p.eval_root(r) == 1

    def test_eval_inverse_monomial(self):
        n = 7
        p = LaurentPoly.from_terms(n, [(n - 1, 1)])
        expected = cmath.exp(2j * math.pi / n).conjugate()
        assert abs(p.eval_root(1) - expected) < 1e-12

    def test_eval_rejects_bad_sector(self):
        with pytest.raises(ParameterDomainError):
            LaurentPoly.from_terms(5, [(0, 1)]).eval_root(5)

    def test_conjugate_sectors(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(3, 12)
            p = random_poly(rng, n)
            r = rng.randrange(1, n)
            a = p.eval_root(r)
            b = p.eval_root(n - r) if r else p.eval_root(0)
            assert abs(a - b.conjugate()) < 1e-12


class TestRendering:
    def test_signed_monomial_style(self):
        p = LaurentPoly.from_terms(6, [(0, -1), (2, -1)])
        assert p.render() == "-1-z^2"

    def test_canonical_multi_term(self):
        p = LaurentPoly.from_terms(6, [(1, -1), (3, -1), (5, -1)])
        assert p.render() == "-z-z^3-z^5"

    def test_balanced_corner(self):
        p = LaurentPoly.from_terms(9, [(0, 4), (4, -1), (5, -1)])
        assert p.render(balanced=True) == "4-z^4-z^-4"
        assert p.render() == "4-z^4-z^5"

    def test_loop_entry(self):
        p = LaurentPoly.from_terms(4, [(0, 2), (1, -1), (3, -1)])
        assert p.render() == "2-z-z^3"
        assert p.render(balanced=True) == "2-z-z^-1"

    def test_zero_and_coefficients(self):
        assert LaurentPoly(5, {}).render() == "0"
        assert LaurentPoly.from_terms(5, [(2, 3)]).render() == "3z^2"
        assert LaurentPoly.from_terms(5, [(0, 1), (1, 2)]).render() == "1+2z"

    def test_parse_round_trip(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randint(2, 11)
            p = random_poly(rng, n)
            for balanced in (False, True):
                assert parse_laurent(p.render(balanced), n) == p

    def test_parse_paper_style(self):
        assert parse_laurent("6 - z^2 - z^-2", 7) == LaurentPoly.from_terms(
            7, [(0, 6), (2, -1), (5, -1)])
        assert parse_laurent("-1-z^-2", 6) == LaurentPoly.from_terms(
            6, [(0, -1), (4, -1)])

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
        m = build_poly_matrix(n, k, shift=shift)
        grid = m.entries
        for r in range(n):
            want = np.array([[p.eval_root(r) for p in row] for row in grid])
            assert_allclose(m.specialize(r), want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n,k", [(6, 3), (8, 4), (9, 3), (12, 6)])
    def test_conjugate_sectors_exact(self, n, k):
        m = build_poly_matrix(n, k)
        for r in range(1, n):
            assert np.array_equal(m.specialize(n - r), m.specialize(r).conj())

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
            m = build_poly_matrix(8, 4, shift=shift)
            grid = m.entries
            assert len(grid) == m.order and all(len(row) == m.order for row in grid)
            terms = [[i, j, e, c] for i, row in enumerate(grid)
                     for j, p in enumerate(row) for e, c in p.coeffs.items()]
            assert terms == m.terms.tolist()
            again = LaurentMatrix(8, m.order, *m.terms[::-1].T)
            assert np.array_equal(again.terms, m.terms)

    def test_terms_canonical(self):
        m = LaurentMatrix(5, 2, [1, 0, 0, 1], [0, 1, 1, 0],
                          [7, -1, 4, 2], [3, 2, -2, 1])
        # z^-1 and z^4 cancel in (0, 1); z^7 = z^2 merges in (1, 0)
        assert m.terms.tolist() == [[1, 0, 2, 4]]
        assert m.entries[0][1] == LaurentPoly(5, {})
        assert m.entries[1][0] == LaurentPoly.from_terms(5, [(2, 4)])

    def test_specialize_rejects_bad_sector(self):
        with pytest.raises(ParameterDomainError):
            build_poly_matrix(6, 3).specialize(6)
