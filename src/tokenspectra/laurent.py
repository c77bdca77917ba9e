"""Matrices of integer Laurent polynomials with exponents reduced modulo n.

Every evaluation point in this library is an n-th root of unity, where
z^n = 1, so a monomial z^-m can be stored as z^(n-m) without changing
any value.  Exponents are therefore canonicalized to [0, n).  This keeps
negative powers out of storage while the renderer can still print either
form.  Coefficients are exact integers.  A matrix is stored only as
integer term arrays.  Evaluated at an n-th root of unity they give the
matrix's nonzero cells with one table lookup and one segmented sum (the
angle r*e is reduced mod n first, so phases stay accurate for any
exponent); the dense form is those cells scattered, and every text form
is rendered from the terms cell by cell.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .tokengraph import CACHE_SIZE, check_sector


@lru_cache(maxsize=2 * CACHE_SIZE)  # each sector pipeline reads the tables of n and 2n
def root_table(n: int) -> np.ndarray:
    """The n-th roots of unity exp(2*pi*i*m/n) for m = 0..n-1, read-only.

    Entries past index n/2 are stored as the conjugates of the entries
    below it, so table[(n - m) % n] == conj(table[m]) holds exactly.  A
    matrix with integer coefficients then specializes at sector n - r to
    exactly the conjugate of its value at sector r.
    """
    half = np.exp(2j * np.pi * np.arange(n // 2 + 1) / n)
    if n % 2 == 0:
        half[-1] = -1.0
    table = np.concatenate([half, half[1:(n + 1) // 2][::-1].conj()])
    table.flags.writeable = False
    return table


@dataclass(frozen=True, init=False, eq=False)
class LaurentMatrix:
    """Square matrix of Laurent polynomials sharing one modulus n.

    Stored as four parallel int arrays of terms: term t adds
    ``coeff[t] * z^exp[t]`` to entry ``(row[t], col[t])``.  Terms are
    canonical: sorted by (row, col, exp), exponents in [0, n), at most
    one term per (row, col, exp) and no zero coefficient.  The
    constructor takes term arrays in any order.  The grid of entries and
    their text forms are rendered from the terms on demand.  Immutable
    after construction.
    """

    n: int
    order: int
    row: np.ndarray
    col: np.ndarray
    exp: np.ndarray
    coeff: np.ndarray

    def __init__(self, n: int, order: int, row, col, exp, coeff) -> None:
        """Matrix with the given terms; repeated (row, col, exp) terms add up."""
        row, col, exp, coeff = (np.asarray(a, dtype=np.int64)
                                for a in (row, col, exp, coeff))
        key = (row * order + col) * n + exp % n
        key, where = np.unique(key, return_inverse=True)
        total = np.zeros(len(key), dtype=np.int64)
        np.add.at(total, where, coeff)
        nonzero = total != 0
        cell, exp = np.divmod(key[nonzero], n)
        row, col = np.divmod(cell, order)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "order", order)
        for name, arr in (("row", row), ("col", col), ("exp", exp),
                          ("coeff", total[nonzero])):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def terms(self) -> np.ndarray:
        """The canonical terms as rows (row, col, exp, coeff)."""
        return np.stack([self.row, self.col, self.exp, self.coeff], axis=1)

    @property
    def entries(self) -> tuple[tuple[dict[int, int], ...], ...]:
        """The square grid of entries, each a dict {exponent: coefficient}.

        Exponents are canonical and ascending; an entry without terms is
        an empty dict.
        """
        grid = [{} for _ in range(self.order * self.order)]
        for cell, e, c in zip((self.row * self.order + self.col).tolist(),
                              self.exp.tolist(), self.coeff.tolist()):
            grid[cell][e] = c
        return tuple(tuple(grid[i:i + self.order])
                     for i in range(0, len(grid), self.order))

    def cell_texts(self, balanced: bool = False) -> list[list[str]]:
        """Each entry in signed-monomial form, e.g. ``-1-z^2`` or ``4-z^4-z^-4``.

        ``balanced`` prints exponents above n/2 as negative powers.
        Terms appear in increasing canonical exponent order; an entry
        without terms prints as ``0``.
        """
        return [[_cell_text(p, self.n, balanced) for p in row] for row in self.entries]

    @cached_property
    def _cell_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The first term of each distinct (row, col), and its row and col."""
        cell, start = np.unique(self.row * self.order + self.col, return_index=True)
        index = (start, *np.divmod(cell, self.order))
        for arr in index:
            arr.flags.writeable = False
        return index

    def cells(self, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cells (row, col, value) at z = exp(2*pi*i*r/n), sorted by (row, col).

        One cell per (row, col) that holds a term, its value the sum of
        its terms; a sum that cancels stays a cell.  The values at n - r
        are exactly the conjugates of those at r.
        """
        n, r = check_sector(self.n, r)
        start, row, col = self._cell_index
        values = self.coeff * root_table(n)[(r * self.exp) % n]
        return row, col, np.add.reduceat(values, start)

    def specialize(self, r: int) -> np.ndarray:
        """The dense matrix at z = exp(2*pi*i*r/n): ``cells(r)`` scattered."""
        i, j, values = self.cells(r)
        out = np.zeros((self.order, self.order), dtype=complex)
        out[i, j] = values
        return out

    def render(self, balanced: bool = False) -> str:
        """Aligned plain-text grid of the rendered entries."""
        cells = self.cell_texts(balanced)
        widths = [max(len(row[j]) for row in cells) for j in range(self.order)]
        return "\n".join(
            "  ".join(cell.rjust(widths[j]) for j, cell in enumerate(row))
            for row in cells)

    def render_latex(self, balanced: bool = False) -> str:
        rows = [" & ".join(row) for row in self.cell_texts(balanced)]
        body = " \\\\\n".join(rows)
        return "\\begin{pmatrix}\n" + body + "\n\\end{pmatrix}"


def _cell_text(coeffs: dict[int, int], n: int, balanced: bool) -> str:
    parts = []
    for e, c in coeffs.items():
        shown = e - n if balanced and 2 * e > n else e
        z = "" if shown == 0 else "z" if shown == 1 else f"z^{shown}"
        body = z if abs(c) == 1 and z else f"{abs(c)}{z}"
        parts.append(("-" if c < 0 else "+" if parts else "") + body)
    return "".join(parts) or "0"
