"""Integer Laurent polynomials with exponents reduced modulo n.

Every evaluation point in this library is an n-th root of unity, where
z^n = 1, so a monomial z^-m can be stored as z^(n-m) without changing
any value.  Exponents are therefore canonicalized to [0, n).  This keeps
negative powers out of storage while the renderer can still print either
form.  Coefficients are exact integers; evaluation reduces the angle
r*e mod n before calling exp, so phases stay accurate for any exponent.
A matrix of such polynomials is stored as integer term arrays, which
specialize to a complex matrix with one table lookup and one scatter.
"""
from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ParameterDomainError

# root tables kept: each sector pipeline reads the tables of n and 2n
ROOT_CACHE_SIZE = 64


@dataclass(frozen=True)
class LaurentPoly:
    """Sparse Laurent polynomial mod z^n = 1; exponent -> nonzero int."""

    n: int
    coeffs: dict = field(default_factory=dict)

    @classmethod
    def from_terms(cls, n: int, terms) -> "LaurentPoly":
        acc: dict[int, int] = {}
        for e, c in terms:
            e %= n
            acc[e] = acc.get(e, 0) + c
        return cls(n, {e: c for e, c in sorted(acc.items()) if c != 0})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def eval_root(self, r: int) -> complex:
        """Value at z = exp(2*pi*i*r/n) for 0 <= r < n."""
        if not 0 <= r < self.n:
            raise ParameterDomainError(f"sector r={r} must lie in [0, {self.n})")
        return sum(
            (c * cmath.exp(2j * math.pi * ((r * e) % self.n) / self.n)
             for e, c in self.coeffs.items()),
            start=0j,
        )

    def render(self, balanced: bool = False) -> str:
        """Signed-monomial text form, e.g. ``-1-z^2`` or ``4-z^4-z^-4``.

        ``balanced`` prints exponents above n/2 as negative powers.
        Terms appear in increasing canonical exponent order.
        """
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in sorted(self.coeffs.items()):
            shown = e - self.n if balanced and 2 * e > self.n else e
            if shown == 0:
                body = str(abs(c))
            else:
                z = "z" if shown == 1 else f"z^{shown}"
                body = z if abs(c) == 1 else f"{abs(c)}{z}"
            sign = "-" if c < 0 else ("+" if parts else "")
            parts.append(sign + body)
        return "".join(parts)


_TERM_RE = re.compile(r"([+-]?)(\d*)(z(?:\^(-?\d+))?)?")


def parse_laurent(text: str, n: int) -> LaurentPoly:
    """Parse signed-monomial text like ``6-z^2-z^-2`` into canonical form."""
    s = text.replace(" ", "")
    terms = []
    pos = 0
    while pos < len(s):
        # every group is optional, so the pattern matches; a term needs digits or z
        sign, digits, zpart, expo = (m := _TERM_RE.match(s, pos)).groups()
        if not digits and not zpart:
            raise ParameterDomainError(f"cannot parse {text!r} at {s[pos:]!r}")
        coeff = (int(digits) if digits else 1) * (-1 if sign == "-" else 1)
        e = (int(expo) if expo is not None else 1) if zpart else 0
        terms.append((e, coeff))
        pos = m.end()
    return LaurentPoly.from_terms(n, terms)


@lru_cache(maxsize=ROOT_CACHE_SIZE)
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
    constructor takes term arrays in any order.  The grid of LaurentPoly
    (``entries``) is rebuilt on demand for rendering and output.
    Immutable after construction.
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
    def entries(self) -> tuple[tuple[LaurentPoly, ...], ...]:
        """The square grid of LaurentPoly entries."""
        cells: dict[tuple[int, int], dict[int, int]] = {}
        for i, j, e, c in self.terms.tolist():
            cells.setdefault((i, j), {})[e] = c
        grid = [[LaurentPoly(self.n, {})] * self.order for _ in range(self.order)]
        for (i, j), coeffs in cells.items():
            grid[i][j] = LaurentPoly(self.n, coeffs)
        return tuple(map(tuple, grid))

    def specialize(self, r: int) -> np.ndarray:
        """Entrywise evaluation at z = exp(2*pi*i*r/n)."""
        if not 0 <= r < self.n:
            raise ParameterDomainError(f"sector r={r} must lie in [0, {self.n})")
        values = self.coeff * root_table(self.n)[(r * self.exp) % self.n]
        out = np.zeros((self.order, self.order), dtype=complex)
        np.add.at(out, (self.row, self.col), values)
        return out

    def render(self, balanced: bool = False) -> str:
        """Aligned plain-text grid of the rendered entries."""
        cells = [[p.render(balanced) for p in row] for row in self.entries]
        widths = [max(len(row[j]) for row in cells) for j in range(self.order)]
        return "\n".join(
            "  ".join(cell.rjust(widths[j]) for j, cell in enumerate(row))
            for row in cells)

    def render_latex(self, balanced: bool = False) -> str:
        rows = [" & ".join(p.render(balanced) for p in row)
                for row in self.entries]
        body = " \\\\\n".join(rows)
        return "\\begin{pmatrix}\n" + body + "\n\\end{pmatrix}"
