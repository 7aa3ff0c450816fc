"""Periodic residue tables: the one representation of every closed form
whose deviation from a main term q^(n-k) + c repeats in n (q = 2^r).

A table has one row per residue n mod its period and one entry per
column.  Columns are parities of r ("r odd", "r even"), chosen by r, or
trace classes over F_2 such as "t1=0,t2=1", chosen by the caller (these
tables hold r = 1 only).  An entry is None (no deviation) or one term
(sign, poly, ofs, plus) meaning sign * POLYS[poly](q) * 2^(r(n+ofs)/2 + plus).
The data lives next to its counters in `closedforms` and `curves`; this
module stays free of the spectral and charpoly routes it is checked against.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

PARITY_COLUMNS = ("r odd", "r even")

# the polynomials in q that entries carry, coefficients in ascending powers
POLYS = {
    "1": (1,), "3": (3,), "5": (5,),
    "(q-1)": (-1, 1), "(q-2)": (-2, 1), "(q-3)": (-3, 1),
    "(q^2-1)": (-1, 0, 1), "(q-1)(2q+1)": (-1, -1, 2),
}


def check_rn(r: int, n: int = 1, n_min: int = 1):
    """Reject r < 1 or n < n_min with ValueError: the one boundary check
    of (r, n) for the tables and for the spectral and charpoly routes."""
    if r < 1:
        raise ValueError(f"need r >= 1, got r = {r}")
    if n < n_min:
        raise ValueError(f"need n >= {n_min}, got n = {n}")


def evaluate(term, r: int, n: int):
    """Exact value of one entry at (r, n): an int, or a Fraction when the
    exponent is negative (the all-zero table at n = 1, 2)."""
    if term is None:
        return 0
    sign, poly, ofs, plus = term
    e = r * (n + ofs)
    assert e % 2 == 0, "half-integer exponent did not cancel"
    e = e // 2 + plus
    coef = 0
    for c in reversed(POLYS[poly]):
        coef = (coef << r) + c
    coef *= sign
    return coef << e if e >= 0 else Fraction(coef, 1 << -e)


class Notation(NamedTuple):
    """How a table is written: `main` is the written main term ("" when the
    table shows bare deviations), `q` how q is written in coefficients and
    `power(ofs, plus)` the written power of two."""
    main: str
    q: str
    power: Callable


BASE_FIELD = Notation("", "q", lambda ofs, plus: f"2^((n-{-ofs})/2)")
ALL_ZERO = Notation("q^(n-3)", "q", lambda ofs, plus: (
    f"q^((n-1)/2-{(-1 - ofs) // 2})" if ofs % 2 else f"q^(n/2-{-ofs // 2})"))
CURVE = Notation("2^(rn)+1", "2^r", lambda ofs, plus: (
    f"2^(r(n+{ofs})/2{f'+{plus}' if plus else ''})"))


@dataclass(frozen=True)
class ResidueTable:
    period: int
    columns: tuple
    notation: Notation
    rows: dict              # residue mod period -> one entry per column
    main: tuple = (0, 1)    # (k, c): main term q^(n-k) + c
    n_min: int = 1

    @property
    def by_parity(self) -> bool:
        return self.columns[0] in PARITY_COLUMNS

    def term(self, r: int, n: int, column: str = None):
        """The entry at (r, n); `column` names the class in a class table.
        Every lookup passes here, and bad input raises ValueError."""
        check_rn(r, n, self.n_min)
        if self.by_parity:
            if column is not None:
                raise ValueError("a parity table takes no class")
            column = PARITY_COLUMNS[0 if r % 2 else 1]
        elif r != 1:
            raise ValueError(f"table is over F_2: need r = 1, got r = {r}")
        if column not in self.columns:
            raise ValueError(f"no column {column} in this table")
        return self.rows[n % self.period][self.columns.index(column)]

    def deviation(self, r: int, n: int, column: str = None):
        return evaluate(self.term(r, n, column), r, n)

    def main_term(self, r: int, n: int):
        k, c = self.main
        e = r * (n - k)
        return (1 << e if e >= 0 else Fraction(1, 1 << -e)) + c

    def count(self, r: int, n: int, column: str = None) -> int:
        val = self.main_term(r, n) + self.deviation(r, n, column)
        if type(val) is not int:
            assert val.denominator == 1, f"non-integral count {val}"
            val = int(val)
        assert val >= 0, f"negative count {val}"
        return val

    def value(self, r: int, n: int, column: str = None):
        """What a written entry stands for: the count, or the bare
        deviation when the notation writes no main term."""
        if self.notation.main:
            return self.count(r, n, column)
        return self.deviation(r, n, column)

    def symbol(self, term) -> str:
        """One entry written in the table's notation."""
        main, q, power = self.notation
        if term is None:
            return main or "0"
        sign, poly, ofs, plus = term
        coef = "" if poly == "1" else poly.replace("q", q) + "*"
        if not main:
            return ("-" if sign < 0 else "") + coef + power(ofs, plus)
        return f"{main} {'-' if sign < 0 else '+'} {coef}{power(ofs, plus)}"
