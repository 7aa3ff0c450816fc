"""Exact closed-form counters: the classical Gauss and Carlitz irreducible
counts, the periodic deviation tables for one, two and three prescribed
traces over the base field F_2, the all-zero-trace count over any F_{2^r},
and the Moebius-inversion formula turning element counts into counts of
irreducible polynomials with three zero leading coefficients.

The deviation tables are `ResidueTable`s (see `residues`): literal rows
of single terms sign * poly(q) * 2^(r(n+ofs)/2 + plus), evaluated by the
one exact evaluator there, which asserts that every half-integer power
cancels.  The root-of-unity forms below, `fourier.PeriodicFormula`s, are
an independent route to the same deviations: written out for the base
field; for the all-zero count, group rows with r-free weights in
u = 2^ceil(r/2) over a denominator, as in `curves`.
"""

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .cyclotomic import Cyc, imaginary_unit
from .fourier import PeriodicFormula, deviation, root_group_formula
from .residues import (ALL_ZERO, BASE_FIELD, PARITY_COLUMNS, ResidueTable,
                       check_rn)


def moebius(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def divisors(n: int) -> list:
    """Positive divisors of n, ascending (none for n < 1): the divisors up
    to sqrt(n), then their cofactors."""
    low = [d for d in range(1, isqrt(max(n, 0)) + 1) if n % d == 0]
    return low + [n // d for d in reversed(low) if d * d != n]


def gauss_count(q: int, n: int) -> int:
    """Number of monic irreducible degree-n polynomials over F_q."""
    total = sum(moebius(d) * q ** (n // d) for d in divisors(n))
    assert total % n == 0
    return total // n


def carlitz_count(q: int, n: int, t1) -> int:
    """Number of monic irreducible degree-n polynomials over F_q with
    prescribed coefficient of x^(n-1); uniform over nonzero values."""
    if t1 == 0:
        return gauss_count(q, n) - (q - 1) * carlitz_count(q, n, 1)
    total = sum(moebius(d) * q ** (n // d)
                for d in divisors(n) if d % 2 == 1)
    assert total % (q * n) == 0
    return total // (q * n)


# ---------------------------------------------------------------------------
# base field F_2: deviations from the main term, periodic in n
#
# Written c * 2^((n-s)/2), i.e. entries (sign, |c|, -s, 0) at r = 1; the
# parity of s always matches the parity of the row's residue, so the power
# is integral.

TWO_TRACE_CLASSES = ("t1=0,t2=0", "t1=0,t2=1", "t1=1,t2=0", "t1=1,t2=1")
TWO_TRACE_TABLE = ResidueTable(8, TWO_TRACE_CLASSES, BASE_FIELD, {
    0: ((-1, "1", -2, 0), (1, "1", -2, 0), None, None),
    1: ((1, "1", -3, 0), (-1, "1", -3, 0), (1, "1", -3, 0), (-1, "1", -3, 0)),
    2: (None, None, (-1, "1", -2, 0), (1, "1", -2, 0)),
    3: ((-1, "1", -3, 0), (1, "1", -3, 0), (1, "1", -3, 0), (-1, "1", -3, 0)),
    4: ((1, "1", -2, 0), (-1, "1", -2, 0), None, None),
    5: ((-1, "1", -3, 0), (1, "1", -3, 0), (-1, "1", -3, 0), (1, "1", -3, 0)),
    6: (None, None, (1, "1", -2, 0), (-1, "1", -2, 0)),
    7: ((1, "1", -3, 0), (-1, "1", -3, 0), (-1, "1", -3, 0), (1, "1", -3, 0)),
}, main=(2, 0), n_min=2)

# the trace-zero classes t1 = 0
THREE_TRACE_CLASSES = ("t2=0,t3=0", "t2=0,t3=1", "t2=1,t3=0", "t2=1,t3=1")
THREE_TRACE_TABLE = ResidueTable(24, THREE_TRACE_CLASSES, BASE_FIELD, {
    0: ((-1, "5", -4, 0), (1, "3", -4, 0), (1, "1", -4, 0), (1, "1", -4, 0)),
    1: ((1, "3", -5, 0), (-1, "1", -5, 0), (-1, "1", -5, 0), (-1, "1", -5, 0)),
    2: ((1, "1", -4, 0), (-1, "1", -4, 0), (1, "1", -4, 0), (-1, "1", -4, 0)),
    3: (None, (-1, "1", -3, 0), (-1, "1", -3, 0), (1, "1", -1, 0)),
    4: (None, (1, "1", -2, 0), None, (-1, "1", -2, 0)),
    5: ((-1, "3", -5, 0), (1, "1", -5, 0), (1, "1", -5, 0), (1, "1", -5, 0)),
    6: ((1, "1", -4, 0), (-1, "1", -4, 0), (1, "1", -4, 0), (-1, "1", -4, 0)),
    7: ((1, "3", -5, 0), (-1, "1", -5, 0), (-1, "1", -5, 0), (-1, "1", -5, 0)),
    8: ((-1, "1", -2, 0), None, (-1, "1", -2, 0), (1, "1", 0, 0)),
    9: (None, (1, "1", -3, 0), (1, "1", -3, 0), (-1, "1", -1, 0)),
    10: ((1, "1", -4, 0), (-1, "1", -4, 0), (1, "1", -4, 0), (-1, "1", -4, 0)),
    11: ((-1, "3", -5, 0), (1, "1", -5, 0), (1, "1", -5, 0), (1, "1", -5, 0)),
    12: ((1, "3", -4, 0), (-1, "1", -4, 0), (-1, "3", -4, 0), (1, "1", -4, 0)),
    13: ((-1, "3", -5, 0), (1, "1", -5, 0), (1, "1", -5, 0), (1, "1", -5, 0)),
    14: ((1, "1", -4, 0), (-1, "1", -4, 0), (1, "1", -4, 0), (-1, "1", -4, 0)),
    15: (None, (1, "1", -3, 0), (1, "1", -3, 0), (-1, "1", -1, 0)),
    16: ((-1, "1", -2, 0), None, (-1, "1", -2, 0), (1, "1", 0, 0)),
    17: ((1, "3", -5, 0), (-1, "1", -5, 0), (-1, "1", -5, 0), (-1, "1", -5, 0)),
    18: ((1, "1", -4, 0), (-1, "1", -4, 0), (1, "1", -4, 0), (-1, "1", -4, 0)),
    19: ((-1, "3", -5, 0), (1, "1", -5, 0), (1, "1", -5, 0), (1, "1", -5, 0)),
    20: (None, (1, "1", -2, 0), None, (-1, "1", -2, 0)),
    21: (None, (-1, "1", -3, 0), (-1, "1", -3, 0), (1, "1", -1, 0)),
    22: ((1, "1", -4, 0), (-1, "1", -4, 0), (1, "1", -4, 0), (-1, "1", -4, 0)),
    23: ((1, "3", -5, 0), (-1, "1", -5, 0), (-1, "1", -5, 0), (-1, "1", -5, 0)),
}, main=(3, 0), n_min=3)

# the trace-one classes t1 = 1
THREE_TRACE_T1_TABLE = ResidueTable(24, THREE_TRACE_CLASSES, BASE_FIELD, {
    0: (None, None, None, None),
    1: ((1, "3", -5, 0), (-1, "1", -5, 0), (-1, "1", -5, 0), (-1, "1", -5, 0)),
    2: ((-1, "1", -4, 0), (-1, "1", -4, 0), (1, "3", -4, 0), (-1, "1", -4, 0)),
    3: ((-1, "1", -3, 0), (1, "1", -1, 0), (-1, "1", -3, 0), None),
    4: ((1, "1", -2, 0), (-1, "1", -2, 0), (-1, "1", -2, 0), (1, "1", -2, 0)),
    5: ((-1, "3", -5, 0), (1, "1", -5, 0), (1, "1", -5, 0), (1, "1", -5, 0)),
    6: ((1, "1", -2, 0), None, (1, "1", -2, 0), (-1, "1", 0, 0)),
    7: ((-1, "1", -5, 0), (-1, "1", -5, 0), (-1, "1", -5, 0), (1, "3", -5, 0)),
    8: (None, None, None, None),
    9: (None, (1, "1", -3, 0), (-1, "1", -1, 0), (1, "1", -3, 0)),
    10: ((-1, "1", -4, 0), (-1, "1", -4, 0), (1, "3", -4, 0), (-1, "1", -4, 0)),
    11: ((1, "1", -5, 0), (1, "1", -5, 0), (1, "1", -5, 0), (-1, "3", -5, 0)),
    12: ((1, "1", -2, 0), (-1, "1", -2, 0), (-1, "1", -2, 0), (1, "1", -2, 0)),
    13: ((-1, "3", -5, 0), (1, "1", -5, 0), (1, "1", -5, 0), (1, "1", -5, 0)),
    14: ((-1, "1", -4, 0), (1, "3", -4, 0), (-1, "1", -4, 0), (-1, "1", -4, 0)),
    15: ((1, "1", -3, 0), (-1, "1", -1, 0), (1, "1", -3, 0), None),
    16: (None, None, None, None),
    17: ((1, "3", -5, 0), (-1, "1", -5, 0), (-1, "1", -5, 0), (-1, "1", -5, 0)),
    18: ((-1, "1", 0, 0), (1, "1", -2, 0), None, (1, "1", -2, 0)),
    19: ((1, "1", -5, 0), (1, "1", -5, 0), (1, "1", -5, 0), (-1, "3", -5, 0)),
    20: ((1, "1", -2, 0), (-1, "1", -2, 0), (-1, "1", -2, 0), (1, "1", -2, 0)),
    21: (None, (-1, "1", -3, 0), (1, "1", -1, 0), (-1, "1", -3, 0)),
    22: ((-1, "1", -4, 0), (1, "3", -4, 0), (-1, "1", -4, 0), (-1, "1", -4, 0)),
    23: ((-1, "1", -5, 0), (-1, "1", -5, 0), (-1, "1", -5, 0), (1, "3", -5, 0)),
}, main=(3, 0), n_min=3)
THREE_TRACE_TABLES = {0: THREE_TRACE_TABLE, 1: THREE_TRACE_T1_TABLE}


def two_trace_deviation(n: int, t1: int, t2: int) -> int:
    """f(n, t1, t2) = F_2(n, t1, t2) - 2^(n-2), period 8 in n (n >= 2)."""
    return TWO_TRACE_TABLE.deviation(1, n, f"t1={t1},t2={t2}")


def count_two_traces(n: int, t1: int, t2: int) -> int:
    """Number of a in F_{2^n} with first two traces (t1, t2)."""
    return TWO_TRACE_TABLE.count(1, n, f"t1={t1},t2={t2}")


def three_trace_deviation(n: int, t1: int, t2: int, t3: int) -> int:
    """f(n, t1, t2, t3) = F_2(n, t1, t2, t3) - 2^(n-3) for n >= 3, from the
    period-24 table of the classes with first trace t1."""
    if t1 not in THREE_TRACE_TABLES:
        raise ValueError(f"need t1 in (0, 1), got t1 = {t1}")
    return THREE_TRACE_TABLES[t1].deviation(1, n, f"t2={t2},t3={t3}")


def count_three_traces(n: int, t1: int, t2: int, t3: int) -> int:
    """Number of a in F_{2^n} with first three traces (t1, t2, t3)."""
    return (1 << (n - 3)) + three_trace_deviation(n, t1, t2, t3)


# ---------------------------------------------------------------------------
# root-of-unity closed forms for the base-field deviations

@lru_cache(maxsize=None)
def two_trace_formula(t1: int, t2: int) -> PeriodicFormula:
    """Period-8 spectral form of f(n, t1, t2): nonzero coefficients sit at
    the eighth roots of unity omega_8^3 and omega_8^5."""
    i8 = imaginary_unit(8)
    quarter = Fraction(1, 4)
    table = {
        (0, 0): {3: -quarter, 5: -quarter},
        (0, 1): {3: quarter, 5: quarter},
        (1, 0): {3: i8.scale(-quarter), 5: i8.scale(quarter)},
        (1, 1): {3: i8.scale(quarter), 5: i8.scale(-quarter)},
    }
    coeffs = [table[(t1, t2)].get(k, 0) for k in range(8)]
    return PeriodicFormula(8, coeffs, q=2)


@lru_cache(maxsize=None)
def three_trace_formula(t1: int, t2: int, t3: int) -> PeriodicFormula:
    """Period-24 spectral form of f(n, t1, t2, t3).

    Index k carries the eigenvalue sqrt(2) * omega_24^k; the support is
    {9, 15} (the two-trace eigenvalues), {6, 18} (+-sqrt(2) i) and
    {5, 11, 13, 19} (the genus-two quartet).
    """
    i = imaginary_unit(24)
    one = Cyc.rational(24, 1)
    e = Fraction(1, 8)
    q = Fraction(1, 4)
    if t1 == 0:
        sign_q = {(0, 0): -1, (0, 1): 0, (1, 0): 0, (1, 1): 1}[(t2, t3)]
        sign_i = {(0, 0): -1, (0, 1): 1, (1, 0): -1, (1, 1): 1}[(t2, t3)]
        sign_w = {(0, 0): -1, (0, 1): 1, (1, 0): 1, (1, 1): -1}[(t2, t3)]
        coeffs = {
            9: sign_q * q, 15: sign_q * q,
            6: sign_i * e, 18: sign_i * e,
            5: sign_w * e, 11: sign_w * e,
            13: sign_w * e, 19: sign_w * e,
        }
    else:
        sign_i = {(0, 0): 1, (0, 1): -1, (1, 0): -1, (1, 1): 1}[(t2, t3)]
        # weights at the two-trace eigenvalues: -+(1 +- i)/8 patterns
        w9, w15 = {
            (0, 0): (-(one + i), -(one - i)),
            (0, 1): (one - i, one + i),
            (1, 0): (one + i, one - i),
            (1, 1): (-(one - i), -(one + i)),
        }[(t2, t3)]
        sign_w = {(0, 0): -1, (0, 1): 1, (1, 0): -1, (1, 1): 1}[(t2, t3)]
        coeffs = {
            6: sign_i * e, 18: sign_i * e,
            9: w9.scale(e), 15: w15.scale(e),
            5: i.scale(sign_w * e), 11: i.scale(-sign_w * e),
            13: i.scale(sign_w * e), 19: i.scale(-sign_w * e),
        }
    out = [coeffs.get(k, 0) for k in range(24)]
    return PeriodicFormula(24, out, q=2)


# ---------------------------------------------------------------------------
# all three traces zero over F_{2^r}: period 24 in n, split by parity of r
#
# The deviation from q^(n-3) is P(q) * q^((n+ofs)/2): q^(n/2-k) on even
# rows (ofs = -2k), q^((n-1)/2-k) on odd rows (ofs = -1-2k).

ALL_ZERO_TABLE = ResidueTable(24, PARITY_COLUMNS, ALL_ZERO, {
    0: ((-1, "(q-1)(2q+1)", -4, 0), (-1, "(q-1)(2q+1)", -4, 0)),
    1: ((1, "(q^2-1)", -5, 0), (1, "(q^2-1)", -5, 0)),
    2: ((1, "(q-1)", -4, 0), (1, "(q-1)", -4, 0)),
    3: (None, None),
    4: (None, None),
    5: ((-1, "(q^2-1)", -5, 0), (1, "(q^2-1)", -5, 0)),
    6: ((1, "(q-1)", -4, 0), (-1, "(q-1)", -4, 0)),
    7: ((1, "(q^2-1)", -5, 0), (1, "(q^2-1)", -5, 0)),
    8: ((-1, "(q-1)", -2, 0), (-1, "(q-1)", -2, 0)),
    9: (None, None),
    10: ((1, "(q-1)", -4, 0), (1, "(q-1)", -4, 0)),
    11: ((-1, "(q^2-1)", -5, 0), (1, "(q^2-1)", -5, 0)),
    12: ((1, "(q^2-1)", -4, 0), (-1, "(q^2-1)", -4, 0)),
    13: ((-1, "(q^2-1)", -5, 0), (1, "(q^2-1)", -5, 0)),
    14: ((1, "(q-1)", -4, 0), (1, "(q-1)", -4, 0)),
    15: (None, None),
    16: ((-1, "(q-1)", -2, 0), (-1, "(q-1)", -2, 0)),
    17: ((1, "(q^2-1)", -5, 0), (1, "(q^2-1)", -5, 0)),
    18: ((1, "(q-1)", -4, 0), (-1, "(q-1)", -4, 0)),
    19: ((-1, "(q^2-1)", -5, 0), (1, "(q^2-1)", -5, 0)),
    20: (None, None),
    21: (None, None),
    22: ((1, "(q-1)", -4, 0), (1, "(q-1)", -4, 0)),
    23: ((1, "(q^2-1)", -5, 0), (1, "(q^2-1)", -5, 0)),
}, main=(3, 0))


def count_all_zero_traces(r: int, n: int) -> int:
    """Number of a in F_{q^n}, q = 2^r, whose first three traces all vanish.

    Valid for every n >= 1; for n = 1, 2 the missing traces are empty sums
    and the value is 1.
    """
    return ALL_ZERO_TABLE.count(r, n)


# ---------------------------------------------------------------------------
# irreducible polynomials with three zero leading coefficients

def irreducible_all_zero(r: int, n: int) -> int:
    """Count of monic irreducible degree-n polynomials over F_{2^r} whose
    top three coefficients vanish, by Moebius inversion over odd divisors:

      I(n) = (1/n) sum_{d | n, d odd} mu(d) (F(n/d) - [n even] q^(n/2d - 1))
    """
    if n < 3:
        raise ValueError("need n >= 3")
    total = 0
    for d in divisors(n):
        if d % 2:
            term = count_all_zero_traces(r, n // d)
            if n % 2 == 0:
                term -= 1 << r * (n // (2 * d) - 1)
            total += moebius(d) * term
    val, rem = divmod(total, n)
    if rem or val < 0:
        raise AssertionError(f"inversion gave non-count {Fraction(total, n)} "
                             f"at r={r}, n={n}")
    return val


def irreducible_all_zero_via_carlitz(r: int, n: int) -> int:
    """Same count with the even-n correction rewritten through the Carlitz
    count over the square-root field F_{2^(r/2)} (defined for even r only):

      I(n) = (1/n) sum mu(d) F(n/d) - [n even] I_s(n,1) / s,  s = sqrt(q).

    The 1/s normalization is forced: sum_{d odd} mu(d) q^(n/2d-1) / n equals
    I_s(n,1)/s, not I_s(n,1) (q = 4, n = 4 separates the two readings).
    """
    if r % 2:
        raise ValueError("square-root base field needs even r")
    if n < 3:
        raise ValueError("need n >= 3")
    s = 1 << (r // 2)
    val = Fraction(sum(moebius(d) * count_all_zero_traces(r, n // d)
                       for d in divisors(n) if d % 2), n)
    if n % 2 == 0:
        val -= Fraction(carlitz_count(s, n, 1), s)
    if val.denominator != 1 or val < 0:
        raise AssertionError(f"inversion gave non-count {val} at r={r}, n={n}")
    return int(val)


# ---------------------------------------------------------------------------
# spectral form of the all-zero-trace count (both parities of r)

# r % 2 -> group rows (num, den, k of sqrt(q) omega_24^k), as in `curves`
_F000 = {
    1: (((0, 0, 8, 0, -6, 0, 1), 64, (0, 12)),
        ((0, 0, -8, 0, 2, 0, 1), 64, (6, 18)),
        ((0, 8, -4, 0, 0, -2, 1), 96, (1, 7, 17, 23)),
        ((0, -8, -4, 0, 0, 2, 1), 96, (5, 11, 13, 19)),
        ((0, 32, -8, 0, -6, -8, 5), 192, (3, 21)),
        ((0, -32, -8, 0, -6, 8, 5), 192, (9, 15))),
    0: (((0, 8, 0, 0, -5, -8, 5), 24, (0,)),
        ((0, -8, 0, 0, -5, 8, 5), 24, (12,)),
        ((0, 0, -4, 0, -1, 0, 5), 24, (6, 18)),
        ((0, 0, 0, 0, -1, 0, 1), 8, (3, 21, 9, 15)),
        ((0, 0, 1, 0, -2, 0, 1), 12, (2, 10, 14, 22)),
        ((0, 2, -3, 0, 2, -2, 1), 12, (4, 20)),
        ((0, -2, -3, 0, 2, 2, 1), 12, (8, 16))),
}


def count_all_zero_traces_spectral(r: int, n: int) -> int:
    """The all-zero-trace count evaluated from its root-of-unity expansion
    q^(n-3) - q^(n/2-3) * sum over eigenvalue groups: q^(n-3) less the
    `fourier.deviation` of the period-24 formula of its rows, over q^3."""
    check_rn(r, n)
    q = 1 << r
    formula = root_group_formula(_F000[r % 2], r)
    val = Fraction(q) ** (n - 3) - deviation(formula, n) / q ** 3
    assert val.denominator == 1 and val >= 0
    return int(val)
