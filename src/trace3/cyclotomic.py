"""Exact arithmetic in cyclotomic fields Q(zeta_P).

An element is a tuple of integer numerators over one positive common
denominator, num / den, in the power basis 1, z, ..., z^(d-1) modulo the
P-th cyclotomic polynomial (d = deg Phi_P).  It is kept in lowest terms
(den > 0, gcd(den, *num) == 1), so equal elements have equal tuples and
equality and rationality are decided on integers.  Arithmetic works on
ints and reduces each result once; no floating point anywhere.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

MAX_ORDER = 120


@lru_cache(maxsize=None)
def cyclotomic_polynomial(p: int) -> tuple:
    """Integer coefficients of Phi_p, ascending, computed by dividing x^p - 1
    by the cyclotomic polynomials of the proper divisors, which are monic."""
    num = [-1] + [0] * (p - 1) + [1]  # x^p - 1
    for d in range(1, p):
        if p % d == 0:
            den = cyclotomic_polynomial(d)
            quo = [0] * (len(num) - len(den) + 1)
            for i in range(len(quo) - 1, -1, -1):
                quo[i] = c = num[i + len(den) - 1]
                for j, dj in enumerate(den):
                    num[i + j] -= c * dj
            assert not any(num)  # exact
            num = quo
    return tuple(num)


@lru_cache(maxsize=None)
def _degree(p: int) -> int:
    """d = deg Phi_p, the number of coordinates; rejects orders out of range."""
    if not 1 <= p <= MAX_ORDER:
        raise ValueError(f"order {p} out of range 1..{MAX_ORDER}")
    return len(cyclotomic_polynomial(p)) - 1


@lru_cache(maxsize=None)
def _phi_tail(p: int) -> tuple:
    """The nonzero lower coefficients (j, c_j) of the monic Phi_p: the
    reduction z^d = -sum_j c_j z^j."""
    phi = cyclotomic_polynomial(p)
    return tuple((j, c) for j, c in enumerate(phi[:-1]) if c)


def _reduce(p: int, poly: list, den: int) -> "Cyc":
    """sum_k poly[k] z^k / den for a fresh list of at least d integers,
    folded down from the top by z^d = -sum_j c_j z^j: the one integer-row
    kernel behind every product, rotation, conjugate and power of zeta."""
    d = _degree(p)
    for k in range(len(poly) - 1, d - 1, -1):
        c = poly[k]
        if c:
            for j, cj in _phi_tail(p):
                poly[k - d + j] -= c * cj
    return _new(p, tuple(poly[:d]), den)


def rotation_sum(p: int, terms: list) -> "Cyc":
    """sum of g * zeta_P^s over the pairs (g, s) of terms, with no product:
    g zeta^s puts g's numerator a_i at the exponent i + s (mod P), over the
    lcm of the denominators (a zero g has den 1).  A nonzero g of another
    order fails as mixed-order arithmetic does; a zero one is skipped."""
    den = lcm(1, *(g.den for g, _ in terms))
    poly = [0] * p
    for g, s in terms:
        if g.p != p and any(g.num):
            raise ValueError("mixed cyclotomic orders")
        f = den // g.den
        for i, a in enumerate(g.num):
            if a:
                poly[(i + s) % p] += a * f
    return _reduce(p, poly, den)


def _new(p: int, num: tuple, den: int) -> "Cyc":
    """num / den in lowest terms, built without Cyc.__init__ (den > 0)."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple(a // g for a in num)
            den //= g
    x = object.__new__(Cyc)
    x.p = p
    x.num = num
    x.den = den
    return x


class Cyc:
    """An element of Q(zeta_P): num / den with integer numerators."""

    __slots__ = ("p", "num", "den")

    def __init__(self, p: int, coords):
        d = _degree(p)
        coords = [Fraction(c) for c in coords]
        if len(coords) != d:
            raise ValueError(f"need {d} coordinates for order {p}, "
                             f"got {len(coords)}")
        # the lcm of reduced denominators leaves numerators with gcd 1
        den = lcm(*(c.denominator for c in coords))
        self.p = p
        self.num = tuple(c.numerator * (den // c.denominator) for c in coords)
        self.den = den

    @property
    def coords(self) -> tuple:
        """The coordinates as Fractions."""
        return tuple(Fraction(a, self.den) for a in self.num)

    @classmethod
    def rational(cls, p: int, value) -> "Cyc":
        value = Fraction(value)
        d = _degree(p)
        return _new(p, (value.numerator,) + (0,) * (d - 1), value.denominator)

    @classmethod
    def zeta_pow(cls, p: int, k: int) -> "Cyc":
        """zeta_P^k for any integer k."""
        poly = [0] * p  # d <= p
        poly[k % p] = 1
        return _reduce(p, poly, 1)

    def _check(self, other):
        if self.p != other.p:
            raise ValueError("mixed cyclotomic orders")

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign: int) -> "Cyc":
        self._check(other)
        a, b = self.den, other.den
        g = gcd(a, b)
        fa, fb = b // g, sign * (a // g)
        return _new(self.p, tuple(x * fa + y * fb
                                  for x, y in zip(self.num, other.num)),
                    a * (b // g))

    def __neg__(self):
        return _new(self.p, tuple(-a for a in self.num), self.den)

    def scale(self, c) -> "Cyc":
        c = Fraction(c)
        return _new(self.p, tuple(a * c.numerator for a in self.num),
                    self.den * c.denominator)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        poly = [0] * (2 * len(self.num) - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(other.num):
                    if b:
                        poly[i + j] += a * b
        return _reduce(self.p, poly, self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_rational() == other
        return (self.p == other.p and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        return hash((self.p, self.num, self.den))

    def __repr__(self):
        return f"Cyc({self.p}, {[str(c) for c in self.coords]})"

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not rational: {self!r}")
        return Fraction(self.num[0], self.den)

    def conj(self) -> "Cyc":
        """Complex conjugate (zeta -> zeta^(-1))."""
        poly = [0] * self.p
        for j, c in enumerate(self.num):
            poly[-j % self.p] = c
        return _reduce(self.p, poly, self.den)

    def norm_squared(self) -> "Cyc":
        return self * self.conj()


def sqrt2(p: int) -> Cyc:
    """sqrt(2) = zeta_8 + zeta_8^(-1), available whenever 8 | P."""
    if p % 8:
        raise ValueError("sqrt(2) needs 8 | P")
    return Cyc.zeta_pow(p, p // 8) + Cyc.zeta_pow(p, p - p // 8)


def sqrt2_power(p: int, e: int) -> Cyc:
    """sqrt(2)^e for any integer e, exact: sqrt(2) or 1, times 2^(e // 2)."""
    half, odd = divmod(e, 2)
    return (sqrt2(p) if odd else Cyc.rational(p, 1)).scale(Fraction(2) ** half)


def u_powers(r: int) -> list:
    """u^0..u^6 at u = 2^ceil(r/2), which is sqrt(2q) for odd r and sqrt(q)
    for even r (q = 2^r): the closed routes' rows have degree <= 6 in u."""
    return [1 << (r + 1) // 2 * j for j in range(7)]


@lru_cache(maxsize=None)
def root_groups(rows, r: int) -> tuple:
    """The (weight, exps) groups of r-free rows (num, den, exps): weight =
    sum_j num_j u^j / den, which multiplies sum_{k in exps} zeta_24^(kn) in
    a spectral form; cached by rows and r."""
    powers = u_powers(r)
    return tuple((Fraction(sum(map(mul, num, powers)), den), exps)
                 for num, den, exps in rows)


def imaginary_unit(p: int) -> Cyc:
    """i = zeta_4, available whenever 4 | P."""
    if p % 4:
        raise ValueError("i needs 4 | P")
    return Cyc.zeta_pow(p, p // 4)

