"""Polynomials over GF(2) packed into Python ints (bit i = coefficient of x^i).

Addition is xor. These routines pick the canonical moduli and reduce the
powers of x behind the tables of `field`; `is_irreducible` serves only
`canonical_modulus` and the tests.  The irreducibility tests of the
enumeration run on numpy lanes in `traces.irreducible_mask`.
"""


def degree(p: int) -> int:
    """Degree of p, with degree(0) = -1."""
    return p.bit_length() - 1


def mod(a: int, f: int) -> int:
    """Remainder of a modulo f (f != 0)."""
    df = degree(f)
    while degree(a) >= df:
        a ^= f << (degree(a) - df)
    return a


def mulmod(a: int, b: int, f: int) -> int:
    """a*b mod f, reducing as bits of b are consumed (a, b already reduced)."""
    df = degree(f)
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if (a >> df) & 1:
            a ^= f
    return r


def gcd(a: int, b: int) -> int:
    while b:
        a = mod(a, b)
        a, b = b, a
    return a


def prime_factors(n: int) -> list:
    """Distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def frobenius_power(x: int, k: int, f: int) -> int:
    """x^(2^k) mod f by k modular squarings."""
    for _ in range(k):
        x = mulmod(x, x, f)
    return x


def is_irreducible(f: int) -> bool:
    """Deterministic irreducibility test for f over GF(2).

    Checks x^(2^m) == x (mod f) together with gcd(x^(2^(m/l)) - x, f) = 1
    for every prime l dividing m = deg f.
    """
    m = degree(f)
    if m < 1:
        return False
    if m == 1:
        return True
    x = 2
    if frobenius_power(x, m, f) != x:
        return False
    for ell in prime_factors(m):
        t = frobenius_power(x, m // ell, f)
        if gcd(t ^ x, f) != 1:
            return False
    return True


def canonical_modulus(m: int) -> int:
    """Smallest monic irreducible of degree m with nonzero constant term.

    Candidates are scanned in increasing order of the packed coefficient
    vector, so the result is platform-independent.  The constant term is
    forced to 1 so that m = 1 yields x + 1 rather than x.
    """
    for cand in range((1 << m) | 1, 1 << (m + 1), 2):
        if is_irreducible(cand):
            return cand
    raise AssertionError(f"no irreducible of degree {m}")
