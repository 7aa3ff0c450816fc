"""The scalar reference for irreducibility over F_{2^r}: dense coefficient
tuples, one polynomial at a time, through `FieldContext` int arithmetic.
The library's lane engine (`traces.irreducible_mask`) is checked against
it; it is slow, and no library code uses it."""

from dataclasses import dataclass

from trace3 import gf2x
from trace3.field import build_context


@dataclass
class PrefixPoly:
    """Monic dense polynomial over F_{2^r}; coeffs[i] is the coefficient of
    x^i, coeffs[-1] == 1."""
    r: int
    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs or self.coeffs[-1] != 1:
            raise ValueError("polynomial must be monic")
        if any(not 0 <= c < (1 << self.r) for c in self.coeffs):
            raise ValueError("coefficients must be reduced in F_{2^r}")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def clmul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials packed in ints."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
    return r


def poly_mulmod(ctx, a, b, mod):
    """Product of coefficient tuples a, b reduced modulo the monic mod."""
    n = len(mod) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] ^= ctx.mul(ai, bj)
    for d in range(len(prod) - 1, n - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for j in range(n):
                if mod[j]:
                    prod[d - n + j] ^= ctx.mul(c, mod[j])
    prod = prod[:n]
    while len(prod) > 1 and prod[-1] == 0:
        prod.pop()
    return tuple(prod)


def poly_gcd_is_one(ctx, a, b):
    """Whether gcd(a, b) = 1 for coefficient tuples, by Euclid's algorithm."""
    a, b = list(a), list(b)

    def norm(p):
        while len(p) > 1 and p[-1] == 0:
            p.pop()
        return p

    a, b = norm(a), norm(b)
    while not (len(b) == 1 and b[0] == 0):
        # a mod b
        inv_lead = ctx.inv(b[-1])
        while len(a) >= len(b) and not (len(a) == 1 and a[0] == 0):
            shift = len(a) - len(b)
            c = ctx.mul(a[-1], inv_lead)
            for j in range(len(b)):
                a[shift + j] ^= ctx.mul(c, b[j])
            a = norm(a)
            if len(a) == 1 and a[0] == 0:
                break
        a, b = b, a
    return len(a) == 1 and a[0] != 0


def frobenius_x_power(ctx, r, k, mod):
    """x^(2^(rk)) mod the monic polynomial mod, by rk squarings."""
    if len(mod) == 2:
        # modulus is linear: x reduces to a constant
        x = (mod[0],)
    else:
        x = (0, 1)
    t = x
    for _ in range(r * k):
        t = poly_mulmod(ctx, t, t, mod)
    return t


def is_irreducible(p: PrefixPoly) -> bool:
    """Deterministic irreducibility of p over F_{2^r}: x^(q^n) = x mod p and
    gcd(x^(q^(n/l)) - x, p) = 1 for each prime l | n, with q = 2^r."""
    n = p.degree
    if n < 1:
        return False
    if n == 1:
        return True
    if p.r == 1:
        packed = 0
        for i, c in enumerate(p.coeffs):
            packed |= c << i
        return gf2x.is_irreducible(packed)
    ctx = build_context(p.r)
    mod = p.coeffs
    x = (0, 1)
    if frobenius_x_power(ctx, p.r, n, mod) != x:
        return False
    for ell in gf2x.prime_factors(n):
        t = list(frobenius_x_power(ctx, p.r, n // ell, mod))
        while len(t) < 2:
            t.append(0)
        t[1] ^= 1  # t - x
        if not poly_gcd_is_one(ctx, tuple(t), mod):
            return False
    return True
