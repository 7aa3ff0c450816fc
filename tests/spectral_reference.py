"""The product reference for the spectral evaluator: the inverse DFT, the
normalized value and the deviation of a `PeriodicFormula` computed with
general `Cyc` products, one root of unity at a time, as the library did
before it summed integer rows.  The library's `fourier` is checked against
it; it is slow, and no library code uses it."""

from fractions import Fraction
from math import lcm

from trace3.cyclotomic import Cyc, sqrt2


def sqrt2_power(p: int, e: int) -> Cyc:
    """sqrt(2)^e as 2^floor(e/2), times the product with sqrt(2) if e is odd."""
    half, odd = divmod(e, 2)
    out = Cyc.rational(p, Fraction(2) ** half)
    return out * sqrt2(p) if odd else out


def dft_extract(values, period: int) -> list:
    """g_k = (1/P) sum_j v_j omega_P^(-jk) in Q(zeta_L), L = lcm(P, 8)."""
    order = lcm(period, 8)
    vals = [v if isinstance(v, Cyc) else Cyc.rational(order, v) for v in values]
    step = order // period
    coeffs = []
    for k in range(period):
        g = Cyc.rational(order, 0)
        for j, v in enumerate(vals):
            if not v.is_zero():
                g = g + v * Cyc.zeta_pow(order, -step * j * k)
        coeffs.append(g.scale(Fraction(1, period)))
    return coeffs


def normalized_value(formula, n: int) -> Cyc:
    """sum_k g_k omega_P^(kn): the roots of unity of the k sharing one
    nonzero g_k are added up first, then multiplied by it."""
    order = formula.order
    step = order // formula.period * n
    support = {}
    for k, g in enumerate(formula.coeffs):
        if not g.is_zero():
            support.setdefault(g, []).append(k)
    out = Cyc.rational(order, 0)
    for g, ks in support.items():
        roots = Cyc.rational(order, 0)
        for k in ks:
            roots = roots + Cyc.zeta_pow(order, step * k)
        out = out + g * roots
    return out


def deviation(formula, n: int) -> Fraction:
    """q^(n/2) * sum_k g_k omega_P^(kn), the product evaluated in Q(zeta_L)
    and asserted rational there."""
    r = formula.q.bit_length() - 1
    val = normalized_value(formula, n) * sqrt2_power(formula.order, r * n)
    if not val.is_rational():
        raise ValueError(f"deviation at n={n} is not rational")
    return val.as_rational()
