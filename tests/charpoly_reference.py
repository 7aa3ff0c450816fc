"""The binary-powering reference for the charpoly route: the power sum p_n
of a factor's roots by Fiduccia's method, from X^n modulo the factor, as
the library computed it before it read the certified period X^24 = c.
The library's `curves.power_sum_sequence` is checked against it; it is
slower, and no library code uses it."""

from trace3.curves import factor_power_sums


def poly_mulmod_desc(a, b, mod):
    """Product of integer polynomials (descending coefficients) reduced
    modulo the monic descending mod."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    d = len(mod) - 1
    while len(prod) > d:
        lead = prod[0]
        if lead:
            for j in range(1, d + 1):
                prod[j] -= lead * mod[j]
        prod.pop(0)
    return prod


def x_power_mod(e: int, mod) -> list:
    """X^e modulo the monic integer polynomial mod of degree d, by binary
    powering: d coefficients, descending."""
    rem, power = [1], [1, 0]  # X^0, X
    while e:
        if e & 1:
            rem = poly_mulmod_desc(rem, power, mod)
        e >>= 1
        if e:
            power = poly_mulmod_desc(power, power, mod)
    return [0] * (len(mod) - 1 - len(rem)) + rem


def factor_power_sum(coeffs, n: int) -> int:
    """p_n of the roots of the monic integer polynomial P of degree d
    (coefficients descending), n >= 0, by Fiduccia's method ("An efficient
    formula for linear recurrences", SIAM J. Comput. 1985): if X^n =
    sum_i a_i X^i modulo P, then p_n = sum_i a_i p_i over the first d
    Newton power sums.  X^n mod P comes from binary powering, so the cost
    is O(d^2 log n)."""
    if n < 0:
        raise ValueError(f"need n >= 0, got n = {n}")
    d = len(coeffs) - 1
    first = factor_power_sums(coeffs, d - 1)
    if n < d:
        return first[n]
    return sum(a * p for a, p in zip(reversed(x_power_mod(n, coeffs)), first))


def power_sum_sequence(fd, n: int) -> int:
    """S_n = sum of n-th powers of all Frobenius eigenvalues of fd."""
    return sum(mult * factor_power_sum(coeffs, n)
               for coeffs, mult in fd.factors)
