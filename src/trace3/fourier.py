"""Exact DFT extraction of root-of-unity closed forms from periodic
normalized counting sequences, and evaluation of such forms back to numbers.

A sequence f(n) of integers whose normalization v(n) = f(n) / q^(n/2) is
periodic with period P is encoded as

    f(n) = q^(n/2) * sum_k g_k * omega_P^(k n),

with exact coefficients g_k in Q(zeta_L).  The working order L is lcm(P, 8)
so that sqrt(2), and hence every q^(n/2) with q a power of two, exists in the
field; nothing is ever rounded.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .cyclotomic import Cyc, sqrt2_power

DEFAULT_PERIOD_CANDIDATES = (1, 2, 3, 4, 6, 8, 12, 24, 48)


@dataclass
class PeriodicFormula:
    """period: P.  coeffs: g_0..g_{P-1} as elements of Q(zeta_L), L = order.
    q: normalization base (f(n) = q^(n/2) * sum g_k omega_P^(kn)), q = 2^r."""
    period: int
    coeffs: list
    q: int = 2

    def __post_init__(self):
        if len(self.coeffs) != self.period:
            raise ValueError("need one coefficient per residue")
        self.coeffs = [c if isinstance(c, Cyc) else Cyc.rational(self.order, c)
                       for c in self.coeffs]

    @property
    def order(self) -> int:
        """L = lcm(P, 8): sqrt(2) and the P-th roots of unity both exist."""
        return lcm(self.period, 8)

    def nonzero_indices(self):
        return [k for k, c in enumerate(self.coeffs) if not c.is_zero()]

    def normalized_value(self, n: int) -> Cyc:
        """sum_k g_k omega_P^(kn) in Q(zeta_L)."""
        step = self.order // self.period
        out = Cyc.rational(self.order, 0)
        for k, g in enumerate(self.coeffs):
            if not g.is_zero():
                out = out + g * Cyc.zeta_pow(self.order, step * k * n)
        return out


def dft_extract(values, period: int, q: int = 2) -> PeriodicFormula:
    """Inverse DFT over Q(zeta_L): g_k = (1/P) sum_j v_j omega_P^(-jk).

    values[j] is the normalized deviation at n == j (mod P); entries may be
    Fractions/ints or Cyc elements of order L = lcm(P, 8) (e.g. rational
    multiples of sqrt 2).
    """
    if len(values) != period:
        raise ValueError("need exactly one value per residue class")
    order = lcm(period, 8)
    vals = [v if isinstance(v, Cyc) else Cyc.rational(order, v) for v in values]
    step = order // period
    inv_p = Fraction(1, period)
    coeffs = []
    for k in range(period):
        g = Cyc.rational(order, 0)
        for j, v in enumerate(vals):
            if not v.is_zero():
                g = g + v * Cyc.zeta_pow(order, -step * j * k)
        coeffs.append(g.scale(inv_p))
    return PeriodicFormula(period, coeffs, q=q)


def reconstruct(formula: PeriodicFormula, n: int) -> Fraction:
    """The normalized value sum_k g_k omega_P^(kn), asserted rational."""
    val = formula.normalized_value(n)
    if not val.is_rational():
        raise ValueError(f"reconstruction at n={n} is not rational")
    return val.as_rational()


def deviation(formula: PeriodicFormula, n: int) -> Fraction:
    """The denormalized term f(n) = q^(n/2) * sum_k g_k omega_P^(kn), exact.

    Works for every n, including odd n with odd r where q^(n/2) is
    irrational: the product is evaluated inside Q(zeta_L) and asserted
    rational there.
    """
    r = formula.q.bit_length() - 1
    if 1 << r != formula.q:
        raise ValueError("normalization base must be a power of two")
    val = formula.normalized_value(n) * sqrt2_power(formula.order, r * n)
    if not val.is_rational():
        raise ValueError(f"deviation at n={n} is not rational")
    return val.as_rational()


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def is_periodic(values, q: int, period: int) -> bool:
    """Exact check that f(n)/q^(n/2) has the given period over the window.

    v(n+P) = v(n) iff f(n+P)^2 = f(n)^2 * q^P with matching signs, which
    avoids materialising irrational normalizers.
    """
    span = len(values) - period
    if span < period:
        return False
    scale = q ** period
    for i in range(span):
        a, b = values[i], values[i + period]
        if _sign(a) != _sign(b) or b * b != a * a * scale:
            return False
    return True


def analyze_sequence(values, n0: int, q: int,
                     candidates=DEFAULT_PERIOD_CANDIDATES) -> PeriodicFormula:
    """Detect the minimal candidate period of f(n)/q^(n/2) over the window
    f(n0), f(n0+1), ... and extract its formula.

    Raises ValueError when no candidate period fits (the expected outcome
    for sequences that are not supersingular-periodic).
    """
    r = q.bit_length() - 1
    if 1 << r != q:
        raise ValueError("q must be a power of two")
    for period in sorted(candidates):
        if 2 * period > len(values):
            continue
        if is_periodic(values, q, period):
            order = lcm(period, 8)
            per_residue = [None] * period
            for i, f in enumerate(values):
                n = n0 + i
                if per_residue[n % period] is None:
                    # v(n) = f * sqrt2^(-r*n)
                    per_residue[n % period] = (
                        Cyc.rational(order, f) * sqrt2_power(order, -r * n))
            if any(v is None for v in per_residue):
                continue
            return dft_extract(per_residue, period, q=q)
    raise ValueError("no candidate period fits the sequence")
