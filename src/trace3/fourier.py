"""Exact DFT extraction of root-of-unity closed forms from periodic
normalized counting sequences, and evaluation of such forms back to numbers.

A sequence f(n) of integers whose normalization v(n) = f(n) / q^(n/2) is
periodic with period P is encoded as

    f(n) = q^(n/2) * sum_k g_k * omega_P^(k n),

with exact coefficients g_k in Q(zeta_L).  The working order L is lcm(P, 8)
so that sqrt(2), and hence every q^(n/2) with q a power of two, exists in the
field; nothing is ever rounded.  `deviation` is the one evaluator of such a
form: of the DFT results, of the base-field closed forms of `closedforms`
and of the eigenvalue rows of the spectral routes (`root_group_formula`).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .cyclotomic import Cyc, root_groups, rotation_sum, sqrt2_power

DEFAULT_PERIOD_CANDIDATES = (1, 2, 3, 4, 6, 8, 12, 24, 48)


@dataclass(frozen=True)
class PeriodicFormula:
    """period: P.  coeffs: g_0..g_{P-1} as elements of Q(zeta_L), L = order.
    q: normalization base (f(n) = q^(n/2) * sum g_k omega_P^(kn)), q = 2^r.
    Two memos, not fields, fill one residue at a time on first use."""
    period: int
    coeffs: tuple
    q: int = 2

    def __post_init__(self):
        if len(self.coeffs) != self.period:
            raise ValueError("need one coefficient per residue")
        if self.q < 1 or self.q & (self.q - 1):
            raise ValueError("normalization base must be a power of two")
        object.__setattr__(self, "coeffs", tuple(
            c if isinstance(c, Cyc) else Cyc.rational(self.order, c)
            for c in self.coeffs))
        object.__setattr__(self, "_normalized", {})  # n mod P -> Cyc
        object.__setattr__(self, "_residues", {})  # j mod lcm(P, 2) -> c_j

    @property
    def order(self) -> int:
        """L = lcm(P, 8): sqrt(2) and the P-th roots of unity both exist."""
        return lcm(self.period, 8)

    def nonzero_indices(self):
        return [k for k, c in enumerate(self.coeffs) if not c.is_zero()]

    def normalized_value(self, n: int) -> Cyc:
        """sum_k g_k omega_P^(kn) in Q(zeta_L): one `rotation_sum`."""
        j = n % self.period
        if j not in self._normalized:
            step = self.order // self.period * j
            self._normalized[j] = rotation_sum(
                self.order, [(g, step * k) for k, g in enumerate(self.coeffs)])
        return self._normalized[j]

    def residue_value(self, n: int) -> Fraction:
        """c_j = normalized_value(j) * sqrt(2)^(rj mod 2) at j = n mod
        lcm(P, 2), asserted rational: f(n) = c_j * 2^floor(rn/2).  The
        sqrt(2) = zeta_8 + zeta_8^(-1) is two rotations of the value."""
        j = n % lcm(self.period, 2)
        if j not in self._residues:
            val = self.normalized_value(j)
            if (self.q.bit_length() - 1) * j % 2:
                s = self.order // 8
                val = rotation_sum(self.order, [(val, s), (val, -s)])
            if not val.is_rational():
                raise ValueError(f"deviation at n={n} is not rational")
            self._residues[j] = val.as_rational()
        return self._residues[j]


@lru_cache(maxsize=None)
def root_group_formula(rows, r: int) -> PeriodicFormula:
    """The period-24 formula, q = 2^r, with each weight of the r-free group
    rows (num, den, exps) of `curves` and `closedforms`, read by
    `root_groups`, as g_k at each of its exps k; cached by rows and r."""
    coeffs = [0] * 24
    for weight, exps in root_groups(rows, r):
        for k in exps:
            coeffs[k] += weight
    return PeriodicFormula(24, coeffs, q=1 << r)


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
    coeffs = [rotation_sum(order, [(v, -step * j * k)
                                   for j, v in enumerate(vals)])
              .scale(Fraction(1, period)) for k in range(period)]
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
    irrational: the rational c_j of `residue_value` carries the odd power
    of sqrt(2), and the rest is the power of two 2^floor(rn/2).
    """
    r = formula.q.bit_length() - 1
    c, e = formula.residue_value(n), r * n >> 1
    return c * (1 << e) if e >= 0 else c / (1 << -e)


def extract_sequence(values, n0: int, period: int,
                     q: int = 2) -> PeriodicFormula:
    """`dft_extract` of the first P terms f(n0), f(n0+1), ... of values, each
    normalized to f(n) / q^(n/2) and filed by its residue n mod P."""
    order, r = lcm(period, 8), q.bit_length() - 1
    terms = [sqrt2_power(order, -r * n).scale(f)
             for n, f in enumerate(values[:period], n0)]
    return dft_extract([terms[(j - n0) % period] for j in range(period)],
                       period, q=q)


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
        if (a > 0) != (b > 0) or b * b != a * a * scale:
            return False
    return True


def analyze_sequence(values, n0: int, q: int,
                     candidates=DEFAULT_PERIOD_CANDIDATES) -> PeriodicFormula:
    """Detect the minimal candidate period of f(n)/q^(n/2) over the window
    f(n0), f(n0+1), ... and extract its formula.

    Raises ValueError when no candidate period fits (the expected outcome
    for sequences that are not supersingular-periodic).
    """
    if q < 1 or q & (q - 1):
        raise ValueError("q must be a power of two")
    for period in sorted(candidates):
        if is_periodic(values, q, period):
            return extract_sequence(values, n0, period, q)
    raise ValueError("no candidate period fits the sequence")
