"""Point counts on the three Artin-Schreier families

    C1: y^q + y = x^(q+1) + x^2
    C2: y^q + y = x^(2q+1) + x^(q+2)
    C3: y^q + y = x^(2q+1) + x^(q+2) + x^(q+1) + x^2       (q = 2^r)

and their quadratic twists C_{i,alpha}: y^2 + y = alpha * f_i(x), through
independent routes: exhaustive fiber counting, the periodic residue
tables, the factored Frobenius characteristic polynomial (the power sum
p_n of each factor's roots as c^(n // 24) p_(n % 24), from the constant c
that X^24 reduces to modulo the factor and its Newton power sums
p_0..p_23, both built once per factor), the root-of-unity spectral sums, and
for twists the Arf invariant of the quadratic form (`quadforms`).
Projective counts throughout: one point at infinity per curve.
`COMBINED_ROUTES` and `TWIST_ROUTES` map each route's name to its
count(spec, n, cap).

The charpoly and spectral routes hold their data as r-free integers, one
table per (family, parity of r), read at u = 2^ceil(r/2) = sqrt(2q) (odd r)
or sqrt(q) (even r) by `cyclotomic.u_powers`.  A factor row (a_0..a_d) has
X^(d-i) coefficient a_i u^i, divided by 2^(i//2) for odd r, so the factor
is sqrt(q)^d P(X/sqrt(q)) with P free of r: X^2 - sX + q (s = sqrt(2q)) is
(1, -1, 1).  Multiplicities and group weights are integer polynomials in u
over a denominator: rows (num ascending, den), a spectral row weighing the
roots sqrt(q) omega_24^k, k in exps, of one `fourier.PeriodicFormula`.

The residue tables are `ResidueTable`s (see `residues`) holding the
deviation from 2^(rn) + 1 as single terms sign * poly(q) *
2^(r(n+ofs)/2 + plus): one table per combined curve and a pair (odd r,
even r) per twist branch.  `twist_classes` enumerates the branches that
occur over F_{2^r}; its representative is the smallest alpha for C1 and
C2, and 1/beta for the smallest beta = 1/alpha of the branch for C3.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from operator import mul

from . import anf
from .cyclotomic import u_powers
from .field import DEFAULT_ENUM_CAP, FieldContext, build_context
from .fourier import deviation, root_group_formula
from .quadforms import (cubic_root_census, cubic_root_count, radical_report,
                        twist_form)
from .residues import CURVE, PARITY_COLUMNS, ResidueTable, check_rn


def check_family(family: int) -> int:
    """The one check of a family number: ValueError unless it is 1, 2 or 3."""
    if family not in (1, 2, 3):
        raise ValueError("family must be 1, 2 or 3")
    return family


@dataclass(frozen=True)
class CurveSpec:
    """family 1..3; alpha None for the combined curve over F_{2^r}, or a
    nonzero element of F_{2^r} selecting the twist y^2 + y = alpha f(x)."""
    family: int
    r: int
    alpha: int = None

    def __post_init__(self):
        check_family(self.family)
        check_rn(self.r)
        if self.alpha is not None and not 1 <= self.alpha < (1 << self.r):
            raise ValueError("twist parameter must be a nonzero element "
                             "of F_{2^r}")


def family_terms(family: int, r: int) -> tuple:
    """Exponent pairs (a, b) with f_family(x) = sum of x^(2^a + 2^b):
    x^(q+1) + x^2 for C1, x^(2q+1) + x^(q+2) for C2, both for C3."""
    c1 = ((r, 0), (0, 0))
    c2 = ((r + 1, 0), (r, 1))
    return {1: c1, 2: c2, 3: c1 + c2}[check_family(family)]


def curve_rhs(spec: CurveSpec, ctx: FieldContext):
    """Callable x -> f_i(x) evaluated in ctx (an extension of F_{2^r}), from
    `family_terms`; a term with a = b is the linear x^(2^(a+1))."""
    terms = family_terms(spec.family, spec.r)
    frob = ctx.frobenius

    def rhs(x):
        v = 0
        for a, b in terms:
            v ^= frob(x, a + 1) if a == b else ctx.mul(frob(x, a), frob(x, b))
        return v
    return rhs


def genus(spec: CurveSpec) -> int:
    """Genus from the odd rhs degree d: (p-1)(d-1)/2 with p the cover size."""
    q = 1 << spec.r
    d = (q + 1) if spec.family == 1 else (2 * q + 1)
    if spec.alpha is None:
        return (q - 1) * (d - 1) // 2
    return (d - 1) // 2


def count_points_oracle(spec: CurveSpec, n: int,
                        cap: int = DEFAULT_ENUM_CAP) -> int:
    """Projective point count over F_{2^(rn)} by sweeping the trace of the
    right-hand side: a fiber of y^q + y (resp. y^2 + y) holds q (resp. 2)
    affine points exactly when the relative (resp. absolute) trace vanishes.

    The combined curve sweeps the subfield index of the relative trace
    (`FieldContext.subfield_code`, 0 for trace 0), a twist its absolute
    trace, by a map kept apart from the Arf route's `quadforms.twist_form`.
    """
    check_rn(spec.r, n)
    m = spec.r * n
    anf.check_sweep(m, cap)
    ctx = build_context(m)
    rhs = curve_rhs(spec, ctx)
    if spec.alpha is None:
        fiber = 1 << spec.r
        code = ctx.subfield_code(spec.r)
        func = lambda x: code(ctx.relative_trace(rhs(x), spec.r))
    else:
        fiber = 2
        alpha = ctx.embed_subfield(spec.r)(spec.alpha)
        func = lambda x: ctx.absolute_trace(ctx.mul(alpha, rhs(x)))
    return fiber * int(anf.sweep(m, func, 2)[0]) + 1


# ---------------------------------------------------------------------------
# residue tables for the combined curves: deviations from 2^(rn) + 1,
# C1 periodic mod 8, C2 and C3 mod 24

_C1 = ResidueTable(8, PARITY_COLUMNS, CURVE, {
    0: ((-1, "(q-1)", 2, 0), (-1, "(q-1)", 2, 0)),
    1: ((1, "(q-1)", 1, 0), (1, "(q-1)", 1, 0)),
    2: (None, None),
    3: ((-1, "(q-1)", 1, 0), (1, "(q-1)", 1, 0)),
    4: ((1, "(q-1)", 2, 0), (-1, "(q-1)", 2, 0)),
    5: ((-1, "(q-1)", 1, 0), (1, "(q-1)", 1, 0)),
    6: (None, None),
    7: ((1, "(q-1)", 1, 0), (1, "(q-1)", 1, 0)),
})

_C2 = ResidueTable(24, PARITY_COLUMNS, CURVE, {
    0: ((-1, "(q-1)", 2, 1), (-1, "(q-1)", 2, 1)),
    1: ((1, "(q-1)", 1, 0), (1, "(q-1)", 1, 0)),
    2: ((1, "(q-1)", 2, 0), (1, "(q-1)", 2, 0)),
    3: ((-1, "(q-1)", 1, 0), (-1, "(q-1)", 1, 0)),
    4: (None, None),
    5: ((-1, "(q-1)", 1, 0), (1, "(q-1)", 1, 0)),
    6: ((1, "(q-1)", 2, 0), (-1, "(q-1)", 2, 0)),
    7: ((1, "(q-1)", 1, 0), (1, "(q-1)", 1, 0)),
    8: ((-1, "(q-1)", 2, 1), None),
    9: ((1, "(q-1)", 1, 0), (-1, "(q-1)", 1, 0)),
    10: ((1, "(q-1)", 2, 0), (1, "(q-1)", 2, 0)),
    11: ((-1, "(q-1)", 1, 0), (1, "(q-1)", 1, 0)),
    12: (None, (-1, "(q-1)", 2, 1)),
    13: ((-1, "(q-1)", 1, 0), (1, "(q-1)", 1, 0)),
    14: ((1, "(q-1)", 2, 0), (1, "(q-1)", 2, 0)),
    15: ((1, "(q-1)", 1, 0), (-1, "(q-1)", 1, 0)),
    16: ((-1, "(q-1)", 2, 1), None),
    17: ((1, "(q-1)", 1, 0), (1, "(q-1)", 1, 0)),
    18: ((1, "(q-1)", 2, 0), (-1, "(q-1)", 2, 0)),
    19: ((-1, "(q-1)", 1, 0), (1, "(q-1)", 1, 0)),
    20: (None, None),
    21: ((-1, "(q-1)", 1, 0), (-1, "(q-1)", 1, 0)),
    22: ((1, "(q-1)", 2, 0), (1, "(q-1)", 2, 0)),
    23: ((1, "(q-1)", 1, 0), (1, "(q-1)", 1, 0)),
})

_C3 = ResidueTable(24, PARITY_COLUMNS, CURVE, {
    0: ((-1, "(q-1)", 2, 1), (-1, "(q-1)", 2, 1)),
    1: ((1, "(q-1)", 1, 0), (1, "(q-1)", 1, 0)),
    2: (None, None),
    3: ((1, "1", 1, 1), None),
    4: ((-1, "1", 2, 0), (1, "1", 2, 0)),
    5: ((-1, "(q-1)", 1, 0), (1, "(q-1)", 1, 0)),
    6: (None, None),
    7: ((1, "(q-1)", 1, 0), (1, "(q-1)", 1, 0)),
    8: ((-1, "(q-3)", 2, 0), (-1, "(q-1)", 2, 0)),
    9: ((-1, "1", 1, 1), None),
    10: (None, None),
    11: ((-1, "(q-1)", 1, 0), (1, "(q-1)", 1, 0)),
    12: ((1, "1", 4, 0), (-1, "(q-2)", 2, 0)),
    13: ((-1, "(q-1)", 1, 0), (1, "(q-1)", 1, 0)),
    14: (None, None),
    15: ((-1, "1", 1, 1), None),
    16: ((-1, "(q-3)", 2, 0), (-1, "(q-1)", 2, 0)),
    17: ((1, "(q-1)", 1, 0), (1, "(q-1)", 1, 0)),
    18: (None, None),
    19: ((-1, "(q-1)", 1, 0), (1, "(q-1)", 1, 0)),
    20: ((-1, "1", 2, 0), (1, "1", 2, 0)),
    21: ((1, "1", 1, 1), None),
    22: (None, None),
    23: ((1, "(q-1)", 1, 0), (1, "(q-1)", 1, 0)),
})

# twists of C3 whose cubic x^3 + x + 1/alpha has no root in F_{2^r}
_C3_NOROOT = ResidueTable(24, PARITY_COLUMNS, CURVE, {
    0: ((-1, "1", 2, 1), (-1, "1", 2, 1)),
    1: ((1, "1", 1, 0), (1, "1", 1, 0)),
    2: (None, None),
    3: ((1, "1", 1, 1), (-1, "1", 1, 1)),
    4: ((-1, "1", 2, 0), (1, "1", 2, 0)),
    5: ((-1, "1", 1, 0), (1, "1", 1, 0)),
    6: (None, None),
    7: ((1, "1", 1, 0), (1, "1", 1, 0)),
    8: ((1, "1", 2, 0), (1, "1", 2, 0)),
    9: ((-1, "1", 1, 1), (-1, "1", 1, 1)),
    10: (None, None),
    11: ((-1, "1", 1, 0), (1, "1", 1, 0)),
    12: ((1, "1", 2, 1), (-1, "1", 2, 1)),
    13: ((-1, "1", 1, 0), (1, "1", 1, 0)),
    14: (None, None),
    15: ((-1, "1", 1, 1), (-1, "1", 1, 1)),
    16: ((1, "1", 2, 0), (1, "1", 2, 0)),
    17: ((1, "1", 1, 0), (1, "1", 1, 0)),
    18: (None, None),
    19: ((-1, "1", 1, 0), (1, "1", 1, 0)),
    20: ((-1, "1", 2, 0), (1, "1", 2, 0)),
    21: ((1, "1", 1, 1), (-1, "1", 1, 1)),
    22: (None, None),
    23: ((1, "1", 1, 0), (1, "1", 1, 0)),
})

COMBINED_TABLES = {1: _C1, 2: _C2, 3: _C3}


def closed_count_combined(family: int, r: int, n: int) -> int:
    """Point count of C_family over F_{2^(rn)} from its residue table."""
    return COMBINED_TABLES[check_family(family)].count(r, n)


# ---------------------------------------------------------------------------
# twist counts from the case analysis of the three theorems

def alpha_class(family: int, r: int, alpha: int) -> str:
    """Branch selector for a twist: C1 has a single class; C2 splits on
    whether alpha is a cube (always, for odd r); C3 splits on how many roots
    x^3 + x + 1/alpha has in F_{2^r}."""
    check_family(family)
    ctx = build_context(r)
    if not 1 <= alpha < ctx.order:
        raise ValueError("alpha must be a nonzero element of F_{2^r}")
    if family == 1:
        return "all"
    if family == 2:
        q = 1 << r
        d = gcd(3, q - 1)
        return "cube" if ctx.pow(alpha, (q - 1) // d) == 1 else "noncube"
    roots = cubic_root_count(r, ctx.inv(alpha))
    return f"{roots}-roots"


# Twist deviations from 2^(rn) + 1.  Each (family, class) has an odd-r and
# an even-r table; their periods differ (8 and 4 for C1, 8 and 4 or 6 for
# C2).  For odd r every alpha is a cube, so both C2 classes share one table.

_C1_TWIST_ODD = ResidueTable(8, ("r odd",), CURVE, {
    0: ((-1, "1", 2, 0),),
    1: ((1, "1", 1, 0),),
    2: (None,),
    3: ((-1, "1", 1, 0),),
    4: ((1, "1", 2, 0),),
    5: ((-1, "1", 1, 0),),
    6: (None,),
    7: ((1, "1", 1, 0),),
})

_C1_TWIST_EVEN = ResidueTable(4, ("r even",), CURVE, {
    0: ((-1, "1", 2, 0),),
    1: ((1, "1", 1, 0),),
    2: (None,),
    3: ((1, "1", 1, 0),),
})

_C2_TWIST_ODD = ResidueTable(8, ("r odd",), CURVE, {
    0: ((-1, "1", 2, 1),),
    1: ((1, "1", 1, 0),),
    2: ((1, "1", 2, 0),),
    3: ((-1, "1", 1, 0),),
    4: (None,),
    5: ((-1, "1", 1, 0),),
    6: ((1, "1", 2, 0),),
    7: ((1, "1", 1, 0),),
})

_C2_TWIST_CUBE_EVEN = ResidueTable(4, ("r even",), CURVE, {
    0: ((-1, "1", 2, 1),),
    1: ((1, "1", 1, 0),),
    2: ((1, "1", 2, 0),),
    3: ((1, "1", 1, 0),),
})

# the deviation depends on n through gcd(n, 6)
_C2_TWIST_NONCUBE_EVEN = ResidueTable(6, ("r even",), CURVE, {
    0: ((-1, "1", 2, 1),),
    1: ((1, "1", 1, 0),),
    2: ((1, "1", 2, 0),),
    3: ((-1, "1", 1, 1),),
    4: ((1, "1", 2, 0),),
    5: ((1, "1", 1, 0),),
})

_C3_TWIST_ONE_ROOT = ResidueTable(8, PARITY_COLUMNS, CURVE, {
    0: ((-1, "1", 2, 1), (-1, "1", 2, 1)),
    1: ((1, "1", 1, 0), (1, "1", 1, 0)),
    2: (None, None),
    3: ((-1, "1", 1, 0), (1, "1", 1, 0)),
    4: (None, None),
    5: ((-1, "1", 1, 0), (1, "1", 1, 0)),
    6: (None, None),
    7: ((1, "1", 1, 0), (1, "1", 1, 0)),
})

_C3_TWIST_THREE_ROOTS = ResidueTable(8, PARITY_COLUMNS, CURVE, {
    0: ((-1, "1", 2, 1), (-1, "1", 2, 1)),
    1: ((1, "1", 1, 0), (1, "1", 1, 0)),
    2: (None, None),
    3: ((-1, "1", 1, 0), (1, "1", 1, 0)),
    4: ((1, "1", 2, 1), (-1, "1", 2, 1)),
    5: ((-1, "1", 1, 0), (1, "1", 1, 0)),
    6: (None, None),
    7: ((1, "1", 1, 0), (1, "1", 1, 0)),
})

# (family, class) -> (table for odd r, table for even r)
TWIST_TABLES = {
    (1, "all"): (_C1_TWIST_ODD, _C1_TWIST_EVEN),
    (2, "cube"): (_C2_TWIST_ODD, _C2_TWIST_CUBE_EVEN),
    (2, "noncube"): (_C2_TWIST_ODD, _C2_TWIST_NONCUBE_EVEN),
    (3, "0-roots"): (_C3_NOROOT, _C3_NOROOT),
    (3, "1-roots"): (_C3_TWIST_ONE_ROOT, _C3_TWIST_ONE_ROOT),
    (3, "3-roots"): (_C3_TWIST_THREE_ROOTS, _C3_TWIST_THREE_ROOTS),
}


def closed_count_twist(family: int, r: int, n: int, alpha: int = 1,
                       klass: str = None) -> int:
    """Point count of the twist C_{family,alpha} over F_{2^(rn)} from the
    closed-form case analysis.  `klass` may name the branch directly instead
    of an alpha.

    The case analysis leaves n = 6 mod 8 unstated for the one- and
    three-root branches of family 3; there the deviation is 0, as for
    n = 2 mod 8 (forced by the congruence #C(F_{q^n}) = #C(F_{q^(n/p)})
    mod p for odd primes p | n, and confirmed by the exhaustive counts).
    """
    check_family(family)
    if klass is None:
        klass = alpha_class(family, r, alpha)
    if (family, klass) not in TWIST_TABLES:
        raise ValueError(f"no twist class {klass} for family {family}")
    odd, even = TWIST_TABLES[(family, klass)]
    return (odd if r % 2 else even).count(r, n)


def twist_classes(family: int, r: int) -> list:
    """(class, representative alpha, number of alphas) for each twist
    branch that occurs over F_{2^r}, by class name.  The sizes come from
    the field: (q-1)/gcd(3, q-1) cubes for C2, the cubic root census for
    C3.  The representative is the smallest alpha of the branch for C1 and
    C2, and 1/beta for the smallest beta of the branch for C3."""
    check_family(family)
    q = 1 << r
    if family == 1:
        return [("all", 1, q - 1)]
    if family == 2:
        cubes = (q - 1) // gcd(3, q - 1)
        if cubes == q - 1:
            return [("cube", 1, cubes)]
        noncube = next(a for a in range(2, q)
                       if alpha_class(2, r, a) == "noncube")
        return [("cube", 1, cubes), ("noncube", noncube, q - 1 - cubes)]
    inv = build_context(r).inv
    return sorted(
        (f"{k}-roots",
         inv(next(b for b in range(1, q) if cubic_root_count(r, b) == k)),
         size)
        for k, size in zip((3, 1, 0), cubic_root_census(r)) if size)


def twist_class_representatives(family: int, r: int) -> dict:
    """class -> representative alpha of `twist_classes`."""
    return {klass: alpha for klass, alpha, _ in twist_classes(family, r)}


def kani_rosen_check(family: int, r: int, n: int, method: str = "closed",
                     cap: int = DEFAULT_ENUM_CAP) -> dict:
    """The product identity for the Jacobian decomposition of C into its
    quadratic twists: summing twist counts against the combined count must
    give  sum_alpha #C_alpha - #C = (q-2)(q^n+1).

    The report also carries the alternative right-hand side
    (q^n+1)(q-1) - 1, which does not follow from the L-polynomial product
    and never matches; it is retained, flagged, for comparison.
    """
    q = 1 << r
    if method == "oracle":
        total = sum(count_points_oracle(CurveSpec(family, r, alpha), n, cap)
                    for alpha in range(1, q))
        combined = count_points_oracle(CurveSpec(family, r), n, cap)
    else:
        total = sum(cnt * closed_count_twist(family, r, n, klass=k)
                    for k, _, cnt in twist_classes(family, r))
        combined = closed_count_combined(family, r, n)
    lhs = total - combined
    derived = (q - 2) * (q ** n + 1)
    alt = (q ** n + 1) * (q - 1) - 1
    return {
        "family": family, "r": r, "n": n, "method": method,
        "twist_sum": total, "combined": combined, "lhs": lhs,
        "rhs_product": derived, "matches_product": lhs == derived,
        "rhs_alternate": alt, "matches_alternate": lhs == alt,
    }


# ---------------------------------------------------------------------------
# Frobenius characteristic polynomials and integer power-sum recurrences

@dataclass
class FrobeniusData:
    """Factored characteristic polynomial of Frobenius: monic integer
    factors (coefficient tuples, descending) with positive multiplicities."""
    family: int
    r: int
    factors: list
    genus: int

    @property
    def degree(self) -> int:
        return sum((len(f) - 1) * mult for f, mult in self.factors)


def _exact_mult(num: int, den: int) -> int:
    mult, rem = divmod(num, den)
    if rem or mult < 0:
        raise AssertionError(f"multiplicity {num}/{den} is not a count")
    return mult


# (family, r % 2) -> factor rows (a_0..a_d, num, den); see the docstring
_CHARPOLY = {
    (1, 1): (((1, -1, 1), (0, 4, -2, -2, 1), 16),
             ((1, 1, 1), (0, -4, -2, 2, 1), 16)),
    (2, 1): (((1, -1, 1), (0, 4, -2, -2, 1), 16),
             ((1, 1, 1), (0, -4, -2, 2, 1), 16),
             ((1, 0, 1), (0, 0, -2, 0, 1), 8)),
    (3, 1): (((1, 0, -1), (0, 0, -4, 0, 1), 32),
             ((1, 0, 1), (0, 0, -4, 0, 1), 32),
             ((1, -1, 1), (0, 32, -20, -8, 5), 96),
             ((1, 1, 1), (0, -32, -20, 8, 5), 96),
             ((1, -1, 1, -1, 1), (0, -4, 2, -2, 1), 48),
             ((1, 1, 1, 1, 1), (0, 4, 2, 2, 1), 48)),
    (1, 0): (((1, -1), (0, 2, -1, -2, 1), 4),
             ((1, 1), (0, -2, -1, 2, 1), 4),
             ((1, 0, 1), (0, 0, -1, 0, 1), 4)),
    (2, 0): (((1, -1), (0, 2, -1, -2, 1), 12),
             ((1, 1), (0, -2, -1, 2, 1), 12),
             ((1, -1, 1), (0, 1, -1, -1, 1), 3),
             ((1, 1, 1), (0, -1, -1, 1, 1), 3),
             ((1, 0, 1), (0, 0, -1, 0, 1), 4)),
    # the two sqrt(q)*omega_8 quartets share one multiplicity and combine
    # into the integer quartic X^4 + q^2
    (3, 0): (((1, -1), (0, 8, -8, -8, 5), 24),
             ((1, 1), (0, -8, -8, 8, 5), 24),
             ((1, 0, 1), (0, 0, -8, 0, 5), 24),
             ((1, 0, 0, 0, 1), (0, 0, 0, 0, 1), 8),
             ((1, -1, 1), (0, 2, -1, -2, 1), 12),
             ((1, 1, 1), (0, -2, -1, 2, 1), 12),
             ((1, 0, -1, 0, 1), (0, 0, -1, 0, 1), 12)),
}


def frobenius_charpoly(family: int, r: int) -> FrobeniusData:
    """Characteristic polynomial of Frobenius for the combined curve, as
    supersingular quadratic/quartic factors with integer multiplicities:
    the rows of `_CHARPOLY` at u = 2^ceil(r/2)."""
    g = genus(CurveSpec(family, r))
    factors = _charpoly_factors(_CHARPOLY[family, r % 2], r)
    fd = FrobeniusData(family, r, list(factors), g)
    if fd.degree != 2 * g:
        raise AssertionError(f"degree {fd.degree} != 2g = {2 * g}")
    return fd


@lru_cache(maxsize=None)
def _charpoly_factors(rows, r: int) -> tuple:
    """The rows at r, cached: charpoly_count asks again for each n."""
    powers = u_powers(r)
    scale = [u_i >> (r % 2) * (i // 2) for i, u_i in enumerate(powers)]
    factors = []
    for coeffs, num, den in rows:
        mult = _exact_mult(sum(map(mul, num, powers)), den)
        if mult:
            factors.append((tuple(map(mul, coeffs, scale)), mult))
    return tuple(factors)


def factor_power_sums(coeffs, n: int) -> list:
    """Power sums p_0..p_n of the roots of the monic integer polynomial via
    the Newton recurrence, O(n d) for degree d: the charpoly route asks for
    p_0..p_23 once per factor."""
    d = len(coeffs) - 1
    p = [d]
    for k in range(1, n + 1):
        acc = 0
        for j in range(1, min(k - 1, d) + 1):
            acc += coeffs[j] * p[k - j]
        if k <= d:
            acc += k * coeffs[k]
        p.append(-acc)
    return p


def _x24_mod(coeffs) -> list:
    """X^24 modulo the monic integer polynomial P of degree d (coefficients
    descending), by 24 steps of multiplying by X and folding X^d =
    -(c_1 X^(d-1) + ... + c_d): d coefficients, descending."""
    rem = [0] * (len(coeffs) - 2) + [1]
    for _ in range(24):
        lead = rem[0]
        rem = [a - lead * c for a, c in zip(rem[1:] + [0], coeffs[1:])]
    return rem


@lru_cache(maxsize=None)
def _period_power_sums(coeffs) -> tuple:
    """(c, p_0..p_23) of a factor whose roots eta all have eta^24 = c, the
    constant X^24 reduces to modulo it, so that p_(n+24) = c p_n; cached,
    as charpoly_count asks again for each n.  AssertionError if X^24 is
    not a constant modulo the factor."""
    *rest, c = _x24_mod(coeffs)
    if any(rest):
        raise AssertionError(f"X^24 is not a constant modulo the factor "
                             f"{coeffs}")
    return c, factor_power_sums(coeffs, 23)


def power_sum_sequence(fd: FrobeniusData, n: int) -> int:
    """S_n = sum of n-th powers of all Frobenius eigenvalues (S_0 = 2g), for
    n >= 0: each factor contributes mult * c^(n // 24) * p_(n % 24) from
    its cached (c, p_0..p_23), so a call costs one power of c per factor."""
    check_rn(fd.r, n, 0)
    k, i = divmod(n, 24)
    total = 0
    for coeffs, mult in fd.factors:
        c, first = _period_power_sums(tuple(coeffs))
        total += mult * c ** k * first[i]
    return total


def charpoly_count(family: int, r: int, n: int,
                   fd: FrobeniusData = None) -> int:
    """Point count over F_{2^(rn)} predicted by q^n + 1 - S_n."""
    check_rn(r, n)
    if fd is None:
        fd = frobenius_charpoly(family, r)
    return (1 << (r * n)) + 1 - power_sum_sequence(fd, n)


def roots_symmetric_under_q(coeffs, q: int) -> bool:
    """Whether the root multiset is closed under eta -> q/eta, i.e. the
    factor satisfies the functional-equation symmetry of a Weil polynomial:
    c_{d-i} q^i = c_i c_d for all i (coefficients descending, c_d = +-q^(d/2)).
    """
    d = len(coeffs) - 1
    lead = coeffs[-1]
    if lead * lead != q ** d:
        return False
    return all(coeffs[d - i] * q ** i == coeffs[i] * lead for i in range(d + 1))


def supersingularity_certificate(fd_or_factors) -> bool:
    """Certify that every Frobenius eigenvalue is sqrt(q) times a 24th root
    of unity: X^24 = q^12 modulo each factor, by the exact integer
    reduction `_x24_mod`."""
    if isinstance(fd_or_factors, FrobeniusData):
        q = 1 << fd_or_factors.r
        items = [f for f, _ in fd_or_factors.factors]
    else:
        q, items = fd_or_factors
    return all(_x24_mod(coeffs) == [0] * (len(coeffs) - 2) + [q ** 12]
               for coeffs in items)


# ---------------------------------------------------------------------------
# spectral point counts: eigenvalue groups sqrt(q) * omega_24^k

# (family, r % 2) -> group rows (num, den, k of sqrt(q) omega_24^k)
_SPECTRAL = {
    (1, 1): (((0, 4, -2, -2, 1), 16, (3, 21)),
             ((0, -4, -2, 2, 1), 16, (9, 15))),
    (2, 1): (((0, 4, -2, -2, 1), 16, (3, 21)),
             ((0, -4, -2, 2, 1), 16, (9, 15)),
             ((0, 0, -2, 0, 1), 8, (6, 18))),
    (3, 1): (((0, 0, -4, 0, 1), 32, (0, 12)),
             ((0, 0, -4, 0, 1), 32, (6, 18)),
             ((0, -4, 2, -2, 1), 48, (1, 7, 17, 23)),
             ((0, 4, 2, 2, 1), 48, (5, 11, 13, 19)),
             ((0, 32, -20, -8, 5), 96, (3, 21)),
             ((0, -32, -20, 8, 5), 96, (9, 15))),
    (1, 0): (((0, 2, -1, -2, 1), 4, (0,)),
             ((0, -2, -1, 2, 1), 4, (12,)),
             ((0, 0, -1, 0, 1), 4, (6, 18))),
    (2, 0): (((0, 2, -1, -2, 1), 12, (0,)),
             ((0, -2, -1, 2, 1), 12, (12,)),
             ((0, 1, -1, -1, 1), 3, (4, 20)),
             ((0, -1, -1, 1, 1), 3, (8, 16)),
             ((0, 0, -1, 0, 1), 4, (6, 18))),
    (3, 0): (((0, 8, -8, -8, 5), 24, (0,)),
             ((0, -8, -8, 8, 5), 24, (12,)),
             ((0, 0, -8, 0, 5), 24, (6, 18)),
             ((0, 0, 0, 0, 1), 8, (3, 21)),
             ((0, 0, 0, 0, 1), 8, (9, 15)),
             ((0, 0, -1, 0, 1), 12, (2, 10, 14, 22)),
             ((0, 2, -1, -2, 1), 12, (4, 20)),
             ((0, -2, -1, 2, 1), 12, (8, 16))),
}


def spectral_count(family: int, r: int, n: int) -> int:
    """Point count of the combined curve from its root-of-unity expansion
    q^n + 1 - sum_groups c * (sqrt q)^n * sum_k omega_24^(kn): the
    `fourier.deviation` of the period-24 formula of its rows."""
    check_rn(r, n)
    formula = root_group_formula(_SPECTRAL[check_family(family), r % 2], r)
    val = (1 << (r * n)) + 1 - deviation(formula, n)
    assert val.denominator == 1
    return int(val)


def hasse_weil_ok(count: int, g: int, r: int, n: int) -> bool:
    """|count - (q^n + 1)| <= 2 g sqrt(q^n), compared in squares."""
    dev = count - ((1 << (r * n)) + 1)
    return dev * dev <= 4 * g * g * (1 << (r * n))


# ---------------------------------------------------------------------------
# the routes by name: count(spec, n, cap) is the projective point count over
# F_{2^(rn)}, cap the enumeration budget of the exhaustive route

COMBINED_ROUTES = {
    "oracle": lambda spec, n, cap: count_points_oracle(spec, n, cap),
    "table": lambda spec, n, cap: closed_count_combined(spec.family, spec.r, n),
    "charpoly": lambda spec, n, cap: charpoly_count(spec.family, spec.r, n),
    "fourier": lambda spec, n, cap: spectral_count(spec.family, spec.r, n),
}

TWIST_ROUTES = {
    "oracle": lambda spec, n, cap: count_points_oracle(spec, n, cap),
    "table": lambda spec, n, cap: closed_count_twist(spec.family, spec.r, n,
                                                     spec.alpha),
    "quadform": lambda spec, n, cap: radical_report(
        twist_form(spec.family, spec.r, n, spec.alpha)).twist_count,
}
