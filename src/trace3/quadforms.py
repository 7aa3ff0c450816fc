"""Quadratic forms over GF(2) attached to the curve twists: polarization,
radical and singular radical, rank, and the Arf-invariant route to the zero
count, plus the census of cubics x^3 + x + beta by number of roots.

Vectors over GF(2) are bit-packed ints; the m x m bilinear matrix is a list
of m row ints, the images of the basis vectors under the symmetric map
u -> B u, so `field` evaluates it (`_byte_tables`) and gives its radical
(`kernel_basis`).  f_i is a sum of terms x^(2^a + 2^b) (`curves.family_terms`),
so Q(x) = Tr(alpha f_i(x)) has polarization B(x, y) = Tr(y L(x)) with the
linear adjoint L(x) = sum over a != b of (alpha x^(2^a))^(2^-b) +
(alpha x^(2^b))^(2^-a).  Row i of B is `FieldContext.trace_dual(L(x^i))`:
O(m) field products instead of m^2/2 values of Q, checked against the
polarization of Q at 16 random pairs.
"""

import random
from dataclasses import dataclass
from functools import lru_cache

from . import anf
from .field import (DEFAULT_ENUM_CAP, FieldContext, _apply, _byte_tables,
                    build_context, kernel_basis)
from .residues import check_rn


@dataclass
class QuadForm:
    """Q(x) = absolute trace of alpha * f_family(x) on F_{2^(rn)}; the form
    whose zero count controls the twist C_{family,alpha} over F_{2^(rn)}.
    adjoint is the linear L with Q(x+y) + Q(x) + Q(y) = Tr(y L(x))."""
    family: int
    alpha: int
    r: int
    n: int
    ctx: FieldContext
    func: callable
    adjoint: callable

    @property
    def m(self) -> int:
        return self.ctx.m

    def value(self, x: int) -> int:
        return self.func(x)


def twist_form(family: int, r: int, n: int, alpha: int = 1) -> QuadForm:
    from .curves import CurveSpec, curve_rhs, family_terms
    spec = CurveSpec(family, r, alpha)
    check_rn(r, n)
    ctx = build_context(r * n)
    rhs = curve_rhs(spec, ctx)
    alpha_big = ctx.embed_subfield(r)(alpha)
    func = lambda x: ctx.absolute_trace(ctx.mul(alpha_big, rhs(x)))
    frob, mul = ctx.frobenius, ctx.mul
    # (alpha x^(2^a))^(2^-b) = alpha^(2^-b) x^(2^(a-b))
    pairs = [(frob(alpha_big, -b), a - b, frob(alpha_big, -a), b - a)
             for a, b in family_terms(family, r) if a != b]

    def adjoint(x):
        v = 0
        for alpha_b, ab, alpha_a, ba in pairs:
            v ^= mul(alpha_b, frob(x, ab)) ^ mul(alpha_a, frob(x, ba))
        return v
    return QuadForm(family, alpha, r, n, ctx, func, adjoint)


def bilinear_matrix(qf: QuadForm) -> list:
    """Polarization B(x,y) = Q(x+y) + Q(x) + Q(y) on the monomial basis,
    as bit-packed rows; symmetric with zero diagonal.  Row i is the trace
    dual of L(x^i); AssertionError unless the rows give the polarization
    of Q at 16 random pairs."""
    m = qf.m
    rows = [qf.ctx.trace_dual(qf.adjoint(1 << i)) for i in range(m)]
    image = _byte_tables(rows)
    rng = random.Random(0xB1F0 ^ m)
    for _ in range(16):
        x, y = rng.randrange(1 << m), rng.randrange(1 << m)
        b = qf.value(x ^ y) ^ qf.value(x) ^ qf.value(y)
        if (_apply(image, x) & y).bit_count() & 1 != b:
            raise AssertionError("adjoint map disagrees with the "
                                 f"polarization of Q at ({x:#x}, {y:#x})")
    return rows


@dataclass
class RadicalReport:
    """w = dim of the radical of B; w0 = dim of its Q-zero subspace;
    rank = m - w0; sign in {-1, 0, +1} (0 iff rank odd); zero_count = the
    number of zeros of Q derived from (rank, w, Arf)."""
    family: int
    alpha: int
    r: int
    n: int
    m: int
    w: int
    w0: int
    rank: int
    sign: int
    zero_count: int

    @property
    def twist_count(self) -> int:
        """Projective twist point count 2 * zero_count + 1 implied by Q."""
        return 2 * self.zero_count + 1


def radical_report(qf: QuadForm) -> RadicalReport:
    """Radical data, rank and signed zero count of Q.

    The zero count is 2^(m-1) for odd rank, and
    2^(m-1) + sign * 2^((m-2+w)/2) for even rank with sign fixed by the Arf
    invariant of the nondegenerate quotient (greedy symplectic reduction).
    """
    m = qf.m
    rows = bilinear_matrix(qf)
    kernel, complement = kernel_basis(rows)
    w = len(kernel)
    assert (m - w) % 2 == 0, "symplectic rank must be even"
    onto = any(qf.value(v) for v in kernel)
    w0 = w - 1 if onto else w
    rank = m - w0
    if rank % 2:
        sign = 0
        zeros = 1 << (m - 1)
    else:
        arf = _arf_invariant(qf, _byte_tables(rows), complement)
        sign = -1 if arf else 1
        zeros = (1 << (m - 1)) + sign * (1 << ((m - 2 + w) // 2))
    return RadicalReport(qf.family, qf.alpha, qf.r, qf.n,
                         m, w, w0, rank, sign, zeros)


def _arf_invariant(qf: QuadForm, image, complement) -> int:
    """Sum of Q(a)Q(b) over a greedy symplectic basis of the complement of
    the radical (Q descends there since it vanishes on the radical).  B is
    symmetric, so B(w, u) is the parity of (B u) & w; the images B u and
    B v (`_apply` of the byte tables `image`) are formed once per pair."""
    vecs = list(complement)
    arf = 0
    while vecs:
        u, rest = vecs[0], vecs[1:]
        img_u = _apply(image, u)
        partner = next((idx for idx, v in enumerate(rest)
                        if (img_u & v).bit_count() & 1), None)
        assert partner is not None, "complement of radical is degenerate"
        v = rest.pop(partner)
        img_v = _apply(image, v)
        arf ^= qf.value(u) & qf.value(v)
        vecs = []
        for w_vec in rest:
            if (img_v & w_vec).bit_count() & 1:
                w_vec ^= u
            if (img_u & w_vec).bit_count() & 1:
                w_vec ^= v
            vecs.append(w_vec)
    return arf


def count_zeros_oracle(qf: QuadForm, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Exhaustive zero count of Q over F_{2^m}."""
    anf.check_sweep(qf.m, cap)
    return int(anf.sweep(qf.m, qf.func, 2)[0])


def expected_radical_dimension(family: int, r: int, n: int, klass: str) -> int:
    """Radical dimension predicted by the dimension case analysis for each
    twist branch (independent of alpha within a branch)."""
    if family == 1:
        return r if n % 2 else 2 * r
    generic = klass in ("cube", "all", "1-roots", "3-roots")
    if generic:
        if n % 2:
            return r
        return 2 * r if n % 4 == 2 else 2 * r + 2
    # noncube / 0-roots branch
    from math import gcd
    return {1: r, 2: 2 * r, 3: r + 2, 6: 2 * r + 2}[gcd(n, 6)]


# ---------------------------------------------------------------------------
# cubics x^3 + x + beta over F_{2^r}

@lru_cache(maxsize=None)
def _cubic_fiber_counts(r: int):
    """root_counts[beta] = number of roots of x^3 + x + beta in F_{2^r},
    from one vectorized pass over the fibers of x -> x^3 + x (a map of
    bit-degree 2, so the low-degree sweep applies)."""
    ctx = build_context(r)
    counts = anf.sweep(r, lambda x: ctx.mul(ctx.sqr(x), x) ^ x, 2).tolist()
    return counts + [0] * (ctx.order - len(counts))


def cubic_root_count(r: int, beta: int) -> int:
    """Number of roots of x^3 + x + beta in F_{2^r}; beta must be nonzero
    (beta = 0 is the degenerate case with the double root structure)."""
    if beta == 0:
        raise ValueError("beta must be nonzero")
    return _cubic_fiber_counts(r)[beta]


def cubic_root_census(r: int) -> tuple:
    """(M3, M1, M0): how many nonzero beta give 3, 1, 0 roots."""
    counts = _cubic_fiber_counts(r)[1:]
    return tuple(counts.count(k) for k in (3, 1, 0))


def cubic_root_census_expected(r: int) -> tuple:
    """The closed form for the cubic census, split by parity of r."""
    if r % 2:
        return ((2 ** (r - 1) - 1) // 3, 2 ** (r - 1) - 1, (2 ** r + 1) // 3)
    return ((2 ** (r - 1) - 2) // 3, 2 ** (r - 1), (2 ** r - 1) // 3)
