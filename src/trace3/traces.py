"""First three traces of field elements relative to a subfield, exhaustive
trace censuses, and brute-force counts of irreducible polynomials with
prescribed leading coefficients.

The counts test every candidate polynomial: Rabin's deterministic test runs
on blocks of candidates at once, as numpy lanes, with the gcd of each lane
decided by a fixed number of Bernstein-Yang divsteps.  Over GF(2) with
degree <= 32 a polynomial is one uint64 lane; otherwise its coefficients
are a row of an array of the field's `lane_dtype`, squared and multiplied
by the field's lane kernels (`FieldContext.sqr` and `times`).
"""

from collections.abc import Mapping
from functools import cache, partial
from itertools import chain, compress, product
from operator import add

import numpy as np

from . import anf, gf2x
from .field import (DEFAULT_ENUM_CAP, MAX_DEGREE, FieldContext, _apply,
                    _byte_tables, build_context, kernel_basis)
from .residues import check_rn


def trace_triple(ctx: FieldContext, r: int, a):
    """(T1, T2, T3) of a relative to F_{2^r}: the coefficients of
    x^(n-1), x^(n-2), x^(n-3) in P_n = prod_{i<n} (x + a^(2^(ri))), n = m/r.

    A Frobenius ladder along the bits of n on the top three coefficients c
    of P_k: P_2k = P_k F^(rk)(P_k), F^(rk) on c, takes 3 products and 3
    maps, P_(k+1) = P_k (x + F^(rk)(a)) 2 and 1: at most 3 floor(log2 n)
    + 2 (popcount(n) - 1) products.  Missing traces for n < 3 are empty
    sums, hence 0.  a is an int, or a uint64 array of lanes (m <= 32).
    """
    ctx._check_divisor(r)
    c1, c2, c3, k = a, 0, 0, 1  # P_1 = x + a; rebound, never updated in place
    for bit in bin(ctx.m // r)[3:]:
        d1, d2, d3 = (ctx.frobenius(c1, r * k), ctx.frobenius(c2, r * k),
                      ctx.frobenius(c3, r * k))
        c1, c2, c3, k = (c1 ^ d1, c2 ^ d2 ^ ctx.mul(c1, d1),
                         c3 ^ d3 ^ ctx.mul(c1, d2) ^ ctx.mul(c2, d1), 2 * k)
        if bit == "1":
            b, k = ctx.frobenius(a, r * k), k + 1
            c1, c2, c3 = c1 ^ b, c2 ^ ctx.mul(c1, b), c3 ^ ctx.mul(c2, b)
    return c1, c2, c3


def check_trace_addition_identities(ctx: FieldContext, r: int, a, b):
    """Both addition identities for the second and third trace:

      T2(a+b) + T2(a) + T2(b) = T1(a)T1(b) + T1(ab)
      T3(a+b) + T3(a) + T3(b) = T2(a)T1(b) + T1(a)T2(b)
                                + T1(a^2 b + a b^2) + T1(ab)T1(a+b)

    A bool for ints a, b; for uint64 arrays (m <= 32), a bool per lane.
    The two lone T1 terms are `relative_trace` maps, not ladders."""
    t_a = trace_triple(ctx, r, a)
    t_b = trace_triple(ctx, r, b)
    t_s = trace_triple(ctx, r, a ^ b)
    ab = ctx.mul(a, b)
    t1_ab = ctx.relative_trace(ab, r)
    lhs2 = t_s[1] ^ t_a[1] ^ t_b[1]
    rhs2 = ctx.mul(t_a[0], t_b[0]) ^ t1_ab
    mixed = ctx.mul(ab, a ^ b)  # a^2 b + a b^2
    lhs3 = t_s[2] ^ t_a[2] ^ t_b[2]
    rhs3 = (ctx.mul(t_a[1], t_b[0]) ^ ctx.mul(t_a[0], t_b[1])
            ^ ctx.relative_trace(mixed, r) ^ ctx.mul(t1_ab, t_s[0]))
    return (lhs2 == rhs2) & (lhs3 == rhs3)


def _census_key(r: int, n: int, active: int, cap: int):
    """(pack, key) for the first `active` traces relative to F_{2^r} in
    F_{2^(rn)}, after checking the sweep: pack maps traces to their packed
    `FieldContext.subfield_code`s, first trace highest (AssertionError off
    the subfield), and key(x) = pack(trace_triple(x)), for an int x or a
    uint64 array."""
    check_rn(r, n)
    anf.check_sweep(r * n, cap)
    ctx = build_context(r * n)
    code = ctx.subfield_code(r)

    def pack(traces):
        k = 0
        for t in traces[:active]:
            k = k << r | code(t)
        return k
    return pack, lambda x: pack(trace_triple(ctx, r, x))


def _t1_lift(ctx: FieldContext, r: int):
    """The GF(2)-linear lane map of m - r + 1 bits onto the elements with
    T1 = Tr_{m/r} in F_2: bit i < m - r goes to the i-th vector of the
    kernel of Tr_{m/r}, bit m - r to an x0 with T1(x0) = 1.  Both come from
    one `kernel_basis`, of (x, e) -> T1(x) + e for e in F_2: only its last
    vector has e = 1, and T1 = 1 there.  So T1 is 0 on the inputs below
    2^(m-r) and 1 on the rest, and a map composed with the lift keeps its
    GF(2)-degree."""
    basis, _ = kernel_basis(
        [ctx.relative_trace(1 << i, r) for i in range(ctx.m)] + [1])
    tables = _byte_tables([v & ctx.order - 1 for v in basis])  # e dropped
    return partial(_apply, [np.array(t, dtype=np.uint64) for t in tables])


def _subfield_logs(ctx: FieldContext, r: int) -> tuple:
    """(exp, log), uint64 and int64 arrays over the codes of F_{2^r}*:
    exp[i] is the code of g^i for i < 2 (2^r - 1), g the primitive element
    of least code, and log[exp[i]] = i mod 2^r - 1 (log[0] = 0 is none)."""
    q = 1 << r
    powers = ctx.primitive_powers(
        (ctx.subfield_element(r, c) for c in range(1, q)), q - 1)
    exp = np.tile(ctx.subfield_code(r)(powers), 2)
    log = np.zeros(q, dtype=np.int64)
    log[exp[:q - 1]] = np.arange(q - 1)
    return exp, log


class TraceCensus(Mapping):
    """Exhaustive counts of the elements of F_{2^(rn)} by their first
    `depth` traces relative to F_{2^r}, as a read-only mapping keyed by
    tuples of big-field bit patterns: (t1,) at depth 1, (t1, t2) at 2,
    (t1, t2, t3) at 3.  The counts are the histogram of the packed
    `FieldContext.subfield_code`s of the nonempty sums, first trace
    highest, so the histogram is a run of T1 blocks: the classes are its
    nonzero bins, in code order, which is the order of the keys as
    products of the subfield elements; counts are Python ints, and `get`
    gives 0 for an absent class.

    Only the elements with T1 in F_2 are swept: one sweep of the key
    through `_t1_lift`, 2^(rn - r + 1) inputs, gives the blocks of T1 = 0
    and 1, the one array kept.  Every other block is a gather of block 1
    when read (`_bins`): a -> c a, c in F_{2^r}*, maps (1, t2, t3) onto
    (c, c^2 t2, c^3 t3), as T_k(c a) = c^k T_k(a)."""

    BLOCK = 1 << 14  # bins per block of iteration, and of joined text rows

    def __init__(self, r, n, depth, cap):
        self._r, self._depth, self._active = r, depth, min(depth, n)
        self._pack, key = _census_key(r, n, self._active, cap)
        self._ctx = build_context(r * n)
        lift = _t1_lift(self._ctx, r)
        self._hist = anf.sweep(r * n - r + 1, lambda x: key(lift(x)),
                               self._active)  # T1 blocks 0 and 1
        self._logs = _subfield_logs(self._ctx, r) if self._active > 1 else None
        zero, one = self._hist.reshape(2, -1)  # a gather keeps nnz and sum
        self._len, self._total = (int(f(zero)) + ((1 << r) - 1) * int(f(one))
                                  for f in (np.count_nonzero, np.sum))

    def _bins(self, start: int, stop: int):
        """The bins of T1 codes start <= c < stop, flat and read-only, in
        code order: blocks 0 and 1 are the sweep's, and bin (c, t2, t3) of a
        block c >= 2 is bin (1, t2 c^-2, t3 c^-3), one gather of block 1
        along each later trace; with one trace it is bin 1, a broadcast."""
        r, active, hist = self._r, self._active, self._hist
        if active == 1:  # a class per T1, each of 2^(rn - r) elements
            return hist[np.minimum(np.arange(start, stop), 1)]
        (exp, log), q, span = self._logs, 1 << r, hist.size // 2
        blocks = [hist[start * span:stop * span]]  # of blocks 0 and 1
        for c in range(max(start, 2), stop):
            block = hist[span:].reshape((q,) * (active - 1))
            for axis, k in enumerate(range(2, active + 1)):
                index = exp[log + (k * (q - 1 - log[c]) % (q - 1))]  # t c^-k
                index[0] = 0
                block = block.take(index, axis=axis)
            blocks.append(block.ravel())
        return np.concatenate(blocks) if stop - start > 1 else blocks[-1]

    @property
    def counts(self):
        """The census itself, under the name the benchmark harness reads."""
        return self

    @property
    def total(self) -> int:
        return self._total

    def get(self, key, default=0):
        return self._count(key) or default

    def rows(self):
        """(t1_bits, t2_bits, t3_bits, count) rows in key (= code) order."""
        return chain.from_iterable(map(add, keys, zip(counts))
                                   for keys, counts in self._blocks(3))

    def text_blocks(self):
        """The rows as decimal strings, a lazy iterator of them per block
        of bins; every block holds a class, since every T1 is taken.  The
        text of each later trace's elements is built once."""
        return (map(add, keys, zip(counts))
                for keys, counts in self._blocks(3, text=True))

    def __getitem__(self, key):
        if count := self._count(key):
            return count
        raise KeyError(key)

    def _count(self, key) -> int:
        """The count of `key`, 0 if it is no class.  It is one swept bin: its
        own in T1 blocks 0 and 1, else the one bin that `_bins` gathers it
        from, (c, t2, t3) -> (1, t2 c^-2, t3 c^-3)."""
        try:
            if len(key) != self._depth or any(key[self._active:]):
                return 0
            code = self._pack(key)
        except (TypeError, AssertionError):  # not a key; not in the subfield
            return 0
        r, active, span = self._r, self._active, self._hist.size // 2
        c, low = divmod(code, span)
        if c >= 2 and active > 1:  # with one trace, every c >= 1 reads bin 1
            (exp, log), q, scaled = self._logs, 1 << r, 0
            inverse = q - 1 - int(log[c])  # c^-1 = g^inverse
            for k in range(2, active + 1):  # the later traces, T2 highest
                t = low >> r * (active - k) & q - 1  # to t c^-k, as in `_bins`
                scaled = scaled << r | (
                    int(exp[int(log[t]) + k * inverse % (q - 1)]) if t else 0)
            low = scaled
        return int(self._hist[min(c, 1) * span + low])

    def __len__(self):
        return self._len

    def __iter__(self):
        return chain.from_iterable(
            keys for keys, _ in self._blocks(self._depth))

    def items(self):
        return chain.from_iterable(
            zip(*block) for block in self._blocks(self._depth))

    def values(self):
        return chain.from_iterable(
            counts for _, counts in self._blocks(self._depth))

    def _blocks(self, width: int, text: bool = False):
        """Per block of bins, a lazy iterator over the keys of its classes,
        padded with 0 to `width` traces, and the list of their counts; with
        `text`, each element and count as its decimal string.

        A block is a run of leading (T1) codes of about BLOCK bins, or one
        code if that alone spans more.  Its keys are the product of the
        elements of its leading codes, decoded on lanes, with the shared
        `subfield_elements(r)` for each later trace, kept where a bin is
        nonzero: code order is the product's order."""
        r, active = self._r, self._active

        def cast(values):
            return list(map(str, values)) if text else values
        span = 1 << r * (active - 1)  # bins per leading code
        step = max(self.BLOCK // span, 1)
        later = [cast(self._ctx.subfield_elements(r))] if active > 1 else []
        tail = later * (active - 1) + [cast([0])] * (width - active)
        for start in range(0, 1 << r, step):
            stop = min(start + step, 1 << r)
            lead = self._ctx.subfield_element(
                r, np.arange(start, stop, dtype=np.uint64)).tolist()
            bins = self._bins(start, stop)
            nonzero = bins != 0
            yield (compress(product(cast(lead), *tail),
                            nonzero.view(np.uint8).tobytes()),
                   cast(bins[nonzero].tolist()))


_WHICH_DEPTH = {"one": 1, "two": 2, "three": 3}


def trace_census(r: int, n: int, which: str = "three",
                 cap: int = DEFAULT_ENUM_CAP) -> TraceCensus:
    """Census of F_{2^(rn)} by the first traces relative to F_{2^r}: one
    chunked sweep of the 2^(rn - r + 1) elements with T1 in F_2, whose
    counts, T1 blocks 0 and 1, are all it keeps; every other T1 block is
    read from block 1 by F_{2^r}* scaling (`TraceCensus`)."""
    if which not in _WHICH_DEPTH:
        raise ValueError(f"which must be one, two or three, got {which!r}")
    return TraceCensus(r, n, _WHICH_DEPTH[which], cap)


def trace_class_count(r: int, n: int, traces, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Number of elements of F_{2^(rn)} whose first traces are `traces`, as
    big-field bit patterns; 0 off the subfield or nonzero on an empty sum.

    Only the coset of the target's T1 is swept: 2^(rn - r) inputs, the
    kernel of T1 through `_t1_lift`, each shifted by t1 x0, where x0 is
    the lift's element with T1 = 1.  Each chunk of the census key is
    compared with the packed target, so no histogram of the classes is
    built."""
    active = min(len(traces), n)
    pack, key = _census_key(r, n, active, cap)
    try:
        if any(traces[active:]):
            return 0
        target = pack(traces)
    except AssertionError:  # a trace outside F_{2^r}
        return 0
    if not active:
        return 1 << r * n
    ctx = build_context(r * n)
    lift = _t1_lift(ctx, r)
    x0 = lift(np.full(1, 1 << r * n - r, dtype=np.uint64))
    shift = ctx.mul(x0, traces[0])  # T1(t1 x0) = t1 T1(x0) = t1
    _, chunks = anf.sweep_chunks(r * n - r, lambda x: key(lift(x) ^ shift),
                                 active)
    return sum(int(np.count_nonzero(values == target)) for values in chunks)


# ---------------------------------------------------------------------------
# irreducibility and prefix counting: Rabin's test on numpy lanes

PREFIX_BLOCK = 1 << 16  # most candidates tested at once


@cache
def _bit_tables():
    """uint64 tables over the bytes: the bits spread to the even positions
    (squaring over GF(2)) and the bits in reverse order."""
    byte = np.arange(256, dtype=np.uint64)
    spread = np.zeros(256, dtype=np.uint64)
    rev = np.zeros(256, dtype=np.uint64)
    for i in range(8):
        bit = (byte >> i) & 1
        spread |= bit << (2 * i)
        rev |= bit << (7 - i)
    return spread, rev


def _reverse_packed(v, width: int):
    """Bits 0..width-1 of each lane in reverse order."""
    rev = _bit_tables()[1]
    nbytes = (width + 7) // 8
    out = np.zeros_like(v)
    for j in range(nbytes):
        out |= rev[(v >> (8 * j)) & 0xFF] << (8 * (nbytes - 1 - j))
    return out >> (8 * nbytes - width)


def _coprime_packed(n: int, f, g):
    """Lanes where gcd(f, g) = 1, for f monic of degree n and deg g < n over
    GF(2), bit i = coefficient of x^i, n <= 32.

    Runs 2n - 1 divsteps of Bernstein-Yang ("Fast constant-time gcd
    computation and modular inversion", 2019, Theorem 6.2) on the reversed
    polynomials x^n f(1/x) and x^(n-1) g(1/x), starting from delta = 1; the
    gcd then has degree delta / 2, so it is 1 iff delta ends at 0.  A step
    sets g = (g(0) f - f(0) g) / x, which a swap leaves unchanged, and
    delta += 1, after swapping f and g (and negating delta) where delta > 0
    and g(0) = 1; f(0) stays 1 throughout.
    """
    # signed lanes (the polynomials fit in 33 bits), so that masks of all
    # ones are -1 and the sign of -delta gives delta > 0
    f = _reverse_packed(f, n + 1).view(np.int64)
    g = _reverse_packed(g, n).view(np.int64)
    delta = np.ones(f.shape, dtype=np.int64)
    for _ in range(2 * n - 1):
        odd = -(g & 1)  # -1 where g(0) = 1
        swap = odd & ((-delta) >> 63)  # ... and delta > 0
        h = g ^ (f & odd)
        f ^= h & swap  # h = f + g where swapped
        delta = (delta ^ swap) - swap + 1
        g = h >> 1
    return delta == 0


def _rabin_packed(n: int, f):
    """Irreducibility of the monic degree-n polynomials over GF(2) packed in
    the uint64 lanes f, 2 <= n <= 32 (so a square, of degree 2n - 2, fits)."""
    spread = _bit_tables()[0]
    fk = [f << k for k in range(n - 1)]
    stops = {n // ell for ell in gf2x.prime_factors(n)}
    t = np.full_like(f, 2)  # x
    deg = 1  # bounds the degree of t: x^(2^j) needs no reduction below n
    snaps = []
    for j in range(n):
        s = spread[t & 0xFF]
        for b in range(1, deg // 8 + 1):
            s |= spread[(t >> (8 * b)) & 0xFF] << (16 * b)
        for k in range(2 * deg - n, -1, -1):
            # bits above n + k are already clear
            s ^= fk[k] * (s >> (n + k))
        t = s
        deg = min(2 * deg, n - 1)
        if j + 1 in stops:
            snaps.append(t)
    ok = t == 2
    if snaps and ok.any():
        # x^(2^(n/l)) - x for every prime l | n, stacked, against f repeated
        g = np.concatenate([v[ok] ^ 2 for v in snaps])
        coprime = _coprime_packed(n, np.tile(f[ok], len(snaps)), g)
        ok[ok] = coprime.reshape(len(snaps), -1).all(axis=0)
    return ok


def _coprime_lanes(r: int, f, g):
    """Lanes where gcd = 1 over F_{2^r}, for polynomials given reversed as
    (lanes, n + 1) coefficient rows: f = x^n F(1/x) for F of degree n, and
    g = x^(n-1) G(1/x) for deg G < n, with g[:, n] = 0.

    The divsteps of `_coprime_packed`; f(0) is never 0, since a swap brings
    in a g with g(0) != 0.
    """
    times = build_context(r).times
    n = f.shape[1] - 1
    delta = np.ones(f.shape[0], dtype=np.int64)
    pad = np.zeros((f.shape[0], 1), dtype=f.dtype)
    for _ in range(2 * n - 1):
        swap = (delta > 0) & (g[:, 0] != 0)
        # column 0 of g(0) f - f(0) g is 0: drop it to divide by x; the
        # (lanes, 1) columns g(0) and f(0) are prepared, not the blocks
        h = np.concatenate([times(g[:, :1])(f[:, 1:])
                            ^ times(f[:, :1])(g[:, 1:]), pad], axis=1)
        f = np.where(swap[:, None], g, f)
        delta = np.where(swap, -delta, delta) + 1
        g = h
    return delta == 0


def _rabin_lanes(r: int, low):
    """Irreducibility of the monic polynomials x^n + sum_i low[:, i] x^i
    over F_{2^r}, one per row; n >= 2.

    Coefficients are held in (lanes, n) arrays of the field's `lane_dtype`;
    a reduction step multiplies one column by the lane's own low
    coefficients, prepared once (`FieldContext.times`).
    """
    ctx = build_context(r)
    dtype = ctx.lane_dtype
    lanes, n = low.shape
    low = low.astype(dtype)
    times_f = ctx.times(low)
    stops = {n // ell for ell in gf2x.prime_factors(n)}
    x = np.zeros((lanes, n), dtype=dtype)
    x[:, 1] = 1
    t = x
    deg = 1  # bounds the degree of t, as in `_rabin_packed`
    s = np.zeros((lanes, 2 * n - 1), dtype=dtype)
    snaps = []
    for j in range(r * n):
        s[:, ::2] = ctx.sqr(t)
        s[:, 1::2] = 0
        for k in range(2 * deg, n - 1, -1):
            # subtract s_k x^(k-n) f; columns from k up are not read again
            s[:, k - n:k] ^= times_f(s[:, k:k + 1])
        t = s[:, :n].copy()
        deg = min(2 * deg, n - 1)
        if (j + 1) % r == 0 and (j + 1) // r in stops:
            snaps.append(t)
    ok = (t == x).all(axis=1)
    if snaps and ok.any():
        kept = int(np.count_nonzero(ok))
        f = np.ones((kept, n + 1), dtype=dtype)
        f[:, 1:] = low[ok, ::-1]
        g = np.zeros((kept * len(snaps), n + 1), dtype=dtype)
        g[:, :n] = np.concatenate([(v[ok] ^ x[ok])[:, ::-1] for v in snaps])
        coprime = _coprime_lanes(r, np.tile(f, (len(snaps), 1)), g)
        ok[ok] = coprime.reshape(len(snaps), -1).all(axis=0)
    return ok


def irreducible_mask(r: int, low) -> np.ndarray:
    """Rabin's test on a batch: entry i says whether the monic polynomial
    x^n + sum_j low[i, j] x^j over F_{2^r} is irreducible, for an integer
    array low of shape (lanes, n) with entries below 2^r, n >= 2.

    One chain of r * n squarings modulo each lane's own polynomial keeps
    x^(q^(n/l)) for every prime l | n; the lanes with x^(q^n) = x go on to a
    divstep gcd of each kept power minus x with the polynomial.  Over GF(2)
    with n <= 32 a polynomial is one uint64 lane (`_rabin_packed`); otherwise
    its coefficients are a row of a (lanes, n) array (`_rabin_lanes`), whose
    products come from the field's lane kernels.
    """
    lanes, n = low.shape
    if r == 1 and n <= 32:
        f = np.full(lanes, 1 << n, dtype=np.uint64)
        for i in range(n):
            f |= low[:, i].astype(np.uint64) << i
        return _rabin_packed(n, f)
    return _rabin_lanes(r, low)


def _check_prefix(r: int, n: int, prefix, cap: int) -> int:
    """q = 2^r after checking a prefix count's inputs, before any work: the
    q^(n-3) = 2^(r(n-3)) candidates are refused as a sweep of that size."""
    if not 1 <= r <= MAX_DEGREE:
        raise ValueError(f"need 1 <= r <= {MAX_DEGREE}, got r = {r}")
    if n < 3:
        raise ValueError("need degree >= 3 to prescribe three coefficients")
    q = 1 << r
    if any(not 0 <= t < q for t in prefix):
        raise ValueError(f"prescribed coefficients must lie in 0..{q - 1}")
    anf.check_sweep(r * (n - 3), cap)
    return q


def count_irreducibles_with_prefix(r: int, n: int, t1: int, t2: int, t3: int,
                                   cap: int = DEFAULT_ENUM_CAP) -> int:
    """Number of monic irreducible degree-n polynomials over F_{2^r} whose
    coefficients of x^(n-1), x^(n-2), x^(n-3) are t1, t2, t3.

    Enumerates all q^(n-3) polynomials with the remaining coefficients free,
    PREFIX_BLOCK at a time: candidate c has the base-q digits of c as its
    low coefficients, and `irreducible_mask` tests a block at once.
    """
    q = _check_prefix(r, n, (t1, t2, t3), cap)
    free = n - 3
    top = (t3, t2, t1)
    total = 0
    for start in range(0, q ** free, PREFIX_BLOCK):
        c = np.arange(start, min(start + PREFIX_BLOCK, q ** free),
                      dtype=np.int64)
        low = np.empty((c.size, n), dtype=np.min_scalar_type(q - 1))
        for i in range(free):
            low[:, i] = (c >> (r * i)) & (q - 1)
        low[:, free:] = top
        total += int(np.count_nonzero(irreducible_mask(r, low)))
    return total


# ---------------------------------------------------------------------------
# joint zero counts of arbitrary function tables

def joint_zero_identity_check(ctx: FieldContext, r: int, f1, f2) -> bool:
    """For arbitrary maps f1, f2: F_{2^m} -> F_{2^r} given as full value
    tables, check

      q * N(0,0) = Z(f1) + sum_{alpha in F_q} Z(alpha*f1 + f2) - |domain|

    where N(0,0) counts joint zeros, Z counts zeros and q = 2^r.  This is an
    identity for every pair of functions, not only quadratic forms.
    """
    size = ctx.order
    if len(f1) != size or len(f2) != size:
        raise ValueError("tables must cover the full domain")
    a1 = np.asarray(f1, dtype=np.uint32)
    a2 = np.asarray(f2, dtype=np.uint32)
    n00 = int(np.count_nonzero((a1 == 0) & (a2 == 0)))
    rhs = -size + int(np.count_nonzero(a1 == 0))
    sub = ctx.subfield_elements(r)
    for alpha in sub:
        table = np.zeros(size, dtype=np.uint32)
        for v in sub:
            table[v] = ctx.mul(alpha, v)
        rhs += int(np.count_nonzero(table[a1] ^ a2 == 0))
    return (1 << r) * n00 == rhs
