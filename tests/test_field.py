import random
import sys
import threading

import numpy as np
import pytest

from trace3 import field, gf2x
from trace3.anf import sweep_chunks
from trace3.field import MAX_DEGREE, FieldContext, build_context, kernel_basis
from trace3.traces import trace_census


def naive_poly_mul(a, b):
    r = 0
    i = 0
    while a >> i:
        if (a >> i) & 1:
            r ^= b << i
        i += 1
    return r


def naive_irreducible(f):
    """Trial division by every lower-degree polynomial."""
    d = f.bit_length() - 1
    for g in range(2, 1 << (d // 2 + 1)):
        if g.bit_length() - 1 < 1:
            continue
        if gf2x.mod(f, g) == 0:
            return False
    return True


def test_canonical_modulus_small():
    assert gf2x.canonical_modulus(1) == 0b11          # x + 1
    assert gf2x.canonical_modulus(2) == 0b111         # x^2 + x + 1
    assert gf2x.canonical_modulus(3) == 0b1011        # x^3 + x + 1


def test_canonical_modulus_degree8_by_enumeration():
    # independent oracle: scan octics in increasing packed order, trial-divide
    expected = None
    for cand in range((1 << 8) + 1, 1 << 9, 2):
        if naive_irreducible(cand):
            expected = cand
            break
    assert gf2x.canonical_modulus(8) == expected


@pytest.mark.parametrize("m", range(1, 17))
def test_canonical_modulus_is_irreducible(m):
    assert naive_irreducible(gf2x.canonical_modulus(m))


def test_build_context_range():
    with pytest.raises(ValueError):
        build_context(0)
    with pytest.raises(ValueError):
        FieldContext(MAX_DEGREE + 1)
    assert build_context(26).m == 26


def test_context_determinism():
    a = FieldContext(11)
    b = FieldContext(11)
    assert a.modulus == b.modulus
    rng = random.Random(3)
    for _ in range(50):
        x, y = rng.randrange(1 << 11), rng.randrange(1 << 11)
        assert a.mul(x, y) == b.mul(x, y)


def test_field_axioms_random():
    ctx = build_context(13)
    rng = random.Random(5)
    for _ in range(200):
        a, b, c = (rng.randrange(ctx.order) for _ in range(3))
        assert a ^ a == 0
        assert ctx.mul(a, b ^ c) == ctx.mul(a, b) ^ ctx.mul(a, c)
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1
            assert ctx.pow(a, ctx.order - 1) == 1
    assert ctx.inv(1) == 1
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)


def test_mul_matches_schoolbook():
    ctx = build_context(7)
    for a in range(1 << 7):
        for b in range(0, 1 << 7, 5):
            assert ctx.mul(a, b) == gf2x.mod(naive_poly_mul(a, b), ctx.modulus)


@pytest.mark.parametrize("m", [8, 24, 48, 64])
def test_mul_takes_numpy_integers_as_ints(m):
    # above 32 bits the shifted multiples of a uint64 scalar overflowed, and
    # up to 32 the product came back as a numpy scalar
    ctx = build_context(m)
    a, b = ctx.order - 3, ctx.order - 5
    want = gf2x.mod(naive_poly_mul(a, b), ctx.modulus)
    for got in (ctx.mul(np.uint64(a), np.uint64(b)), ctx.mul(np.uint64(a), b),
                ctx.mul(a, np.uint64(b))):
        assert type(got) is int and got == want
    if m < 64:
        assert ctx.mul(np.int64(a), np.int64(b)) == want
    with pytest.raises(TypeError):
        ctx.mul(float(a), b)


def _squarings(a, f, count):
    """a, a^2, a^4, ..., a^(2^count) by iterated gf2x.mulmod squaring."""
    out = [a]
    for _ in range(count):
        a = gf2x.mulmod(a, a, f)
        out.append(a)
    return out


@pytest.mark.parametrize("m", range(1, MAX_DEGREE + 1))
def test_table_kernels_match_mulmod(m):
    """Each kernel of a fresh context (its lazy tables built here) against
    gf2x.mulmod: mul and sqr on all pairs for m <= 8, else on 2000 random
    pairs; frobenius(a, k) for every k in 0..2m and relative_trace for
    every r | m against iterated squaring, on every element for m <= 8,
    else on the first 2000 // m random elements (the reference costs
    2m squarings per element)."""
    ctx = FieldContext(m)
    f = ctx.modulus
    if m <= 8:
        pairs = [(a, b) for a in range(1 << m) for b in range(1 << m)]
        singles = range(1 << m)
    else:
        rng = random.Random(m)
        pairs = [(rng.randrange(1 << m), rng.randrange(1 << m))
                 for _ in range(2000)]
        singles = [a for a, _ in pairs[:2000 // m]]
    for a, b in pairs:
        assert ctx.mul(a, b) == gf2x.mulmod(a, b, f), (a, b)
        assert ctx.sqr(a) == gf2x.mulmod(a, a, f), a
    divisors = [r for r in range(1, m + 1) if m % r == 0]
    for a in singles:
        conj = _squarings(a, f, 2 * m)
        assert [ctx.frobenius(a, k) for k in range(2 * m + 1)] == conj, a
        for r in divisors:
            expected = 0
            for x in conj[0:m:r]:
                expected ^= x
            assert ctx.relative_trace(a, r) == expected, (a, r)
        assert ctx.absolute_trace(a) == ctx.relative_trace(a, 1)


@pytest.mark.parametrize("m", range(1, MAX_DEGREE + 1))
def test_trace_dual_matches_trace_of_products(m):
    """Bit j of trace_dual(c) is the absolute trace of c * x^j, on a fresh
    context: every c for m <= 8, else 2000 random c.  The reference forms
    the product mul(c, 1 << j) by shifting c and reducing by the modulus."""
    ctx = FieldContext(m)
    if m <= 8:
        cs = range(1 << m)
    else:
        rng = random.Random(m)
        cs = [rng.randrange(1 << m) for _ in range(2000)]
    for c in cs:
        expected = 0
        x = c
        for j in range(m):
            expected |= ctx.absolute_trace(x) << j
            x <<= 1
            if x >> m:
                x ^= ctx.modulus
        assert ctx.trace_dual(c) == expected, c
    assert ctx.trace_dual(1 << (m - 1)) == sum(
        ctx.absolute_trace(ctx.mul(1 << (m - 1), 1 << j)) << j
        for j in range(m))


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 11, 16, 17, 24, 32, 33, 48, 64])
def test_lane_tables_match_mul(m):
    """times(b)(a) = a * b lane by lane, of the field's `lane_dtype`, on a
    fresh context: all pairs for m <= 8 (zero included), else random ones
    with zeros on either side; against uint64 lanes; an int on either side;
    a (lanes, 1) column against a (lanes, n) block, as the prefix-count
    engine broadcasts.  Squares match too, over the whole field up to
    m = 16, where they are a gather through a table of it."""
    ctx = FieldContext(m)
    dtype = ctx.lane_dtype
    assert dtype == (np.uint8 if m <= 8 else np.uint16 if m <= 16
                     else np.uint64 if m <= 32 else object)
    if m <= 8:
        xs, ys = np.divmod(np.arange(1 << (2 * m)), 1 << m)
        xs, ys = xs.tolist(), ys.tolist()
    else:
        rng = random.Random(m)
        xs = _lane_samples(ctx, rng, 800)
        ys = [rng.randrange(ctx.order) for _ in xs]
        xs[-50:] = [0] * 50
        ys[-100:-50] = [0] * 50
    a, b = np.array(xs, dtype=dtype), np.array(ys, dtype=dtype)
    expected = [ctx.mul(x, y) for x, y in zip(xs, ys)]
    for got in ctx.times(b)(a), ctx.times(a)(b), ctx.mul(a, b):
        assert got.dtype == dtype
        assert got.tolist() == expected
    if m <= 32:  # a narrow operand against uint64 lanes: uint64, no float64
        wide = b.astype(np.uint64)
        assert ctx.times(a)(wide).dtype == ctx.times(wide)(a).dtype == np.uint64
        assert ctx.times(a)(wide).tolist() == expected
    y = ys[-1]
    assert ctx.times(y)(a).tolist() == [ctx.mul(x, y) for x in xs]
    assert ctx.times(a)(y).tolist() == [ctx.mul(x, y) for x in xs]
    assert ctx.times(0)(a).tolist() == [0] * len(xs)
    lanes = len(xs) // 5
    column, block = a[:lanes, None], b[:5 * lanes].reshape(lanes, 5)
    got = ctx.times(column)(block)
    assert got.dtype == dtype and got.shape == (lanes, 5)
    assert got.tolist() == [[ctx.mul(x, z) for z in row]
                            for x, row in zip(xs, block.tolist())]
    assert ctx.times(block)(column).tolist() == got.tolist()
    squares = ctx.sqr(a)
    assert squares.dtype == dtype
    assert squares.tolist() == [ctx.sqr(x) for x in xs]
    if m <= 16:
        every = ctx.sqr(np.arange(ctx.order, dtype=np.uint64))
        assert every.tolist() == [gf2x.mulmod(x, x, ctx.modulus)
                                  for x in range(ctx.order)]


def _lane_samples(ctx, rng, count):
    """0, 1, 2^m - 1 and values with the top bit set, then random values."""
    top = 1 << (ctx.m - 1)
    return ([0, 1, ctx.order - 1, top, top | 1]
            + [rng.randrange(ctx.order) | top for _ in range(count // 4)]
            + [rng.randrange(ctx.order) for _ in range(count)])


@pytest.mark.parametrize("m", range(1, 33))
def test_lane_mul_matches_mul(m):
    # lanes and ints share a kernel: log tables up to m = 16, window above;
    # uint64 lanes, as a sweep passes them, stay uint64 at every m
    ctx = build_context(m)
    rng = random.Random(m)
    xs = _lane_samples(ctx, rng, 200)
    ys = xs[:5] * (len(xs) // 5) + xs[:len(xs) % 5]
    pairs = [(x, y) for x in xs[:5] for y in xs[:5]] + list(
        zip(xs, ys[::-1])) + [(x, rng.randrange(ctx.order)) for x in xs]
    a = np.array([x for x, _ in pairs], dtype=np.uint64)
    b = np.array([y for _, y in pairs], dtype=np.uint64)
    got = ctx.mul(a, b)
    assert got.dtype == np.uint64
    assert got.tolist() == [ctx.mul(x, y) for x, y in pairs]
    # an int operand on either side applies to every lane
    y = xs[-1]
    assert ctx.mul(a, y).tolist() == [ctx.mul(x, y) for x, _ in pairs]
    assert ctx.mul(y, b).tolist() == [ctx.mul(y, x) for _, x in pairs]


@pytest.mark.parametrize("m", [1, 2, 7, 8, 9, 16, 17, 24, 31, 32])
def test_lane_frobenius_matches_frobenius(m):
    ctx = build_context(m)
    rng = random.Random(m + 100)
    xs = _lane_samples(ctx, rng, 100)
    lanes = np.array(xs, dtype=np.uint64)
    for k in {0, 1, m - 1, m, 2 * m + 3} | {rng.randrange(1, 4 * m + 1)
                                              for _ in range(4)}:
        got = ctx.frobenius(lanes, k)
        assert got.dtype == np.uint64
        assert got.tolist() == [ctx.frobenius(x, k) for x in xs], k
    assert ctx.sqr(lanes).tolist() == [ctx.sqr(x) for x in xs]
    assert lanes.tolist() == xs  # the input lanes are left as they were


def test_lane_kernels_stop_at_32_bits():
    ctx = FieldContext(33)
    lanes = np.array([1, 2], dtype=np.uint64)
    with pytest.raises(ValueError, match="m <= 32"):
        ctx.mul(lanes, lanes)
    with pytest.raises(ValueError, match="m <= 32"):
        ctx.mul(3, lanes)
    with pytest.raises(ValueError, match="m <= 32"):
        ctx.frobenius(lanes, 1)
    for r in (1, 3, 11, 33):
        with pytest.raises(ValueError, match="m <= 32"):
            ctx.relative_trace(lanes, r)
    with pytest.raises(ValueError, match="m <= 32"):
        ctx.absolute_trace(lanes)
    assert ctx.mul(3, 5) == gf2x.mulmod(3, 5, ctx.modulus)
    assert ctx.absolute_trace(3) == ctx.relative_trace(3, 1)


@pytest.mark.parametrize("m", range(1, 33))
def test_lane_traces_match_traces(m):
    ctx = build_context(m)
    xs = _lane_samples(ctx, random.Random(m + 200), 60)
    lanes = np.array(xs, dtype=np.uint64)
    for r in (r for r in range(1, m + 1) if m % r == 0):
        got = ctx.relative_trace(lanes, r)
        assert got.dtype == np.uint64
        assert got.tolist() == [ctx.relative_trace(x, r) for x in xs], r
    assert ctx.absolute_trace(lanes).tolist() == [ctx.absolute_trace(x)
                                                  for x in xs]


@pytest.mark.parametrize("call", [
    lambda ctx: ctx.relative_trace(3, 0),
    lambda ctx: ctx.relative_trace(3, -1),
    lambda ctx: ctx.relative_trace(np.array([3], dtype=np.uint64), -2),
    lambda ctx: ctx.subfield_elements(0),
    lambda ctx: ctx.subfield_basis(-1),
    lambda ctx: ctx.subfield_element(0, 1),
], ids=["trace-r0", "trace-r-1", "lane-trace-r-2", "elements-r0",
        "basis-r-1", "element-r0"])
def test_subfield_maps_reject_r_below_1(call):
    with pytest.raises(ValueError, match="need r >= 1"):
        call(build_context(6))


def test_log_tables_trivial_group():
    # F_2: the multiplicative group is {1}, its primitive element is 1
    ctx = FieldContext(1)
    assert [ctx.mul(a, b) for a in (0, 1) for b in (0, 1)] == [0, 0, 0, 1]
    assert ctx.inv(1) == 1 and ctx.pow(1, 5) == 1 and ctx.pow(1, -2) == 1
    assert ctx.pow(0, 3) == 0 and ctx.pow(0, 0) == 1
    assert ctx.sqr(1) == 1 and ctx.frobenius(1, 7) == 1


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 11, 16])
def test_log_tables_match_a_loop_of_products(m):
    """The antilog list, built by doubling on lanes, is the powers of the
    smallest primitive element, as one product per power finds them."""
    ctx = FieldContext(m)
    exp, log = ctx._build_exp_log()
    for g in range(1, ctx.order):
        powers, x = [1], g
        while x != 1:
            powers.append(x)
            x = gf2x.mulmod(x, g, ctx.modulus)
        if len(powers) == ctx.order - 1:
            break
    assert exp == powers + powers
    assert [log[x] for x in powers] == list(range(ctx.order - 1))


def test_primitive_powers_rejects_candidates_of_lower_order():
    ctx = FieldContext(4)
    with pytest.raises(ValueError, match="no candidate"):
        ctx.primitive_powers([1, ctx.subfield_element(2, 2)], 15)
    assert ctx.primitive_powers([1, 2], 15).tolist() == [
        ctx.pow(2, i) for i in range(15)]


def test_kernels_do_not_call_mulmod(monkeypatch):
    contexts = [FieldContext(m) for m in (1, 2, 8, 16, 17, 24, 64)]

    def forbidden(*args):
        raise AssertionError("gf2x.mulmod called")

    monkeypatch.setattr(gf2x, "mulmod", forbidden)
    for ctx in contexts:
        a, b = ctx.order - 1, ctx.order // 2 | 1
        ctx.mul(a, b)
        ctx.sqr(a)
        ctx.frobenius(a, ctx.m + 3)
        ctx.relative_trace(a, 1)
        ctx.trace_dual(a)
        ctx.inv(a)


@pytest.mark.parametrize("m", [12, 24])
def test_lazy_tables_under_concurrent_first_use(m):
    # more threads than cores race to build the lazy tables of a fresh
    # context; each must still get the reference results
    ctx = FieldContext(m)
    rng = random.Random(m)
    pairs = [(rng.randrange(ctx.order), rng.randrange(ctx.order))
             for _ in range(200)]
    f = ctx.modulus
    expected = [(gf2x.mulmod(a, b, f), gf2x.frobenius_power(a, 5, f))
                for a, b in pairs]
    results = {}

    def work(worker):
        results[worker] = [(ctx.mul(a, b), ctx.frobenius(a, 5))
                           for a, b in pairs]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == {i: expected for i in range(8)}


@pytest.mark.parametrize("m", [2, 3, 5, 8, 12])
def test_squaring_is_additive_exhaustive(m):
    # a degree-1 ANF sweep reproduces squaring everywhere iff it is additive
    ctx = build_context(m)
    _, chunks = sweep_chunks(m, ctx.sqr, 1)
    arr = np.concatenate([v.copy() for v in chunks])
    for x in range(1 << m):
        assert int(arr[x]) == ctx.sqr(x)


def test_frobenius_power_is_composed_from_built_tables(monkeypatch):
    # a fresh Frobenius^63 at m = 64 takes at most 4 m ceil(log2 m) table
    # lookups; 63 squarings of each of the 64 basis images take 4032
    ctx = FieldContext(64)
    a = 0x0123456789ABCDEF
    expected = gf2x.frobenius_power(a, 63, ctx.modulus)
    calls = 0
    apply = field._apply

    def counting(tables, x):
        nonlocal calls
        calls += 1
        return apply(tables, x)

    monkeypatch.setattr(field, "_apply", counting)
    assert ctx.frobenius(a, 63) == expected
    assert calls <= 4 * 64 * 6


def _trace_images_stepwise(ctx, r):
    """Tr_{m/r}(x^i): the sum of m/r - 1 Frobenius^r steps from each x^i."""
    images = []
    for i in range(ctx.m):
        x = t = 1 << i
        for _ in range(ctx.m // r - 1):
            x = ctx.frobenius(x, r)
            t ^= x
        images.append(t)
    return images


@pytest.mark.parametrize("m", range(1, MAX_DEGREE + 1))
def test_trace_images_by_doubling_match_stepwise_sum(m):
    ctx = build_context(m)
    for r in (r for r in range(1, m + 1) if m % r == 0):
        assert ctx._trace_images(r) == _trace_images_stepwise(ctx, r)


@pytest.mark.parametrize("r", [1, 2, 4, 8])
def test_trace_images_take_log_many_frobenius_maps(monkeypatch, r):
    # by doubling, at most 2 log2(m/r) maps of the m basis images; the
    # stepwise sum makes m/r - 1 of them (4032 calls at m = 64, r = 1)
    ctx = FieldContext(64)
    calls = 0
    frobenius = ctx.frobenius

    def counting(a, k):
        nonlocal calls
        calls += 1
        return frobenius(a, k)

    monkeypatch.setattr(ctx, "frobenius", counting)
    images = ctx._trace_images(r)
    assert calls <= 2 * 64 * (64 // r).bit_length()
    assert images == _trace_images_stepwise(FieldContext(64), r)


def test_frobenius_iter():
    ctx = build_context(2)
    omega = 0b10  # root of x^2 + x + 1
    assert ctx.frobenius(omega, 1) == omega ^ 1
    ctx6 = build_context(6)
    rng = random.Random(9)
    for _ in range(50):
        a = rng.randrange(ctx6.order)
        assert ctx6.frobenius(a, 0) == a
        assert ctx6.frobenius(a, 6) == a
        assert ctx6.frobenius(a, 2) == ctx6.sqr(ctx6.sqr(a))


def test_relative_trace_values():
    ctx = build_context(3)
    assert ctx.relative_trace(0, 1) == 0
    assert ctx.relative_trace(0b010, 1) == 0  # root of the modulus x^3+x+1
    for a in range(8):
        assert ctx.relative_trace(a, 3) == a
    with pytest.raises(ValueError):
        ctx.relative_trace(1, 2)


@pytest.mark.parametrize("m,r", [(4, 1), (4, 2), (6, 2), (6, 3), (12, 3), (16, 4)])
def test_relative_trace_image_and_linearity(m, r):
    ctx = build_context(m)
    zeros = sum(1 for a in range(1 << m) if ctx.relative_trace(a, r) == 0)
    assert zeros == 1 << (m - r)
    rng = random.Random(m * 31 + r)
    for _ in range(50):
        a, b = rng.randrange(ctx.order), rng.randrange(ctx.order)
        ta, tb = ctx.relative_trace(a, r), ctx.relative_trace(b, r)
        assert ctx.relative_trace(a ^ b, r) == ta ^ tb
        assert ctx.frobenius(ta, r) == ta
        c = rng.choice(ctx.subfield_elements(r))
        assert ctx.relative_trace(ctx.mul(c, a), r) == ctx.mul(c, ta)


def test_is_in_subfield():
    # F_2 inside F_4: the fixed points of the Frobenius
    ctx = build_context(2)
    assert ctx.frobenius(0, 1) == 0 and ctx.frobenius(1, 1) == 1
    assert ctx.frobenius(0b10, 1) != 0b10


@pytest.mark.parametrize("m,r", [(4, 2), (6, 2), (6, 3), (8, 4), (12, 4)])
def test_subfield_elements_form_a_field(m, r):
    ctx = build_context(m)
    sub = ctx.subfield_elements(r)
    assert len(sub) == 1 << r
    assert all(ctx.frobenius(a, r) == a for a in sub)
    subset = set(sub)
    rng = random.Random(m + r)
    for _ in range(40):
        a, b = rng.choice(sub), rng.choice(sub)
        assert a ^ b in subset and ctx.mul(a, b) in subset


@pytest.mark.parametrize("m", range(1, 13))
def test_subfield_elements_are_the_fixed_points(m):
    ctx = FieldContext(m)
    for r in (r for r in range(1, m + 1) if m % r == 0):
        assert ctx.subfield_elements(r) == [
            a for a in range(ctx.order)
            if gf2x.frobenius_power(a, r, ctx.modulus) == a], r


def _images_of(images, v):
    """The xor of images[i] over the bits i of v."""
    out = 0
    for i, image in enumerate(images):
        if v >> i & 1:
            out ^= image
    return out


def _rank(vectors):
    """GF(2) rank by a xor basis kept in descending order, each new vector
    reduced by taking the smaller of v and v ^ b for every basis b."""
    basis = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(basis)


def test_kernel_basis_on_random_maps():
    rng = random.Random(0x4E7)
    for m in range(1, MAX_DEGREE + 1):
        for _ in range(6):
            gens = [rng.getrandbits(m) for _ in range(rng.randint(0, m))]
            images = [_images_of(gens, rng.getrandbits(len(gens)))
                      for _ in range(m)]
            kernel, complement = kernel_basis(images)
            assert len(kernel) + len(complement) == m
            assert all(_images_of(images, v) == 0 for v in kernel)
            assert _rank(kernel) == len(kernel)
            assert _rank([_images_of(images, u) for u in complement]) == len(
                complement)


_BASIS_CASES = [(m, r) for m in range(1, 17) for r in range(1, m + 1)
                if m % r == 0] + [(64, 32), (60, 20), (48, 16)]


@pytest.mark.parametrize("m,r", _BASIS_CASES)
def test_subfield_basis_is_sorted_reduced_and_inverts_the_code(m, r):
    ctx = build_context(m)
    basis = ctx.subfield_basis(r)
    assert len(basis) == r and list(basis) == sorted(basis)
    for a in basis:  # reduced: each leading bit is clear in the others
        assert not any(a >> b.bit_length() - 1 & 1 for b in basis if b != a)
    assert all(ctx.frobenius(b, r) == b for b in basis)
    code = ctx.subfield_code(r)
    rng = random.Random(m * 64 + r)
    for c in [0, (1 << r) - 1] + [rng.getrandbits(r) for _ in range(30)]:
        assert code(_images_of(basis, c)) == c
    if r < m:
        outside = next(v for v in range(ctx.order)
                       if ctx.frobenius(v, r) != v)
        with pytest.raises(AssertionError):
            code(outside)


def test_subfield_maps_build_no_table_of_the_subfield(monkeypatch):
    # only byte tables (at most 8 images each) are spanned, never F_{2^r}
    span = field._span

    def spy(images):
        assert len(images) <= 8, len(images)
        return span(images)

    monkeypatch.setattr(field, "_span", spy)
    FieldContext(64).subfield_code(32)
    FieldContext(24).embed_subfield(24)
    trace_census(12, 1, "one")


def _embed_by_scan(big, r):
    """Reference embedding: the powers of the smallest root, over every
    element of the subfield, of the degree-r canonical modulus."""
    small_mod = gf2x.canonical_modulus(r)

    def value(z):
        acc, power = 0, 1
        for i in range(r + 1):
            if small_mod >> i & 1:
                acc ^= power
            power = big.mul(power, z)
        return acc
    root = min(z for z in big.subfield_elements(r) if value(z) == 0)
    powers = [big.pow(root, i) for i in range(r)]
    return [_images_of(powers, a) for a in range(1 << r)]


@pytest.mark.parametrize("m,r", [(m, r) for m in range(1, 17)
                                 for r in range(1, m + 1) if m % r == 0]
                         + [(24, 12)])
def test_embed_subfield_matches_scan_of_every_element(m, r):
    emb = FieldContext(m).embed_subfield(r)
    assert list(map(emb, range(1 << r))) == _embed_by_scan(
        build_context(m), r)


def test_embed_subfield_stops_at_the_first_root(monkeypatch):
    # at (48, 16), scanning every element takes 17 products each, 1.1e6
    ctx = FieldContext(48)
    calls = 0
    mul = FieldContext.mul

    def counting(self, a, b):
        nonlocal calls
        calls += 1
        return mul(self, a, b)

    monkeypatch.setattr(FieldContext, "mul", counting)
    ctx.embed_subfield(16)
    assert calls <= 200_000


@pytest.mark.parametrize("m,r", [(4, 2), (6, 2), (6, 3), (12, 3), (20, 4),
                                 (1, 1), (5, 5), (8, 8)])
def test_embed_subfield_is_homomorphism(m, r):
    big = build_context(m)
    small = build_context(r)
    emb = big.embed_subfield(r)
    assert emb(0) == 0 and emb(1) == 1
    assert sorted(map(emb, range(1 << r))) == big.subfield_elements(r)
    if r == m:  # the same canonical modulus on both sides
        assert list(map(emb, range(big.order))) == list(range(big.order))
    rng = random.Random(m * 7 + r)
    for _ in range(60):
        a, b = rng.randrange(1 << r), rng.randrange(1 << r)
        assert emb(a ^ b) == emb(a) ^ emb(b)
        assert emb(small.mul(a, b)) == big.mul(emb(a), emb(b))
