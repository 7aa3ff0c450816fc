import os
import random
import resource
import subprocess
import sys
from collections import Counter
from itertools import product

import numpy as np
import pytest

from trace3 import gf2x, traces
from trace3.anf import check_sweep, sweep, sweep_chunks
from trace3.closedforms import (count_all_zero_traces, gauss_count,
                                irreducible_all_zero)
from trace3.field import (MAX_DEGREE, BudgetError, FieldContext,
                          build_context)
from trace3.traces import (TraceCensus, check_trace_addition_identities,
                           count_irreducibles_with_prefix, irreducible_mask,
                           joint_zero_identity_check, trace_census,
                           trace_class_count, trace_triple)

from poly_reference import (PrefixPoly, clmul, is_irreducible,
                            poly_gcd_is_one)
from test_cli import run_python_capped


def naive_trace_triple(ctx, r, a):
    """Direct double/triple sums over conjugates; the independent oracle."""
    n = ctx.m // r
    conj = [a]
    for _ in range(n - 1):
        conj.append(ctx.frobenius(conj[-1], r))
    t1 = 0
    for c in conj:
        t1 ^= c
    t2 = 0
    for i in range(n):
        for j in range(i + 1, n):
            t2 ^= ctx.mul(conj[i], conj[j])
    t3 = 0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                t3 ^= ctx.mul(ctx.mul(conj[i], conj[j]), conj[k])
    return t1, t2, t3


def loop_trace_triple(ctx, r, a):
    """The product of the conjugate linear factors x + a^(2^(ri)), one at a
    time, on its top three coefficients: 2n products and n maps.  The
    implementation the Frobenius ladder replaced, kept as its reference."""
    b = a
    c1 = c2 = c3 = 0
    for _ in range(ctx.m // r):
        c3 ^= ctx.mul(b, c2)
        c2 ^= ctx.mul(b, c1)
        c1 ^= b
        b = ctx.frobenius(b, r)
    return c1, c2, c3


def _divisors(m):
    return [r for r in range(1, m + 1) if m % r == 0]


def _assert_lanes_match_loop(ctx, r, lanes):
    """The ladder on lanes gives the loop's values, lane by lane, and leaves
    the caller's array as it was."""
    before = lanes.copy()
    got = trace_triple(ctx, r, lanes)
    assert lanes.dtype == before.dtype and np.array_equal(lanes, before)
    want = loop_trace_triple(ctx, r, lanes.copy())
    for i in range(3):
        assert np.broadcast_to(got[i], lanes.shape).tolist() == (
            np.broadcast_to(want[i], lanes.shape).tolist()), (ctx.m, r, i)


@pytest.mark.parametrize("m", range(1, 13))
def test_ladder_matches_loop_exhaustive(m):
    ctx = build_context(m)
    for r in _divisors(m):
        for a in range(ctx.order):
            assert trace_triple(ctx, r, a) == loop_trace_triple(ctx, r, a), (
                r, a)


@pytest.mark.parametrize("m", range(13, MAX_DEGREE + 1))
def test_ladder_matches_loop_random(m):
    ctx = build_context(m)
    rng = random.Random(m)
    xs = [1, ctx.order - 1, 1 << (m - 1)] + [rng.randrange(ctx.order)
                                             for _ in range(12)]
    for r in _divisors(m):
        for a in xs:
            assert trace_triple(ctx, r, a) == loop_trace_triple(ctx, r, a), (
                r, a)


@pytest.mark.parametrize("m", range(1, 33))
def test_ladder_matches_loop_on_lanes(m):
    # log-table lanes (one or two bytes, m <= 16) and the uint64 lanes a
    # sweep passes
    ctx = build_context(m)
    rng = random.Random(m + 1000)
    xs = [0, 1, ctx.order - 1] + [rng.randrange(ctx.order) for _ in range(40)]
    for r in _divisors(m):
        for dtype in {ctx.lane_dtype, np.dtype(np.uint64)}:
            _assert_lanes_match_loop(ctx, r, np.array(xs, dtype=dtype))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 11, 13, 15])
@pytest.mark.parametrize("r", [1, 2])
def test_ladder_matches_loop_at_named_n(n, r):
    # n = 1 has no ladder step, n = 2 one doubling, n = 3 a doubling and an
    # added conjugate; 7, 11, 13 and 15 add a conjugate after several
    # doublings
    ctx = build_context(r * n)
    rng = random.Random(100 * n + r)
    xs = [0, 1, ctx.order - 1] + [rng.randrange(ctx.order) for _ in range(30)]
    for a in xs:
        assert trace_triple(ctx, r, a) == loop_trace_triple(ctx, r, a), a
        assert trace_triple(ctx, r, a) == naive_trace_triple(ctx, r, a), a
    for dtype in {ctx.lane_dtype, np.dtype(np.uint64)}:
        _assert_lanes_match_loop(ctx, r, np.array(xs, dtype=dtype))


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 12, 60])
def test_ladder_takes_log_many_products(monkeypatch, r):
    # at most 3 floor(log2 n) + 2 (popcount(n) - 1) products, where the
    # loop makes 2n: 21 against 120 at m = 60, r = 1
    ctx = FieldContext(60)
    n = 60 // r
    calls = 0
    mul = ctx.mul

    def counting(a, b):
        nonlocal calls
        calls += 1
        return mul(a, b)

    monkeypatch.setattr(ctx, "mul", counting)
    a = 0x0123456789ABCDE
    got = trace_triple(ctx, r, a)
    assert calls <= 3 * (n.bit_length() - 1) + 2 * (bin(n).count("1") - 1)
    assert got == loop_trace_triple(FieldContext(60), r, a)


def test_trace_triple_known_values():
    ctx = build_context(3)
    assert trace_triple(ctx, 1, 0) == (0, 0, 0)
    # x is a root of the modulus x^3 + x + 1: coefficients (0, 1, 1)
    assert trace_triple(ctx, 1, 0b010) == (0, 1, 1)
    ctx4 = build_context(4)
    # x is a root of x^4 + x + 1: coefficients (0, 0, 1)
    assert trace_triple(ctx4, 1, 0b0010) == (0, 0, 1)


@pytest.mark.parametrize("m,r", [(4, 1), (4, 2), (6, 1), (6, 2), (6, 3),
                                 (8, 2), (9, 3), (12, 4), (10, 5), (12, 12)])
def test_trace_triple_vs_sums_exhaustive(m, r):
    ctx = build_context(m)
    for a in range(1 << m):
        assert trace_triple(ctx, r, a) == naive_trace_triple(ctx, r, a)


@pytest.mark.parametrize("m,r", [(18, 1), (20, 2), (21, 3), (24, 6)])
def test_trace_triple_vs_sums_random(m, r):
    ctx = build_context(m)
    rng = random.Random(m ^ r)
    for _ in range(60):
        a = rng.randrange(ctx.order)
        assert trace_triple(ctx, r, a) == naive_trace_triple(ctx, r, a)


def test_trace_triple_t1_is_relative_trace():
    # check_trace_addition_identities takes its lone T1 terms from
    # relative_trace: the ladder's T1 for every r | m <= 24, ints and lanes
    for m in range(1, 25):
        ctx = build_context(m)
        rng = random.Random(m)
        xs = [0, 1, ctx.order - 1] + [rng.randrange(ctx.order)
                                      for _ in range(60)]
        lanes = np.array(xs, dtype=np.uint64)
        for r in (r for r in range(1, m + 1) if m % r == 0):
            assert [trace_triple(ctx, r, x)[0] for x in xs] == [
                ctx.relative_trace(x, r) for x in xs], (m, r)
            assert (np.asarray(trace_triple(ctx, r, lanes)[0]).tolist()
                    == ctx.relative_trace(lanes, r).tolist()), (m, r)


def test_trace_triple_small_n_convention():
    ctx = build_context(4)
    for a in range(16):
        t1, t2, t3 = trace_triple(ctx, 4, a)  # n = 1
        assert (t1, t2, t3) == (a, 0, 0)
    ctx6 = build_context(6)
    for a in range(64):
        t3 = trace_triple(ctx6, 3, a)[2]  # n = 2
        assert t3 == 0


@pytest.mark.parametrize("r,n,which", [(1, 3, "two"), (1, 5, "three"),
                                       (2, 3, "three"), (3, 2, "three"),
                                       (2, 2, "two"), (1, 10, "three")])
def test_census_matches_per_element_counter(r, n, which):
    ctx = build_context(r * n)
    depth = {"one": 1, "two": 2, "three": 3}[which]
    expected = Counter(trace_triple(ctx, r, a)[:depth] for a in range(ctx.order))
    census = trace_census(r, n, which)
    assert census.counts == dict(expected)
    assert census.total == ctx.order


def test_census_known_rows():
    census = trace_census(1, 3, "two")
    assert census.counts == {(0, 0): 1, (0, 1): 3, (1, 0): 3, (1, 1): 1}
    assert trace_census(1, 6, "three").get((0, 0, 0)) == 10
    assert trace_census(2, 2, "three").get((0, 0, 0)) == 1


def test_census_single_trace():
    census = trace_census(1, 5, "one")
    assert census.counts == {(0,): 16, (1,): 16}
    # keys are big-field bit patterns of the subfield values
    sub = build_context(4).subfield_elements(2)
    assert trace_census(2, 2, "one").counts == {(a,): 4 for a in sub}


def test_census_budget():
    with pytest.raises(BudgetError):
        trace_census(1, 40)
    with pytest.raises(BudgetError):
        trace_class_count(2, 10, (0, 0, 0), cap=16)


@pytest.mark.parametrize("m", range(1, 33))
def test_lane_trace_triple_matches_trace_triple(m):
    ctx = build_context(m)
    rng = random.Random(m)
    xs = [0, 1, ctx.order - 1, 1 << (m - 1)] + [rng.randrange(ctx.order)
                                                 for _ in range(30)]
    lanes = np.array(xs, dtype=np.uint64)
    for r in (r for r in range(1, m + 1) if m % r == 0):
        got = trace_triple(ctx, r, lanes)
        want = [trace_triple(ctx, r, x) for x in xs]
        for i in range(3):
            assert np.broadcast_to(got[i], lanes.shape).tolist() == [
                t[i] for t in want], (r, i)


def test_trace_class_count_consistency():
    census = trace_census(2, 4, "three")
    for key, count in census.counts.items():
        assert trace_class_count(2, 4, key) == count


def reference_census(r, n, which):
    """The census by three separate sweeps, one per trace, each mapped to
    its index in the sorted subfield table by searchsorted and packed into a
    uint64 key, first trace highest; classes in increasing key order.  This
    is the bucketing trace_census replaced with one sweep of packed codes,
    kept as the reference it must reproduce, insertion order included."""
    ctx = build_context(r * n)
    sub = np.array(ctx.subfield_elements(r), dtype=np.uint32)
    depth = {"one": 1, "two": 2, "three": 3}[which]
    active = [i for i in range(depth) if i < n]
    key = np.zeros(ctx.order, dtype=np.uint64)
    for i in active:  # each sweep passes trace_triple a uint64 array
        _, chunks = sweep_chunks(ctx.m, lambda x: trace_triple(ctx, r, x)[i],
                                 i + 1)
        values = np.concatenate([v.copy() for v in chunks])
        codes = np.minimum(np.searchsorted(sub, values), len(sub) - 1)
        assert np.array_equal(sub[codes], values)
        key = key << np.uint64(r) | codes.astype(np.uint64)
    uniq, cnt = np.unique(key, return_counts=True)
    counts = {}
    for k, c in zip(uniq.tolist(), cnt.tolist()):
        parts = [0] * depth
        for pos, i in enumerate(active):
            shift = r * (len(active) - 1 - pos)
            parts[i] = int(sub[(k >> shift) & ((1 << r) - 1)])
        counts[tuple(parts)] = c
    return counts


@pytest.mark.parametrize("m", range(1, 17))
def test_census_matches_reference_census(m):
    for r in range(1, m + 1):
        if m % r == 0:
            for which in ("one", "two", "three"):
                expected = reference_census(r, m // r, which)
                got = trace_census(r, m // r, which).counts
                assert list(got.items()) == list(expected.items()), (r, which)


@pytest.mark.parametrize("block", [None, 1 << 3])
@pytest.mark.parametrize("m", range(1, 13))
def test_census_iteration_matches_counter(m, block, monkeypatch):
    # at BLOCK = 8 a block is one leading code wherever a code spans more
    # than 8 bins (r >= 2 at depth 3, r >= 4 at depth 2), and several codes
    # where it spans fewer
    if block is not None:
        monkeypatch.setattr(TraceCensus, "BLOCK", block)
    ctx = build_context(m)
    for r in (r for r in range(1, m + 1) if m % r == 0):
        triples = Counter(trace_triple(ctx, r, x) for x in range(ctx.order))
        for depth, which in ((1, "one"), (2, "two"), (3, "three")):
            expected = Counter()
            for key, count in triples.items():
                expected[key[:depth]] += count  # empty sums are already 0
            expected = sorted(expected.items())
            census = trace_census(r, m // r, which)
            assert list(census.items()) == expected, (r, which)
            assert list(census) == [key for key, _ in expected]
            assert list(census.values()) == [count for _, count in expected]
            assert len(census) == len(expected)
            assert list(census.rows()) == [
                key + (0,) * (3 - depth) + (count,) for key, count in expected]


def test_census_iterators_are_lazy(monkeypatch):
    census = trace_census(20, 1, "one")
    decoded = []
    element = FieldContext.subfield_element

    def counted(self, r, c):
        decoded.append(np.size(c))
        return element(self, r, c)
    monkeypatch.setattr(FieldContext, "subfield_element", counted)
    # one block of leading codes is decoded, not all 2^20 of them
    assert next(iter(census.items())) == ((0,), 1)
    assert decoded == [TraceCensus.BLOCK]


def test_census_values_follow_code_order():
    census = trace_census(2, 5, "three")
    code = build_context(10).subfield_code(2)
    packed = [code(t1) << 4 | code(t2) << 2 | code(t3)
              for t1, t2, t3 in census]
    assert packed == sorted(set(packed))
    assert list(census.values()) == [census[key] for key in census]


def one_sweep_census(r, n, which):
    """The census histogram by one sweep of the packed codes over all 2^rn
    elements, with no T1 block derived by scaling: the reference that
    `TraceCensus` must equal."""
    active = min({"one": 1, "two": 2, "three": 3}[which], n)
    _, key = traces._census_key(r, n, active, None)
    return sweep(r * n, key, active)


def decoded_keys(ctx, r, codes, depth, active):
    """The census key of each packed code, padded with 0 to depth traces."""
    sub = np.array(ctx.subfield_elements(r), dtype=np.uint64)
    mask = (1 << r) - 1
    parts = [sub[codes >> r * (active - 1 - i) & mask].tolist()
             for i in range(active)]
    parts += [[0] * codes.size] * (depth - active)
    return list(zip(*parts))


def decoded_items(ctx, r, hist, depth, active):
    """(key, count) of every nonzero bin of a census histogram, code order."""
    codes = np.flatnonzero(hist)
    return list(zip(decoded_keys(ctx, r, codes, depth, active),
                    hist[codes].tolist()))


@pytest.mark.parametrize("m", range(1, 19))
def test_census_matches_one_sweep_reference(m):
    ctx = build_context(m)
    for r in (r for r in range(1, m + 1) if m % r == 0):
        n = m // r
        for depth, which in ((1, "one"), (2, "two"), (3, "three")):
            expected = one_sweep_census(r, n, which)
            census = trace_census(r, n, which)
            # every bin, present or absent, through the public mapping
            keys = decoded_keys(ctx, r, np.arange(expected.size), depth,
                                min(depth, n))
            assert [census.get(key) for key in keys] == expected.tolist(), (
                r, which)
            assert len(census) == np.count_nonzero(expected), (r, which)
            assert census.total == expected.sum(), (r, which)
            items = decoded_items(ctx, r, expected, depth, min(depth, n))
            assert list(census.items()) == items, (r, which)
            assert list(census.rows()) == [
                key + (0,) * (3 - depth) + (count,) for key, count in items]


@pytest.mark.parametrize("m", range(1, 11))
def test_class_count_matches_one_sweep_reference(m):
    ctx = build_context(m)
    for r in (r for r in range(1, m + 1) if m % r == 0):
        n = m // r
        sub = ctx.subfield_elements(r)
        hist = one_sweep_census(r, n, "three")
        active = min(3, n)
        code = ctx.subfield_code(r)
        # every target of subfield traces, t1 outside F_2 included, with
        # the empty sums past n at 0
        for target in product(sub, repeat=active):
            packed = 0
            for t in target:
                packed = packed << r | code(t)
            padded = target + (0,) * (3 - active)
            assert trace_class_count(r, n, padded) == hist[packed], padded
        # shorter targets sum over the traces left out
        items = decoded_items(ctx, r, hist, 3, active)
        for length in (1, 2):
            want = Counter()
            for key, count in items:
                want[key[:length]] += count
            for target in product(sub, repeat=min(length, n)):
                target += (0,) * (length - len(target))
                assert trace_class_count(r, n, target) == want[target], target
        # a trace outside F_{2^r}, or nonzero past n, matches nothing
        if r < m:
            outside = min(set(range(ctx.order)) - set(sub))
            for target in ((outside,), (sub[-1], outside), (1, 0, outside)):
                assert trace_class_count(r, n, target) == 0, target
        if n < 3:
            assert trace_class_count(r, n, (sub[-1],) * n + (1,)) == 0


@pytest.mark.parametrize("r,n", [(2, 5), (3, 4), (4, 3), (5, 2), (8, 3)])
def test_traces_scale_by_subfield_powers(r, n):
    # T_k(c a) = c^k T_k(a) for c in F_q: the census derives its T1 blocks
    # c >= 2 from block 1 by this
    ctx = build_context(r * n)
    rng = random.Random(r * n)
    a = np.array([rng.randrange(ctx.order) for _ in range(200)],
                 dtype=np.uint64)
    traces_a = trace_triple(ctx, r, a)
    for c in ctx.subfield_elements(r)[1:]:
        scaled = trace_triple(ctx, r, ctx.mul(a, c))
        for k in range(3):
            want = ctx.mul(np.broadcast_to(traces_a[k], a.shape).copy(),
                           ctx.pow(c, k + 1))
            assert np.array_equal(scaled[k], want), (c, k)


@pytest.mark.parametrize("r,n", [(1, 3), (3, 2), (4, 5), (6, 3), (7, 3)])
def test_subfield_logs_match_a_loop_of_products(r, n):
    """exp lists the codes of the powers of the subfield element of least
    code of order q - 1, as one product per power finds them, twice over;
    log inverts it."""
    ctx, q = build_context(r * n), 1 << r
    exp, log = traces._subfield_logs(ctx, r)
    for c in range(1, q):
        g = ctx.subfield_element(r, c)
        powers, x = [1], g
        while x != 1:
            powers.append(x)
            x = ctx.mul(x, g)
        if len(powers) == q - 1:
            break
    codes = [ctx.subfield_code(r)(x) for x in powers]
    assert exp.tolist() == codes + codes
    assert [log[c] for c in codes] == list(range(q - 1))


@pytest.mark.parametrize("r,n", [(1, 1), (1, 7), (2, 4), (3, 3), (5, 2),
                                 (6, 1)])
def test_t1_lift_covers_t1_in_f2(r, n):
    ctx = build_context(r * n)
    inputs = np.arange(2 << (r * n - r), dtype=np.uint64)
    lifted = traces._t1_lift(ctx, r)(inputs)
    assert np.unique(lifted).size == inputs.size
    t1 = ctx.relative_trace(lifted, r)
    assert t1.tolist() == (inputs >> np.uint64(r * n - r)).tolist()


@pytest.mark.parametrize("block", [None, 1 << 3])
@pytest.mark.parametrize("r,n,which", [(1, 6, "three"), (2, 3, "two"),
                                       (3, 4, "three"), (4, 2, "three"),
                                       (8, 1, "one")])
def test_census_text_blocks_are_rows_as_text(r, n, which, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(TraceCensus, "BLOCK", block)
    census = trace_census(r, n, which)
    blocks = [list(rows) for rows in census.text_blocks()]
    assert all(blocks)
    assert [row for rows in blocks for row in rows] == [
        tuple(map(str, row)) for row in census.rows()]


def test_trace_triple_refuses_r_below_1():
    ctx = build_context(6)
    for r in (-1, 0):
        with pytest.raises(ValueError, match="need r >= 1 dividing 6"):
            trace_triple(ctx, r, 5)
    with pytest.raises(ValueError, match="need r >= 1 dividing 6"):
        check_trace_addition_identities(ctx, -2, 3, 5)


def test_subfield_index_is_pivot_gather():
    # the sorted subfield table has the reduced-row-echelon basis
    # sub[1 << j], so an element's index gathers the basis' leading bits
    for m in range(1, 17):
        ctx = build_context(m)
        for r in range(1, m + 1):
            if m % r:
                continue
            sub = ctx.subfield_elements(r)
            code = ctx.subfield_code(r)
            assert [code(v) for v in sub] == list(range(len(sub)))
            if r < m:
                outside = min(set(range(ctx.order)) - set(sub))
                with pytest.raises(AssertionError, match="left the subfield"):
                    code(outside)


def test_trace_class_count_edge_cases():
    ctx = build_context(6)
    outside = min(set(range(ctx.order)) - set(ctx.subfield_elements(2)))
    assert trace_class_count(2, 3, (outside,)) == 0
    assert trace_class_count(2, 3, (0, outside, 0)) == 0
    # n = 2: the third trace is an empty sum, so only 0 matches it
    assert trace_class_count(3, 2, (0, 0, 1)) == 0
    assert (trace_class_count(3, 2, (0, 0, 0))
            == trace_class_count(3, 2, (0, 0)) == 1)
    assert trace_class_count(2, 1, (0, 1)) == 0
    # no trace prescribed: every element matches
    assert trace_class_count(2, 3, ()) == 64


def test_wide_class_count_builds_no_histogram_of_the_classes():
    # w = 24 bits of packed codes: a 2^24-bin histogram with bincount's
    # copy of it took 563 MB of address space (351 MB resident); comparing
    # each 2^16-input chunk with the target fits a child capped at 256 MiB
    cap = 256 << 20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = os.path.dirname(os.path.dirname(traces.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    code = ("from trace3.traces import trace_class_count; "
            "print(trace_class_count(8, 3, (0, 0, 0)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120,
                          preexec_fn=cap_address_space)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{count_all_zero_traces(8, 3)}\n"


def test_census_holds_only_what_it_swept():
    # (10, 3) has 2^30 codes, 8 GiB as one int64 count each, past the 2 GiB
    # cap; the 2^21 bins of T1 blocks 0 and 1 are all a census keeps, and
    # the blocks c >= 2 read through the F_q* action match class counts
    code = """
import tracemalloc
from trace3.field import build_context
from trace3.traces import trace_census, trace_class_count
census = trace_census(10, 3, cap=30)
print(census.total == 1 << 30)
ctx = build_context(30)
sub = ctx.subfield_elements(10)
keys = [(b, ctx.mul(b, b), ctx.pow(b, 3)) for b in sub[2:1024:300]]
keys += [(sub[2], sub[5], sub[7]), (sub[-1], 0, sub[3]), (sub[100], 1, 0)]
counts = [census.get(key) for key in keys]
print(counts == [trace_class_count(10, 3, key, cap=30) for key in keys])
print(min(counts[:4]) > 0)
tracemalloc.start()
trace_census(13, 2, "two")
print(tracemalloc.get_traced_memory()[1] <= 32 << 20)
"""
    proc = run_python_capped("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n" * 4


@pytest.mark.parametrize("bits", [1, 8, 9, 16, 17])
def test_sweep_dtype_is_narrowest(bits):
    # linear images to `bits` bits of x -> x^e keep the degree of x^e;
    # func is swept on uint64 arrays and listed here on ints
    for m in (4, 9, 12):
        ctx = build_context(m)
        shift = max(1, bits - m)
        for exponent, degree in ((2, 1), (3, 2), (7, 3)):
            def func(x):
                v = ctx.pow(x, exponent)
                return (v ^ (v << shift)) & ((1 << bits) - 1)
            direct = [func(x) for x in range(1 << m)]
            spread = 0
            for v in direct:
                spread |= v
            assert spread.bit_length() == bits
            _, chunks = sweep_chunks(m, func, degree)
            arr = np.concatenate([v.copy() for v in chunks])
            assert arr.dtype == np.min_scalar_type(spread)
            assert arr.tolist() == direct


def test_check_sweep_order():
    check_sweep(26, 26)
    check_sweep(32)
    with pytest.raises(BudgetError):
        check_sweep(27, 26)
    # both limits exceeded: the budget is reported first
    with pytest.raises(BudgetError):
        check_sweep(40, 33)
    with pytest.raises(ValueError, match="at most 2\\^32") as info:
        check_sweep(33, 40)
    assert not isinstance(info.value, BudgetError)
    with pytest.raises(ValueError, match="at most 2\\^32"):
        check_sweep(33)


@pytest.mark.parametrize("call", [
    lambda: trace_census(-1, -1), lambda: trace_census(0, 5),
    lambda: trace_census(2, 0, "one"), lambda: trace_class_count(-1, -1, (0,)),
    lambda: trace_class_count(1, 0, (0, 0, 0)),
    lambda: trace_census(1, 4, "four"),
], ids=["census-r-1-n-1", "census-r0", "census-n0", "class-r-1-n-1",
        "class-n0", "census-which"])
def test_census_rejects_bad_arguments_before_sweeping(call):
    with pytest.raises(ValueError, match="need [rn] >= 1|which must be"):
        call()


def test_trace_addition_identities():
    ctx = build_context(4)
    assert check_trace_addition_identities(ctx, 1, 0, 0)
    for a in range(16):
        for b in range(16):
            assert check_trace_addition_identities(ctx, 1, a, b)
    big = build_context(20)
    rng = random.Random(17)
    for _ in range(100):
        assert check_trace_addition_identities(
            big, 2, rng.randrange(big.order), rng.randrange(big.order))


@pytest.mark.parametrize("m", [2, 4, 6, 8, 12, 20, 24, 32])
def test_trace_addition_identities_on_lanes_match_ints(m):
    ctx = build_context(m)
    rng = random.Random(m)
    a = [0, 1, ctx.order - 1] + [rng.randrange(ctx.order) for _ in range(60)]
    b = [0, ctx.order - 1, 1] + [rng.randrange(ctx.order) for _ in range(60)]
    for r in (r for r in (1, 2, 3, 4) if m % r == 0):
        got = check_trace_addition_identities(
            ctx, r, np.array(a, dtype=np.uint64), np.array(b, dtype=np.uint64))
        assert got.dtype == np.bool_
        want = [check_trace_addition_identities(ctx, r, x, y)
                for x, y in zip(a, b)]
        assert all(type(ok) is bool for ok in want)
        assert got.tolist() == want == [True] * len(a), r


def all_monic(r, n):
    """Every monic degree-n polynomial over F_{2^r}, as coefficient tuples
    low to high, in the order of `product`."""
    return [tail + (1,) for tail in product(range(1 << r), repeat=n)]


def poly_product(ctx, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] ^= ctx.mul(x, y)
    return tuple(out)


def sieve_irreducibles(r, n_max):
    """All monic irreducibles over F_{2^r} up to degree n_max, by sieving
    out products of lower-degree monics.  Polynomials are coefficient
    tuples, low to high."""
    ctx = build_context(r)
    monics = {d: all_monic(r, d) for d in range(n_max + 1)}
    composite = set()
    for d1 in range(1, n_max):
        for d2 in range(d1, n_max + 1 - d1):
            for a in monics[d1]:
                for b in monics[d2]:
                    prod = poly_product(ctx, a, b)
                    if len(prod) - 1 <= n_max:
                        composite.add(prod)
    return {d: [p for p in monics[d] if p not in composite]
            for d in range(1, n_max + 1)}


@pytest.mark.parametrize("r,n_max", [(1, 6), (2, 3)])
def test_is_irreducible_vs_sieve(r, n_max):
    table = sieve_irreducibles(r, n_max)
    from itertools import product as iproduct
    q = 1 << r
    for d in range(1, n_max + 1):
        good = set(table[d])
        assert len(good) == gauss_count(q, d)
        for tail in iproduct(range(q), repeat=d):
            coeffs = tail + (1,)
            assert is_irreducible(PrefixPoly(r, coeffs)) == (coeffs in good)


def test_is_irreducible_examples():
    assert is_irreducible(PrefixPoly(1, (1, 1, 1)))          # x^2+x+1
    assert is_irreducible(PrefixPoly(1, (1, 1, 0, 0, 1)))    # x^4+x+1
    assert not is_irreducible(PrefixPoly(1, (1, 1, 0, 0, 0, 1)))  # x^5+x+1
    with pytest.raises(ValueError):
        PrefixPoly(1, (1, 1, 0))  # not monic


def test_count_irreducibles_with_prefix_examples():
    assert count_irreducibles_with_prefix(1, 4, 0, 0, 0) == 0
    assert count_irreducibles_with_prefix(1, 5, 0, 0, 0) == 0
    assert count_irreducibles_with_prefix(1, 7, 0, 0, 0) == 3
    with pytest.raises(BudgetError):
        count_irreducibles_with_prefix(1, 60, 0, 0, 0)


@pytest.mark.parametrize("r,n", [(1, 5), (1, 8), (1, 10), (2, 4)])
def test_prefix_counts_sum_to_gauss(r, n):
    q = 1 << r
    total = sum(count_irreducibles_with_prefix(r, n, t1, t2, t3)
                for t1 in range(q) for t2 in range(q) for t3 in range(q))
    assert total == gauss_count(q, n)


@pytest.mark.parametrize("r,n_max", [(1, 12), (2, 6), (3, 4)])
def test_irreducible_mask_vs_sieve(r, n_max):
    table = sieve_irreducibles(r, n_max)
    for n in range(2, n_max + 1):
        polys = all_monic(r, n)
        mask = irreducible_mask(r, np.array([p[:-1] for p in polys]))
        good = set(table[n])
        assert mask.tolist() == [p in good for p in polys]
        assert mask.tolist() == [is_irreducible(PrefixPoly(r, p))
                                 for p in polys]


def test_irreducible_mask_gf2_beyond_one_word():
    # n > 32 over GF(2) runs on coefficient arrays: check against gf2x
    rng = random.Random(71)
    for n in (33, 40):
        polys = [(1 << n) | rng.getrandbits(n) for _ in range(300)]
        polys += [(1 << n) | 0b1001, (1 << n) | 1]
        low = np.array([[(p >> i) & 1 for i in range(n)] for p in polys])
        mask = irreducible_mask(1, low)
        expected = [gf2x.is_irreducible(p) for p in polys]
        assert mask.tolist() == expected and any(expected)


@pytest.mark.parametrize("r", [*range(17, 27), 33, 34, 41, 48, 57, 63, 64])
def test_irreducible_mask_vs_reference_beyond_log_tables(r):
    # a seeded sample of what a prefix count enumerates there, quartics on
    # uint64 lanes and (above 32 bits) cubics on object lanes, against the
    # scalar reference
    n = 4 if r <= 32 else 3
    rng = random.Random(83 + r)
    low = [[rng.randrange(1 << r) for _ in range(n)] for _ in range(30)]
    expected = [is_irreducible(PrefixPoly(r, tuple(p) + (1,))) for p in low]
    mask = irreducible_mask(r, np.array(low, dtype=np.uint64))
    assert mask.tolist() == expected
    assert any(expected) and not all(expected)


def scalar_prefix_counts(r, n):
    """(t1, t2, t3) -> count, by `is_irreducible` on each candidate."""
    counts = Counter()
    for p in all_monic(r, n):
        if is_irreducible(PrefixPoly(r, p)):
            counts[p[-2], p[-3], p[-4]] += 1
    return counts


@pytest.mark.parametrize("r,n_max", [(1, 12), (2, 6), (3, 5)])
def test_batched_prefix_counts_match_scalar(r, n_max):
    q = 1 << r
    for n in range(3, n_max + 1):
        expected = scalar_prefix_counts(r, n)
        for t in product(range(q), repeat=3):
            assert count_irreducibles_with_prefix(r, n, *t) == expected[t]


def test_prefix_count_across_block_boundaries(monkeypatch):
    expected = {(r, n, t): count_irreducibles_with_prefix(r, n, *t)
                for r, n in ((1, 12), (2, 6), (3, 5))
                for t in ((0, 0, 0), (1, 0, 1))}
    # 512, 64 and 64 candidates: full blocks and a short last one
    monkeypatch.setattr(traces, "PREFIX_BLOCK", 100)
    for r, n, t in expected:
        assert count_irreducibles_with_prefix(r, n, *t) == expected[r, n, t]
    monkeypatch.setattr(traces, "PREFIX_BLOCK", 7)
    for r, n, t in expected:
        assert count_irreducibles_with_prefix(r, n, *t) == expected[r, n, t]


def test_divstep_coprimality_matches_gcd():
    rng = random.Random(61)
    for n in (2, 3, 7, 16, 31, 32):
        fs, gs = [], []
        for _ in range(200):
            fs.append((1 << n) | rng.getrandbits(n))
            gs.append(rng.getrandbits(n))
        # g = 0, as t - x is for t = x: gcd(f, 0) = f
        fs.append((1 << n) | rng.getrandbits(n))
        gs.append(0)
        if n >= 3:
            # a shared factor x^2 + x + 1, and a cofactor of g that is a
            # unit, so that g has full degree n - 1
            b = (1 << (n - 2)) | rng.getrandbits(n - 2)
            fs.append(clmul(0b111, b))
            gs.append(clmul(0b111, (1 << (n - 3)) | 1))
        got = traces._coprime_packed(n, np.array(fs, dtype=np.uint64),
                                     np.array(gs, dtype=np.uint64))
        assert got.tolist() == [gf2x.gcd(f, g) == 1 for f, g in zip(fs, gs)]


@pytest.mark.parametrize("r", [2, 3, 17, 40])
def test_divstep_coprimality_over_extension_field(r):
    ctx = build_context(r)
    q = 1 << r
    rng = random.Random(67 + r)
    for n in (2, 3, 5, 8):
        pairs = [(tuple(rng.randrange(q) for _ in range(n)) + (1,),
                  tuple(rng.randrange(q) for _ in range(n)))
                 for _ in range(150)]
        pairs.append((pairs[0][0], (0,) * n))
        # f = (x + c) h and g = (x + c) u share the root c
        c = rng.randrange(q)
        h = (rng.randrange(q),) * (n - 1) + (1,)
        u = (rng.randrange(1, q),) * max(n - 1, 1)
        pairs.append((poly_product(ctx, (c, 1), h),
                      poly_product(ctx, (c, 1), u)[:n]))
        dtype = ctx.lane_dtype  # one or two bytes, uint64 or object lanes
        f = np.array([fp[::-1] for fp, _ in pairs], dtype=dtype)
        g = np.zeros((len(pairs), n + 1), dtype=dtype)
        g[:, :n] = [gp[::-1] for _, gp in pairs]
        got = traces._coprime_lanes(r, f, g)
        expected = [poly_gcd_is_one(ctx, gp, fp) for fp, gp in pairs]
        assert got.tolist() == expected
        assert not all(expected) and any(expected)


def test_prefix_count_n20_matches_closed_form():
    assert count_irreducibles_with_prefix(1, 20, 0, 0, 0) == \
        irreducible_all_zero(1, 20)


def test_prefix_count_r_above_log_tables():
    # uint64 lanes up to r = 32, object lanes above: x^3 + x + 1,
    # irreducible over F_2, has a root in F_{2^r} iff F_8 lies inside, i.e.
    # iff 3 | r, whatever the route; x^3 + 1 = (x + 1)(x^2 + x + 1)
    for r in (17, 18, 33, 48, 63, 64):
        assert count_irreducibles_with_prefix(r, 3, 0, 1, 1) == (r % 3 != 0)
        assert count_irreducibles_with_prefix(r, 3, 0, 0, 1) == 0


def test_joint_zero_identity():
    ctx = build_context(4)
    zeros = [0] * ctx.order
    assert joint_zero_identity_check(ctx, 1, zeros, zeros)
    rng = random.Random(23)
    for r, m in ((1, 4), (2, 4), (2, 6), (3, 6)):
        ctx = build_context(m)
        sub = ctx.subfield_elements(r)
        for _ in range(30):
            f1 = [rng.choice(sub) for _ in range(ctx.order)]
            f2 = [rng.choice(sub) for _ in range(ctx.order)]
            assert joint_zero_identity_check(ctx, r, f1, f2)


@pytest.mark.parametrize("r,n", [(1, 8), (2, 4), (3, 3)])
def test_census_marginal(r, n):
    census = trace_census(r, n, "three")
    q = 1 << r
    zero_t1 = sum(c for (t1, _, _), c in census.counts.items() if t1 == 0)
    assert zero_t1 == q ** (n - 1)
