"""The chunked sweep engine against direct evaluation, the census mapping,
and every sweep-derived count against values recorded from the full-array
sweep that the engine replaced."""

import hashlib
import json
import os
import random

import numpy as np
import pytest

from trace3 import anf, curves, quadforms
from trace3.anf import CHUNK_BITS, sweep, sweep_chunks
from trace3.closedforms import count_all_zero_traces
from trace3.field import build_context
from trace3.traces import trace_census, trace_class_count

DATA = os.path.join(os.path.dirname(__file__), "data", "sweeps")


def monomial_map(m, degree, width, seed):
    """A map of GF(2)-degree <= degree with values of exactly `width` bits,
    given by its ANF coefficients; returns (func, direct values of every
    input, evaluated monomial by monomial without a butterfly)."""
    rng = random.Random(seed)
    coeffs = {}
    for _ in range(60):
        mask = sum(1 << b for b in rng.sample(range(m), rng.randint(0, degree)))
        coeffs[mask] = rng.randrange(1 << width)
    coeffs[0] = coeffs.get(0, 0) | 1 << (width - 1)
    x = np.arange(1 << m, dtype=np.int64)
    direct = np.zeros(1 << m, dtype=np.uint64)
    for mask, value in coeffs.items():
        direct[(x & mask) == mask] ^= np.uint64(value)

    def func(v):  # a uint64 array of inputs, as sweeps pass them
        out = np.zeros_like(v)
        for mask, value in coeffs.items():
            out[v & mask == mask] ^= value
        return out
    return func, direct


def chunk_values(m, func, degree):
    width, chunks = sweep_chunks(m, func, degree)
    copies = [values.copy() for values in chunks]
    return width, copies


@pytest.mark.parametrize("m", [CHUNK_BITS - 1, CHUNK_BITS, CHUNK_BITS + 1])
@pytest.mark.parametrize("degree,width", [(1, 1), (2, 5), (3, 12)])
def test_histogram_matches_direct_evaluation(m, degree, width):
    func, direct = monomial_map(m, degree, width, seed=m * 10 + degree)
    got_width, chunks = chunk_values(m, func, degree)
    assert got_width == width
    assert len(chunks) == 1 << max(0, m - CHUNK_BITS)
    assert np.array_equal(np.concatenate(chunks), direct)
    hist = sweep(m, func, degree)
    assert hist.dtype == np.int64
    assert np.array_equal(hist, np.bincount(direct.astype(np.int64),
                                            minlength=1 << width))


def test_histogram_of_field_map_across_chunks():
    # x -> x^3 + x, the cubic fibers' map: swept on lanes, listed on ints
    m = CHUNK_BITS + 1
    ctx = build_context(m)
    func = lambda x: ctx.mul(ctx.sqr(x), x) ^ x  # noqa: E731
    direct = [func(x) for x in range(1 << m)]
    assert sweep(m, func, 2).tolist() == np.bincount(direct).tolist()


def test_histogram_wider_than_chunk():
    # a width above CHUNK_BITS leaves the chunks at 2^CHUNK_BITS inputs:
    # `sweep` gathers them 2^width at a time before counting
    width = CHUNK_BITS + 2
    m = width + 1
    func, direct = monomial_map(m, 2, width, seed=7)
    got_width, chunks = chunk_values(m, func, 2)
    assert got_width == width
    assert [values.size for values in chunks] == [1 << CHUNK_BITS] * (
        1 << (m - CHUNK_BITS))
    assert np.array_equal(np.concatenate(chunks), direct)
    assert np.array_equal(sweep(m, func, 2),
                          np.bincount(direct.astype(np.int64),
                                      minlength=1 << width))


@pytest.mark.parametrize("m", [8, CHUNK_BITS + 1])
def test_spot_check_rejects_map_above_its_degree(m):
    # bit 2 of the popcount is the degree-4 symmetric polynomial; func
    # takes an int or a uint64 array of inputs
    func = lambda x: sum(x >> i & 1 for i in range(m)) >> 2 & 1  # noqa: E731
    with pytest.raises(AssertionError, match="exceeds GF\\(2\\)-degree 3"):
        sweep(m, func, 3)
    assert sweep(m, func, 4).tolist() == np.bincount(
        [func(x) for x in range(1 << m)]).tolist()


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("which", ["one", "two", "three"])
def test_census_results_are_python_ints(r, which):
    # a numpy integer compares with == to a numpy bool, which is not True
    n = 4
    census = trace_census(r, n, which)
    counts = census.counts
    assert type(census.total) is int
    assert (census.total == 1 << (r * n)) is True
    assert type(len(counts)) is int
    assert (len(counts) == len(list(counts))) is True
    values = list(counts.values())
    assert all(type(v) is int for v in values)
    assert (sum(values) == census.total) is True
    for key, count in counts.items():
        assert type(count) is int and type(census.get(key)) is int
        assert (census.get(key) == count) is True
    zero = census.get((0,) * len(next(iter(counts))))
    assert type(zero) is int
    if which == "three":
        assert (zero == count_all_zero_traces(r, n)) is True


def test_census_counts_is_read_only_mapping():
    census = trace_census(2, 2, "three")  # n = 2: T3 is an empty sum
    counts = census.counts
    keys = list(counts)
    assert keys == sorted(keys) == [row[:3] for row in census.rows()]
    outside = min(set(range(16)) - set(build_context(4).subfield_elements(2)))
    for missing in ((outside, 0, 0), (0, 0, 1), (0, 0), (0, 0, 0, 0), 5, "a"):
        with pytest.raises(KeyError):
            counts[missing]
        assert missing not in counts
        assert counts.get(missing) == 0
        assert counts.get(missing, None) is None
    assert keys[0] in counts
    assert dict(counts.items()) == {key: counts[key] for key in keys}
    with pytest.raises(TypeError):
        counts[keys[0]] = 1


def digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:20]


def sweep_values(lo, hi):
    """Every census (each `which`), class count, combined and twist oracle,
    quadratic-form zero count and cubic fiber table at lo <= rn <= hi,
    keyed as in the recorded file; long lists as digests of their repr."""
    vals = {}
    for m in range(lo, hi + 1):
        for r in (r for r in range(1, m + 1) if m % r == 0):
            n = m // r
            for which in ("one", "two", "three"):
                census = trace_census(r, n, which)
                items = list(census.counts.items())
                vals[f"census {r} {n} {which}"] = [
                    len(items), census.total, digest(items),
                    digest(list(census.rows()))]
            for target in ((0,), (0, 0), (0, 0, 0), (1, 1, 1), items[-1][0]):
                vals[f"class {r} {n} {target}"] = trace_class_count(r, n, target)
            for f in (1, 2, 3):
                vals[f"oracle {f} {r} {n}"] = curves.count_points_oracle(
                    curves.CurveSpec(f, r), n)
                reps = curves.twist_class_representatives(f, r)
                for _, alpha in sorted(reps.items()):
                    vals[f"twist {f} {r} {n} {alpha}"] = curves.count_points_oracle(
                        curves.CurveSpec(f, r, alpha), n)
                    vals[f"zeros {f} {r} {n} {alpha}"] = quadforms.count_zeros_oracle(
                        quadforms.twist_form(f, r, n, alpha))
        quadforms._cubic_fiber_counts.cache_clear()
        vals[f"cubic {m}"] = digest(list(quadforms._cubic_fiber_counts(m)))
    return vals


@pytest.mark.parametrize("chunk_bits,row_bits", [(CHUNK_BITS, anf.ROW_BITS),
                                                 (2, 6)])
def test_sweeps_match_recorded_values(monkeypatch, chunk_bits, row_bits):
    # recorded at every rn <= 14 from the sweep that held all 2^rn values;
    # (2, 6) splits each sweep into up to 2^6 chunks of as few as 4 inputs
    monkeypatch.setattr(anf, "CHUNK_BITS", chunk_bits)
    monkeypatch.setattr(anf, "ROW_BITS", row_bits)
    with open(os.path.join(DATA, "values_rn1-14.json")) as fh:
        recorded = json.load(fh)
    got = sweep_values(1, 14)
    assert sorted(got) == sorted(recorded)
    assert [k for k in recorded if got[k] != recorded[k]] == []
