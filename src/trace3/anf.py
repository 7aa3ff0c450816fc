"""Exhaustive evaluation of low-degree maps on F_2^m via their algebraic
normal form.

A map f whose coordinates have GF(2)-degree at most d in the input bits is
determined by its values on the inputs of Hamming weight <= d: the ANF
coefficient attached to a bit set S is the xor of f over the subsets of S,
and f(x) is the xor of the coefficients attached to subsets of x, which the
subset-sum (zeta) butterfly computes for every x.  It is blocked as
Z_high (x) Z_low over the top m - c and low c input bits, as in Bouillaguet
et al., "Fast exhaustive search for polynomial systems in F_2" (CHES 2010):
the high levels run once on a table of 2^(m-c) rows of coefficients, and
each row, scattered into one 2^c buffer, gives 2^c values.  Every map a
sweep takes is called on arrays: once on the uint64 array of every input
of weight <= d, once on the 16 spot-checked inputs.  The maps are built
from the field's lane kernels (`FieldContext.mul`, `frobenius`, the traces,
`subfield_code`), so each costs a few numpy passes per operation, not one
Python call per input.

Trace maps relative to any subfield have degree 1/2/3 for the first, second
and third trace, and the Artin-Schreier fiber predicates have degree 2, so
everything swept in this package fits.  Linear images keep the degree, so the
census sweeps the packed subfield indices of all three traces as one map,
and the combined-curve oracle the subfield index of a relative trace.  Every
exhaustive count checks its size with `check_sweep` and only counts values,
so `sweep` returns their histogram and holds one chunk, gathered up to 2^w
values when the histogram is wider than a chunk.
"""

import itertools
import random

import numpy as np

from .field import MAX_SWEEP_BITS, BudgetError


def low_weight_masks(m: int, d: int):
    """All bit masks of weight <= d on m bits, weight-major order."""
    for w in range(d + 1):
        for bits in itertools.combinations(range(m), w):
            yield sum(1 << i for i in bits)


def check_sweep(m: int, cap: int = None):
    """Refuse a sweep or table of 2^m elements: BudgetError beyond the
    enumeration cap (none for None), then ValueError beyond 2^MAX_SWEEP_BITS.
    Callers that build tables of the field check before doing so."""
    if cap is not None and m > cap:
        raise BudgetError(f"2^{m} elements exceed enumeration cap 2^{cap}")
    if m > MAX_SWEEP_BITS:
        raise ValueError(f"sweeps cover at most 2^{MAX_SWEEP_BITS} inputs; "
                         f"m = {m} > {MAX_SWEEP_BITS}")


def _evaluate(func, xs: np.ndarray) -> np.ndarray:
    """func on the uint64 array xs, as a uint64 array of its shape (a map
    constant in x may give one int)."""
    values = np.empty_like(xs)
    values[...] = func(xs)
    return values


CHUNK_BITS = 16  # a chunk covers at least 2^CHUNK_BITS inputs ...
ROW_BITS = 12  # ... and a sweep at most 2^ROW_BITS chunks


def sweep_chunks(m: int, func, degree: int):
    """(w, chunks): the values of func on the m-bit inputs in order, 2^c at a
    time, c = min(m, max(CHUNK_BITS, m - ROW_BITS)), in one buffer of the
    narrowest unsigned dtype holding every ANF coefficient, w the bit length
    of the widest value.  func maps a uint64 array of inputs to the uint64
    array of their values, of GF(2)-degree <= degree; it is called once on
    every input of weight <= degree, and once on 16 random inputs, which
    are checked as their chunks are produced."""
    check_sweep(m)
    masks = np.array(sorted(low_weight_masks(m, degree)), dtype=np.uint64)
    coeffs = _evaluate(func, masks)
    for i in range(m):  # Moebius transform: values to ANF coefficients
        upper = np.flatnonzero(masks >> i & 1)
        coeffs[upper] ^= coeffs[np.searchsorted(masks, masks[upper] ^ 1 << i)]
    top = int(coeffs.max())
    c = min(m, max(CHUNK_BITS, m - ROW_BITS))
    low = masks[masks < 1 << c]  # the masks of weight <= degree on c bits
    table = np.zeros((1 << (m - c), low.size), dtype=np.min_scalar_type(top))
    table[masks >> c, np.searchsorted(low, masks & (1 << c) - 1)] = coeffs
    for i in range(m - c):  # the high levels, on the whole table at once
        view = table.reshape(-1, 2, 1 << i, low.size)
        view[:, 1] ^= view[:, 0]
    rng = random.Random(0xC0DE ^ m)
    spots = np.array([rng.randrange(1 << m) for _ in range(16)],
                     dtype=np.uint64)
    checks = list(zip(spots.tolist(), _evaluate(func, spots).tolist()))

    def chunks():
        buf = np.empty(max(1 << c, 8), dtype=table.dtype)  # whole words
        words = buf.view(np.uint64)
        for row in range(table.shape[0]):
            buf.fill(0)
            buf[low] = table[row]
            # low levels by shifts in (little-endian) words, then xors of words,
            # by column while blocks are narrow: a numpy row each costs more
            for bits in (8, 16, 32)[buf.itemsize.bit_length() - 1:]:
                mask = sum(((1 << bits) - 1) << g for g in range(0, 64, 2 * bits))
                words ^= (words & np.uint64(mask)) << np.uint64(bits)
            for i in range(words.size.bit_length() - 1):
                view = words.reshape(-1, 2, 1 << i)
                for j in range(1 << i) if i < 3 else [slice(None)]:
                    view[:, 1, j] ^= view[:, 0, j]
            for x, value in checks:
                if x >> c == row and int(buf[x & (1 << c) - 1]) != value:
                    raise AssertionError(
                        f"map exceeds GF(2)-degree {degree} at input {x:#x}")
            yield buf[:1 << c]

    return top.bit_length(), chunks()


def sweep(m: int, func, degree: int) -> np.ndarray:
    """Histogram of func on the m-bit inputs, 2^w int64s (see `sweep_chunks`).
    Each count covers 2^w values, or all 2^m if fewer, so that none costs
    more than the values it counts: narrower chunks are gathered first."""
    width, chunks = sweep_chunks(m, func, degree)
    hist = np.zeros(1 << width, dtype=np.int64)
    for values in _gather(chunks, 1 << min(width, m)):
        if width <= 3:  # a pass per value costs less than bincount's intp copy
            ones = [np.count_nonzero(values == v) for v in range(1, hist.size)]
            hist += [values.size - sum(ones)] + ones
        else:
            hist += np.bincount(values, minlength=hist.size)
    return hist


def _gather(chunks, size: int):
    """The chunks, each of at least `size` values, or else concatenated
    `size` values at a time into one buffer (a multiple of their size)."""
    block, filled = None, 0
    for values in chunks:
        if values.size >= size:
            yield values
            continue
        if block is None:
            block = np.empty(size, dtype=values.dtype)
        block[filled:filled + values.size] = values
        filled = (filled + values.size) % size
        if not filled:
            yield block


def subfield_codes(values: np.ndarray, subfield_sorted: np.ndarray) -> np.ndarray:
    """Compress an array of subfield elements to indices into the sorted
    subfield table, verifying membership (unused; perfbench traces it)."""
    codes = np.searchsorted(subfield_sorted, values)
    codes[codes >= len(subfield_sorted)] = 0
    if not np.array_equal(subfield_sorted[codes], values):
        raise AssertionError("swept values left the subfield")
    return codes
