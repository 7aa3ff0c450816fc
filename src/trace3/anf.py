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
each row, scattered into one 2^c buffer, gives 2^c values.

Trace maps relative to any subfield have degree 1/2/3 for the first, second
and third trace, and the Artin-Schreier fiber predicates have degree 2, so
everything swept in this package fits.  Linear images keep the degree, so the
census sweeps the packed subfield indices of all three traces as one map,
and the combined-curve oracle the subfield index of a relative trace.  Every
exhaustive count checks its size with `check_sweep` and only counts values,
so `sweep` returns their histogram and never holds more than one chunk.
"""

import itertools
import random

import numpy as np

from .field import BudgetError


def low_weight_masks(m: int, d: int):
    """All bit masks of weight <= d on m bits, weight-major order."""
    for w in range(d + 1):
        for bits in itertools.combinations(range(m), w):
            yield sum(1 << i for i in bits)


MAX_SWEEP_BITS = 32


def check_sweep(m: int, cap: int = None):
    """Refuse a sweep or table of 2^m elements: BudgetError beyond the
    enumeration cap (none for None), then ValueError beyond 2^MAX_SWEEP_BITS.
    Callers that build tables of the field check before doing so."""
    if cap is not None and m > cap:
        raise BudgetError(f"2^{m} elements exceed enumeration cap 2^{cap}")
    if m > MAX_SWEEP_BITS:
        raise ValueError(f"sweeps cover at most 2^{MAX_SWEEP_BITS} inputs; "
                         f"m = {m} > {MAX_SWEEP_BITS}")


CHUNK_BITS = 16  # a chunk covers at least 2^CHUNK_BITS inputs ...
ROW_BITS = 12  # ... and a sweep at most 2^ROW_BITS chunks


def sweep_chunks(m: int, func, degree: int):
    """(w, chunks): the values of func on the m-bit inputs in order, 2^c at a
    time, c = min(m, max(CHUNK_BITS, w, m - ROW_BITS)), in one buffer of the
    narrowest unsigned dtype holding every ANF coefficient, w the bit length
    of the widest value.  func maps ints to unsigned ints below 2^64 with
    GF(2)-degree <= degree, checked at 16 random inputs as swept."""
    check_sweep(m)
    coeffs = {mask: func(mask) for mask in low_weight_masks(m, degree)}
    for i in range(m):  # Moebius transform: values to ANF coefficients
        for mask in coeffs:
            if mask >> i & 1:
                coeffs[mask] ^= coeffs[mask ^ 1 << i]
    top = max(coeffs.values())
    width = top.bit_length()
    c = min(m, max(CHUNK_BITS, width, m - ROW_BITS))
    low = np.array(sorted(low_weight_masks(c, degree)))
    masks = np.array(list(coeffs))
    table = np.zeros((1 << (m - c), low.size), dtype=np.min_scalar_type(top))
    table[masks >> c, np.searchsorted(low, masks & (1 << c) - 1)] = list(
        coeffs.values())
    for i in range(m - c):  # the high levels, on the whole table at once
        view = table.reshape(-1, 2, 1 << i, low.size)
        view[:, 1] ^= view[:, 0]
    rng = random.Random(0xC0DE ^ m)
    spots = [rng.randrange(1 << m) for _ in range(16)]

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
            for x in spots:
                if x >> c == row and int(buf[x & (1 << c) - 1]) != func(x):
                    raise AssertionError(
                        f"map exceeds GF(2)-degree {degree} at input {x:#x}")
            yield buf[:1 << c]

    return width, chunks()


def sweep(m: int, func, degree: int) -> np.ndarray:
    """Histogram of func on the m-bit inputs, 2^w int64s (see `sweep_chunks`)."""
    width, chunks = sweep_chunks(m, func, degree)
    hist = np.zeros(1 << width, dtype=np.int64)
    for values in chunks:
        if width <= 3:  # a pass per value costs less than bincount's intp copy
            ones = [np.count_nonzero(values == v) for v in range(1, hist.size)]
            hist += [values.size - sum(ones)] + ones
        else:
            hist += np.bincount(values, minlength=hist.size)
    return hist


def subfield_codes(values: np.ndarray, subfield_sorted: np.ndarray) -> np.ndarray:
    """Compress an array of subfield elements to indices into the sorted
    subfield table, verifying membership (unused; perfbench traces it)."""
    codes = np.searchsorted(subfield_sorted, values)
    codes[codes >= len(subfield_sorted)] = 0
    if not np.array_equal(subfield_sorted[codes], values):
        raise AssertionError("swept values left the subfield")
    return codes
