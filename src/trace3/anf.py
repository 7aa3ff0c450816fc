"""Exhaustive evaluation of low-degree maps on F_2^m via their algebraic
normal form.

A map f whose coordinates have GF(2)-degree at most d in the input bits is
determined by its values on the inputs of Hamming weight <= d: the ANF
coefficient attached to a bit set S is the xor of f over the subsets of S,
and f(x) is the xor of the coefficients attached to subsets of x.  Scattering
the coefficients into a 2^m array and running the subset-sum (zeta) butterfly
then yields every value with m vectorized passes, which is what makes the
full-field censuses and curve sweeps cheap.

Trace maps relative to any subfield have degree 1/2/3 for the first, second
and third trace, and the Artin-Schreier fiber predicates have degree 2, so
everything swept in this package fits.  Linear images keep the degree, so the
census sweeps the packed subfield indices of all three traces as one map.
"""

import itertools
import random

import numpy as np


def low_weight_masks(m: int, d: int):
    """All bit masks of weight <= d on m bits, weight-major order."""
    for w in range(d + 1):
        for bits in itertools.combinations(range(m), w):
            mask = 0
            for i in bits:
                mask |= 1 << i
            yield bits, mask


MAX_SWEEP_BITS = 32


def check_sweep_bits(m: int):
    """Refuse a sweep of more than 2^MAX_SWEEP_BITS inputs; callers that
    build tables of the field first check before doing so."""
    if m > MAX_SWEEP_BITS:
        raise ValueError(f"sweeps cover at most 2^{MAX_SWEEP_BITS} inputs; "
                         f"m = {m} > {MAX_SWEEP_BITS}")


def sweep(m: int, func, degree: int, spot_check: int = 16,
          dtype=np.uint32) -> np.ndarray:
    """Array A with A[x] = func(x) for every m-bit x.

    func maps an int to an unsigned int that fits `dtype` and must have
    GF(2)-degree <= degree; spot_check random inputs are validated against
    the direct evaluation to guard the degree contract.
    """
    check_sweep_bits(m)
    vals = {mask: func(mask) for _, mask in low_weight_masks(m, degree)}
    arr = np.zeros(1 << m, dtype=dtype)
    for bits, mask in low_weight_masks(m, degree):
        c = 0
        for k in range(len(bits) + 1):
            for sub in itertools.combinations(bits, k):
                s = 0
                for i in sub:
                    s |= 1 << i
                c ^= vals[s]
        arr[mask] = c
    for i in range(m):
        # xor half-blocks as words of up to 8 bytes: a numpy row per narrow
        # block would cost more than the xor itself
        block = arr.itemsize << i
        unit = min(block, 8)
        half = block // unit
        view = arr.view(f"u{unit}").reshape(-1, 2 * half)
        view[:, half:] ^= view[:, :half]
    if spot_check:
        rng = random.Random(0xC0DE ^ m)
        for _ in range(spot_check):
            x = rng.randrange(1 << m)
            if int(arr[x]) != func(x):
                raise AssertionError(
                    f"map exceeds GF(2)-degree {degree} at input {x:#x}")
    return arr


def subfield_codes(values: np.ndarray, subfield_sorted: np.ndarray) -> np.ndarray:
    """Compress an array of subfield elements to indices into the sorted
    subfield table, verifying membership (unused; perfbench traces it)."""
    codes = np.searchsorted(subfield_sorted, values)
    codes[codes >= len(subfield_sorted)] = 0
    if not np.array_equal(subfield_sorted[codes], values):
        raise AssertionError("swept values left the subfield")
    return codes
