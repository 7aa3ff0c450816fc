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
census sweeps the packed subfield indices of all three traces as one map,
and the combined-curve oracle the subfield index of a relative trace.  Every
exhaustive count checks its size with `check_sweep` and sweeps in the
narrowest unsigned type that holds every ANF coefficient (so every value).
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
    """Refuse a sweep of 2^m inputs: BudgetError beyond the enumeration cap
    (none for None), then ValueError beyond 2^MAX_SWEEP_BITS inputs.
    Callers that build tables of the field check before doing so."""
    if cap is not None and m > cap:
        raise BudgetError(f"rn = {m} exceeds enumeration cap {cap}")
    if m > MAX_SWEEP_BITS:
        raise ValueError(f"sweeps cover at most 2^{MAX_SWEEP_BITS} inputs; "
                         f"m = {m} > {MAX_SWEEP_BITS}")


def sweep(m: int, func, degree: int, spot_check: int = 16) -> np.ndarray:
    """Array A with A[x] = func(x) for every m-bit x, of the narrowest
    unsigned dtype that holds every ANF coefficient.

    func maps an int to an unsigned int below 2^64 and must have
    GF(2)-degree <= degree; spot_check random inputs are validated against
    the direct evaluation to guard the degree contract.
    """
    check_sweep(m)
    coeffs = {mask: func(mask) for mask in low_weight_masks(m, degree)}
    for i in range(m):  # Moebius transform: values to ANF coefficients
        for mask in coeffs:
            if mask >> i & 1:
                coeffs[mask] ^= coeffs[mask ^ 1 << i]
    arr = np.zeros(1 << m, dtype=np.min_scalar_type(max(coeffs.values())))
    arr[list(coeffs)] = list(coeffs.values())
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
