import random
from fractions import Fraction
from math import gcd, lcm

import pytest

import spectral_reference as ref
from trace3 import closedforms as cf
from trace3.curves import _SPECTRAL
from trace3.cyclotomic import (Cyc, cyclotomic_polynomial, imaginary_unit,
                               rotation_sum, sqrt2, sqrt2_power)
from trace3.fourier import (DEFAULT_PERIOD_CANDIDATES, PeriodicFormula,
                            analyze_sequence, deviation, dft_extract,
                            extract_sequence, is_periodic, reconstruct,
                            root_group_formula)
from trace3.traces import trace_census


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(24) == (1, 0, 0, 0, -1, 0, 0, 0, 1)
    assert len(cyclotomic_polynomial(120)) - 1 == 32


def test_zeta_relations():
    for p in (8, 12, 24):
        z = Cyc.zeta_pow(p, 1)
        acc = Cyc.rational(p, 1)
        for _ in range(p):
            acc = acc * z
        assert acc == Cyc.rational(p, 1)
        assert Cyc.zeta_pow(p, p // 2) == Cyc.rational(p, -1)


def test_sqrt2_and_i():
    for p in (8, 24):
        s = sqrt2(p)
        assert s * s == Cyc.rational(p, 2)
        i = imaginary_unit(p)
        assert i * i == Cyc.rational(p, -1)
    assert sqrt2_power(8, -3) * sqrt2_power(8, 3) == Cyc.rational(8, 1)
    assert sqrt2_power(24, 5) == sqrt2_power(24, 4) * sqrt2(24)


def test_conjugation_and_rationality():
    z = Cyc.zeta_pow(24, 7)
    assert z * z.conj() == Cyc.rational(24, 1)
    assert (z + z.conj()).conj() == z + z.conj()
    assert Cyc.rational(24, Fraction(3, 7)).is_rational()
    assert not z.is_rational()
    with pytest.raises(ValueError):
        z.as_rational()


def test_periodic_formula_works_at_one_order():
    # L = lcm(P, 8), derived from the period; an element of another order
    # is not embedded, and fails as mixed-order arithmetic does
    assert [PeriodicFormula(p, [0] * p).order for p in (1, 8, 12, 24)] \
        == [8, 8, 24, 24]
    z8 = Cyc.zeta_pow(8, 1)
    formula = PeriodicFormula(12, [z8] + [0] * 11)
    with pytest.raises(ValueError, match="mixed cyclotomic orders"):
        formula.normalized_value(1)
    with pytest.raises(ValueError, match="mixed cyclotomic orders"):
        dft_extract([sqrt2(8)] + [0] * 11, 12)
    assert formula != PeriodicFormula(12, [Cyc.zeta_pow(24, 3)] + [0] * 11)


# ---------------------------------------------------------------------------
# Cyc against a reference on Fraction coordinates

CROSS_ORDERS = (1, 2, 3, 4, 6, 8, 12, 24, 48, 120)


def _ref_reduce(p, poly):
    """Fraction coordinates of sum_k poly[k] z^k modulo Phi_p."""
    phi = cyclotomic_polynomial(p)
    d = len(phi) - 1
    poly = [Fraction(c) for c in poly] + [Fraction(0)] * d
    for k in range(len(poly) - 1, d - 1, -1):
        c = poly[k]
        for j in range(d + 1):
            poly[k - d + j] -= c * phi[j]
    return tuple(poly[:d])


def _ref_mul(p, a, b):
    prod = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _ref_reduce(p, prod)


def _ref_monomial(p, k):
    return _ref_reduce(p, [0] * (k % p) + [1])


def _ref_substitute(p, coords, k):
    """Fraction coordinates of sum_j coords[j] z^(jk) modulo Phi_p: the
    conjugate for k = -1."""
    poly = [Fraction(0)] * p
    for j, c in enumerate(coords):
        poly[(j * k) % p] += c
    return _ref_reduce(p, poly)


def _ref_sqrt2_power(p, e):
    half, odd = divmod(e, 2)
    out = _ref_reduce(p, [Fraction(2) ** half])
    if odd:
        s = [a + b for a, b in zip(_ref_monomial(p, p // 8),
                                   _ref_monomial(p, -p // 8))]
        out = _ref_mul(p, out, s)
    return out


def _random_coords(rng, d):
    return [Fraction(rng.randrange(-30, 31), rng.randrange(1, 13))
            if rng.random() < 0.7 else Fraction(0) for _ in range(d)]


def _check(got, want):
    assert got.den > 0 and gcd(got.den, *got.num) == 1  # lowest terms
    assert got.coords == tuple(want)


@pytest.mark.parametrize("p", CROSS_ORDERS)
def test_cyc_matches_fraction_reference(p):
    rng = random.Random(p)
    d = len(cyclotomic_polynomial(p)) - 1
    for _ in range(12):
        a, b = _random_coords(rng, d), _random_coords(rng, d)
        c = Fraction(rng.randrange(-20, 21), rng.randrange(1, 9))
        x, y = Cyc(p, a), Cyc(p, b)
        _check(x, a)
        _check(x + y, [u + v for u, v in zip(a, b)])
        _check(x - y, [u - v for u, v in zip(a, b)])
        _check(-x, [-u for u in a])
        _check(x.scale(c), [u * c for u in a])
        _check(x * c, [u * c for u in a])
        _check(3 * x, [u * 3 for u in a])
        _check(x * y, _ref_mul(p, a, b))
        conj = _ref_substitute(p, a, -1)
        _check(x.conj(), conj)
        _check(x.norm_squared(), _ref_mul(p, a, conj))
        assert x + y - y == x and hash(x + y - y) == hash(x)
        for k in (-2 * p - 1, -3, -1, 0, 1, p + 2):
            _check(Cyc.zeta_pow(p, k), _ref_monomial(p, k))
        value = Fraction(rng.randrange(-50, 51), rng.randrange(1, 50))
        rat = Cyc.rational(p, value)
        _check(rat, [value] + [0] * (d - 1))
        assert rat.is_rational() and rat.as_rational() == value and rat == value
        _check(rat * x, [u * value for u in a])
    if p % 8 == 0:
        for e in range(-7, 8):
            _check(sqrt2_power(p, e), _ref_sqrt2_power(p, e))


def test_cyc_equal_values_have_equal_hashes():
    half = Cyc.rational(24, Fraction(2, 4))
    same = Cyc(24, [Fraction(1, 2)] + [0] * 7)
    assert half == same and hash(half) == hash(same)
    assert half.den == 2 and half.num == (1,) + (0,) * 7
    # cancellation back to an integer reaches the same canonical tuple
    third = Cyc.rational(24, Fraction(1, 3))
    total = third + third + third
    assert total == Cyc.rational(24, 1) and hash(total) == hash(Cyc.rational(24, 1))
    assert total.den == 1
    zero = Cyc.zeta_pow(24, 5).scale(Fraction(7, 9)) - Cyc.zeta_pow(24, 5).scale(
        Fraction(14, 18))
    assert zero.is_zero() and zero == Cyc.rational(24, 0) and zero.den == 1
    assert hash(zero) == hash(Cyc(24, [0] * 8))
    assert len({half, same, Cyc(24, [Fraction(3, 6)] + [0] * 7)}) == 1


def test_cyc_rejects_bad_input():
    with pytest.raises(ValueError):
        Cyc(0, [])
    with pytest.raises(ValueError):
        Cyc(121, [0] * 32)
    with pytest.raises(ValueError):
        Cyc(24, [1, 2])
    with pytest.raises(ValueError):
        Cyc.zeta_pow(8, 1) + Cyc.zeta_pow(24, 3)


@pytest.mark.parametrize("period", [8, 12, 24])
def test_round_trip_random_vectors(period):
    rng = random.Random(period)
    for _ in range(30):
        vec = [Fraction(rng.randrange(-40, 41), rng.randrange(1, 7))
               for _ in range(period)]
        formula = dft_extract(vec, period)
        for n in range(2 * period):
            assert reconstruct(formula, n) == vec[n % period]
        # real input: conjugation symmetry of the spectrum
        for k in range(period):
            assert formula.coeffs[(period - k) % period] == formula.coeffs[k].conj()


@pytest.mark.parametrize("period", [1, 8, 12, 24])
def test_normalized_value_is_the_sum_over_k(period):
    order = lcm(period, 8)
    irrational = [sqrt2(order), Cyc.zeta_pow(order, 1).scale(Fraction(-2, 5))
                  + Cyc.rational(order, Fraction(1, 3))]
    pool = [0, 0, 5, Fraction(-3, 4)] + irrational
    rng = random.Random(period)
    formulas = [[0] * period, [Fraction(7, 2)] * period,
                irrational[:1] * period]
    formulas += [[rng.choice(pool) for _ in range(period)] for _ in range(4)]
    step = order // period
    for coeffs in formulas:
        formula = PeriodicFormula(period, coeffs)
        for n in range(-period, 3 * period):
            want = Cyc.rational(order, 0)
            for k, g in enumerate(formula.coeffs):
                want = want + g * Cyc.zeta_pow(order, step * k * n)
            assert formula.normalized_value(n) == want, (coeffs, n)


def test_extract_sequence_files_each_term_by_residue():
    values = [3, -1, Fraction(5, 2), 0, 7, 11, -4, 2, 9]
    want = [None] * 8
    for n, f in zip(range(5, 13), values):
        want[n % 8] = Cyc.rational(8, f) * sqrt2_power(8, -2 * n)
    assert extract_sequence(values, 5, 8, q=4) == dft_extract(want, 8, q=4)


def test_zero_vector():
    formula = dft_extract([0] * 8, 8)
    assert formula.nonzero_indices() == []
    assert reconstruct(formula, 11) == 0


def test_reconstruct_spot_values():
    f = cf.two_trace_formula(0, 0)
    assert reconstruct(f, 8) == Fraction(-1, 2)
    f3 = cf.three_trace_formula(0, 0, 0)
    assert reconstruct(f3, 12) == Fraction(3, 4)
    assert deviation(f3, 12) == 48


def test_reconstruct_rejects_irrational():
    f = cf.two_trace_formula(0, 0)
    with pytest.raises(ValueError):
        reconstruct(f, 3)  # odd n: the normalized value carries sqrt 2
    assert deviation(f, 3) == -1


def test_extraction_recovers_two_trace_formulas():
    for t1 in (0, 1):
        for t2 in (0, 1):
            vec = [Cyc.rational(8, cf.two_trace_deviation(8 + j, t1, t2))
                   * sqrt2_power(8, -(8 + j)) for j in range(8)]
            got = dft_extract(vec, 8)
            assert got == cf.two_trace_formula(t1, t2)
    got = dft_extract(
        [Cyc.rational(8, cf.two_trace_deviation(8 + j, 0, 0))
         * sqrt2_power(8, -(8 + j)) for j in range(8)], 8)
    assert got.nonzero_indices() == [3, 5]
    assert got.coeffs[3].as_rational() == Fraction(-1, 4)
    assert got.coeffs[5].as_rational() == Fraction(-1, 4)


def test_extraction_recovers_three_trace_formulas():
    for t1 in (0, 1):
        for t2 in (0, 1):
            for t3 in (0, 1):
                vec = [Cyc.rational(24, cf.three_trace_deviation(24 + j, t1, t2, t3))
                       * sqrt2_power(24, -(24 + j)) for j in range(24)]
                assert dft_extract(vec, 24) == cf.three_trace_formula(t1, t2, t3)


def test_parseval():
    rng = random.Random(99)
    for period in (8, 24):
        vec = [Fraction(rng.randrange(-9, 10)) for _ in range(period)]
        formula = dft_extract(vec, period)
        total = Cyc.rational(formula.order, 0)
        for g in formula.coeffs:
            total = total + g.norm_squared()
        assert total.scale(period) == Cyc.rational(
            formula.order, sum(v * v for v in vec))


def test_is_periodic_exact():
    values = [1, 0, -2, 0, 4, 0, -8, 0]  # v_n = f/2^(n/2) has period 4, n0 = 0
    assert is_periodic(values, 2, 4)
    assert not is_periodic(values, 2, 2)  # signs alternate
    assert is_periodic([1, 1, 2, 2, 4, 4, 8, 8], 2, 2)
    assert not is_periodic([1, 1, 2, 3, 4, 4, 8, 8], 2, 2)


def test_analyze_census_data_period_8():
    values = []
    for n in range(2, 18):
        census = trace_census(1, n, "two")
        values.append(census.get((0, 0)) - (1 << (n - 2)))
    formula = analyze_sequence(values, 2, 2)
    assert formula.period == 8
    assert formula == cf.two_trace_formula(0, 0)


def test_analyze_zero_sequence():
    formula = analyze_sequence([0] * 6, 3, 2)
    assert formula.period == 1
    assert reconstruct(formula, 5) == 0


def test_analyze_rejects_non_periodic():
    with pytest.raises(ValueError):
        analyze_sequence(list(range(1, 40)), 1, 2)


def test_analyze_pipeline_data_period_24():
    from trace3.curves import closed_count_combined
    q = 4
    values = []
    for n in range(3, 60):
        base = q ** n + 1
        d1 = closed_count_combined(1, 2, n) - base
        d2 = closed_count_combined(2, 2, n) - base
        d3 = closed_count_combined(3, 2, n) - base
        f_val = Fraction(d1 + d2 + (q - 1) * d3, q ** 3)
        assert f_val.denominator == 1
        values.append(int(f_val))
    formula = analyze_sequence(values, 3, 4)
    assert formula.period == 24
    for n in range(3, 60):
        assert (deviation(formula, n)
                == cf.count_all_zero_traces(2, n) - Fraction(4) ** (n - 3))


# ---------------------------------------------------------------------------
# the integer-row evaluator against the product reference (spectral_reference)

def _outcome(fn, *args):
    """fn(*args), or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _random_values(rng, period, irrational):
    """Rational values, or a mix with sqrt 2 multiples and zeta powers."""
    order = lcm(period, 8)
    out = []
    for _ in range(period):
        c = Fraction(rng.randrange(-30, 31), rng.randrange(1, 9))
        kind = rng.randrange(3) if irrational else 0
        if kind == 0:
            out.append(c)
        elif kind == 1:
            out.append(sqrt2(order).scale(c))
        else:
            out.append(Cyc.zeta_pow(order, rng.randrange(order)).scale(c))
    return out


@pytest.mark.parametrize("period", DEFAULT_PERIOD_CANDIDATES)
def test_evaluator_matches_product_reference(period):
    rng = random.Random(1000 + period)
    kinds = (False, True) if period > 24 else (False, False, True, True)
    for irrational in kinds:
        vec = _random_values(rng, period, irrational)
        q = 1 << rng.randrange(1, 4)
        formula = dft_extract(vec, period, q=q)
        assert list(formula.coeffs) == ref.dft_extract(vec, period)
        for n in range(-2 * period, 3 * period):
            norm = formula.normalized_value(n)
            assert norm == ref.normalized_value(formula, n), (vec, n)
            if not irrational:
                assert norm == vec[n % period]
            assert (_outcome(deviation, formula, n)
                    == _outcome(ref.deviation, formula, n)), (vec, q, n)


@pytest.mark.parametrize("r", range(1, 21))
def test_group_formula_deviations_match_product_reference(r):
    row_sets = [_SPECTRAL[family, r % 2] for family in (1, 2, 3)]
    for rows in row_sets + [cf._F000[r % 2]]:
        formula = root_group_formula(rows, r)
        for n in range(-48, 201):
            assert deviation(formula, n) == ref.deviation(formula, n), (r, n)


def test_base_field_deviations_match_product_reference():
    formulas = [cf.two_trace_formula(t1, t2) for t1 in (0, 1) for t2 in (0, 1)]
    formulas += [cf.three_trace_formula(t1, t2, t3)
                 for t1 in (0, 1) for t2 in (0, 1) for t3 in (0, 1)]
    for formula in formulas:
        for n in range(-48, 201):
            assert deviation(formula, n) == ref.deviation(formula, n), n


def test_rotation_sum_is_the_sum_of_products():
    rng = random.Random(3)
    for p in (8, 24, 48):
        d = len(cyclotomic_polynomial(p)) - 1
        terms = [(Cyc(p, _random_coords(rng, d)), rng.randrange(-p, 2 * p))
                 for _ in range(5)] + [(Cyc.rational(p, 0), 1)]
        want = Cyc.rational(p, 0)
        for g, s in terms:
            want = want + g * Cyc.zeta_pow(p, s)
        _check(rotation_sum(p, terms), want.coords)
    assert rotation_sum(24, []) == Cyc.rational(24, 0)
    # a zero element of another order adds nothing, a nonzero one fails
    assert rotation_sum(24, [(Cyc.rational(8, 0), 3)]) == 0
    with pytest.raises(ValueError, match="mixed cyclotomic orders"):
        rotation_sum(24, [(Cyc.rational(8, 1), 3)])


# ---------------------------------------------------------------------------
# the per-residue memos keep the error contract and equality

def _fresh(formula):
    return PeriodicFormula(formula.period, formula.coeffs, formula.q)


def test_irrational_residues_raise_whatever_is_called_first():
    base = cf.two_trace_formula(0, 0)
    first = _fresh(base)
    with pytest.raises(ValueError, match="reconstruction at n=3"):
        reconstruct(first, 3)
    assert deviation(first, 3) == -1
    with pytest.raises(ValueError, match="reconstruction at n=3"):
        reconstruct(first, 3)
    second = _fresh(base)
    assert deviation(second, 3) == -1
    with pytest.raises(ValueError, match="reconstruction at n=11"):
        reconstruct(second, 11)
    assert deviation(second, 11) == deviation(base, 11)


def test_irrational_deviation_raises_only_where_it_is_hit():
    # g_1 = 1, q = 4: f(n) = 2^n zeta_8^n is rational iff 4 | n
    formula = PeriodicFormula(8, [0, 1] + [0] * 6, q=4)
    assert deviation(formula, 4) == -16
    for n in (1, 9, -7, 2):
        with pytest.raises(ValueError, match=f"deviation at n={n} is"):
            deviation(formula, n)
    assert deviation(formula, 8) == 256 and deviation(formula, -4) == Fraction(-1, 16)
    assert deviation(formula, 12) == -(1 << 12)


def test_mixed_orders_raise_on_every_call():
    formula = PeriodicFormula(12, [Cyc.zeta_pow(8, 1)] + [0] * 11)
    for _ in range(2):
        with pytest.raises(ValueError, match="mixed cyclotomic orders"):
            deviation(formula, 1)
        with pytest.raises(ValueError, match="mixed cyclotomic orders"):
            formula.normalized_value(1)


def test_filled_formula_equals_a_fresh_one():
    for t1 in (0, 1):
        for t2 in (0, 1):
            formula = cf.two_trace_formula(t1, t2)
            for n in range(-3, 20):
                deviation(formula, n)
            vec = [Cyc.rational(8, cf.two_trace_deviation(8 + j, t1, t2))
                   * sqrt2_power(8, -(8 + j)) for j in range(8)]
            fresh = dft_extract(vec, 8)
            assert fresh == formula and hash(fresh) == hash(formula)
            assert repr(fresh) == repr(formula)


def test_coefficients_are_frozen():
    formula = PeriodicFormula(8, [Fraction(1, 2)] + [0] * 7)
    assert isinstance(formula.coeffs, tuple)
    with pytest.raises(AttributeError):
        formula.coeffs = (0,) * 8
    assert formula.coeffs[0] == Cyc.rational(8, Fraction(1, 2))


def test_normalization_base_is_checked_at_construction():
    # the residue table reads r = log2 q, so a q that is no power of two is
    # refused before any value is normalized by it
    for build in (lambda: PeriodicFormula(8, [0] * 8, q=3),
                  lambda: dft_extract([1] * 8, 8, q=6),
                  lambda: extract_sequence([3 ** n for n in range(8)], 0, 8,
                                           q=3)):
        with pytest.raises(ValueError, match="must be a power of two"):
            build()
    assert deviation(PeriodicFormula(1, [1], q=1), 5) == 1
