import pytest

from trace3 import closedforms as cf
from trace3.fourier import deviation
from trace3.traces import (count_irreducibles_with_prefix, trace_census,
                           trace_class_count)


def test_moebius():
    values = [cf.moebius(n) for n in range(1, 13)]
    assert values == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_divisors_match_trial_division():
    for n in range(-3, 2001):
        assert cf.divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_gauss_count():
    assert cf.gauss_count(2, 1) == 2
    assert cf.gauss_count(2, 4) == 3
    assert cf.gauss_count(4, 3) == 20


def test_carlitz_count():
    assert cf.carlitz_count(2, 2, 1) == 1
    assert cf.carlitz_count(2, 2, 0) == 0
    assert cf.carlitz_count(2, 3, 0) == 1
    # complement identity across q
    for q in (2, 4, 8):
        for n in range(1, 8):
            assert (cf.carlitz_count(q, n, 0)
                    + (q - 1) * cf.carlitz_count(q, n, 1)) == cf.gauss_count(q, n)


def test_two_trace_rows_spot_values():
    assert cf.two_trace_deviation(8, 0, 0) == -8
    assert cf.two_trace_deviation(3, 0, 0) == -1
    assert cf.two_trace_deviation(2, 1, 0) == -1


@pytest.mark.parametrize("n", range(2, 17))
def test_two_trace_vs_census(n):
    census = trace_census(1, n, "two")
    for t1 in (0, 1):
        for t2 in (0, 1):
            assert census.get((t1, t2)) == cf.count_two_traces(n, t1, t2)


def test_three_trace_rows_spot_values():
    assert cf.three_trace_deviation(6, 0, 0, 0) == 2
    assert cf.three_trace_deviation(12, 0, 0, 0) == 48
    assert cf.three_trace_deviation(9, 0, 0, 0) == 0
    assert cf.three_trace_deviation(3, 1, 1, 1) == 0


@pytest.mark.parametrize("n", range(3, 27))  # one full period of both tables
def test_three_trace_vs_census(n):
    census = trace_census(1, n, "three")
    for t1 in (0, 1):
        for t2 in (0, 1):
            for t3 in (0, 1):
                assert census.get((t1, t2, t3)) == cf.count_three_traces(n, t1, t2, t3)


def test_all_zero_spot_values():
    assert cf.count_all_zero_traces(1, 6) == 10
    assert cf.count_all_zero_traces(2, 3) == 1
    assert cf.count_all_zero_traces(1, 1) == 1


def test_all_zero_small_n_convention():
    for r in range(1, 9):
        assert cf.count_all_zero_traces(r, 1) == 1
        assert cf.count_all_zero_traces(r, 2) == 1


@pytest.mark.parametrize("r,n", [(0, 5), (1, 0)])
def test_all_zero_spectral_rejects_r_or_n_below_1(r, n):
    with pytest.raises(ValueError):
        cf.count_all_zero_traces_spectral(r, n)


@pytest.mark.parametrize("r,n_max", [(1, 16), (2, 8), (3, 5), (4, 4)])
def test_all_zero_vs_census(r, n_max):
    for n in range(1, n_max + 1):
        assert cf.count_all_zero_traces(r, n) == trace_class_count(r, n, (0, 0, 0))


def test_spectral_form_matches_rows():
    for r in (1, 2, 3, 4):
        for n in range(1, 80):
            assert (cf.count_all_zero_traces_spectral(r, n)
                    == cf.count_all_zero_traces(r, n))


def test_formula_objects_match_rows_over_full_period():
    for t1 in (0, 1):
        for t2 in (0, 1):
            f = cf.two_trace_formula(t1, t2)
            for n in range(2, 2 + 16):
                assert deviation(f, n) == cf.two_trace_deviation(n, t1, t2)
    for t1 in (0, 1):
        for t2 in (0, 1):
            for t3 in (0, 1):
                f = cf.three_trace_formula(t1, t2, t3)
                for n in range(3, 101):
                    assert (deviation(f, n)
                            == cf.three_trace_deviation(n, t1, t2, t3))


def test_trace_one_formula_coefficients_conjugate_symmetric():
    for t2 in (0, 1):
        for t3 in (0, 1):
            f = cf.three_trace_formula(1, t2, t3)
            for k in range(24):
                assert f.coeffs[(24 - k) % 24] == f.coeffs[k].conj()


def test_irreducible_all_zero_examples():
    assert cf.irreducible_all_zero(1, 4) == 0
    assert cf.irreducible_all_zero(1, 5) == 0
    assert cf.irreducible_all_zero(1, 7) == 3
    with pytest.raises(ValueError):
        cf.irreducible_all_zero(1, 2)


@pytest.mark.parametrize("r,n_max", [(1, 12), (2, 6), (3, 5)])
def test_irreducible_all_zero_vs_enumeration(r, n_max):
    for n in range(3, n_max + 1):
        assert (cf.irreducible_all_zero(r, n)
                == count_irreducibles_with_prefix(r, n, 0, 0, 0))


def test_inversion_integrality_and_equivalence():
    for r in (1, 2, 3, 4):
        for n in range(3, 250):
            val = cf.irreducible_all_zero(r, n)
            assert val >= 0
            if r % 2 == 0:
                assert val == cf.irreducible_all_zero_via_carlitz(r, n)
    with pytest.raises(ValueError):
        cf.irreducible_all_zero_via_carlitz(1, 6)


def test_normalized_deviation_periodicity():
    # the deviation scaled by q^(n/2) repeats with period dividing 24
    for r in (1, 2):
        q = 1 << r
        for n in range(3, 100):
            a = cf.ALL_ZERO_TABLE.deviation(r, n)
            b = cf.ALL_ZERO_TABLE.deviation(r, n + 24)
            assert b == a * q ** 12


def test_symbolic_rows():
    def symbol(table, residue, column):
        return table.symbol(table.rows[residue][table.columns.index(column)])

    assert symbol(cf.TWO_TRACE_TABLE, 0, "t1=0,t2=0") == "-2^((n-2)/2)"
    assert symbol(cf.TWO_TRACE_TABLE, 2, "t1=0,t2=0") == "0"
    assert symbol(cf.THREE_TRACE_TABLE, 0, "t2=0,t3=0") == "-5*2^((n-4)/2)"
    assert symbol(cf.ALL_ZERO_TABLE, 3, "r odd") == "q^(n-3)"
    assert "q^(n-3)" in symbol(cf.ALL_ZERO_TABLE, 0, "r even")
