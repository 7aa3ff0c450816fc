import dataclasses

import numpy as np
import pytest

from trace3.curves import alpha_class, closed_count_twist, twist_classes
from trace3.field import build_context
from trace3.quadforms import (QuadForm, bilinear_matrix, count_zeros_oracle,
                              cubic_root_census, cubic_root_census_expected,
                              cubic_root_count, expected_radical_dimension,
                              radical_report, twist_form)


def test_bilinear_matrix_properties():
    qf = twist_form(2, 2, 2, alpha=1)
    rows = bilinear_matrix(qf)
    m = qf.m
    for i in range(m):
        assert not (rows[i] >> i) & 1  # zero diagonal
        for j in range(m):
            assert ((rows[i] >> j) & 1) == ((rows[j] >> i) & 1)
    # matrix reproduces the polarization of Q on random vectors
    import random
    rng = random.Random(4)
    for _ in range(50):
        x, y = rng.randrange(1 << m), rng.randrange(1 << m)
        b = qf.value(x ^ y) ^ qf.value(x) ^ qf.value(y)
        acc = 0
        for i in range(m):
            if (x >> i) & 1:
                acc ^= rows[i]
        assert bin(acc & y).count("1") & 1 == b


def polarization_matrix(qf):
    """Reference rows of B from m^2/2 evaluations of Q at e_i + e_j."""
    m = qf.m
    q_basis = [qf.value(1 << i) for i in range(m)]
    rows = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            b = qf.value((1 << i) ^ (1 << j)) ^ q_basis[i] ^ q_basis[j]
            if b:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


@pytest.mark.parametrize("family", [1, 2, 3])
def test_adjoint_rows_match_polarization(family):
    """Rows from the adjoint map equal the polarization of Q for every
    r <= 4, every twist class and every rn <= 32, and at rn = 48, 64."""
    for r in range(1, 5):
        ns = [n for n in range(1, 65) if r * n <= 32 or r * n in (48, 64)]
        for klass, alpha, _ in twist_classes(family, r):
            for n in ns:
                qf = twist_form(family, r, n, alpha)
                assert bilinear_matrix(qf) == polarization_matrix(qf), \
                    (family, r, n, klass)


@pytest.mark.parametrize("family,other", [(1, 2), (2, 3), (3, 1)])
def test_adjoint_of_another_family_trips_the_spot_check(family, other):
    qf = twist_form(family, 2, 6)
    wrong = dataclasses.replace(qf, adjoint=twist_form(other, 2, 6).adjoint)
    with pytest.raises(AssertionError, match="polarization of Q"):
        bilinear_matrix(wrong)
    with pytest.raises(AssertionError, match="polarization of Q"):
        radical_report(wrong)


def test_bilinear_matrix_zero_form():
    ctx = build_context(4)
    qf = QuadForm(1, 1, 1, 4, ctx, lambda x: 0, lambda x: 0)
    assert bilinear_matrix(qf) == [0, 0, 0, 0]
    rep = radical_report(qf)
    assert rep.w == rep.w0 == 4 and rep.rank == 0
    assert rep.zero_count == 16 and rep.sign == 1


def test_bilinear_matrix_cap_override():
    qf = twist_form(1, 5, 10, alpha=1)  # m = 50
    rep = radical_report(qf)  # any m up to field.MAX_DEGREE
    assert rep.w == expected_radical_dimension(1, 5, 10, "all")


def test_radical_dimensions_spot_values():
    assert radical_report(twist_form(1, 1, 2)).w == 2
    assert radical_report(twist_form(1, 1, 3)).w == 1
    assert radical_report(twist_form(2, 1, 4, alpha=1)).w == 4
    assert radical_report(twist_form(2, 2, 3, alpha=2)).w == 4   # noncube
    assert radical_report(twist_form(3, 1, 2, alpha=1)).w == 2   # no roots


@pytest.mark.parametrize("r", [1, 2, 3])
def test_radical_dimensions_match_case_analysis(r):
    for family in (1, 2, 3):
        for klass, alpha, _ in twist_classes(family, r):
            for n in range(1, 9):
                rep = radical_report(twist_form(family, r, n, alpha))
                assert rep.w == expected_radical_dimension(family, r, n, klass), \
                    (family, r, n, klass)
                assert (rep.m - rep.w) % 2 == 0
                assert rep.w0 in (rep.w - 1, rep.w)
                assert rep.rank == rep.m - rep.w0
                assert (rep.sign == 0) == (rep.rank % 2 == 1)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_zero_count_vs_enumeration(r):
    for family in (1, 2, 3):
        for klass, alpha, _ in twist_classes(family, r):
            for n in range(1, 13 // r + 1):
                qf = twist_form(family, r, n, alpha)
                rep = radical_report(qf)
                assert rep.zero_count == count_zeros_oracle(qf), \
                    (family, r, n, klass)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_twist_count_reconstruction(r):
    for family in (1, 2, 3):
        for klass, alpha, _ in twist_classes(family, r):
            for n in range(1, 9):
                rep = radical_report(twist_form(family, r, n, alpha))
                assert rep.twist_count == closed_count_twist(
                    family, r, n, klass=klass)


def test_cubic_root_count_values():
    assert cubic_root_count(1, 1) == 0          # x^3+x+1 has no roots in F_2
    assert cubic_root_count(2, 1) == 0          # ... nor in F_4
    assert cubic_root_count(2, 2) == 1
    assert cubic_root_count(2, 3) == 1
    with pytest.raises(ValueError):
        cubic_root_count(2, 0)


def test_cubic_root_count_matches_direct_evaluation():
    for r in (2, 3, 4):
        ctx = build_context(r)
        for beta in range(1, 1 << r):
            roots = sum(1 for x in range(1 << r)
                        if ctx.mul(ctx.sqr(x), x) ^ x ^ beta == 0)
            assert cubic_root_count(r, beta) == roots


@pytest.mark.parametrize("r", range(1, 9))
def test_cubic_map_on_lanes_matches_ints(r):
    # x -> x^3 + x, as `_cubic_fiber_counts` sweeps it, on every element
    ctx = build_context(r)
    cubic = lambda x: ctx.mul(ctx.sqr(x), x) ^ x
    xs = list(range(ctx.order))
    assert cubic(np.arange(ctx.order, dtype=np.uint64)).tolist() == list(
        map(cubic, xs))


def test_cubic_census_values():
    assert cubic_root_census(1) == (0, 0, 1)
    assert cubic_root_census(2) == (0, 2, 1)
    assert cubic_root_census(4) == (2, 8, 5)


@pytest.mark.parametrize("r", range(1, 12))
def test_cubic_census_matches_closed_form(r):
    m3, m1, m0 = cubic_root_census(r)
    assert (m3, m1, m0) == cubic_root_census_expected(r)
    assert 3 * m3 + m1 == (1 << r) - 2
    assert m3 + m1 + m0 == (1 << r) - 1


def test_alpha_class_uses_inverse_for_cubic():
    # class of alpha is decided by the roots of x^3 + x + 1/alpha
    ctx = build_context(3)
    for alpha in range(1, 8):
        expected = cubic_root_count(3, ctx.inv(alpha))
        assert alpha_class(3, 3, alpha) == f"{expected}-roots"
