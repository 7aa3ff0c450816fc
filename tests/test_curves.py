import random
from fractions import Fraction

import numpy as np
import pytest

from trace3 import anf, quadforms
from trace3.closedforms import count_all_zero_traces, count_two_traces
from trace3.curves import (COMBINED_ROUTES, TWIST_ROUTES, CurveSpec,
                           FrobeniusData, alpha_class, charpoly_count,
                           closed_count_combined, closed_count_twist,
                           count_points_oracle, curve_rhs, factor_power_sums,
                           frobenius_charpoly, genus, hasse_weil_ok,
                           kani_rosen_check, power_sum_sequence,
                           roots_symmetric_under_q, spectral_count,
                           supersingularity_certificate,
                           twist_class_representatives, twist_classes)
from trace3.field import BudgetError, build_context
from trace3.quadforms import count_zeros_oracle, twist_form

import charpoly_reference as ref


@pytest.mark.parametrize("r,n", [(1, 5), (2, 3), (3, 4), (4, 2)])
def test_curve_rhs_matches_written_polynomials(r, n):
    # the family_terms table against the exponents as the families are
    # written: x^(q+1) + x^2, x^(2q+1) + x^(q+2), and their sum
    ctx = build_context(r * n)
    q = 1 << r
    written = {1: lambda x: ctx.pow(x, q + 1) ^ ctx.pow(x, 2),
               2: lambda x: ctx.pow(x, 2 * q + 1) ^ ctx.pow(x, q + 2)}
    written[3] = lambda x: written[1](x) ^ written[2](x)
    for family in (1, 2, 3):
        rhs = curve_rhs(CurveSpec(family, r), ctx)
        assert [rhs(x) for x in range(ctx.order)] == [
            written[family](x) for x in range(ctx.order)], family


def test_spec_validation():
    with pytest.raises(ValueError):
        CurveSpec(4, 1)
    with pytest.raises(ValueError):
        CurveSpec(1, 2, alpha=0)


def test_oracle_base_field_counts():
    for family in (1, 2, 3):
        assert count_points_oracle(CurveSpec(family, 1), 1) == 5


def test_oracle_budget():
    with pytest.raises(BudgetError):
        count_points_oracle(CurveSpec(1, 1), 40)


def test_oracles_sweep_one_byte_per_element(monkeypatch):
    itemsizes = []
    real = anf.sweep_chunks

    def spy(*args, **kwargs):
        width, chunks = real(*args, **kwargs)

        def watched():  # at rn = 8 each sweep is one chunk
            for values in chunks:
                itemsizes.append(values.itemsize)
                yield values
        return width, watched()

    monkeypatch.setattr(anf, "sweep_chunks", spy)
    qf = twist_form(3, 3, 3, alpha=1)
    got = [count_points_oracle(CurveSpec(3, r), 8 // r) for r in (1, 2, 4)]
    got += [count_points_oracle(CurveSpec(2, 2, 2), 4),
            2 * count_zeros_oracle(qf) + 1]
    assert itemsizes == [1] * 5
    assert all(type(v) is int for v in got)
    monkeypatch.undo()
    assert got == ([closed_count_combined(3, r, 8 // r) for r in (1, 2, 4)]
                   + [closed_count_twist(2, 2, 4, alpha=2),
                      closed_count_twist(3, 3, 3, alpha=1)])


def brute_force_count(spec, n):
    """Projective count from the image of y -> y^q + y (resp. y^2 + y),
    listed element by element: an affine fiber over x holds q (resp. 2)
    points when the right-hand side lies in that image."""
    ctx = build_context(spec.r * n)
    rhs = curve_rhs(spec, ctx)
    if spec.alpha is None:
        fiber = 1 << spec.r
        image = {ctx.frobenius(y, spec.r) ^ y for y in range(ctx.order)}
        scale = 1
    else:
        fiber = 2
        image = {ctx.sqr(y) ^ y for y in range(ctx.order)}
        scale = ctx.embed_subfield(spec.r)(spec.alpha)
    return 1 + fiber * sum(ctx.mul(scale, rhs(x)) in image
                           for x in range(ctx.order))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_oracle_matches_brute_force(r):
    for family in (1, 2, 3):
        alphas = [None] + [rep for _, rep, _ in twist_classes(family, r)]
        for n in range(1, 10 // r + 1):
            for alpha in alphas:
                spec = CurveSpec(family, r, alpha)
                assert (count_points_oracle(spec, n)
                        == brute_force_count(spec, n)), (family, r, n, alpha)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_oracle_maps_on_lanes_match_ints(r):
    # the maps the oracle and the Arf route sweep, on a uint64 array and
    # element by element on ints, for the combined curve and every twist
    # class representative
    rng = random.Random(r)
    for family in (1, 2, 3):
        alphas = [None] + list(twist_class_representatives(family, r).values())
        for n in range(1, 12 // r + 1):
            ctx = build_context(r * n)
            xs = [0, 1, ctx.order - 1] + [rng.randrange(ctx.order)
                                          for _ in range(40)]
            lanes = np.array(xs, dtype=np.uint64)
            for alpha in alphas:
                rhs = curve_rhs(CurveSpec(family, r, alpha), ctx)
                assert rhs(lanes).tolist() == list(map(rhs, xs))
                if alpha is not None:
                    func = twist_form(family, r, n, alpha).func
                    assert func(lanes).tolist() == list(map(func, xs)), (
                        family, n, alpha)


def test_combined_table_spot_values():
    assert closed_count_combined(1, 2, 4) == 65
    assert closed_count_combined(2, 1, 2) == 9
    assert closed_count_combined(2, 2, 6) == 3329
    assert closed_count_combined(3, 1, 12) == 4353
    assert closed_count_combined(3, 1, 8) == 289


def test_twist_spot_values():
    assert closed_count_twist(1, 1, 3) == 5
    assert closed_count_twist(2, 2, 3, klass="noncube") == 33
    assert closed_count_twist(3, 1, 3, alpha=1) == 17


def test_alpha_classes():
    assert alpha_class(1, 2, 3) == "all"
    assert alpha_class(2, 1, 1) == "cube"       # odd r: everything is a cube
    assert alpha_class(2, 2, 2) == "noncube"
    assert alpha_class(3, 1, 1) == "0-roots"
    classes = dict((k, cnt) for k, _, cnt in twist_classes(3, 3))
    assert classes == {"0-roots": 3, "1-roots": 3, "3-roots": 1}


@pytest.mark.parametrize("family", [1, 2, 3])
@pytest.mark.parametrize("alpha", [-1, 0, 4])
def test_alpha_class_rejects_alpha_outside_the_field(family, alpha):
    with pytest.raises(ValueError):
        alpha_class(family, 2, alpha)


@pytest.mark.parametrize("family", [0, 4, 7])
def test_every_family_entry_rejects_a_family_outside_1_to_3(family):
    # twist_classes and alpha_class used to treat any such family as C3
    for call in (lambda: twist_classes(family, 3),
                 lambda: alpha_class(family, 2, 1),
                 lambda: closed_count_twist(family, 2, 3, 1),
                 lambda: closed_count_combined(family, 2, 3),
                 lambda: CurveSpec(family, 2, 1)):
        with pytest.raises(ValueError, match="family must be 1, 2 or 3"):
            call()


def test_spec_checks_r_before_alpha():
    with pytest.raises(ValueError, match="need r >= 1"):
        CurveSpec(2, 0, 1)
    with pytest.raises(ValueError, match="need r >= 1"):
        CurveSpec(1, 0)


@pytest.mark.parametrize("r", range(1, 11))
@pytest.mark.parametrize("family", [1, 2, 3])
def test_twist_classes_group_alpha_class(family, r):
    # classes and sizes from grouping every alpha; the representative is
    # the smallest alpha, or for C3 1/beta for the smallest beta = 1/alpha
    groups = {}
    for alpha in range(1, 1 << r):
        groups.setdefault(alpha_class(family, r, alpha), []).append(alpha)
    inv = build_context(r).inv
    expected = [(klass, min(alphas) if family < 3
                 else inv(min(inv(a) for a in alphas)), len(alphas))
                for klass, alphas in sorted(groups.items())]
    assert twist_classes(family, r) == expected


# C2 noncube and C3 representatives by r, as before `twist_classes` served
# both: they key the recorded sweep values and the benchmark's case labels
RECORDED_NONCUBE = {2: 2, 4: 2, 6: 2, 8: 2, 10: 2, 12: 2, 14: 7}
RECORDED_C3 = {
    1: {"0-roots": 1}, 2: {"0-roots": 1, "1-roots": 3},
    3: {"0-roots": 5, "1-roots": 6, "3-roots": 1},
    4: {"0-roots": 1, "1-roots": 9, "3-roots": 7},
    5: {"0-roots": 1, "1-roots": 18, "3-roots": 28},
    6: {"0-roots": 31, "1-roots": 33, "3-roots": 1},
    7: {"0-roots": 1, "1-roots": 126, "3-roots": 65},
    8: {"0-roots": 1, "1-roots": 141, "3-roots": 176},
    9: {"0-roots": 257, "1-roots": 510, "3-roots": 1},
    10: {"0-roots": 1, "1-roots": 1016, "3-roots": 516},
    11: {"0-roots": 1, "1-roots": 1026, "3-roots": 511},
    12: {"0-roots": 1481, "1-roots": 4088, "3-roots": 1},
    13: {"0-roots": 1, "1-roots": 4091, "3-roots": 4109},
    14: {"0-roots": 1, "1-roots": 16352, "3-roots": 2052},
}


@pytest.mark.parametrize("r", range(1, 15))
def test_twist_class_representatives_recorded(r):
    assert twist_class_representatives(1, r) == {"all": 1}
    noncube = ({"noncube": RECORDED_NONCUBE[r]} if r in RECORDED_NONCUBE
               else {})
    assert twist_class_representatives(2, r) == {"cube": 1, **noncube}
    assert twist_class_representatives(3, r) == RECORDED_C3[r]


def test_twist_classes_need_no_census_closed_form(monkeypatch):
    # the closed form is what check_cubic_census verifies, so the classes
    # must come from the field alone
    def closed_form(r):
        raise AssertionError("cubic census closed form consulted")

    monkeypatch.setattr(quadforms, "cubic_root_census_expected", closed_form)
    for r in range(1, 9):
        occurring = {alpha_class(3, r, a) for a in range(1, 1 << r)}
        assert set(twist_class_representatives(3, r)) == occurring
        classes = twist_classes(3, r)
        assert {k for k, _, _ in classes} == occurring
        assert sum(size for _, _, size in classes) == (1 << r) - 1


def test_route_tables():
    assert list(COMBINED_ROUTES) == ["oracle", "table", "charpoly", "fourier"]
    assert list(TWIST_ROUTES) == ["oracle", "table", "quadform"]
    for family in (1, 2, 3):
        for r in (1, 2, 3):
            for n in (1, 2, 5):
                spec = CurveSpec(family, r)
                assert {route(spec, n, 26) for route in COMBINED_ROUTES.values()
                        } == {closed_count_combined(family, r, n)}
                for alpha in range(1, 1 << r):
                    spec = CurveSpec(family, r, alpha)
                    assert {route(spec, n, 26) for route in TWIST_ROUTES.values()
                            } == {closed_count_twist(family, r, n, alpha)}
    with pytest.raises(BudgetError):
        COMBINED_ROUTES["oracle"](CurveSpec(1, 2), 9, 16)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_oracle_vs_closed_combined_and_twists(r):
    for family in (1, 2, 3):
        for n in range(1, 14 // r + 1):
            assert (count_points_oracle(CurveSpec(family, r), n)
                    == closed_count_combined(family, r, n))
            for alpha in range(1, 1 << r):
                assert (count_points_oracle(CurveSpec(family, r, alpha), n)
                        == closed_count_twist(family, r, n, alpha=alpha)), \
                    (family, r, n, alpha)


def test_first_family_twists_agree():
    for r in (2, 3):
        for n in (1, 2, 3):
            counts = {count_points_oracle(CurveSpec(1, r, a), n)
                      for a in range(1, 1 << r)}
            assert len(counts) == 1


def test_noroot_sign_flip_rows_against_oracle():
    # the no-root branch changes sign between parities at n = 3, 21 mod 24;
    # confirm the odd-r signs by exhaustive count at r = 1, including the
    # n = 21 row that the standard grid stops short of
    for n in (3, 9, 15, 21):
        oracle = count_points_oracle(CurveSpec(3, 1, 1), n, cap=22)
        assert oracle == closed_count_twist(3, 1, n, klass="0-roots")
    # even-r rows are reachable at r = 2 up to n = 10 (residues 3 and 9)
    for n in (3, 4, 8, 9):
        oracle = count_points_oracle(CurveSpec(3, 2, 1), n, cap=22)
        assert oracle == closed_count_twist(3, 2, n, klass="0-roots")


def test_kani_rosen_oracle_cases():
    res = kani_rosen_check(1, 2, 1, method="oracle")
    assert res["lhs"] == 10 == res["rhs_product"]
    assert res["matches_product"] and not res["matches_alternate"]
    res = kani_rosen_check(2, 2, 2, method="oracle")
    assert res["lhs"] == 2 * (16 + 1)
    # q = 2: a single twist equal to the curve itself
    res = kani_rosen_check(3, 1, 5, method="oracle")
    assert res["lhs"] == 0 == res["rhs_product"]


def test_kani_rosen_closed_sweep():
    for family in (1, 2, 3):
        for r in (1, 2, 3, 4):
            for n in range(1, 40):
                res = kani_rosen_check(family, r, n)
                assert res["matches_product"], (family, r, n)
                if r > 1:
                    assert not res["matches_alternate"]


def test_frobenius_charpoly_base_field():
    fd = frobenius_charpoly(1, 1)
    assert fd.factors == [((1, 2, 2), 1)]
    fd = frobenius_charpoly(2, 1)
    assert fd.factors == [((1, 2, 2), 1), ((1, 0, 2), 1)]
    fd = frobenius_charpoly(3, 1)
    assert fd.factors == [((1, 2, 2, 4, 4), 1)]
    assert fd.degree == 4 == 2 * fd.genus


@pytest.mark.parametrize("r", range(1, 13))
def test_frobenius_structure(r):
    q = 1 << r
    for family in (1, 2, 3):
        fd = frobenius_charpoly(family, r)
        assert fd.degree == 2 * fd.genus
        for coeffs, mult in fd.factors:
            assert mult > 0
            assert roots_symmetric_under_q(coeffs, q)
        assert supersingularity_certificate(fd)


def test_genus_values():
    for r in (1, 2, 3):
        q = 1 << r
        assert genus(CurveSpec(1, r)) == q * (q - 1) // 2
        assert genus(CurveSpec(2, r)) == q * (q - 1)
        assert genus(CurveSpec(3, r)) == q * (q - 1)
        assert genus(CurveSpec(1, r, 1)) == q // 2
        assert genus(CurveSpec(2, r, 1)) == q
        assert genus(CurveSpec(3, r, 1)) == q


def test_power_sum_by_powering_matches_newton():
    """Fiduccia's p_n equals the Newton recurrence for every factor of every
    family at r <= 12 and every n <= 500."""
    factors = {tuple(coeffs) for family in (1, 2, 3) for r in range(1, 13)
               for coeffs, _ in frobenius_charpoly(family, r).factors}
    assert len(factors) > 50
    for coeffs in sorted(factors):
        newton = factor_power_sums(coeffs, 500)
        assert [ref.factor_power_sum(coeffs, n) for n in range(501)] == newton


@pytest.mark.parametrize("r", range(1, 7))
def test_x_power_mod_matches_repeated_multiplication(r):
    for family in (1, 2, 3):
        for coeffs, _ in frobenius_charpoly(family, r).factors:
            d = len(coeffs) - 1
            power = [0] * (d - 1) + [1]  # X^0 mod P, d coefficients
            for e in range(101):
                assert ref.x_power_mod(e, coeffs) == power, (coeffs, e)
                power = power + [0]  # times X, then X^d = -(c_1 X^(d-1) + ...)
                lead = power.pop(0)
                power = [a - lead * c for a, c in zip(power, coeffs[1:])]


def test_power_sums():
    fd = frobenius_charpoly(1, 1)
    assert power_sum_sequence(fd, 1) == -2
    assert power_sum_sequence(fd, 0) == 2 * fd.genus
    fd3 = frobenius_charpoly(3, 1)
    assert power_sum_sequence(fd3, 1) == -2
    assert power_sum_sequence(fd3, 0) == 4
    assert charpoly_count(1, 1, 1) == 5
    assert charpoly_count(3, 1, 1) == 5
    # a hand-built factor may be a list
    listed = FrobeniusData(1, 1, [([1, 2, 2], 1)], 1)
    assert power_sum_sequence(listed, 1) == -2


def _reference_sums(fd, n_hi):
    """{coeffs: [p_0..p_n_hi]} of each factor of fd by binary powering."""
    return {coeffs: [ref.factor_power_sum(coeffs, n) for n in range(n_hi + 1)]
            for coeffs, _ in fd.factors}


@pytest.mark.parametrize("r", list(range(1, 21)) + [25])
def test_period_power_sums_match_binary_powering(r):
    """power_sum_sequence, read from the period X^24 = c, equals Fiduccia's
    binary powering on every factor of every family, alone and with its
    multiplicity in charpoly_count: n <= 500 for r <= 20, n <= 100 at 25."""
    n_hi = 500 if r <= 20 else 100
    for family in (1, 2, 3):
        fd = frobenius_charpoly(family, r)
        want = _reference_sums(fd, n_hi)
        for coeffs, _ in fd.factors:
            alone = FrobeniusData(family, r, [(coeffs, 1)], fd.genus)
            assert [power_sum_sequence(alone, n)
                    for n in range(n_hi + 1)] == want[coeffs], coeffs
        for n in range(n_hi + 1):
            s_n = sum(mult * want[coeffs][n] for coeffs, mult in fd.factors)
            assert power_sum_sequence(fd, n) == s_n, (family, n)
            if n:
                assert charpoly_count(family, r, n) == (
                    (1 << (r * n)) + 1 - s_n), (family, n)


def test_power_sum_sequence_rejects_negative_n():
    # the first Newton sums were indexed from the end: S_-2 read as S_22
    fd = frobenius_charpoly(3, 1)
    for n in (-1, -2, -24, -25):
        with pytest.raises(ValueError, match="need n >= 0"):
            power_sum_sequence(fd, n)
    assert power_sum_sequence(fd, 0) == 4


def test_power_sum_sequence_refuses_ordinary_factor():
    # roots 1 and 2 of X^2 - 3X + 2: X^24 = (2^24 - 1) X - (2^24 - 2)
    fd = FrobeniusData(1, 1, [((1, -3, 2), 1)], 1)
    for n in (0, 1, 30):
        with pytest.raises(AssertionError, match=r"\(1, -3, 2\)"):
            power_sum_sequence(fd, n)


def test_supersingularity_certificate_rejects_ordinary():
    assert supersingularity_certificate((2, [(1, 2, 2)]))
    assert supersingularity_certificate((2, [(1, 0, 2)]))
    assert not supersingularity_certificate((2, [(1, -3, 2)]))


def test_supersingularity_certificate_needs_24th_roots_of_unity():
    # X^8 + 16 at q = 2 has the roots sqrt(2) * zeta_16^odd: X^48 = 2^24
    # modulo it, but X^24 != 2^12
    assert not supersingularity_certificate((2, [(1, 0, 0, 0, 0, 0, 0, 0, 16)]))
    for family in (1, 2, 3):
        for r in range(1, 25):
            assert supersingularity_certificate(frobenius_charpoly(family, r))


@pytest.mark.parametrize("route,args", [
    (spectral_count, (1, 1, 0)), (spectral_count, (3, 0, 3)),
    (charpoly_count, (1, 1, 0)), (charpoly_count, (3, 0, 3)),
    (frobenius_charpoly, (3, 0)),
    (count_points_oracle, (CurveSpec(1, 1), 0)),
    (count_points_oracle, (CurveSpec(3, 2, 1), -1)),
    (twist_form, (2, 1, 0)), (twist_form, (2, -1, -1)),
], ids=["spectral-n0", "spectral-r0", "charpoly-n0", "charpoly-r0",
        "frobenius-r0", "oracle-n0", "twist-oracle-n-1", "twist-form-n0",
        "twist-form-r-1-n-1"])
def test_routes_reject_r_or_n_below_1(route, args):
    with pytest.raises(ValueError, match="need [rn] >= 1"):
        route(*args)


def test_spectral_spot_values():
    assert spectral_count(1, 1, 2) == 5
    assert spectral_count(2, 2, 6) == 3329
    assert spectral_count(3, 1, 8) == 289


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6, 7, 8])
def test_three_way_closed_agreement(r):
    n_hi = 60 if r <= 6 else 26
    for family in (1, 2, 3):
        fd = frobenius_charpoly(family, r)
        for n in range(1, n_hi):
            table = closed_count_combined(family, r, n)
            assert table == spectral_count(family, r, n)
            assert table == charpoly_count(family, r, n, fd)
            assert hasse_weil_ok(table, fd.genus, r, n)


def test_pipeline_identity():
    for r in (1, 2, 3):
        q = 1 << r
        for n in range(1, 80):
            base = q ** n + 1
            d1 = closed_count_combined(1, r, n) - base
            d2 = closed_count_combined(2, r, n) - base
            d3 = closed_count_combined(3, r, n) - base
            rhs = Fraction(q) ** (n - 3) + Fraction(d1 + d2 + (q - 1) * d3, q ** 3)
            assert rhs == count_all_zero_traces(r, n)


def test_two_trace_count_equals_elliptic_count():
    for n in range(2, 21):
        c = closed_count_twist(1, 1, n, alpha=1)
        assert count_two_traces(n, 0, 0) == (c - 1) // 4


def test_extremal_forces_minimal_at_double():
    for family in (1, 2, 3):
        for r in (1, 2):
            g = genus(CurveSpec(family, r, 1))
            for klass, _, _ in twist_classes(family, r):
                for n in range(1, 30):
                    c = closed_count_twist(family, r, n, klass=klass)
                    dev = c - ((1 << (r * n)) + 1)
                    if dev * dev == 4 * g * g * (1 << (r * n)):
                        doubled = closed_count_twist(family, r, 2 * n, klass=klass)
                        minimal = (1 << (2 * r * n)) + 1 - 2 * g * (1 << (r * n))
                        assert doubled == minimal
