"""Verification suites: every closed form in the package confronted with an
independent route (exhaustive censuses, per-element counts, enumeration of
polynomials, Newton recurrences, spectral sums).

Each check produces one record
    {id, params, expected, got, pass, failures}
summarizing its cases; `failures` lists the first few mismatches.  One
rule, `budget_rule`, maps the bit budget to every check's ranges and trial
counts: cases beyond the budget are scaled down or skipped, not failed,
but a record left with no case at all fails, since it checked nothing.
"""

import random
import time
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement, product

import numpy as np

from . import closedforms as cf
from . import curves, fourier, quadforms, traces
from .cyclotomic import Cyc
from .field import build_context

FULL_BITS = 20  # from this budget up, every check runs its full grid
PERIOD = 24     # the closed routes repeat with this period in n


def budget_rule(max_bits: int) -> dict:
    """Every check's ranges and trial counts at `max_bits`, by check name.
    Capped checks go up to bits = min(cap, max_bits) in n, r or rn (a sweep
    covers at most 2^bits inputs).  The five costly checks that sweep
    nothing (closed forms over n, random trials) run their full grid from
    FULL_BITS up and the share max_bits / FULL_BITS of it below, never under
    one trial or one period of n.  Fixed-cost checks (None): one cheap grid."""
    bits = partial(min, max_bits)

    def share(full, least=1):
        return max(least, full * min(max_bits, FULL_BITS) // FULL_BITS)

    return {
        # capped: the largest n, r or rn
        "two_trace_table": bits(25), "three_trace_table": bits(22),
        "all_zero_table": bits(24), "irreducible_inversion": bits(20),
        "census_marginals": bits(20), "prefix_totals": bits(12),
        "curve_four_way": bits(22), "twist_counts": bits(20),
        "kani_rosen": bits(18), "twist_isomorphism": bits(12),
        "elliptic_link": bits(20), "arf_zero_counts": bits(18),
        "cubic_census": bits(14), "sequence_analysis": (bits(17), bits(16)),
        # rescaled: how many n values, exhaustive degrees or random trials
        "inversion_integrality": share(998, PERIOD),
        "curve_closed_three_way": share(200, PERIOD),
        "trace_identities": (share(4), share(2500)),
        "joint_zero_identity": share(100), "dft_round_trip": share(100),
        # fixed cost
        **dict.fromkeys(("table_spectral_agreement", "frobenius_structure",
                         "pipeline_identity", "extremal_doubling", "radical_dimensions",
                         "twist_reconstruction", "formula_recovery")),
    }


class _Collector:
    def __init__(self, check_id, params, expected="exact equality"):
        self.check_id = check_id
        self.params = params
        self.expected = expected
        self.cases = 0
        self.failures = []

    def case(self, ok, label, **detail):
        """One case; a failure keeps its label and the str of each detail."""
        self.cases += 1
        if not ok:
            self.failures.append(
                {"case": label, **{key: str(v) for key, v in detail.items()}})

    def equal(self, expected, got, label):
        self.case(expected == got, label, expected=expected, got=got)

    def record(self):
        return {
            "id": self.check_id,
            "params": self.params,
            "expected": self.expected,
            "got": f"{self.cases - len(self.failures)}/{self.cases} cases equal",
            "pass": self.cases > 0 and not self.failures,
            "failures": self.failures[:5],
        }


# ---------------------------------------------------------------------------
# tables suite

def check_two_trace_table(max_bits):
    n_max = budget_rule(max_bits)["two_trace_table"]
    col = _Collector("two-trace-table-vs-census", {"n": f"2..{n_max}"})
    for n in range(2, n_max + 1):
        census = traces.trace_census(1, n, "two")
        for t1, t2 in product((0, 1), repeat=2):
            col.equal(census.get((t1, t2)), cf.count_two_traces(n, t1, t2),
                      f"n={n} class=({t1},{t2})")
    return [col.record()]


def check_three_trace_table(max_bits):
    n_max = budget_rule(max_bits)["three_trace_table"]
    col = _Collector("three-trace-table-vs-census", {"n": f"3..{n_max}"})
    for n in range(3, n_max + 1):
        census = traces.trace_census(1, n, "three")
        for t1, t2, t3 in product((0, 1), repeat=3):
            col.equal(census.get((t1, t2, t3)), cf.count_three_traces(n, t1, t2, t3),
                      f"n={n} class=({t1},{t2},{t3})")
    return [col.record()]


def check_all_zero_table(max_bits):
    bits = budget_rule(max_bits)["all_zero_table"]
    col = _Collector("all-zero-traces-vs-census",
                     {"r": "1,2,3,4,6,8,12", "rn": f"<= {bits}"})
    for r in (1, 2, 3, 4, 6, 8, 12):
        for n in range(1, bits // r + 1):
            col.equal(traces.trace_class_count(r, n, (0, 0, 0)),
                      cf.count_all_zero_traces(r, n), f"r={r} n={n}")
    conv = _Collector("all-zero-traces-n12-convention", {"r": "1..8"},
                      "value 1 at n = 1, 2")
    for r, n in product(range(1, 9), (1, 2)):
        conv.equal(1, cf.count_all_zero_traces(r, n), f"r={r} n={n}")
    return [col.record(), conv.record()]


def check_irreducible_inversion(max_bits):
    bits = budget_rule(max_bits)["irreducible_inversion"]
    col = _Collector("irreducible-count-vs-enumeration",
                     {"q": "2,4,8", "budget": str(1 << bits)})
    for r, n_hi in ((1, 16), (2, 8), (3, 6)):
        for n in range(3, min(n_hi, 3 + bits // r) + 1):  # q^(n-3) <= 2^bits
            col.equal(traces.count_irreducibles_with_prefix(r, n, 0, 0, 0),
                      cf.irreducible_all_zero(r, n), f"q={1 << r} n={n}")
    return [col.record()]


def check_inversion_integrality(max_bits):
    ns = range(3, 3 + budget_rule(max_bits)["inversion_integrality"])
    col = _Collector("inversion-integrality",
                     {"q": "2,4,8,16", "n": f"3..{ns[-1]}"},
                     "nonnegative integer; both forms equal for even r")
    for r, n in product((1, 2, 3, 4), ns):
        try:
            val = cf.irreducible_all_zero(r, n)
            col.case(val >= 0 and (r % 2 == 1 or
                                   val == cf.irreducible_all_zero_via_carlitz(r, n)),
                     f"r={r} n={n}", got=val)
        except AssertionError as exc:
            col.case(False, f"r={r} n={n}", got=exc)
    return [col.record()]


def check_census_marginals(max_bits):
    bits = budget_rule(max_bits)["census_marginals"]
    col = _Collector("census-marginal-sums", {"rn": f"<= {bits}"},
                     "classes sum to q^(n-1) at t1 = 0 and to q^n overall")
    for r in (1, 2, 3, 4, 5, 6):
        for n in range(3, bits // r + 1):
            census = traces.trace_census(r, n, "three")
            col.equal(1 << r * n, census.total, f"r={r} n={n} total")
            zero_t1 = sum(c for (t1, _, _), c in census.items() if t1 == 0)
            col.equal(1 << r * (n - 1), zero_t1, f"r={r} n={n} t1=0 marginal")
    return [col.record()]


def check_prefix_totals(max_bits):
    n_hi = budget_rule(max_bits)["prefix_totals"]
    col = _Collector("prefix-counts-sum-to-gauss", {"q": 2, "n": f"3..{n_hi}"},
                     "sum over all 8 prefixes equals the Gauss count")
    for n in range(3, n_hi + 1):
        total = sum(traces.count_irreducibles_with_prefix(1, n, *t)
                    for t in product((0, 1), repeat=3))
        col.equal(cf.gauss_count(2, n), total, f"n={n}")
    return [col.record()]


def check_table_spectral_agreement(max_bits):
    col = _Collector("rows-vs-spectral-forms", {"r": "1..4", "n": "<= 100"})
    for t1, t2 in product((0, 1), repeat=2):
        f = cf.two_trace_formula(t1, t2)
        for n in range(2, 34):
            col.equal(cf.two_trace_deviation(n, t1, t2),
                      fourier.deviation(f, n), f"two ({t1},{t2}) n={n}")
    for t2, t3 in product((0, 1), repeat=2):
        f = cf.three_trace_formula(0, t2, t3)
        for n in range(3, 52):
            col.equal(cf.three_trace_deviation(n, 0, t2, t3),
                      fourier.deviation(f, n), f"three (0,{t2},{t3}) n={n}")
    for r, n in product((1, 2, 3, 4), range(1, 101)):
        col.equal(cf.count_all_zero_traces(r, n),
                  cf.count_all_zero_traces_spectral(r, n), f"all-zero r={r} n={n}")
    return [col.record()]


def check_trace_identities(max_bits):
    degrees, trials = budget_rule(max_bits)["trace_identities"]
    fields = ((1, 20), (2, 10), (3, 7), (4, 5))
    col = _Collector("trace-addition-identities",
                     {"exhaustive": f"rn <= {2 * degrees}",
                      "random": f"{len(fields) * trials} pairs, "
                                f"rn <= {max(r * n for r, n in fields)}"})
    runs = [(m, r, list(combinations_with_replacement(range(1 << m), 2)))
            for m in range(2, 2 * degrees + 1, 2)
            for r in (1, 2, 3, 4) if m % r == 0]
    rng = random.Random(2024)
    runs += [(r * n, r, [(rng.randrange(1 << r * n), rng.randrange(1 << r * n))
                         for _ in range(trials)]) for r, n in fields]
    for m, r, pairs in runs:  # one call per field and r, on lanes
        oks = traces.check_trace_addition_identities(
            build_context(m), r, *np.array(pairs, dtype=np.uint64).T)
        for ok, (a, b) in zip(oks.tolist(), pairs):
            col.case(ok, f"m={m} r={r} a={a} b={b}")
    return [col.record()]


def check_joint_zero_identity(max_bits):
    trials = budget_rule(max_bits)["joint_zero_identity"]
    col = _Collector("joint-zero-identity",
                     {"q": "2,4,8", "pairs": f"{trials} each"},
                     "identity holds for arbitrary function tables")
    rng = random.Random(451)
    for r, n in ((1, 8), (2, 5), (3, 4)):
        ctx = build_context(r * n)
        sub = ctx.subfield_elements(r)
        for trial in range(trials):
            f1 = [rng.choice(sub) for _ in range(ctx.order)]
            f2 = [rng.choice(sub) for _ in range(ctx.order)]
            col.case(traces.joint_zero_identity_check(ctx, r, f1, f2),
                     f"q={1 << r} n={n} trial={trial}")
    return [col.record()]


# ---------------------------------------------------------------------------
# curves suite

def _twist_cases(rs):
    """(family, r, class, representative alpha) of every twist branch of
    `curves.twist_classes`, for each r in rs."""
    for r in rs:
        for fam in (1, 2, 3):
            for klass, alpha, _ in curves.twist_classes(fam, r):
                yield fam, r, klass, alpha


def check_curve_four_way(max_bits):
    bits = budget_rule(max_bits)["curve_four_way"]
    col = _Collector("curve-four-way-agreement", {"rn": f"<= {bits}"},
                     "oracle = table = spectral = recurrence")
    for r in range(1, 21):
        for n, fam in product(range(1, bits // r + 1), (1, 2, 3)):
            oracle = curves.count_points_oracle(curves.CurveSpec(fam, r), n, cap=bits)
            table = curves.closed_count_combined(fam, r, n)
            spec_v = curves.spectral_count(fam, r, n)
            rec = curves.charpoly_count(fam, r, n)
            col.case(oracle == table == spec_v == rec, f"family={fam} r={r} n={n}",
                     got=f"{oracle},{table},{spec_v},{rec}")
    return [col.record()]


def check_twist_counts(max_bits):
    bits = budget_rule(max_bits)["twist_counts"]
    col = _Collector("twist-oracle-vs-closed", {"rn": f"<= {bits}"},
                     "oracle = case-analysis count for every twist class")
    for fam, r, klass, alpha in _twist_cases(range(1, bits + 1)):
        for n in range(1, bits // r + 1):
            o = curves.count_points_oracle(curves.CurveSpec(fam, r, alpha), n, cap=bits)
            c = curves.closed_count_twist(fam, r, n, klass=klass)
            col.equal(o, c, f"family={fam} r={r} n={n} class={klass}")
    return [col.record()]


def check_curve_closed_three_way(max_bits):
    n_hi = budget_rule(max_bits)["curve_closed_three_way"]
    col = _Collector("curve-closed-three-way", {"r": "1..4", "n": f"<= {n_hi}"},
                     "table = spectral = recurrence")
    for r, fam in product((1, 2, 3, 4), (1, 2, 3)):
        fd = curves.frobenius_charpoly(fam, r)
        for n in range(1, n_hi + 1):
            table = curves.closed_count_combined(fam, r, n)
            spec_v = curves.spectral_count(fam, r, n)
            rec = curves.charpoly_count(fam, r, n, fd)
            col.case(table == spec_v == rec, f"family={fam} r={r} n={n}",
                     got=f"{table},{spec_v},{rec}")
            col.case(curves.hasse_weil_ok(table, fd.genus, r, n),
                     f"hasse-weil family={fam} r={r} n={n}")
    return [col.record()]


def check_kani_rosen(max_bits):
    bits = budget_rule(max_bits)["kani_rosen"]
    col = _Collector("jacobian-product-identity",
                     {"oracle": f"r <= 3, rn <= {bits}", "closed": "r <= 4, n <= 100"},
                     "twist sum - combined = (q-2)(q^n+1)")
    alt = _Collector("jacobian-product-alternate-rhs",
                     {"note": "(q^n+1)(q-1)-1 is flagged, never matches for q > 2"},
                     "alternate rhs differs whenever q > 2")
    for fam, r in product((1, 2, 3), repeat=2):
        for n in range(1, bits // r + 1):
            res = curves.kani_rosen_check(fam, r, n, method="oracle", cap=bits)
            col.case(res["matches_product"], f"oracle family={fam} r={r} n={n}",
                     got=res["lhs"])
            if r > 1:
                alt.case(not res["matches_alternate"], f"family={fam} r={r} n={n}")
    for fam, r, n in product((1, 2, 3), (1, 2, 3, 4), range(1, 101)):
        res = curves.kani_rosen_check(fam, r, n)
        col.case(res["matches_product"], f"closed family={fam} r={r} n={n}",
                 got=res["lhs"])
    return [col.record(), alt.record()]


def check_frobenius_structure(max_bits):
    col = _Collector("frobenius-charpoly-structure", {"r": "1..12"},
                     "degree 2g, integer multiplicities, Weil symmetry, certificate")
    for r, fam in product(range(1, 13), (1, 2, 3)):
        try:
            fd = curves.frobenius_charpoly(fam, r)
        except AssertionError as exc:
            col.case(False, f"family={fam} r={r}", got=exc)
            continue
        col.equal(2 * fd.genus, fd.degree, f"degree family={fam} r={r}")
        for coeffs, mult in fd.factors:
            col.case(mult > 0 and curves.roots_symmetric_under_q(coeffs, 1 << r),
                     f"factor {coeffs} family={fam} r={r}")
        col.case(curves.supersingularity_certificate(fd),
                 f"certificate family={fam} r={r}")
    ordinary = _Collector("ordinary-factor-rejected", {"factor": "X^2-3X+2"},
                          "certificate must fail")
    ordinary.case(not curves.supersingularity_certificate((2, [(1, -3, 2)])),
                  "planted ordinary factor")
    return [col.record(), ordinary.record()]


def check_twist_isomorphism(max_bits):
    bits = budget_rule(max_bits)["twist_isomorphism"]
    col = _Collector("first-family-twists-equal", {"r": "2,3", "rn": f"<= {bits}"},
                     "all twists of the first family have equal counts")
    for r in (2, 3):
        for n in range(1, bits // r + 1):
            vals = {curves.count_points_oracle(curves.CurveSpec(1, r, a), n, cap=bits)
                    for a in range(1, 1 << r)}
            col.case(len(vals) == 1, f"r={r} n={n}", got=vals)
    return [col.record()]


def _pipeline_deviation(r, n):
    """(D1 + D2 + (q-1) D3)/q^3 with D_i = #C_i - q^n - 1, the combined
    counts of the three curves: F(n) - q^(n-3) by the curve pipeline."""
    q = 1 << r
    d1, d2, d3 = (curves.closed_count_combined(fam, r, n) - q ** n - 1
                  for fam in (1, 2, 3))
    return Fraction(d1 + d2 + (q - 1) * d3, q ** 3)


def check_pipeline_identity(max_bits):
    col = _Collector("count-from-curve-pipeline", {"r": "1,2,3", "n": "1..200"},
                     "F = q^(n-3) + (D1 + D2 + (q-1) D3)/q^3")
    for r, n in product((1, 2, 3), range(1, 201)):
        rhs = Fraction(1 << r) ** (n - 3) + _pipeline_deviation(r, n)
        col.equal(cf.count_all_zero_traces(r, n), rhs, f"r={r} n={n}")
    return [col.record()]


def check_elliptic_link(max_bits):
    n_max = budget_rule(max_bits)["elliptic_link"]
    col = _Collector("two-trace-vs-elliptic-count", {"n": f"2..{n_max}"},
                     "F_2(n,0,0) = (#C_{1,1} - 1)/4")
    for n in range(2, n_max + 1):
        c11 = curves.closed_count_twist(1, 1, n, alpha=1)
        col.case((c11 - 1) % 4 == 0
                 and cf.count_two_traces(n, 0, 0) == (c11 - 1) // 4,
                 f"n={n}", got=c11)
    return [col.record()]


def check_extremal_doubling(max_bits):
    col = _Collector("extremal-implies-minimal-doubling",
                     {"r": "1..3", "n": "<= 48"},
                     "a count meeting the Weil bound forces the minimal count at 2n")
    for fam, r, klass, _ in _twist_cases((1, 2, 3)):
        g = curves.genus(curves.CurveSpec(fam, r, 1))
        for n in range(1, 49):
            dev = curves.closed_count_twist(fam, r, n, klass=klass) - (1 << r * n) - 1
            if dev * dev == 4 * g * g * (1 << (r * n)):
                c2 = curves.closed_count_twist(fam, r, 2 * n, klass=klass)
                col.equal((1 << (2 * r * n)) + 1 - 2 * g * (1 << (r * n)),
                          c2, f"family={fam} r={r} class={klass} n={n}")
    return [col.record()]


# ---------------------------------------------------------------------------
# quadforms suite

def check_radical_dimensions(max_bits):
    col = _Collector("radical-dimensions-vs-case-analysis",
                     {"r": "1,2,3", "n": "1..8"},
                     "w matches the dimension case analysis; parity invariants")
    for fam, r, klass, alpha in _twist_cases((1, 2, 3)):
        for n in range(1, 9):
            rep = quadforms.radical_report(quadforms.twist_form(fam, r, n, alpha))
            col.equal(quadforms.expected_radical_dimension(fam, r, n, klass),
                      rep.w, f"family={fam} r={r} n={n} class={klass}")
            col.case((rep.m - rep.w) % 2 == 0 and rep.w0 in (rep.w - 1, rep.w),
                     f"parity family={fam} r={r} n={n} class={klass}")
    return [col.record()]


def check_arf_zero_counts(max_bits):
    bits = budget_rule(max_bits)["arf_zero_counts"]
    col = _Collector("arf-zero-count-vs-enumeration", {"rn": f"<= {bits}"},
                     "derived zero count equals exhaustive count")
    for fam, r, klass, alpha in _twist_cases((1, 2, 3)):
        for n in range(1, bits // r + 1):
            qf = quadforms.twist_form(fam, r, n, alpha)
            col.equal(quadforms.count_zeros_oracle(qf, cap=bits),
                      quadforms.radical_report(qf).zero_count,
                      f"family={fam} r={r} n={n} class={klass}")
    return [col.record()]


def check_twist_reconstruction(max_bits):
    col = _Collector("twist-count-from-quadform", {"r": "1,2,3", "n": "1..8"},
                     "2N - 2^(rn) + 1 equals the case-analysis count")
    for fam, r, klass, alpha in _twist_cases((1, 2, 3)):
        for n in range(1, 9):
            rep = quadforms.radical_report(quadforms.twist_form(fam, r, n, alpha))
            col.equal(curves.closed_count_twist(fam, r, n, klass=klass),
                      rep.twist_count, f"family={fam} r={r} n={n} class={klass}")
    return [col.record()]


def check_cubic_census(max_bits):
    r_hi = budget_rule(max_bits)["cubic_census"]
    col = _Collector("cubic-root-census", {"r": f"1..{r_hi}"},
                     "census matches the closed form; 3 M3 + M1 = 2^r - 2")
    for r in range(1, r_hi + 1):
        census = quadforms.cubic_root_census(r)
        col.equal(quadforms.cubic_root_census_expected(r), census, f"r={r}")
        col.equal((1 << r) - 2, 3 * census[0] + census[1], f"root total r={r}")
    return [col.record()]


# ---------------------------------------------------------------------------
# fourier suite

def check_dft_round_trip(max_bits):
    trials = budget_rule(max_bits)["dft_round_trip"]
    col = _Collector("dft-round-trip",
                     {"periods": "8,12,24", "vectors": f"{trials} each"},
                     "reconstruct(dft_extract(v), n) = v_n")
    rng = random.Random(77)
    for period in (8, 12, 24):
        for trial in range(trials):
            vec = [Fraction(rng.randrange(-50, 51), rng.randrange(1, 9))
                   for _ in range(period)]
            formula = fourier.dft_extract(vec, period)
            col.case(all(fourier.reconstruct(formula, n) == vec[n % period]
                         for n in range(period)), f"P={period} trial={trial}")
            col.case(all(formula.coeffs[-k % period] == c.conj()
                         for k, c in enumerate(formula.coeffs)),
                     f"conjugation P={period} trial={trial}")
            lhs = sum((v.norm_squared() for v in formula.coeffs),
                      Cyc.rational(formula.order, 0))
            rhs = Cyc.rational(formula.order, sum(Fraction(v) ** 2 for v in vec))
            col.case(lhs.scale(period) == rhs, f"parseval P={period} trial={trial}")
    return [col.record()]


def check_formula_recovery(max_bits):
    col = _Collector("dft-recovers-closed-forms", {"periods": "8, 24"},
                     "extracted coefficients equal the published spectral sets")
    for t1, t2 in product((0, 1), repeat=2):
        got = fourier.extract_sequence(
            [cf.two_trace_deviation(n, t1, t2) for n in range(8, 16)], 8, 8)
        col.case(got == cf.two_trace_formula(t1, t2), f"two-trace ({t1},{t2})")
    g = fourier.extract_sequence(
        [cf.two_trace_deviation(n, 0, 0) for n in range(8, 16)], 8, 8)
    col.equal(Fraction(-1, 4), g.coeffs[3].as_rational(), "g_3 of class (0,0)")
    col.equal(Fraction(-1, 4), g.coeffs[5].as_rational(), "g_5 of class (0,0)")
    col.equal([3, 5], g.nonzero_indices(), "support of class (0,0)")
    for t1, t2, t3 in product((0, 1), repeat=3):
        got = fourier.extract_sequence(
            [cf.three_trace_deviation(n, t1, t2, t3) for n in range(24, 48)],
            24, 24)
        col.case(got == cf.three_trace_formula(t1, t2, t3),
                 f"three-trace ({t1},{t2},{t3})")
    return [col.record()]


def check_sequence_analysis(max_bits):
    col = _Collector("periodic-sequence-analysis",
                     {"q=2": "census data", "q=4": "curve-pipeline data"},
                     "detected periods 8 and 24; coefficients match")
    n_hi, prefix_bits = budget_rule(max_bits)["sequence_analysis"]
    if n_hi >= 17:  # two full periods of 8 need n = 2..17
        values = [traces.trace_census(1, n, "two").get((0, 0)) - (1 << (n - 2))
                  for n in range(2, n_hi + 1)]
        try:
            formula = fourier.analyze_sequence(values, 2, 2)
            col.equal(8, formula.period, "q=2 period")
            col.case(formula == cf.two_trace_formula(0, 0), "q=2 coefficients")
        except ValueError as exc:
            col.case(False, "q=2 analysis", got=exc)
    try:
        pipeline = [_pipeline_deviation(2, n) for n in range(3, 61)]
        if any(f.denominator != 1 for f in pipeline):
            raise ValueError("non-integral pipeline value")
        formula = fourier.analyze_sequence([int(f) for f in pipeline], 3, 4)
        col.equal(24, formula.period, "q=4 period")
        ok = all(fourier.deviation(formula, n)
                 == cf.count_all_zero_traces(2, n) - Fraction(4) ** (n - 3)
                 for n in range(3, 61))
        col.case(ok, "q=4 reconstruction matches the residue table")
    except ValueError as exc:
        col.case(False, "q=4 analysis", got=exc)
    for n in range(3, prefix_bits // 2 + 1):
        col.equal(cf.count_all_zero_traces(2, n),
                  traces.trace_class_count(2, n, (0, 0, 0)),
                  f"pipeline prefix n={n}")
    col.equal(1, fourier.analyze_sequence([0] * 8, 5, 2).period,
              "zero sequence period")
    try:
        fourier.analyze_sequence(list(range(1, 30)), 1, 2, candidates=(1, 2, 4, 8))
        col.case(False, "non-periodic input must raise")
    except ValueError:
        col.case(True, "non-periodic input raises")
    return [col.record()]


# ---------------------------------------------------------------------------
# suite runner

_SUITE_CHECKS = {
    "tables": [check_two_trace_table, check_three_trace_table,
               check_all_zero_table, check_irreducible_inversion,
               check_inversion_integrality, check_census_marginals,
               check_prefix_totals, check_table_spectral_agreement,
               check_trace_identities, check_joint_zero_identity],
    "curves": [check_curve_four_way, check_twist_counts,
               check_curve_closed_three_way, check_kani_rosen,
               check_frobenius_structure, check_twist_isomorphism,
               check_pipeline_identity, check_elliptic_link,
               check_extremal_doubling],
    "quadforms": [check_radical_dimensions, check_arf_zero_counts,
                  check_twist_reconstruction, check_cubic_census],
    "fourier": [check_dft_round_trip, check_formula_recovery,
                check_sequence_analysis],
}


def run_suite(suite: str, max_bits: int = 20, timing=None) -> dict:
    """Run one suite (or 'all'); returns the report dict with summary.
    Given a stream `timing`, each check writes one line there: its name,
    elapsed ms and case count.  The report holds no time."""
    records = []
    for name in _SUITE_CHECKS if suite == "all" else [suite]:
        for check in _SUITE_CHECKS[name]:
            started = time.perf_counter()
            group = check(max_bits)
            if timing is not None:
                elapsed = 1000 * (time.perf_counter() - started)
                # "got" reads "<equal>/<cases> cases equal"
                cases = sum(int(rec["got"].split("/")[1].split()[0])
                            for rec in group)
                print(f"{check.__name__} {elapsed:.0f} ms {cases} cases",
                      file=timing)
            records.extend(group)
    passed = sum(1 for rec in records if rec["pass"])
    return {
        "suite": suite,
        "max_bits": max_bits,
        "checks": records,
        "summary": {"total": len(records), "passed": passed,
                    "failed": len(records) - passed},
    }
