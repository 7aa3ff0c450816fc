"""Acceptance suite: each criterion runs at its full stated parameters,
prints one pass/fail line, and asserts exact equality (tolerance zero
throughout - every quantity is an integer or exact rational).

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import os
import time

from trace3 import verify

FROZEN = os.path.join(os.path.dirname(__file__), "data", "verify")
# the one deliberate change from the frozen reports: these params now state
# the 4 x 2500 random pairs at rn <= 21 that the check ran all along
CORRECTED = {"trace-addition-identities": {"exhaustive": "rn <= 8",
                                           "random": "10000 pairs, rn <= 21"}}


def _frozen(budget):
    """id -> record of `verify --suite all --max-bits <budget>` as printed
    before the one budget rule (tests/data/verify), corrected as above."""
    with open(os.path.join(FROZEN, f"all_{budget}.json")) as handle:
        records = {rec["id"]: rec for rec in json.load(handle)["checks"]}
    for check_id, params in CORRECTED.items():
        records[check_id] = {**records[check_id], "params": params}
    return records


def _report(number, title, records, frozen=20):
    """Print the criterion's line; assert that every record passes and
    equals its frozen counterpart at budget `frozen`."""
    ok = all(rec["pass"] for rec in records)
    status = "PASS" if ok else "FAIL"
    detail = "; ".join(
        f"{rec['id']}: {rec['got']}" for rec in records)
    print(f"[{status}] criterion {number:2d} ({title}): {detail}")
    assert ok, [rec for rec in records if not rec["pass"]]
    expected = _frozen(frozen)
    for rec in records:
        assert rec == expected[rec["id"]]


def test_criterion_01_two_trace_table():
    started = time.time()
    records = verify.check_two_trace_table(25)
    elapsed = time.time() - started
    _report(1, "two-trace deviations, n = 2..25", records, frozen=26)
    print(f"    criterion 1 runtime: {elapsed:.1f}s (budget 120s)")
    assert elapsed < 120


def test_criterion_02_three_trace_table():
    _report(2, "three-trace deviations, n = 3..22, all eight classes",
            verify.check_three_trace_table(22), frozen=26)


def test_criterion_03_all_zero_table():
    _report(3, "all-zero-trace counts, rn <= 24, plus n = 1, 2 convention",
            verify.check_all_zero_table(24), frozen=26)


def test_criterion_04_irreducible_inversion():
    records = verify.check_irreducible_inversion(20)
    counted = records[0]
    # the stated grid (q=2: n 3..16, q=4: n 3..8, q=8: n 3..6) must have run
    assert counted["got"].startswith("24/24"), counted
    records += verify.check_inversion_integrality(20)
    _report(4, "irreducible counts: enumeration grid + integrality to n = 1000",
            records)


def test_criterion_05_curve_four_way():
    records = (verify.check_curve_four_way(20)
               + verify.check_twist_counts(20)
               + verify.check_curve_closed_three_way(20))
    _report(5, "curve counts: 4-way to rn <= 20, closed 3-way to n = 200",
            records)


def test_criterion_06_jacobian_product():
    records = verify.check_kani_rosen(18)
    _report(6, "twist-product identity, alternate rhs flagged", records)


def test_criterion_07_frobenius_data():
    _report(7, "Frobenius data: degrees, multiplicities, certificates, r <= 12",
            verify.check_frobenius_structure(20))


def test_criterion_08_quadratic_forms():
    records = (verify.check_radical_dimensions(24)
               + verify.check_arf_zero_counts(18)
               + verify.check_twist_reconstruction(24)
               + verify.check_cubic_census(14))
    _report(8, "quadratic forms: dimensions, Arf counts to rn <= 18, cubic census",
            records)


def test_criterion_09_fourier():
    records = (verify.check_dft_round_trip(20)
               + verify.check_formula_recovery(20)
               + verify.check_sequence_analysis(17))
    _report(9, "spectral extraction, round trips, period detection", records)


def test_criterion_10_pipeline_identity():
    _report(10, "count from curve pipeline, r = 1..3, n = 1..200",
            verify.check_pipeline_identity(20))


def test_checks_outside_the_criteria_match_the_frozen_report():
    # the criteria above run every other check
    expected = _frozen(20)
    for check in (verify.check_census_marginals, verify.check_prefix_totals,
                  verify.check_table_spectral_agreement,
                  verify.check_trace_identities, verify.check_joint_zero_identity,
                  verify.check_twist_isomorphism, verify.check_elliptic_link):
        for rec in check(20):
            assert rec["pass"] and rec == expected[rec["id"]], rec
