"""The one budget rule of `verify` and the helpers its checks share."""

import json
from fractions import Fraction

import pytest

from trace3 import closedforms, curves, verify
from trace3.cli import main

CHECK_NAMES = [check.__name__[len("check_"):]
               for checks in verify._SUITE_CHECKS.values() for check in checks]
RESCALED = ("inversion_integrality", "curve_closed_three_way",
            "trace_identities", "joint_zero_identity", "dft_round_trip")
FIXED = ("table_spectral_agreement", "frobenius_structure", "pipeline_identity",
         "extremal_doubling", "radical_dimensions", "twist_reconstruction",
         "formula_recovery")


@pytest.mark.parametrize("max_bits", [0, 4, 19, 20, 26, 40])
def test_budget_rule_names_every_check(max_bits):
    rule = verify.budget_rule(max_bits)
    assert sorted(rule) == sorted(CHECK_NAMES)
    assert {name for name in rule if rule[name] is None} == set(FIXED)


def test_budget_rule_runs_full_grids_from_full_bits():
    full = verify.budget_rule(verify.FULL_BITS)
    assert full["inversion_integrality"] == 998          # n = 3..1000
    assert full["curve_closed_three_way"] == 200         # n = 1..200
    assert full["trace_identities"] == (4, 2500)         # m = 2..8, 4 x 2500
    assert full["joint_zero_identity"] == full["dft_round_trip"] == 100
    for max_bits in (21, 26, 64):
        rule = verify.budget_rule(max_bits)
        assert all(rule[name] == full[name] for name in RESCALED)


@pytest.mark.parametrize("max_bits", range(0, verify.FULL_BITS))
def test_budget_rule_scales_the_costly_checks_below_full_bits(max_bits):
    rule, full = verify.budget_rule(max_bits), verify.budget_rule(verify.FULL_BITS)
    more = verify.budget_rule(max_bits + 1)
    for name in RESCALED:
        # never above the full grid, never shrinking as the budget grows
        assert rule[name] <= full[name] and rule[name] <= more[name]
    # one period of n at least, one trial and one exhaustive degree at least
    assert rule["inversion_integrality"] >= verify.PERIOD
    assert rule["curve_closed_three_way"] >= verify.PERIOD
    assert min(rule["trace_identities"]) >= 1
    assert rule["joint_zero_identity"] >= 1 and rule["dft_round_trip"] >= 1


def test_budget_rule_caps_sweeps_at_the_budget():
    for max_bits in range(0, 30):
        rule = verify.budget_rule(max_bits)
        assert rule["two_trace_table"] == min(25, max_bits)
        assert rule["sequence_analysis"] == (min(17, max_bits), min(16, max_bits))


def test_rescaled_params_state_what_ran():
    (rec,) = verify.check_trace_identities(4)
    degrees, trials = verify.budget_rule(4)["trace_identities"]
    assert rec["params"] == {"exhaustive": f"rn <= {2 * degrees}",
                             "random": f"{4 * trials} pairs, rn <= 21"}
    (rec,) = verify.check_curve_closed_three_way(0)
    assert rec["params"]["n"] == f"<= {verify.PERIOD}"
    assert rec["got"] == f"{2 * 12 * verify.PERIOD}/{2 * 12 * verify.PERIOD} cases equal"


def test_twist_cases_follow_twist_classes():
    cases = list(verify._twist_cases((1, 2, 3)))
    assert cases == [(fam, r, klass, alpha) for r in (1, 2, 3) for fam in (1, 2, 3)
                     for klass, alpha, _ in curves.twist_classes(fam, r)]


def test_pipeline_deviation_gives_the_all_zero_count():
    for r in (1, 2, 3):
        for n in range(3, 30):
            assert (Fraction(1 << r) ** (n - 3) + verify._pipeline_deviation(r, n)
                    == closedforms.count_all_zero_traces(r, n))


def test_non_integral_pipeline_value_is_a_failed_case(monkeypatch):
    # one point too many on C1 makes (D1 + D2 + 3 D3) / 64 non-integral at
    # q = 4; the check records that instead of stopping the suite
    exact = curves.closed_count_combined
    monkeypatch.setattr(curves, "closed_count_combined",
                        lambda fam, r, n: exact(fam, r, n) + (fam == 1))
    (rec,) = verify.check_sequence_analysis(4)
    assert not rec["pass"]
    assert {"case": "q=4 analysis", "got": "non-integral pipeline value"} \
        in rec["failures"]
    (rec,) = verify.check_pipeline_identity(4)
    assert not rec["pass"] and rec["got"].endswith("/600 cases equal")


def test_a_record_without_cases_fails(capsys):
    # at --max-bits 2 some capped checks have no case within the budget:
    # their records fail, where they used to pass "0/0 cases equal"
    assert verify._Collector("empty", {}).record()["pass"] is False
    code = main(["verify", "--suite", "all", "--max-bits", "2"])
    report = json.loads(capsys.readouterr().out)
    empty = [rec for rec in report["checks"] if rec["got"] == "0/0 cases equal"]
    assert code == 1 and empty
    assert [rec for rec in report["checks"] if not rec["pass"]] == empty
