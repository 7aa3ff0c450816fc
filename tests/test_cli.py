import csv
import io
import json
import os
import resource
import subprocess
import sys

import pytest

import trace3
from trace3.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data", "fourier")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_formula_commands(capsys):
    code, out, _ = run_cli(capsys, "formula", "I000", "--q", "2", "--n", "7")
    assert code == 0 and json.loads(out)["value"] == "3"
    code, out, _ = run_cli(capsys, "formula", "F000", "--r", "1", "--n", "6")
    assert code == 0 and json.loads(out)["value"] == "10"
    code, out, _ = run_cli(capsys, "formula", "gauss", "--q", "2", "--n", "4")
    assert code == 0 and json.loads(out)["value"] == "3"
    code, out, _ = run_cli(capsys, "formula", "table2", "--n", "12")
    assert code == 0 and json.loads(out)["value"] == "48"


def test_values_past_4300_digits(capsys):
    # CPython 3.11 refuses int <-> str past 4300 digits unless the limit is
    # lifted; the CLI lifts it, which the int() parses below also need
    cf, curves = trace3.closedforms, trace3.curves
    code, out, _ = run_cli(capsys, "formula", "gauss", "--q", "2",
                           "--n", "20000")
    assert code == 0
    assert int(json.loads(out)["value"]) == cf.gauss_count(2, 20000)
    code, out, _ = run_cli(capsys, "formula", "F000", "--r", "1",
                           "--n", "20000")
    assert code == 0
    assert int(json.loads(out)["value"]) == cf.count_all_zero_traces(1, 20000)
    code, out, _ = run_cli(capsys, "curve", "count", "--family", "c1",
                           "--r", "1", "--n", "20000", "--method", "table")
    assert code == 0
    assert (int(json.loads(out)["counts"]["table"])
            == curves.closed_count_combined(1, 1, 20000))
    code, out, _ = run_cli(capsys, "curve", "charpoly", "--family", "c3",
                           "--r", "7200")
    assert code == 0
    assert [(tuple(map(int, f["coefficients"])), int(f["multiplicity"]))
            for f in json.loads(out)["factors"]] \
        == curves.frobenius_charpoly(3, 7200).factors


@pytest.mark.parametrize("argv", [
    ("gauss", "--n", "0"),
    ("carlitz", "--n", "0"),
    ("carlitz", "--q", "3", "--n", "3", "--t1", "1"),
    ("gauss", "--q", "6", "--n", "4"),
    ("gauss", "--q", "0", "--n", "4"),
    ("carlitz", "--q", "2", "--n", "4", "--t1", "5"),
], ids=["gauss-n0", "carlitz-n0", "carlitz-q3", "gauss-q6", "gauss-q0",
        "carlitz-t1-5"])
def test_formula_rejects_bad_q_n_or_t1(capsys, argv):
    code, out, err = run_cli(capsys, "formula", *argv)
    assert code == 2 and out == "" and err.startswith("error: ")


def test_count_traces_json_and_csv(capsys):
    code, out, _ = run_cli(capsys, "count-traces", "--r", "1", "--n", "6")
    assert code == 0
    payload = json.loads(out)
    rows = {(row["t1_bits"], row["t2_bits"], row["t3_bits"]): int(row["count"])
            for row in payload["rows"]}
    assert rows[(0, 0, 0)] == 10
    assert sum(rows.values()) == 64
    code, out, _ = run_cli(capsys, "count-traces", "--r", "2", "--n", "3",
                           "--format", "csv")
    assert code == 0
    table = list(csv.reader(io.StringIO(out)))
    assert table[0] == ["t1_bits", "t2_bits", "t3_bits", "count"]
    lookup = {tuple(map(int, row[:3])): int(row[3]) for row in table[1:]}
    assert lookup[(0, 0, 0)] == 1


def test_count_traces_budget_error(capsys):
    code, _, err = run_cli(capsys, "count-traces", "--r", "1", "--n", "40")
    assert code == 2 and "budget" in err


def child_env():
    """The environment of a child interpreter that imports this trace3."""
    src = os.path.dirname(os.path.dirname(trace3.__file__))
    return dict(os.environ, OPENBLAS_NUM_THREADS="1",
                PYTHONPATH=os.pathsep.join(
                    [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))


def run_python_capped(*args, cap=2 << 30):
    """The interpreter on `args` in a child whose address space is capped
    at `cap` bytes, so that an allocation beyond that fails there instead
    of loading the machine."""
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env=child_env(), timeout=120, preexec_fn=cap_address_space)


def run_capped(*argv, cap=2 << 30):
    """The CLI in a capped child (`run_python_capped`)."""
    return run_python_capped("-m", "trace3.cli", *argv, cap=cap)


def test_count_traces_refuses_sweep_beyond_32_bits():
    # within --max-bits but beyond what a sweep can index: a usage error
    # before anything of size 2^33 is allocated; an attempted allocation
    # would end in a MemoryError in the capped child instead
    proc = run_capped("count-traces", "--r", "1", "--n", "33",
                      "--max-bits", "40")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("count-traces", "--r", "33", "--n", "1"),
    ("curve", "count", "--family", "c1", "--r", "33", "--n", "1",
     "--alpha", "1", "--method", "oracle"),
])
def test_sweep_size_checked_before_subfield_tables(argv):
    # r = rn = 33: the subfield (or embedding) table alone has 2^33 entries
    proc = run_capped(*argv, "--max-bits", "40")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: sweeps cover at most 2^32 inputs; "
                           "m = 33 > 32\n")


@pytest.mark.parametrize("argv", [
    ("quadform", "report", "--family", "c1", "--r", "64", "--n", "1"),
    ("quadform", "report", "--family", "c2", "--r", "40", "--n", "1"),
    ("quadform", "report", "--family", "c3", "--r", "28", "--n", "1"),
    ("curve", "count", "--family", "c1", "--r", "30", "--n", "1",
     "--alpha", "1", "--method", "quadform"),
    ("curve", "count", "--family", "c3", "--r", "30", "--n", "1",
     "--alpha", "1", "--method", "table"),
])
def test_twist_field_beyond_budget_is_refused(argv):
    # the embedding of alpha and the cubic census of C3 enumerate F_{2^r}:
    # r beyond --max-bits is a budget error before either table is built
    proc = run_capped(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (f"budget error: 2^{argv[argv.index('--r') + 1]} "
                           f"elements exceed enumeration cap 2^26\n")


def test_twist_table_route_of_c1_needs_no_field_enumeration():
    proc = run_capped("curve", "count", "--family", "c1", "--r", "30",
                      "--n", "1", "--alpha", "1", "--method", "table")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {
        "agree": True, "alpha": 1, "alpha_class": "all",
        "counts": {"table": "2147483649"}, "family": "c1",
        "hasse_weil": True, "n": 1, "r": 30}


@pytest.mark.parametrize("argv", [
    ("quadform", "report", "--family", "c2", "--alpha", "3"),
    ("curve", "count", "--family", "c1", "--alpha", "1"),
])
def test_twist_at_r_26_holds_no_table_of_the_field(argv):
    # r = rn = 26 is within the default budget: the embedding of alpha is
    # byte tables of the root's powers, not a 2^26-entry list
    proc = run_capped(*argv, "--r", "26", "--n", "1")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout).get("agree", True) is True


def test_json_census_streams_within_512_mib():
    # 2^21 classes: the JSON rows are written one at a time
    proc = run_capped("count-traces", "--r", "7", "--n", "3", cap=512 << 20)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["total"] == str(1 << 21)
    assert sum(int(row["count"]) for row in payload["rows"]) == 1 << 21


def test_uncaught_exception_exits_3():
    # an allocation that fails inside a command is an internal error
    code = ("import sys\n"
            "from trace3 import cli, traces\n"
            "def out_of_memory(*args, **kwargs):\n"
            "    raise MemoryError('no room for the counts')\n"
            "traces.trace_census = out_of_memory\n"
            "sys.exit(cli.main(['count-traces', '--r', '10', '--n', '3',\n"
            "                   '--max-bits', '40']))\n")
    proc = run_python_capped("-c", code)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("internal error: MemoryError")


def test_closed_pipe_exits_141_silently():
    # the reader takes 10 bytes of a long CSV and closes the pipe: the
    # writer stops with the status a shell gives a writer ended by SIGPIPE
    argv = ["count-traces", "--r", "7", "--n", "3", "--format", "csv"]
    with subprocess.Popen([sys.executable, "-m", "trace3.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=child_env()) as proc:
        assert proc.stdout.read(10) == b"t1_bits,t2"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
    assert err == b""


def test_internal_assertion_exits_3(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("swept values left the subfield")

    monkeypatch.setattr(trace3.traces, "trace_census", broken)
    code, out, err = run_cli(capsys, "count-traces", "--r", "1", "--n", "4")
    assert code == 3 and out == ""
    assert err == ("internal error: AssertionError: "
                   "swept values left the subfield\n")


def test_count_irreducibles(capsys):
    code, out, _ = run_cli(capsys, "count-irreducibles", "--q", "2", "--n", "7")
    assert code == 0 and json.loads(out)["count"] == "3"
    code, _, err = run_cli(capsys, "count-irreducibles", "--q", "3", "--n", "5")
    assert code == 2


@pytest.mark.parametrize("argv,message", [
    (("--q", "2", "--n", "5", "--t1", "2"),
     "error: prescribed coefficients must lie in 0..1"),
    (("--q", "4", "--n", "5", "--t3", "-1"),
     "error: prescribed coefficients must lie in 0..3"),
    (("--q", "1", "--n", "5"), "error: need 1 <= r <= 64, got r = 0"),
    (("--q", "0", "--n", "5"), "error: q must be a power of two"),
    (("--q", "2", "--n", "2"),
     "error: need degree >= 3 to prescribe three coefficients"),
    # the q^(n-3) = 2^(r(n-3)) candidates meet `anf.check_sweep`: the
    # budget first, then the 2^32 limit of every exhaustive count; the two
    # budget cases keep their names, which count candidates, not bits
    pytest.param(("--q", "2", "--n", "40"),
                 "budget error: 2^37 elements exceed enumeration cap 2^26",
                 id="argv5-budget error: 2^37 candidates exceed budget 67108864"),
    pytest.param(("--q", "4", "--n", "17", "--max-bits", "27"),
                 "budget error: 2^28 elements exceed enumeration cap 2^27",
                 id="argv6-budget error: 4^14 candidates exceed budget 134217728"),
    (("--q", "2", "--n", "40", "--max-bits", "40"),
     "error: sweeps cover at most 2^32 inputs; m = 37 > 32"),
])
def test_count_irreducibles_rejects_bad_input(capsys, argv, message):
    code, out, err = run_cli(capsys, "count-irreducibles", *argv)
    assert code == 2 and out == ""
    assert err == message + "\n"


def test_prefix_budget_is_compared_in_bits():
    # neither the budget nor q^(n-3) is built as an integer: a huge
    # --max-bits answers as the default does, a huge q^(n-3) is refused
    proc = run_capped("--max-bits", "100000000000", "count-irreducibles",
                      "--q", "2", "--n", "5")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_capped("count-irreducibles", "--q", "2",
                                     "--n", "5").stdout
    proc = run_capped("count-irreducibles", "--q", "18446744073709551616",
                      "--n", "100000000")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("budget error: 2^6399999808 elements exceed "
                           "enumeration cap 2^26\n")


def test_curve_count_all_methods(capsys):
    code, out, _ = run_cli(capsys, "curve", "count", "--family", "c3",
                           "--r", "1", "--n", "12")
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] and payload["counts"]["table"] == "4353"
    assert set(payload["counts"]) == {"oracle", "table", "charpoly", "fourier"}
    code, out, _ = run_cli(capsys, "curve", "count", "--family", "c2",
                           "--r", "2", "--n", "3", "--alpha", "2")
    payload = json.loads(out)
    assert code == 0 and payload["alpha_class"] == "noncube"
    assert payload["counts"]["table"] == "33"
    assert set(payload["counts"]) == {"oracle", "table", "quadform"}


def test_curve_count_method_restrictions(capsys):
    code, _, err = run_cli(capsys, "curve", "count", "--family", "c1",
                           "--r", "1", "--n", "3", "--alpha", "1",
                           "--method", "charpoly")
    assert code == 2


def test_curve_count_rejects_negative_alpha(capsys):
    code, out, err = run_cli(capsys, "curve", "count", "--family", "c2",
                             "--r", "2", "--n", "3", "--alpha", "-1",
                             "--method", "table")
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("charpoly", "--family", "c3", "--r", "0"),
    ("count", "--family", "c1", "--r", "1", "--n", "0", "--method", "fourier"),
    ("count", "--family", "c1", "--r", "1", "--n", "0", "--method", "charpoly"),
    ("count", "--family", "c3", "--r", "0", "--n", "3", "--method", "fourier"),
    ("count", "--family", "c1", "--r", "1", "--n", "0", "--method", "oracle"),
    ("count", "--family", "c2", "--r", "2", "--n", "0", "--alpha", "1",
     "--method", "oracle"),
    ("count", "--family", "c3", "--r", "1", "--n", "-2", "--alpha", "1",
     "--method", "quadform"),
], ids=["charpoly-r0", "fourier-n0", "charpoly-n0", "fourier-r0", "oracle-n0",
        "twist-oracle-n0", "quadform-n-2"])
def test_curve_rejects_r_or_n_below_1(capsys, argv):
    code, out, err = run_cli(capsys, "curve", *argv)
    assert code == 2 and out == "" and err.startswith("error: need ")


@pytest.mark.parametrize("argv", [
    ("quadform", "report", "--family", "c2", "--r", "0", "--n", "3"),
    ("curve", "count", "--family", "c3", "--r", "0", "--n", "3",
     "--alpha", "1", "--method", "quadform"),
], ids=["quadform-r0", "twist-r0"])
def test_twist_commands_blame_r_below_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: need r >= 1")


@pytest.mark.parametrize("argv,blame", [
    (("count-traces", "--r", "-1", "--n", "-1"), "r"),
    (("count-traces", "--r", "0", "--n", "5"), "r"),
    (("count-traces", "--r", "3", "--n", "0", "--format", "csv"), "n"),
    (("quadform", "report", "--family", "c1", "--r", "2", "--n", "0"), "n"),
], ids=["census-r-1-n-1", "census-r0", "census-n0", "quadform-n0"])
def test_sweeps_blame_r_or_n_below_1(capsys, argv, blame):
    # r n = 1 or 0 passes the sweep's size check: r and n are checked first
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: need {blame} >= 1") and err.count("\n") == 1


def test_curve_charpoly(capsys):
    code, out, _ = run_cli(capsys, "curve", "charpoly", "--family", "c1",
                           "--r", "1")
    payload = json.loads(out)
    assert code == 0 and payload["supersingular"]
    assert payload["factors"] == [
        {"coefficients": ["1", "2", "2"], "multiplicity": "1"}]


def test_quadform_report(capsys):
    code, out, _ = run_cli(capsys, "quadform", "report", "--family", "c2",
                           "--r", "2", "--n", "3", "--alpha", "2")
    payload = json.loads(out)
    assert code == 0 and payload["w"] == 4 and payload["twist_count"] == "33"


def test_fourier_analyze(capsys, tmp_path):
    from trace3.traces import trace_census
    path = tmp_path / "seq.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["n", "value"])
        for n in range(2, 18):
            census = trace_census(1, n, "two")
            writer.writerow([n, census.get((0, 0)) - (1 << (n - 2))])
    code, out, _ = run_cli(capsys, "fourier", "analyze", "--q", "2",
                           "--input", str(path))
    payload = json.loads(out)
    assert code == 0 and payload["period"] == 8
    assert payload["coefficients"] == [
        {"k": 3, "numerator": "-1", "denominator": "4"},
        {"k": 5, "numerator": "-1", "denominator": "4"}]


def test_fourier_analyze_irrational_golden(capsys):
    # the period-24 class t = (1, 0, 0): six coefficients outside Q are
    # printed as coordinate lists; both files were written before Cyc moved
    # to integer numerators
    from trace3.closedforms import three_trace_deviation
    path = os.path.join(DATA, "three_trace_1_0_0.csv")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["n", "value"])
    writer.writerows([n, three_trace_deviation(n, 1, 0, 0)] for n in range(3, 60))
    with open(path, newline="") as handle:
        assert out.getvalue() == handle.read()
    code, out, _ = run_cli(capsys, "fourier", "analyze", "--q", "2",
                           "--input", path)
    with open(os.path.join(DATA, "three_trace_1_0_0_analyze.json")) as handle:
        expected = handle.read()
    assert code == 0 and out == expected
    assert out.count('"coordinates"') == 6


@pytest.mark.parametrize("rows,flags", [
    ([["n", "value"], ["2"]], ()),
    ([["n", "value"]] + [[n, 0] for n in range(2, 20)],
     ("--period-candidates", "0")),
], ids=["one-column-row", "period-0"])
def test_fourier_analyze_rejects_bad_input(capsys, tmp_path, rows, flags):
    path = tmp_path / "seq.csv"
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)
    code, out, err = run_cli(capsys, "fourier", "analyze", "--q", "2",
                             "--input", str(path), *flags)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


# the five checks that `verify.budget_rule` scales below its full budget
RESCALED = {"inversion-integrality", "trace-addition-identities",
            "joint-zero-identity", "curve-closed-three-way", "dft-round-trip"}


def _frozen_verify(budget):
    """The records of `verify --suite all --max-bits <budget>` as printed
    before the one budget rule (see tests/data/verify/README.md)."""
    path = os.path.join(os.path.dirname(__file__), "data", "verify",
                        f"all_{budget}.json")
    with open(path) as handle:
        return json.load(handle)["checks"]


def _cases(record):
    return int(record["got"].split("/")[1].split()[0])


def test_verify_tiny_budget(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "all",
                             "--max-bits", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["failed"] == 0
    assert "wall_time_ms" not in payload
    records, at4, at20 = payload["checks"], _frozen_verify(4), _frozen_verify(20)
    assert [r["id"] for r in records] == [r["id"] for r in at4] \
        == [r["id"] for r in at20]
    assert RESCALED <= {r["id"] for r in records}
    for rec, old, full in zip(records, at4, at20):
        assert _cases(rec) >= 1, rec
        if rec["id"] in RESCALED:
            assert _cases(rec) < _cases(full), rec
        else:  # capped and fixed-cost records are as before the budget rule
            assert rec == old


@pytest.mark.parametrize("env,argv", [
    ("abc", ("formula", "gauss", "--n", "3")),
    ("-1", ("formula", "gauss", "--n", "3")),
    ("abc", ("verify", "--suite", "fourier")),
    (None, ("--max-bits", "-3", "verify", "--suite", "fourier")),
    (None, ("verify", "--suite", "fourier", "--max-bits", "-1")),
    (None, ("--max-bits", "-1", "count-irreducibles", "--q", "2", "--n", "5")),
    (None, ("count-traces", "--r", "1", "--n", "3", "--max-bits", "abc")),
    (None, ("count-traces", "--r", "1", "--n", "3", "--max-bits", "2.5")),
], ids=["env-abc", "env-negative", "env-abc-verify", "flag-negative-verify",
        "subcommand-flag-negative", "flag-negative-count-irreducibles",
        "flag-abc", "flag-fraction"])
def test_invalid_budget_exits_2_with_one_message(capsys, monkeypatch, env, argv):
    if env is None:
        monkeypatch.delenv("TRACE3_MAX_BITS", raising=False)
    else:
        monkeypatch.setenv("TRACE3_MAX_BITS", env)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: the budget") and "integer >= 0" in err


def test_invalid_budget_in_config_exits_2_with_one_message(capsys, tmp_path):
    cfg = _config(tmp_path, {"max_bits": -2})
    code, out, err = run_cli(capsys, "--config", cfg, "formula", "gauss",
                             "--n", "3")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: the budget")


def test_valid_budget_from_env_and_flag(capsys, monkeypatch):
    # a flag wins over the environment, which wins over the default
    monkeypatch.setenv("TRACE3_MAX_BITS", " 6 ")
    code, out, _ = run_cli(capsys, "count-traces", "--r", "1", "--n", "6")
    assert code == 0 and json.loads(out)["total"] == "64"
    code, _, err = run_cli(capsys, "count-traces", "--r", "1", "--n", "6",
                           "--max-bits", "5")
    assert code == 2 and "budget" in err


def test_emit_table_formats(capsys):
    code, out, _ = run_cli(capsys, "emit-table", "1", "--format", "md")
    assert code == 0 and out.startswith("| n mod 8 |")
    code, out, _ = run_cli(capsys, "emit-table", "5", "--r", "1",
                           "--n-range", "3..8", "--format", "csv")
    table = list(csv.reader(io.StringIO(out)))
    assert [row[1] for row in table[1:]] == ["1", "2", "1", "10", "22", "24"]
    code, out, _ = run_cli(capsys, "emit-table", "c3noroot", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and len(payload["rows"]) == 24
    code, out, _ = run_cli(capsys, "emit-table", "3", "--r", "2",
                           "--n-range", "1..4", "--format", "csv")
    table = list(csv.reader(io.StringIO(out)))
    assert table[-1][1] == "65"


def test_emit_table_matches_census(capsys):
    from trace3.traces import trace_class_count
    code, out, _ = run_cli(capsys, "emit-table", "5", "--r", "2",
                           "--n-range", "1..6", "--format", "csv")
    assert code == 0
    for row in list(csv.reader(io.StringIO(out)))[1:]:
        n, value = int(row[0]), int(row[1])
        assert value == trace_class_count(2, n, (0, 0, 0))


def test_verify_exit_code_on_mismatch(capsys, monkeypatch):
    from trace3 import verify

    def broken_check(max_bits):
        return [{"id": "broken", "params": {}, "expected": "x", "got": "y",
                 "pass": False, "failures": [{"case": "planted"}]}]

    monkeypatch.setitem(verify._SUITE_CHECKS, "quadforms", [broken_check])
    code, out, _ = run_cli(capsys, "verify", "--suite", "quadforms")
    assert code == 1
    assert json.loads(out)["summary"]["failed"] == 1


def test_verify_timing_flag(capsys):
    from trace3 import verify
    argv = ("verify", "--suite", "quadforms", "--max-bits", "6")
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out, err = run_cli(capsys, *argv, "--timing")
    assert code == 0 and out == plain
    checks = verify._SUITE_CHECKS["quadforms"]
    lines = err.splitlines()[:-1]  # the last line is the summary
    assert len(lines) == len(checks)
    for line, check in zip(lines, checks):
        name, ms, unit, cases, word = line.split()
        assert name == check.__name__ and unit == "ms" and word == "cases"
        assert int(ms) >= 0 and int(cases) > 0


def test_global_flags_before_subcommand(capsys):
    code, _, err = run_cli(capsys, "--max-bits", "4",
                           "count-traces", "--r", "1", "--n", "6")
    assert code == 2 and "budget" in err


def test_output_determinism(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--suite", "quadforms",
                         "--max-bits", "6")
    _, out2, _ = run_cli(capsys, "verify", "--suite", "quadforms",
                         "--max-bits", "6")
    assert out1 == out2


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("TRACE3_MAX_BITS", "4")
    code, _, err = run_cli(capsys, "count-traces", "--r", "1", "--n", "6")
    assert code == 2 and "budget" in err


def test_config_file(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max-bits": 4}))
    code, _, err = run_cli(capsys, "--config", str(cfg),
                           "count-traces", "--r", "1", "--n", "6")
    assert code == 2 and "budget" in err


def _config(tmp_path, payload):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    return str(cfg)


@pytest.mark.parametrize("argv", [
    ("--max-bits", "26", "count-traces", "--r", "1", "--n", "6"),
    ("count-traces", "--r", "1", "--n", "6", "--max-bits", "26"),
])
def test_config_loses_to_explicit_flag_equal_to_default(capsys, tmp_path, argv):
    cfg = _config(tmp_path, {"max_bits": 4})
    code, out, err = run_cli(capsys, "--config", cfg, *argv)
    assert code == 0 and err == ""
    assert json.loads(out)["total"] == "64"


def test_config_applies_subcommand_key(capsys, tmp_path):
    cfg = _config(tmp_path, {"format": "csv"})
    code, out, _ = run_cli(capsys, "--config", cfg,
                           "count-traces", "--r", "1", "--n", "6")
    assert code == 0
    assert out.splitlines()[0] == "t1_bits,t2_bits,t3_bits,count"
    # an explicit flag still wins over the config
    code, out, _ = run_cli(capsys, "--config", cfg, "count-traces",
                           "--r", "1", "--n", "6", "--format", "json")
    assert code == 0 and json.loads(out)["total"] == "64"


@pytest.mark.parametrize("payload", [
    {"no_such_key": 1},
    {"format": "xml"},
    {"max_bits": "many"},
    {"which": "four"},
    [4],
])
def test_config_rejects_unknown_key_or_bad_value(capsys, tmp_path, payload):
    cfg = _config(tmp_path, payload)
    code, out, err = run_cli(capsys, "--config", cfg,
                             "count-traces", "--r", "1", "--n", "6")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_config_key_of_another_command_is_accepted(capsys, tmp_path):
    # one config file can serve every command: --timing belongs to verify
    cfg = _config(tmp_path, {"timing": True, "format": "csv"})
    code, out, _ = run_cli(capsys, "--config", cfg, "formula", "F000",
                           "--r", "1", "--n", "6")
    assert code == 0 and json.loads(out)["value"] == "10"


def test_config_missing_file_is_a_usage_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "--config", str(tmp_path / "none.json"),
                           "count-traces", "--r", "1", "--n", "6")
    assert code == 2 and len(err.splitlines()) == 1
