import os
from fractions import Fraction

import pytest

from trace3 import closedforms as cf
from trace3 import curves, residues
from trace3.cli import TABLES, main

DATA = os.path.join(os.path.dirname(__file__), "data", "emit_table")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# bad lookups are usage errors (exit 2), never a crash or a silent value

@pytest.mark.parametrize("argv", [
    ("formula", "table1", "--n", "5", "--t1", "2"),
    ("formula", "table2", "--n", "5", "--t2", "3"),
    ("formula", "table2", "--n", "3", "--t1", "2"),
    ("formula", "F000", "--r", "0", "--n", "5"),
    ("emit-table", "5", "--r", "0", "--n-range", "1..3"),
    ("emit-table", "c3", "--r", "0", "--n-range", "1..2"),
    ("emit-table", "1", "--r", "3", "--n-range", "2..4"),
    ("emit-table", "2", "--r", "2", "--n-range", "3..4"),
    ("formula", "table1", "--r", "3", "--n", "5"),
    ("formula", "table2", "--r", "3", "--n", "5"),
    ("emit-table", "1", "--r", "3", "--n-range", "1..1"),
])
def test_bad_table_lookup_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: ")


def test_unknown_twist_class_rejected():
    with pytest.raises(ValueError):
        curves.closed_count_twist(3, 1, 3, klass="2-roots")
    with pytest.raises(ValueError):
        curves.closed_count_twist(1, 1, 3, klass="cube")
    with pytest.raises(ValueError):
        curves.closed_count_combined(4, 1, 3)


def test_lookup_boundaries():
    with pytest.raises(ValueError):
        cf.two_trace_deviation(1, 0, 0)
    with pytest.raises(ValueError):
        cf.three_trace_deviation(2, 0, 0, 0)
    with pytest.raises(ValueError):
        cf.count_all_zero_traces(1, 0)
    with pytest.raises(ValueError):
        cf.count_all_zero_traces(0, 3)
    with pytest.raises(ValueError):
        curves.closed_count_combined(1, 0, 3)
    with pytest.raises(ValueError):
        curves.closed_count_twist(2, 2, 0, klass="cube")


# ---------------------------------------------------------------------------
# emit-table output is pinned byte for byte

GOLDEN = [(f"{w}.csv", [w, "--format", "csv"])
          for w in ("1", "2", "3", "4", "5", "c3", "c3noroot")]
GOLDEN += [(f"{w}_r1_n1-60.csv",
            [w, "--r", "1", "--n-range", "1..60", "--format", "csv"])
           for w in ("1", "2")]
GOLDEN += [(f"{w}_r{r}_n1-60.csv",
            [w, "--r", r, "--n-range", "1..60", "--format", "csv"])
           for w in ("3", "4", "5", "c3", "c3noroot") for r in ("1", "2")]
GOLDEN += [("c3.md", ["c3", "--format", "md"]),
           ("5_r2_n1-60.json",
            ["5", "--r", "2", "--n-range", "1..60", "--format", "json"])]


@pytest.mark.parametrize("name,argv", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_emit_table_golden(capsys, name, argv):
    code, out, _ = run_cli(capsys, "emit-table", *argv)
    with open(os.path.join(DATA, name), newline="") as handle:
        expected = handle.read()
    assert code == 0 and out == expected


def test_golden_files_all_checked():
    assert sorted(os.listdir(DATA)) == sorted(name for name, _ in GOLDEN)


# ---------------------------------------------------------------------------
# every entry of every table evaluates to an exact count

ALL_TABLES = list(TABLES.items()) + [
    (f"twist {family} {klass} {parity}", table)
    for (family, klass), pair in curves.TWIST_TABLES.items()
    for parity, table in zip(("odd", "even"), pair)]


@pytest.mark.parametrize("name,table", ALL_TABLES,
                         ids=[name for name, _ in ALL_TABLES])
def test_every_entry_is_an_integral_count(name, table):
    classes = [None] if table.by_parity else table.columns
    checked = 0
    for r in (1, 2, 3, 4):
        parity = residues.PARITY_COLUMNS[0 if r % 2 else 1]
        held = parity in table.columns if table.by_parity else r == 1
        for column in classes:
            if not held:
                with pytest.raises(ValueError):
                    table.count(r, table.n_min, column)
                continue
            for n in range(table.n_min, table.n_min + 2 * table.period):
                dev = table.deviation(r, n, column)
                count = table.count(r, n, column)
                assert type(count) is int and count >= 0, (r, n, column)
                assert count == table.main_term(r, n) + dev
                checked += 1
    assert checked >= 2 * table.period * len(classes)


def test_odd_exponent_is_refused():
    # an entry whose exponent r(n+ofs)/2 is not an integer is a table error
    table = residues.ResidueTable(
        period=2, columns=("r odd",), notation=residues.CURVE,
        rows={0: ((1, "1", 1, 0),), 1: (None,)})
    with pytest.raises(AssertionError):
        table.count(1, 2)
    assert table.count(1, 1) == 3


def test_negative_exponent_is_exact():
    # F000 at n = 1, 2 passes through q^(-k): still exact
    dev = cf.ALL_ZERO_TABLE.deviation(3, 1)
    assert dev == Fraction(63, 64) and cf.count_all_zero_traces(3, 1) == 1
    assert residues.evaluate((-1, "(q-1)", -4, 0), 1, 2) == Fraction(-1, 2)
