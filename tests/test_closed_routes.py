"""The closed routes agree for every (r, n), by a finite check.

Fix the parity of r and the residue of n mod 24, and let u = 2^ceil(r/2)
(sqrt(2q) for odd r, sqrt(q) for even r).  Divided by q^(n/2), each route's
deviation from q^n + 1 is then a polynomial in u whose degree can be read
from its rows:

- a residue-table term sign * poly(q) * 2^(r(n+ofs)/2 + plus) becomes
  sign * 2^plus * poly(q) * q^(ofs/2), of degree 2 deg_q(poly) + ofs;
- the charpoly route gives -sum mult(u) * p_n(P) over r-free factors P
  whose roots are 24th roots of unity (`supersingularity_certificate`), so
  p_n(P) depends on n mod 24 only, and the degree is that of mult;
- the spectral route gives -sum weight(u) * sum_k omega_24^(kn).

The all-zero count is divided by q^(n/2-3) instead, which adds 6 to the
degree of a table term; the pipeline identity F = q^(n-3) + (D1 + D2 +
(q-1) D3) / q^3 adds 2 to the degree of the curve tables.  A nonzero
polynomial of degree <= D has at most D roots, so agreement at n = 1..24
and at the first D + 1 values of r of each parity proves agreement for
every r >= 1 and n >= 1.

The rows are also checked against the values the routes had before they
were held as r-free tables (`data/closed`, see its README).
"""

import json
import os
from fractions import Fraction

import pytest

from trace3 import closedforms, curves
from trace3.cyclotomic import Cyc, root_groups, sqrt2_power
from trace3.residues import POLYS

DATA = os.path.join(os.path.dirname(__file__), "data", "closed")
PERIOD = 24


def _table_degree(table, shift=0):
    """Largest degree in u of a table term divided by q^(n/2 - shift/2)."""
    assert PERIOD % table.period == 0
    degrees = [0]
    for row in table.rows.values():
        for term in filter(None, row):
            _, poly, ofs, _ = term
            assert ofs + shift >= 0, "not a polynomial in u"
            degrees.append(2 * (len(POLYS[poly]) - 1) + ofs + shift)
    return max(degrees)


def _u_degree(polys):
    return max(len(num) - 1 for num in polys)


def degrees() -> dict:
    """D for each identity, read from the rows of the routes it compares."""
    curve_tables = max(map(_table_degree, curves.COMBINED_TABLES.values()))
    all_zero = _table_degree(closedforms.ALL_ZERO_TABLE, shift=6)
    return {
        "curves": max(
            curve_tables,
            _u_degree(num for rows in curves._CHARPOLY.values()
                      for _, num, _ in rows),
            _u_degree(num for rows in curves._SPECTRAL.values()
                      for num, _, _ in rows)),
        "all-zero": max(all_zero, _u_degree(
            num for rows in closedforms._F000.values() for num, _, _ in rows)),
        "pipeline": max(all_zero, curve_tables + 2),
    }


def _window(degree):
    """n = 1..24 at r = 1..2D+2: D + 1 values of r of each parity."""
    return [(r, n) for r in range(1, 2 * degree + 3)
            for n in range(1, PERIOD + 1)]


def _pipeline(r, n):
    q = 1 << r
    dev = [curves.closed_count_combined(f, r, n) - q ** n - 1
           for f in (1, 2, 3)]
    return Fraction(q) ** (n - 3) + Fraction(dev[0] + dev[1]
                                             + (q - 1) * dev[2], q ** 3)


def _values(identity, r, n):
    if identity == "curves":
        for f in (1, 2, 3):
            yield (f"C{f} table, charpoly, spectral, certificate",
                   (curves.closed_count_combined(f, r, n),
                    curves.charpoly_count(f, r, n),
                    curves.spectral_count(f, r, n)),
                   curves.supersingularity_certificate(
                       curves.frobenius_charpoly(f, r)))
    elif identity == "all-zero":
        yield ("ALL_ZERO_TABLE, spectral",
               (closedforms.count_all_zero_traces(r, n),
                closedforms.count_all_zero_traces_spectral(r, n)), True)
    else:
        yield ("ALL_ZERO_TABLE, pipeline",
               (closedforms.count_all_zero_traces(r, n), _pipeline(r, n)),
               True)


def mismatches():
    """Every case of the window where the routes disagree, lazily; a route
    that raises AssertionError (a non-integral count, say) disagrees."""
    for identity, degree in degrees().items():
        for r, n in _window(degree):
            try:
                for name, counts, certified in _values(identity, r, n):
                    if len(set(counts)) != 1 or not certified:
                        yield f"{name} r={r} n={n}: {counts} {certified}"
            except AssertionError as exc:
                yield f"{identity} r={r} n={n}: {exc!r}"


def test_closed_routes_agree_for_every_r_and_n():
    assert degrees() == {"curves": 4, "all-zero": 6, "pipeline": 6}
    assert list(mismatches()) == []


def _perturbed(table, key, row, field, index):
    rows = [list(entry) for entry in table[key]]
    values = list(rows[row][field])
    values[index] += 1
    rows[row][field] = tuple(values)
    return {**table, key: tuple(map(tuple, rows))}


@pytest.mark.parametrize("module,name,key,row,field,index", [
    (curves, "_CHARPOLY", (2, 1), 2, 0, 2),
    (curves, "_CHARPOLY", (3, 0), 4, 1, 1),
    (curves, "_SPECTRAL", (1, 0), 2, 0, 2),
    (closedforms, "_F000", 1, 3, 0, 5),
], ids=["charpoly-factor", "charpoly-mult", "spectral", "all-zero"])
def test_perturbed_row_is_caught(monkeypatch, module, name, key, row, field,
                                 index):
    monkeypatch.setattr(module, name, _perturbed(getattr(module, name), key,
                                                 row, field, index))
    assert next(mismatches(), None) is not None


def _records(name):
    with open(os.path.join(DATA, name)) as handle:
        return [json.loads(line) for line in handle]


def _groups(pairs):
    return [(Fraction(w), tuple(exps)) for w, exps in pairs]


def test_charpoly_rows_give_the_frozen_factors():
    records = _records("charpoly.jsonl")
    assert len(records) == 3 * 24
    for rec in records:
        fd = curves.frobenius_charpoly(rec["family"], rec["r"])
        assert fd.factors == [(tuple(c), m) for c, m in rec["factors"]]
        assert all(type(c) is int for coeffs, _ in fd.factors for c in coeffs)


def test_spectral_rows_give_the_frozen_groups():
    records = _records("spectral.jsonl")
    assert len(records) == 3 * 24
    for rec in records:
        f, r = rec["family"], rec["r"]
        assert (list(root_groups(curves._SPECTRAL[f, r % 2], r))
                == _groups(rec["groups"]))
    records = _records("f000.jsonl")
    assert len(records) == 24
    for rec in records:
        r = rec["r"]
        assert (list(root_groups(closedforms._F000[r % 2], r))
                == _groups(rec["groups"]))


def root_group_sum(p, groups, n):
    """sum over (weight, exps) in groups of weight * sum_{k in exps}
    zeta_P^(kn), one root of unity at a time: the reference evaluation of
    the group rows, apart from `fourier`."""
    acc = Cyc.rational(p, 0)
    for weight, exps in groups:
        grp = Cyc.rational(p, 0)
        for k in exps:
            grp = grp + Cyc.zeta_pow(p, k * n)
        acc = acc + grp.scale(weight)
    return acc


@pytest.mark.parametrize("r", range(1, 13))
def test_spectral_routes_equal_the_group_sums(r):
    q = 1 << r
    curve_groups = {f: root_groups(curves._SPECTRAL[f, r % 2], r)
                    for f in (1, 2, 3)}
    all_zero_groups = root_groups(closedforms._F000[r % 2], r)
    for n in range(1, 121):
        for f, groups in curve_groups.items():
            acc = root_group_sum(24, groups, n)
            want = Cyc.rational(24, q ** n + 1) - sqrt2_power(24, r * n) * acc
            assert curves.spectral_count(f, r, n) == want, (f, n)
        acc = root_group_sum(24, all_zero_groups, n)
        want = (Cyc.rational(24, Fraction(q) ** (n - 3))
                - sqrt2_power(24, r * (n - 6)) * acc)
        assert closedforms.count_all_zero_traces_spectral(r, n) == want, n
