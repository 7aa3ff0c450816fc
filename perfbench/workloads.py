"""The three benchmark workloads: inputs made from a seed, and the checked
operations that make up one pass.

`inputs(workload, seed)` is pure data and touches no library code, so the
library receives only what it generates.  `setup(workload, inp)` warms the
library and turns the inputs into the list of `Case`s of one pass; each
`run()` makes the library call under test and compares its result with an
independent route, returning True on a match.  Library functions are looked up on their modules at call time (never
bound by name at import), so the runtime tracer in tracer.py sees every call.

Why these workloads:

- census: the paper's headline object, trace_census at three sizes that take
  the three bucketing regimes (bincount over 8 classes; 2^18 key space with
  subfield_codes dominant; 2^21 key space on the np.unique path).  Its inputs
  do not depend on the seed.
- pointwise: field arithmetic one element at a time (gf2x, field, trace_triple,
  quadforms) plus single-predicate sweeps (one uint32 array, degree 2, no
  bucketing), so a census-only sweep change that slows the predicate path
  shows here.
- spectral: the closed routes in Q(zeta_24); Cyc/Fraction arithmetic with no
  sweeps and no field arithmetic, so an anf/field change predicts no change.
"""

import random
from fractions import Fraction
from itertools import product
from typing import Callable, NamedTuple

from trace3 import closedforms, curves, field, fourier, quadforms, traces

WORKLOADS = ("census", "pointwise", "spectral")


class Case(NamedTuple):
    kind: str       # operation kind, used as the span name of the operation
    label: str      # identifies the case in failure reports
    run: Callable   # () -> bool: library result equals its independent route
    elements: int   # field elements swept by the call (census only, else 0)


def inputs(workload: str, seed: int) -> dict:
    """Plain-data inputs of one workload; only pointwise and spectral draw
    from the seed."""
    rng = random.Random(seed)
    if workload == "census":
        return {"census": [(1, 24), (6, 4), (7, 3)]}
    if workload == "pointwise":
        return {
            "oracle": [(f, r, n) for r, n in ((1, 22), (2, 11))
                       for f in (1, 2, 3)],
            "twist_oracle": [(f, r, n) for r, n in ((2, 10), (3, 7), (4, 5))
                             for f in (1, 2, 3)],
            "class_count": [(2, 10), (4, 5)],
            "radical": [(f, r, n) for r, n in ((1, 48), (2, 24), (3, 16),
                                               (4, 12))
                        for f in (1, 2, 3)],
            "identities": [(r, rng.randrange(1 << 24), rng.randrange(1 << 24))
                           for r in (1, 2, 3, 4) for _ in range(250)],
            "prefix": [(2, 8)],
            "prefix_sum": [(1, 14)],
        }
    if workload == "spectral":
        def vector(period):
            return [Fraction(rng.randrange(-50, 51), rng.randrange(1, 9))
                    for _ in range(period)]
        return {
            "three_way": [(f, r, n) for f in (1, 2, 3) for r in (1, 2, 3, 4)
                          for n in range(1, 201)],
            "all_zero_spectral": [(r, n) for r in (1, 2, 3, 4)
                                  for n in range(1, 101)],
            "irreducible_all_zero": [(r, n) for r in (1, 2, 3, 4)
                                     for n in range(3, 1001)],
            "dft_round_trip": [vector(p) for p, count in ((8, 20), (12, 20),
                                                          (24, 10))
                               for _ in range(count)],
        }
    raise ValueError(f"unknown workload {workload!r}")


def setup(workload: str, inp: dict) -> list:
    """Build every field context the workload uses, warm the lazy tables
    (subfield tables, cubic fiber tables, lru-cached formulas) and return the
    cases of one pass."""
    build = {"census": _census, "pointwise": _pointwise,
             "spectral": _spectral}[workload]
    return build(inp)


# ---------------------------------------------------------------------------
# census

def _census(inp):
    for r, n in inp["census"]:
        field.build_context(r * n).subfield_elements(r)
    for t2, t3 in product((0, 1), repeat=2):
        closedforms.three_trace_formula(1, t2, t3)
    return [Case("census", f"trace_census({r}, {n})", _census_check(r, n),
                 3 << (r * n))
            for r, n in inp["census"]]


def _census_check(r, n):
    def run():
        census = traces.trace_census(r, n, "three")
        q = 1 << r
        ok = (census.total == q ** n
              and sum(c for k, c in census.counts.items() if k[0] == 0)
              == q ** (n - 1)
              and census.get((0, 0, 0))
              == closedforms.count_all_zero_traces(r, n))
        if r == 1:
            ok = ok and len(census.counts) == 8 and all(
                census.get(k) == closedforms.count_three_traces(n, *k)
                for k in product((0, 1), repeat=3))
        return ok
    return run


# ---------------------------------------------------------------------------
# pointwise

def _pointwise(inp):
    cases = []
    for f, r, n in inp["oracle"]:
        field.build_context(r * n)
        cases.append(Case("oracle", f"C{f} r={r} n={n}",
                          _oracle_check(f, r, n, None), 0))
    for f, r, n in inp["twist_oracle"]:
        ctx = field.build_context(r * n)
        ctx.embed_subfield(r)
        for klass, alpha in curves.twist_class_representatives(f, r).items():
            cases.append(Case("twist_oracle",
                              f"C{f} r={r} n={n} {klass} alpha={alpha}",
                              _oracle_check(f, r, n, alpha), 0))
    for r, n in inp["class_count"]:
        field.build_context(r * n)
        cases.append(Case("class_count", f"F000 r={r} n={n}",
                          _class_count_check(r, n), 0))
    for f, r, n in inp["radical"]:
        ctx = field.build_context(r * n)
        ctx.embed_subfield(r)
        for klass, alpha in curves.twist_class_representatives(f, r).items():
            cases.append(Case("radical",
                              f"C{f} r={r} n={n} {klass} alpha={alpha}",
                              _radical_check(f, r, n, alpha), 0))
    field.build_context(24)
    for i, (r, a, b) in enumerate(inp["identities"]):
        cases.append(Case("identities", f"r={r} pair {i}: {a:#x}, {b:#x}",
                          _identities_check(r, a, b), 0))
    for r, n in inp["prefix"]:
        field.build_context(r)
        cases.append(Case("prefix", f"I000 r={r} n={n}",
                          _prefix_check(r, n), 0))
    for r, n in inp["prefix_sum"]:
        cases.append(Case("prefix_sum", f"sum of prefixes r={r} n={n}",
                          _prefix_sum_check(r, n), 0))
    return cases


def _oracle_check(f, r, n, alpha):
    def run():
        got = curves.count_points_oracle(curves.CurveSpec(f, r, alpha), n)
        if alpha is None:
            return got == curves.closed_count_combined(f, r, n)
        return got == curves.closed_count_twist(f, r, n, alpha)
    return run


def _class_count_check(r, n):
    def run():
        return (traces.trace_class_count(r, n, (0, 0, 0))
                == closedforms.count_all_zero_traces(r, n))
    return run


def _radical_check(f, r, n, alpha):
    def run():
        rep = quadforms.radical_report(quadforms.twist_form(f, r, n, alpha))
        return rep.twist_count == curves.closed_count_twist(f, r, n, alpha)
    return run


def _identities_check(r, a, b):
    def run():
        return traces.check_trace_addition_identities(
            field.build_context(24), r, a, b) is True
    return run


def _prefix_check(r, n):
    def run():
        return (traces.count_irreducibles_with_prefix(r, n, 0, 0, 0)
                == closedforms.irreducible_all_zero(r, n))
    return run


def _prefix_sum_check(r, n):
    q = 1 << r

    def run():
        total = sum(traces.count_irreducibles_with_prefix(r, n, *t)
                    for t in product(range(q), repeat=3))
        return total == closedforms.gauss_count(q, n)
    return run


# ---------------------------------------------------------------------------
# spectral

def _spectral(inp):
    # the cyclotomic tables of orders 24 and 8 (a period-8 vector comes first)
    for f, r in product((1, 2, 3), (1, 2, 3, 4)):
        curves.spectral_count(f, r, 1)
    vec = inp["dft_round_trip"][0]
    fourier.dft_extract(vec, len(vec))
    cases = [Case("three_way", f"C{f} r={r} n={n}", _three_way_check(f, r, n),
                  0)
             for f, r, n in inp["three_way"]]
    cases += [Case("all_zero_spectral", f"F000 r={r} n={n}",
                   _all_zero_spectral_check(r, n), 0)
              for r, n in inp["all_zero_spectral"]]
    cases += [Case("irreducible_all_zero", f"I000 r={r} n={n}",
                   _irreducible_check(r, n), 0)
              for r, n in inp["irreducible_all_zero"]]
    cases += [Case("dft_round_trip", f"P={len(vec)} vector {i}",
                   _round_trip_check(vec), 0)
              for i, vec in enumerate(inp["dft_round_trip"])]
    return cases


def _three_way_check(f, r, n):
    def run():
        spectral = curves.spectral_count(f, r, n)
        return (spectral == curves.charpoly_count(f, r, n)
                == curves.closed_count_combined(f, r, n))
    return run


def _all_zero_spectral_check(r, n):
    def run():
        return (closedforms.count_all_zero_traces_spectral(r, n)
                == closedforms.count_all_zero_traces(r, n))
    return run


def _irreducible_check(r, n):
    def run():
        got = closedforms.irreducible_all_zero(r, n)
        ok = isinstance(got, int) and got >= 0
        if r % 2 == 0:
            ok = ok and got == closedforms.irreducible_all_zero_via_carlitz(r, n)
        return ok
    return run


def _round_trip_check(vec):
    period = len(vec)

    def run():
        formula = fourier.dft_extract(vec, period)
        return all(fourier.reconstruct(formula, n) == vec[n]
                   for n in range(period))
    return run
