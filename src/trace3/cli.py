"""Command-line surface: censuses, closed-form counters, curve point
counts, quadratic-form reports, spectral analysis, verification suites and
table emission.

JSON is the canonical machine format (integers serialized as decimal
strings); CSV and Markdown are views.  Exit codes: 0 success / all checks
pass, 1 verification mismatch, 2 usage or budget error, 3 internal error
(any other exception, MemoryError included, reported as one stderr
line), 141 when the reader of stdout closed it first (silently, the status
a shell gives a writer ended by SIGPIPE).  Output is byte-deterministic
for fixed arguments: `verify --timing` writes one line per check to
stderr.  Every exhaustive count (an `anf` sweep, or the candidates of a
prefix count) is refused by `anf.check_sweep` with exit code 2 beyond
`--max-bits` or 2^32 inputs.
"""

import argparse
import csv
import json
import os
import sys
import time
from itertools import starmap

from . import closedforms as cf
from . import anf, curves, fourier, quadforms, traces, verify
from .field import DEFAULT_ENUM_CAP, BudgetError

ENV_BUDGET = "TRACE3_MAX_BITS"

_FAMILY = {"c1": 1, "c2": 2, "c3": 3}

# the residue tables that emit-table prints, by name
TABLES = {
    "1": cf.TWO_TRACE_TABLE,
    "2": cf.THREE_TRACE_TABLE,
    "3": curves.COMBINED_TABLES[1],
    "4": curves.COMBINED_TABLES[2],
    "5": cf.ALL_ZERO_TABLE,
    "c3": curves.COMBINED_TABLES[3],
    "c3noroot": curves.TWIST_TABLES[(3, "0-roots")][0],
}


def _emit(payload):
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_count_traces(args):
    census = traces.trace_census(args.r, args.n, args.which, cap=args.max_bits)
    blocks = census.text_blocks()
    if args.format == "csv":
        sys.stdout.write("t1_bits,t2_bits,t3_bits,count\n")
        for rows in blocks:
            sys.stdout.write("\n".join(map(",".join, rows)) + "\n")
    else:  # `_emit`'s bytes, a block of rows at a time
        head, tail = json.dumps(
            {"r": args.r, "n": args.n, "which": args.which,
             "total": str(census.total), "rows": [None]},
            indent=2, sort_keys=True).split("    null")
        row = ('    {{\n      "count": "{3}",\n      "t1_bits": {0},\n      '
               '"t2_bits": {1},\n      "t3_bits": {2}\n    }}').format
        sep = head
        for rows in blocks:
            sys.stdout.write(sep + ",\n".join(starmap(row, rows)))
            sep = ",\n"
        print(tail)
    return 0


def _log2(q):
    """r with q = 2^r."""
    if q < 1 or q & (q - 1):
        raise ValueError("q must be a power of two")
    return q.bit_length() - 1


def cmd_count_irreducibles(args):
    r = _log2(args.q)
    value = traces.count_irreducibles_with_prefix(
        r, args.n, args.t1, args.t2, args.t3, cap=args.max_bits)
    _emit({"q": args.q, "n": args.n,
           "prefix": [args.t1, args.t2, args.t3], "count": str(value)})
    return 0


def cmd_formula(args):
    kind = args.kind
    if kind in ("gauss", "carlitz"):  # over F_q, q = 2^r with r >= 1
        if _log2(args.q) < 1 or args.n < 1:
            raise ValueError(f"need q >= 2 and n >= 1, got q = {args.q}, "
                             f"n = {args.n}")
        if kind == "carlitz" and not 0 <= args.t1 < args.q:
            raise ValueError(f"need 0 <= t1 < q, got t1 = {args.t1}")
    if kind == "gauss":
        value = cf.gauss_count(args.q, args.n)
        params = {"q": args.q, "n": args.n}
    elif kind == "carlitz":
        value = cf.carlitz_count(args.q, args.n, args.t1)
        params = {"q": args.q, "n": args.n, "t1": args.t1}
    elif kind == "F000":
        value = cf.count_all_zero_traces(args.r, args.n)
        params = {"r": args.r, "n": args.n}
    elif kind == "I000":
        value = cf.irreducible_all_zero(_log2(args.q), args.n)
        params = {"q": args.q, "n": args.n}
    elif kind == "table1":
        # tables 1 and 2 hold r = 1 only: the lookup with --r rejects
        # any other r
        value = TABLES["1"].deviation(args.r, args.n,
                                      f"t1={args.t1},t2={args.t2}")
        params = {"n": args.n, "t1": args.t1, "t2": args.t2}
    elif kind == "table2":
        TABLES["2"].term(args.r, args.n, f"t2={args.t2},t3={args.t3}")
        value = cf.three_trace_deviation(args.n, args.t1, args.t2, args.t3)
        params = {"n": args.n, "t1": args.t1, "t2": args.t2, "t3": args.t3}
    else:
        raise ValueError(f"unknown formula {kind}")
    _emit({"formula": kind, "params": params, "value": str(value)})
    return 0


def cmd_curve_count(args):
    family = _FAMILY[args.family]
    spec = curves.CurveSpec(family, args.r, args.alpha)
    routes = curves.COMBINED_ROUTES if args.alpha is None else curves.TWIST_ROUTES
    if args.method not in (*routes, "all"):
        other = "twists" if args.alpha is None else "combined curves"
        raise ValueError(f"{args.method} route covers {other} only")
    methods = list(routes) if args.method == "all" else [args.method]
    if args.alpha is not None and (family == 3 or "quadform" in methods):
        # the branch of a C3 twist comes from the cubic census of F_{2^r},
        # the embedding of alpha scans F_{2^r} for a root: both enumerate it
        anf.check_sweep(args.r, args.max_bits)
    counts = {m: routes[m](spec, args.n, args.max_bits) for m in methods}
    agree = len(set(counts.values())) == 1
    g = curves.genus(spec)
    payload = {
        "family": args.family, "r": args.r, "n": args.n,
        "alpha": args.alpha,
        "counts": {k: str(v) for k, v in sorted(counts.items())},
        "agree": agree,
        "hasse_weil": all(curves.hasse_weil_ok(v, g, args.r, args.n)
                          for v in counts.values()),
    }
    if args.alpha is not None:
        payload["alpha_class"] = curves.alpha_class(family, args.r, args.alpha)
    _emit(payload)
    return 0 if agree else 1


def cmd_curve_charpoly(args):
    family = _FAMILY[args.family]
    fd = curves.frobenius_charpoly(family, args.r)
    _emit({
        "family": args.family, "r": args.r, "genus": str(fd.genus),
        "degree": fd.degree,
        "factors": [{"coefficients": [str(c) for c in coeffs],
                     "multiplicity": str(mult)} for coeffs, mult in fd.factors],
        "supersingular": curves.supersingularity_certificate(fd),
    })
    return 0


def cmd_quadform_report(args):
    family = _FAMILY[args.family]
    anf.check_sweep(args.r, args.max_bits)  # the embedding scans F_{2^r}
    qf = quadforms.twist_form(family, args.r, args.n, args.alpha)
    rep = quadforms.radical_report(qf)
    _emit({
        "family": args.family, "r": args.r, "n": args.n, "alpha": args.alpha,
        "alpha_class": curves.alpha_class(family, args.r, args.alpha),
        "m": rep.m, "w": rep.w, "w0": rep.w0, "rank": rep.rank,
        "sign": rep.sign, "zero_count": str(rep.zero_count),
        "twist_count": str(rep.twist_count),
    })
    return 0


def cmd_fourier_analyze(args):
    rows = []
    with open(args.input, newline="") as handle:
        for row in csv.reader(handle):
            if not row or not row[0].strip().lstrip("-").isdigit():
                continue  # header or blank
            if len(row) < 2:
                raise ValueError(f"data row {row} needs columns n and f(n)")
            rows.append((int(row[0]), int(row[1])))
    rows.sort()
    if not rows:
        raise ValueError("no data rows in input")
    n0 = rows[0][0]
    if [n for n, _ in rows] != list(range(n0, n0 + len(rows))):
        raise ValueError("input must cover consecutive n")
    candidates = (tuple(int(p) for p in args.period_candidates.split(","))
                  if args.period_candidates else fourier.DEFAULT_PERIOD_CANDIDATES)
    if min(candidates) < 1:
        raise ValueError("period candidates must be positive")
    formula = fourier.analyze_sequence([f for _, f in rows], n0, args.q,
                                       candidates=candidates)
    coeffs = []
    for k, c in enumerate(formula.coeffs):
        if c.is_zero():
            continue
        if c.is_rational():
            val = c.as_rational()
            coeffs.append({"k": k, "numerator": str(val.numerator),
                           "denominator": str(val.denominator)})
        else:
            coeffs.append({"k": k, "coordinates": [
                [str(x.numerator), str(x.denominator)] for x in c.coords]})
    _emit({"q": args.q, "period": formula.period, "order": formula.order,
           "coefficients": coeffs})
    return 0


def cmd_verify(args):
    started = time.time()
    report = verify.run_suite(args.suite, max_bits=args.max_bits,
                              timing=sys.stderr if args.timing else None)
    _emit(report)
    summary = report["summary"]
    print(f"suite={args.suite} max_bits={args.max_bits} "
          f"passed={summary['passed']}/{summary['total']} "
          f"({time.time() - started:.1f}s)", file=sys.stderr)
    return 0 if summary["failed"] == 0 else 1


def _parse_range(text):
    lo, _, hi = text.partition("..")
    return range(int(lo), int(hi) + 1)


def cmd_emit_table(args):
    table = TABLES[args.which]
    if args.n_range:
        if args.r is None:
            raise ValueError("--n-range needs --r")
        classes = [None] if table.by_parity else table.columns
        # check r once: a range below n_min makes no lookup in the rows
        table.term(args.r, table.n_min, classes[0])
        header = ["n"] + (["value"] if table.by_parity else list(classes))
        rows = [[str(n)] + [str(table.value(args.r, n, c)) for c in classes]
                for n in _parse_range(args.n_range) if n >= table.n_min]
    else:
        header = [f"n mod {table.period}"] + list(table.columns)
        rows = [[str(res)] + [table.symbol(term) for term in table.rows[res]]
                for res in range(table.period)]
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    elif args.format == "md":
        print("| " + " | ".join(header) + " |")
        print("|" + "|".join("---" for _ in header) + "|")
        for row in rows:
            print("| " + " | ".join(row) + " |")
    else:
        _emit({"table": args.which, "header": header, "rows": rows})
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="trace3",
        description="Exact counts of binary-field elements and irreducible "
                    "polynomials by their first three traces, cross-verified "
                    "through supersingular curve point counts.")
    parser.add_argument("--max-bits",
                        default=os.environ.get(ENV_BUDGET, str(DEFAULT_ENUM_CAP)),
                        help="enumeration budget in bits (env TRACE3_MAX_BITS)")
    parser.add_argument("--config", help="JSON file with defaults for any flag")
    # the same flags are accepted after a subcommand; SUPPRESS keeps the
    # subparser from clobbering values parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-bits", default=argparse.SUPPRESS)
    common.add_argument("--config", default=argparse.SUPPRESS)

    def add_parser(owner, name, **kwargs):
        return owner.add_parser(name, parents=[common], **kwargs)

    sub = parser.add_subparsers(dest="command", required=True)

    p = add_parser(sub, "count-traces", help="exhaustive trace census")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--which", choices=("one", "two", "three"), default="three")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_count_traces)

    p = add_parser(sub, "count-irreducibles",
                       help="enumerate irreducibles with a prescribed prefix")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t1", type=int, default=0)
    p.add_argument("--t2", type=int, default=0)
    p.add_argument("--t3", type=int, default=0)
    p.set_defaults(func=cmd_count_irreducibles)

    p = add_parser(sub, "formula", help="evaluate a closed-form counter")
    p.add_argument("kind", choices=("F000", "I000", "gauss", "carlitz",
                                    "table1", "table2"))
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t1", type=int, default=0)
    p.add_argument("--t2", type=int, default=0)
    p.add_argument("--t3", type=int, default=0)
    p.set_defaults(func=cmd_formula)

    curve = sub.add_parser("curve", help="curve point counts")
    curve_sub = curve.add_subparsers(dest="curve_command", required=True)
    p = add_parser(curve_sub, "count")
    p.add_argument("--family", choices=("c1", "c2", "c3"), required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=int)
    p.add_argument("--method", default="all", choices=tuple(dict.fromkeys(
        [*curves.COMBINED_ROUTES, *curves.TWIST_ROUTES, "all"])))
    p.set_defaults(func=cmd_curve_count)
    p = add_parser(curve_sub, "charpoly")
    p.add_argument("--family", choices=("c1", "c2", "c3"), required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=cmd_curve_charpoly)

    quad = sub.add_parser("quadform", help="quadratic-form reports")
    quad_sub = quad.add_subparsers(dest="quadform_command", required=True)
    p = add_parser(quad_sub, "report")
    p.add_argument("--family", choices=("c1", "c2", "c3"), required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=int, default=1)
    p.set_defaults(func=cmd_quadform_report)

    four = sub.add_parser("fourier", help="spectral analysis of sequences")
    four_sub = four.add_subparsers(dest="fourier_command", required=True)
    p = add_parser(four_sub, "analyze")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--input", required=True, help="CSV rows n,value")
    p.add_argument("--period-candidates", default=None)
    p.set_defaults(func=cmd_fourier_analyze)

    p = add_parser(sub, "verify", help="run verification suites")
    p.add_argument("--suite", default="all",
                   choices=("tables", "curves", "quadforms", "fourier", "all"))
    p.add_argument("--timing", action="store_true",
                   help="write each check's wall time to stderr")
    p.set_defaults(func=cmd_verify)

    p = add_parser(sub, "emit-table", help="print a residue table")
    p.add_argument("which", choices=tuple(TABLES))
    p.add_argument("--r", type=int)
    p.add_argument("--n-range", help="evaluate rows for n in a..b")
    p.add_argument("--format", choices=("json", "csv", "md"), default="json")
    p.set_defaults(func=cmd_emit_table)
    return parser


def _flags(parser):
    """dest -> action of each flag this parser sets itself.  The shared flags
    repeated after a subcommand default to SUPPRESS and are left out: their
    default belongs to the top level."""
    return {action.dest: action for action in parser._actions
            if action.option_strings
            and action.default is not argparse.SUPPRESS}


def _subparsers(parser):
    return next((action for action in parser._actions
                 if isinstance(action, argparse._SubParsersAction)), None)


def _all_parsers(parser):
    yield parser
    subs = _subparsers(parser)
    for sub in subs.choices.values() if subs else ():
        yield from _all_parsers(sub)


def _config_value(key, action, value):
    """A config value, converted and checked as if given as the flag."""
    if action.nargs == 0:  # store_true
        if not isinstance(value, bool):
            raise ValueError(f"config key {key!r}: expected true or false")
        return value
    try:
        value = (action.type or str)(str(value))
    except ValueError:
        raise ValueError(
            f"config key {key!r}: invalid value {value!r}") from None
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"config key {key!r}: invalid choice {value!r}")
    return value


def _apply_config(parser, args):
    """Make the JSON object in args.config the defaults of the flags of the
    command that args ran, so that flags given explicitly still win when
    argv is parsed again.  A key that names no flag of any command is an
    error; the others are applied where the command has them."""
    with open(args.config) as handle:
        config = json.load(handle)
    if not isinstance(config, dict):
        raise ValueError(f"config {args.config}: expected a JSON object")
    config = {key.replace("-", "_"): value for key, value in config.items()}
    known = {dest for p in _all_parsers(parser) for dest in _flags(p)}
    unknown = sorted(set(config) - known)
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r}")
    p = parser
    while p is not None:
        flags = _flags(p)
        p.set_defaults(**{key: _config_value(key, flags[key], value)
                          for key, value in config.items() if key in flags})
        subs = _subparsers(p)
        p = subs.choices[getattr(args, subs.dest)] if subs else None


def _budget(text: str) -> int:
    """The text of --max-bits, from the flag, the config file, TRACE3_MAX_BITS
    or the default, as a budget: an integer >= 0 from any source."""
    if not text.strip().isdecimal():
        raise ValueError(f"the budget (--max-bits, {ENV_BUDGET} or config key "
                         f"max_bits) must be an integer >= 0, got {text!r}")
    return int(text)


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # 3.11+ caps int -> str
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config(parser, args)
            args = parser.parse_args(argv)
        args.max_bits = _budget(args.max_bits)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe is met here, not at exit
        return code
    except (BudgetError,) as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader has gone: no message
        # the final flush at exit then writes what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash must not read as 1, a mismatch
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
