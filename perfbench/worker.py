"""One benchmark worker: a fresh interpreter that sets up one workload, prints
`ready`, reads the probe, runs whole passes for about the given number of
seconds and prints one JSON line with its measurements.  run.py starts it;
it is not meant to be run by hand.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE [SPANS_PATH]

SECONDS = 0 stops after set-up (a set-up sample).  With TRACE = 1 the tracer
is installed before set-up, and the per-layer stats of set-up and of every
pass are reported; spans go to SPANS_PATH.
"""

import json
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402  (imports trace3: part of set-up)
from tracer import Tracer  # noqa: E402

MAX_FAILURES_REPORTED = 5
PROBES_AFTER_SETUP = 10
PROBE_EVERY_S = 0.5


def run_pass(cases, tracer, first_op_id, probes):
    """Run every case once, reading the probe into `probes` after any case
    that ends PROBE_EVERY_S or more after the last reading; return (failed
    labels, wall s, cpu s, wall s of each case), the pass times without the
    probe readings."""
    failed, op_wall = [], []
    probe_wall = probe_cpu = 0.0
    wall0, cpu0 = time.perf_counter(), time.process_time()
    last_probe = wall0
    for i, case in enumerate(cases):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                ok = case.run()
            else:
                ok = tracer.operation(case.kind, first_op_id + i, case.run)
        except Exception:  # counted as a failed operation, never dropped
            ok = False
            print(f"{case.kind} {case.label} raised:", file=sys.stderr)
            traceback.print_exc()
        if ok is not True:
            failed.append(f"{case.kind}: {case.label}")
        t1 = time.perf_counter()
        op_wall.append(t1 - t0)
        if t1 - last_probe >= PROBE_EVERY_S:
            c1 = time.process_time()
            probes.append(probe())
            last_probe = time.perf_counter()
            probe_wall += last_probe - t1
            probe_cpu += time.process_time() - c1
    return (failed, time.perf_counter() - wall0 - probe_wall,
            time.process_time() - cpu0 - probe_cpu, op_wall)


def probe():
    """Seconds taken by a fixed pure-Python computation (carry-less products
    and Fraction sums) that uses no library code: a reading of how fast the
    machine runs Python at this moment."""
    t0 = time.perf_counter()
    acc, total = 0, Fraction(0)
    for i in range(1, 4001):
        a, b = (i * 2654435761) & 0xFFFFFF, (i * 40503) & 0xFFFFFF
        while b:
            if b & 1:
                acc ^= a
            b >>= 1
            a <<= 1
        total += Fraction(i % 97, i % 13 + 1)
    return time.perf_counter() - t0


def best_by_kind(cases, best):
    """Sum of each case's fastest time, per operation kind."""
    out = {}
    for case, t in zip(cases, best):
        out[case.kind] = out.get(case.kind, 0.0) + t
    return out


def main(argv):
    workload, seed, seconds, trace = argv[:4]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    cases = workloads.setup(workload, workloads.inputs(workload, seed))
    setup_layers = tracer.flat() if tracer else {}
    print("ready", flush=True)
    if seconds <= 0:
        return 0

    probes = [probe() for _ in range(PROBES_AFTER_SETUP)]
    passes, layers, failures = [], [], []
    best = [float("inf")] * len(cases)  # fastest time of each case so far
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        if tracer:
            tracer.reset()
        bad, wall, cpu, op_wall = run_pass(cases, tracer, attempted, probes)
        attempted += len(cases)
        failed += len(bad)
        failures += bad[:MAX_FAILURES_REPORTED - len(failures)]
        passes.append({"wall_s": wall, "cpu_s": cpu})
        best = [min(b, t) for b, t in zip(best, op_wall)]
        if len(passes) == 1:
            # later passes can grow the heap by fragmentation, so a peak
            # that depended on how many passes fit would not repeat
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer:
            layers.append(tracer.flat())
        # run the whole number of passes nearest to the time given
        typical = statistics.median(p["wall_s"] for p in passes)
        if time.perf_counter() + typical / 2 > deadline:
            break
    if tracer:
        tracer.uninstall()
        tracer.write_spans(argv[4])
    print(json.dumps({
        "passes": passes,
        "best_by_kind": best_by_kind(cases, best),
        "probes": probes,
        "elements_per_pass": sum(case.elements for case in cases),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "peak_rss_kb": peak_rss_kb,
        "setup_layers": setup_layers,
        "layers": layers,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
