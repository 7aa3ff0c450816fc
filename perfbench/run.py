"""Benchmark of trace3: one workload per run, measured in fresh worker
processes, every result checked against an independent route.

    python3 perfbench/run.py --workload census|pointwise|spectral \\
        --seed N --seconds S --trace 0|1

Run from the root of a source tree of the repository; the library is
imported from src/ as it stands, nothing is installed.  Workers run one at a
time, single-threaded, as a closed loop with one caller: each library call
starts only after the previous one returned.

--trace 0 starts set-up-only workers before and after one measuring worker,
and prints the end-to-end metrics.  --trace 1 spends half the time in an
untraced worker and half in a traced one (see tracer.py), and prints the
per-layer metrics, including the tracing overhead `trace.overhead_s` =
traced pass_s - untraced pass_s.  README.md defines every metric.

Human-readable lines come first; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}, whose metrics are those
BENCHMARK.json names.  A run record with metadata (seed, commit, nproc, L3
size, versions, src/ line count) and, for --trace 1, the spans are written
under perfbench/out/.  The exit code is 0 only when every operation matched
its independent route.
"""

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("census", "pointwise", "spectral")
SETUP_SAMPLES = 11      # fresh interpreters timed from start to ready
REFERENCE_PROBE_S = 0.02  # probe time of the reference speed
RUN_BUDGET_S = 170      # the whole run, every worker included
MAX_SECONDS = 120       # measuring time that leaves room for set-up
TAIL_BEYOND = 10        # samples required beyond the reported tail
END_TO_END_UNITS = {
    "setup_s": "s", "pass_best_s": "s", "pass_s": "s", "pass_tail_s": "s",
    "pass_cpu_s": "s", "cases_per_s": "1/s", "elements_per_s": "1/s",
    "peak_rss_mb": "MB", "failed_share": "share", "pass_ref_s": "s",
    "setup_raw_s": "s", "probe_s": "s",
}
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def start_worker(workload, seed, seconds, trace, deadline, spans_path=""):
    """Run one worker to completion; return (seconds from start to ready,
    its result dict or None for a set-up-only worker)."""
    cmd = [sys.executable, WORKER, workload, str(seed), str(seconds),
           str(trace), spans_path]
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        if not select.select([proc.stdout], [], [],
                             max(deadline - time.monotonic(), 0))[0]:
            raise WorkerError("worker set-up timed out")
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if ready.strip() != "ready":
            raise WorkerError(f"worker failed during set-up: {ready!r}")
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0))
        if proc.returncode != 0:
            raise WorkerError(f"worker exited with code {proc.returncode}")
    except subprocess.TimeoutExpired:
        raise WorkerError("worker ran past the time budget") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if seconds <= 0:
        return setup_s, None
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    return setup_s, json.loads(lines[-1])


def tail(samples):
    """Highest nearest-rank percentile with at least TAIL_BEYOND samples
    beyond it, as (value, percentile, samples beyond).  Runs with too few
    samples report their maximum, with 0 samples beyond."""
    ordered = sorted(samples)
    rank = len(ordered)
    if rank > TAIL_BEYOND:
        rank -= TAIL_BEYOND
    return (ordered[rank - 1], 100.0 * rank / len(ordered),
            len(ordered) - rank)


def end_to_end(args, deadline):
    """The measuring worker, with set-up-only workers before and after it
    so that the set-up samples span the run; metrics and extras."""
    def setup_only():
        return start_worker(args.workload, args.seed, 0, 0, deadline)[0]

    setups = [setup_only() for _ in range(SETUP_SAMPLES // 2)]
    setup_s, res = start_worker(args.workload, args.seed, args.seconds, 0,
                                deadline)
    setups.append(setup_s)
    setups += [setup_only() for _ in range(SETUP_SAMPLES - len(setups))]
    wall = [p["wall_s"] for p in res["passes"]]
    cpu = [p["cpu_s"] for p in res["passes"]]
    probe_s = statistics.quantiles(res["probes"], n=10)[0]
    to_reference = REFERENCE_PROBE_S / probe_s
    tail_s, tail_pct, beyond = tail(wall)
    measured = sum(wall)
    metrics = {
        "setup_s": min(setups) * to_reference,
        "pass_ref_s": sum(res["best_by_kind"].values()) * to_reference,
        "setup_raw_s": min(setups),
        "pass_best_s": sum(res["best_by_kind"].values()),
        "probe_s": probe_s,
        "pass_s": statistics.median(wall),
        "pass_tail_s": tail_s,
        "pass_cpu_s": statistics.median(cpu),
        "cases_per_s": res["attempted"] / measured,
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
        "failed_share": res["failed"] / res["attempted"],
    }
    if args.workload == "census":
        metrics["elements_per_s"] = (res["elements_per_pass"] * len(wall)
                                     / measured)
    extras = {
        "passes": len(wall),
        "pass_tail_percentile": tail_pct,
        "pass_tail_samples_beyond": beyond,
        "setup_samples_s": setups,
        "best_by_kind_s": res["best_by_kind"],
        "pass_wall_samples_s": wall,
        "pass_cpu_samples_s": cpu,
    }
    return metrics, extras, [res]


def per_layer(args, deadline):
    """Untraced then traced worker, half the time each; per-layer metrics
    are lower medians over the traced passes (so exact counts stay whole),
    except field.build_context.s, the time set-up spent building the field
    contexts."""
    half = args.seconds / 2
    _, plain = start_worker(args.workload, args.seed, half, 0, deadline)
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    _, traced = start_worker(args.workload, args.seed, half, 1, deadline,
                             spans)
    layers = traced["layers"]
    metrics = {name: statistics.median_low(layer[name] for layer in layers)
               for name in layers[0]}
    metrics["field.build_context.s"] = \
        traced["setup_layers"]["field.build_context.s"]
    plain_s = statistics.median(p["wall_s"] for p in plain["passes"])
    traced_s = statistics.median(p["wall_s"] for p in traced["passes"])
    metrics["trace.overhead_s"] = traced_s - plain_s
    extras = {"untraced_pass_s": plain_s, "traced_pass_s": traced_s,
              "traced_passes": len(layers),
              "spans_file": os.path.relpath(spans, ROOT)}
    return metrics, extras, [plain, traced]


def unit(metric):
    """Unit of an end-to-end or per-layer metric."""
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    stat = metric.rsplit(".", 1)[-1]
    if stat == "s" or stat.endswith("_s"):
        return "s"
    return "bytes" if stat == "bytes_computed" else "count"


def l3_size():
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            with open(os.path.join(base, index, "level")) as f:
                if f.read().strip() == "3":
                    with open(os.path.join(base, index, "size")) as g:
                        return g.read().strip()
    except OSError:
        pass
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True,
                             timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    for line in out.splitlines():
        if line.startswith("L3 cache:"):
            return line.split(":", 1)[1].strip()
    return None


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def src_lines():
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as f:
                    total += sum(1 for _ in f)
    return total


def metadata(args):
    import numpy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "l3_cache": l3_size(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_lines": src_lines(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be in 1..{MAX_SECONDS}")
    if not os.path.isfile(os.path.join(ROOT, "src", "trace3", "__init__.py")):
        print(f"no trace3 sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = [m["name"] for m in spec["per_layer" if args.trace
                                      else "end_to_end"]]

    # turn SIGTERM into SystemExit, so that start_worker stops its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.monotonic() + RUN_BUDGET_S
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, extras, results = measure(args, deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    failures = [f for r in results for f in r["failures"]]

    meta = metadata(args)
    record = {"meta": meta, "metrics": metrics, "extras": extras,
              "attempted": attempted, "failed": failed, "failures": failures}
    os.makedirs(OUT, exist_ok=True)
    record_name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, record_name), "w") as f:
        json.dump(record, f, indent=1)

    print(f"meta {json.dumps(meta)}")
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit(name)}")
    for key, value in extras.items():
        print(f"{args.workload} {key} = {value}")
    for failure in failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit(name)}
                    for name in wanted},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
