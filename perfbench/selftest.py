"""Tests of the benchmark itself (not collected by the library's test suite):

    python3 -m pytest -q perfbench/selftest.py

The traced-run tests start real workers and take a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import workloads  # noqa: E402
from worker import run_pass  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def exact_counts(layer):
    return {k: v for k, v in layer.items()
            if k.endswith(".calls") or k in ("anf.sweep.elements",
                                             "anf.sweep.bytes_computed",
                                             "traces.trace_census.classes")}


def test_seed_changes_pointwise_and_spectral_inputs_not_census():
    assert workloads.inputs("census", 1) == workloads.inputs("census", 2)
    for name in ("pointwise", "spectral"):
        assert workloads.inputs(name, 1) == workloads.inputs(name, 1)
        assert workloads.inputs(name, 1) != workloads.inputs(name, 2)


def test_mismatch_and_exception_count_as_failed():
    cases = [workloads.Case("k", "ok", lambda: True, 0),
             workloads.Case("k", "mismatch", lambda: False, 0),
             workloads.Case("k", "raises", lambda: 1 // 0, 0)]
    failed, wall, cpu, op_wall = run_pass(cases, None, 0, [])
    assert failed == ["k: mismatch", "k: raises"]
    assert len(op_wall) == 3 and wall >= sum(op_wall) and cpu >= 0


def test_benchmark_names_match_the_program():
    assert run.WORKLOADS == workloads.WORKLOADS
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metric["unit"] == run.unit(metric["name"]), metric


def test_tail_keeps_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    value, pct, beyond = run.tail([float(i) for i in range(1, 41)])
    assert (value, pct, beyond) == (30.0, 75.0, 10)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def traced_worker(workload, seed, tmp_path):
    spans = tmp_path / f"spans-{workload}-{seed}.jsonl"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), workload,
         str(seed), "1", "1", str(spans)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["failed"] == 0
    assert spans.stat().st_size > 0
    return res


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_exact_counts_repeat(workload, tmp_path):
    first = traced_worker(workload, 7, tmp_path)
    second = traced_worker(workload, 7, tmp_path)
    counts = exact_counts(first["layers"][0])
    assert counts == exact_counts(second["layers"][0])
    # every per-layer metric in BENCHMARK.json but the overhead, which
    # run.py computes, is recorded by the tracer
    names = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_s"}
    assert names <= set(first["layers"][0])
    if workload == "census":
        assert counts["anf.sweep.elements"] == first["elements_per_pass"]
    if workload == "spectral":
        assert counts["anf.sweep.calls"] == 0
        assert counts["gf2x.mulmod.calls"] == 0
