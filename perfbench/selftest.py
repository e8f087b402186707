"""Smoke check of the benchmark (about a minute).

Usage (from the checkout root): python3 perfbench/selftest.py

- BENCHMARK.json lists exactly the workloads and metrics that run.py
  emits, with the same units, within the documented limits;
- every workload, traced and untraced, prints a correct result line with
  every named metric and its unit;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import run
import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, sorted(spec)
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert {n: m["unit"] for n, m in e2e.items()} == run.END_TO_END_UNITS
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))


def bench(cwd, workload, trace):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--workload", workload, "--seed", "1", "--seconds", "1",
                           "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(spec, workload, trace):
    proc = bench(run.ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = spec["per_layer"] if trace else spec["end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in want}, (workload, trace)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert "error_rate" in proc.stdout


def check_bare_directory():
    bare = os.path.join(run.WORK_ROOT, f"bare-{os.getpid()}")
    try:
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = bench(bare, next(iter(workloads.WORKLOADS)), 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_spec(spec)
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            check_result(spec, name, trace)
            print(f"ok {name} trace {trace}", flush=True)
    check_bare_directory()
    print("ok bare directory fails")


if __name__ == "__main__":
    main()
