"""windquad benchmark: closed-loop CLI commands, each in a fresh interpreter.

Usage (from the checkout root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs one command at a time until S seconds have passed (at least
one command).  With --trace 0 only the boundaries are timed, from outside
`src/`: the child's wall time and max RSS, and the entry and exit of every
`run_simulation` call.  With --trace 1 untraced and traced commands
alternate; the traced ones wrap the layer functions in `tracing.SITES` and
give the per-layer numbers.  Every command's outputs are checked against
`reference.json`.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
CHILD_TIMEOUT_S = 150.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"sim_s_per_wall_s": "s/s", "wall_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
LAYER_UNITS = {"us_p50": "us", "us_p99": "us", "calls_per_step": "calls/step",
               "self_us_per_step": "us/step"}
EXTRA_LAYER_UNITS = {"sim.write_csv.us_per_row": "us/row", "sim.records": "count",
                     "sim.csv_bytes": "bytes", "wrench.calls_per_step": "calls/step",
                     "trace.overhead_frac": "fraction"}


def per_layer_units():
    units = {f"{layer}.{stat}": unit
             for layer in tracing.LAYERS for stat, unit in LAYER_UNITS.items()}
    units.update(EXTRA_LAYER_UNITS)
    return units


@dataclass
class Command:
    """Outcome of one CLI command in its own process."""

    traced: bool
    problems: list = field(default_factory=list)
    wall_s: float = math.nan
    setup_s: float = math.nan
    loop_s: float = math.nan      # wall time inside run_simulation, all runs
    sim_s: float = math.nan       # simulated time, all runs
    steps: int = 0
    peak_rss_mb: float = math.nan
    records: int = 0
    expected_records: list = None  # ceil(steps / decimate) per run
    csv_bytes: int = 0
    layers: dict = None           # traced: tracing.layer_stats output
    csv_rows: int = 0

    @property
    def ok(self):
        return not self.problems


class Bench:
    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.variant = workloads.variant_of(seed)
        self.workdir = workdir
        self.reference = workloads.load_reference()["workloads"][workload.name][str(self.variant)]
        self.config_path = os.path.join(workdir, f"{workload.name}.ini")
        workloads.write_config(workload, self.variant, ROOT, self.config_path)
        self.env = dict(os.environ, **BLAS_ENV)
        self.env.pop("PYTHONPATH", None)
        self.child_info = {}
        self.count = 0

    def warm_up(self):
        """Import once untimed, so byte-code compilation is not timed."""
        code = f"import sys; sys.path.insert(0, {os.path.join(ROOT, 'src')!r}); import windquad.cli"
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=self.env,
                       check=True, timeout=CHILD_TIMEOUT_S)

    def run(self, traced):
        self.count += 1
        out_dir = os.path.join(self.workdir, f"out{self.count}")
        result_path = os.path.join(self.workdir, f"result{self.count}.json")
        log_path = os.path.join(self.workdir, f"log{self.count}.txt")
        argv = [sys.executable, CHILD, result_path, "1" if traced else "0", "--",
                *workloads.cli_argv(self.workload, self.variant, self.config_path, out_dir)]
        cmd = Command(traced=traced)
        with open(log_path, "w") as log:
            start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        cmd.wall_s = end - start
        cmd.peak_rss_mb = usage.ru_maxrss / 1024.0
        if proc.returncode != 0:
            with open(log_path) as log:
                tail = log.read()[-400:].strip()
            cmd.problems.append(f"exit code {proc.returncode}: {tail}")
        try:
            self._read_result(cmd, start, result_path)
            self._check_outputs(cmd, out_dir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            cmd.problems.append(f"unreadable output: {exc!r}")
        shutil.rmtree(out_dir, ignore_errors=True)
        for path in (result_path, log_path):
            if os.path.exists(path):
                os.remove(path)
        return cmd

    def _read_result(self, cmd, start, result_path):
        with open(result_path) as fh:
            result = json.load(fh)
        runs = result["runs"]
        self.child_info = {"numpy": result["numpy"], "windquad_file": result["windquad_file"]}
        cmd.setup_s = runs[0]["enter"] - start
        cmd.loop_s = sum(r["exit"] - r["enter"] for r in runs)
        cmd.sim_s = sum(r["sim_s"] for r in runs)
        cmd.steps = sum(r["steps"] for r in runs)
        cmd.expected_records = [math.ceil(r["steps"] / self.workload.decimate) for r in runs]
        if cmd.traced:
            if result["layers"] != list(tracing.LAYERS):
                raise ValueError("child traced a different layer list")
            cmd.layers = tracing.layer_stats(result["spans"])
            cmd.csv_rows = result["csv_rows"]

    def _check_outputs(self, cmd, out_dir):
        summaries = workloads.read_summaries(self.workload, out_dir)
        cmd.problems += workloads.summary_mismatches(summaries, self.reference)
        records = [s["steps"] for s in summaries]
        if cmd.expected_records is not None and records != cmd.expected_records:
            cmd.problems.append(f"records {records}, expected ceil(steps/decimate) "
                                f"= {cmd.expected_records}")
        cmd.records = sum(records)
        csv_files = [name for name in os.listdir(out_dir) if name.endswith(".csv")]
        cmd.csv_bytes = sum(os.path.getsize(os.path.join(out_dir, n)) for n in csv_files)
        if "telemetry.csv" in csv_files:
            with open(os.path.join(out_dir, "telemetry.csv"), "rb") as fh:
                rows = fh.read().count(b"\n") - 1
            if rows != cmd.records:
                cmd.problems.append(f"telemetry.csv has {rows} rows, summary {cmd.records}")


def exact_counts(cmd):
    counts = {"sim.records": cmd.records, "sim.csv_bytes": cmd.csv_bytes,
              "steps": cmd.steps}
    if cmd.layers is not None:
        counts.update({f"{name}.calls": len(durs) for name, (durs, _) in cmd.layers.items()})
    return counts


def check_exact_counts(cmds):
    """Counts must repeat exactly between commands of the same seed."""
    counts = [exact_counts(c) for c in cmds if c.ok]
    return [f"count {key} differs between runs: {counts[0][key]} vs {other[key]}"
            for other in counts[1:] for key in counts[0] if other[key] != counts[0][key]]


def check_layer_calls(workload, cmd):
    """Fixed call counts of one traced command."""
    calls = {name: len(durs) for name, (durs, _) in cmd.layers.items()}
    problems = []
    wrench = calls["aero.resultant_wrench"] + calls["dynamics.simplified_wrench"]
    if wrench != 4 * cmd.steps:
        problems.append(f"{wrench} wrench calls for {cmd.steps} steps, expected 4 per step")
    solves = 16 * cmd.steps if workload.name == "wind_circle_aero" else 0
    if calls["aero.solve_thrust_inflow"] != solves:
        problems.append(f"{calls['aero.solve_thrust_inflow']} solve_thrust_inflow calls, "
                        f"expected {solves}")
    for name, n in calls.items():
        if (n == 0) != (name in workload.idle_layers):
            problems.append(f"{name} called {n} times; expected "
                            f"{'none' if name in workload.idle_layers else 'at least one'}")
    return problems


def quantile(values, q):
    """Nearest-rank quantile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def end_to_end_metrics(cmds):
    used = [c for c in cmds if c.ok] or cmds
    series = {
        "sim_s_per_wall_s": [c.sim_s / c.loop_s for c in used],
        "wall_s": [c.wall_s for c in used],
        "setup_s": [c.setup_s for c in used],
        "peak_rss_mb": [c.peak_rss_mb for c in used],
    }
    return {name: (statistics.median(vals), vals) for name, vals in series.items()}


def per_layer_metrics(plain, traced):
    steps = sum(c.steps for c in traced)
    metrics = {}
    write_us = 0.0
    wrench_calls = 0
    for layer in tracing.LAYERS:
        durations, self_us = [], 0.0
        for c in traced:
            durs, s = c.layers[layer]
            durations += durs
            self_us += s
        metrics[f"{layer}.us_p50"] = statistics.median(durations) if durations else 0.0
        metrics[f"{layer}.us_p99"] = quantile(durations, 0.99) if durations else 0.0
        metrics[f"{layer}.calls_per_step"] = len(durations) / steps
        metrics[f"{layer}.self_us_per_step"] = self_us / steps
        if layer == "sim.write_csv":
            write_us = sum(durations)
        if layer in ("aero.resultant_wrench", "dynamics.simplified_wrench"):
            wrench_calls += len(durations)
    rows = sum(c.csv_rows for c in traced)
    metrics["sim.write_csv.us_per_row"] = write_us / rows if rows else 0.0
    metrics["sim.records"] = traced[0].records
    metrics["sim.csv_bytes"] = traced[0].csv_bytes
    metrics["wrench.calls_per_step"] = wrench_calls / steps
    metrics["trace.overhead_frac"] = (statistics.median(c.loop_s for c in traced)
                                      / statistics.median(c.loop_s for c in plain) - 1.0)
    return metrics


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() or "unavailable"


def environment(bench):
    return {"python": platform.python_version(), "numpy": bench.child_info.get("numpy"),
            "cpu_model": cpu_model(), "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_ENV, "git_commit": git_commit(),
            "windquad_file": bench.child_info.get("windquad_file")}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    for needed in (os.path.join("src", "windquad", "cli.py"), workload.config):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found under {ROOT}; run from a windquad checkout",
                  file=sys.stderr)
            return 2

    workdir = os.path.join(WORK_ROOT, f"{workload.name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        bench = Bench(workload, args.seed, workdir)
        bench.warm_up()
        deadline = time.monotonic() + args.seconds
        plain, traced = [], []
        if args.trace:
            while len(traced) < 2 or time.monotonic() < deadline:
                plain.append(bench.run(traced=False))
                traced.append(bench.run(traced=True))
        else:
            while not plain or time.monotonic() < deadline:
                plain.append(bench.run(traced=False))
        env = environment(bench)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    cmds = plain + traced
    problems = [f"command {i + 1}: {p}" for i, c in enumerate(cmds) for p in c.problems]
    problems += check_exact_counts(plain) + check_exact_counts(traced)
    for c in traced:
        if c.ok:
            problems += check_layer_calls(workload, c)
    failed = sum(not c.ok for c in cmds)

    print(f"workload {workload.name}  seed {args.seed} (input variant {bench.variant})  "
          f"trace {args.trace}  commands {len(cmds)}  closed loop, 1 client")
    if args.trace:
        metrics = per_layer_metrics(plain, traced) if all(c.ok for c in traced) else {}
        units = per_layer_units()
        for name, value in metrics.items():
            print(f"  {name:48s} {value:14.6g} {units[name]}")
    else:
        e2e = end_to_end_metrics(plain)
        units = END_TO_END_UNITS
        metrics = {name: median for name, (median, _) in e2e.items()}
        for name, (median, vals) in e2e.items():
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
            print(f"  {name:18s} {median:12.6g} {units[name]:4s} median of n={len(vals)}"
                  f"  [q1 {q1:.6g}, q3 {q3:.6g}]")
    print(f"  {'error_rate':18s} {failed / len(cmds):12.6g} {'':4s} "
          f"{failed} of {len(cmds)} commands failed")
    for p in problems:
        print(f"  FAIL {p}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not problems, "attempted": len(cmds), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
