"""Workload inputs, reference summaries and the correctness gate.

Each workload is one windquad CLI command built from a committed config in
`configs/`.  The bench seed picks one of N_VARIANTS input variants
(variant = seed % N_VARIANTS); variant 0 is the committed config as it
stands, apart from the stated duration and decimation.  Other variants
change only inputs that leave the work per step unchanged, so every
variant of a workload costs the same:

- hover_record_all:     the initial offset, each component moved by up to
                        0.25 m (a rotation alone would repeat summaries,
                        since the vehicle is symmetric under quarter turns);
- synthetic_seed_sweep: the seeds of the synthetic target networks;
- wind_circle_aero:     the wind heading, rotated about the vertical axis.
"""

import configparser
import json
import math
import os
import random
from dataclasses import dataclass

N_VARIANTS = 16

#: summary keys compared against reference.json
SUMMARY_KEYS = ("steps", "rms_e_x", "max_e_x_tail", "final_V", "saturation_count")
INT_KEYS = ("steps", "saturation_count")

# A refactor that reorders floating-point operations perturbs the state by
# rounding, about 1e-16 relative per step.  Perturbing the initial position
# by 1e-13 m moves these summaries by at most 7e-10 relative (the synthetic
# sweep, whose errors are ~1e-4 m); 1e-7 leaves a wide margin for that.  It
# is still far below what a changed trajectory produces: any two recorded
# runs of one workload differ by at least 4e-6 relative in every float key.
# The absolute floor only matters for values that decay to zero.
RTOL = 1e-7
ATOL = 1e-12

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


@dataclass(frozen=True)
class Workload:
    name: str
    config: str        # committed config, relative to the checkout root
    command: str       # "run" or "sweep"
    duration: float    # simulated seconds per run
    decimate: int
    idle_layers: tuple   # traced layers this command never calls
    sweep_size: int = 0  # runs per sweep command


WORKLOADS = {
    w.name: w for w in (
        # simplified plant, adaptation off, no calibration
        Workload("hover_record_all", "configs/baseline.ini", "run",
                 duration=2.0, decimate=1,
                 idle_layers=("aero.resultant_wrench", "aero.solve_thrust_inflow",
                              "adaptive.update_weights",
                              "config.calibrate_simplified")),
        # `sweep` writes only sweep.csv and prints no gain report
        Workload("synthetic_seed_sweep", "configs/synthetic.ini", "sweep",
                 duration=0.25, decimate=25, sweep_size=8,
                 idle_layers=("aero.resultant_wrench", "aero.solve_thrust_inflow",
                              "sim.write_csv", "stability.build_pd_matrices",
                              "config.calibrate_simplified")),
        Workload("wind_circle_aero", "configs/wind_circle.ini", "run",
                 duration=2.0, decimate=10,
                 idle_layers=("dynamics.simplified_wrench",)),
    )
}


def _vec(text):
    return [float(tok) for tok in text.replace(",", " ").split()]


def _rotate_z(vec, angle):
    c, s = math.cos(angle), math.sin(angle)
    x, y, z = vec
    return [c * x - s * y, s * x + c * y, z]


def _fmt_vec(vec):
    return " ".join(repr(float(v)) for v in vec)


def variant_of(seed):
    return seed % N_VARIANTS


def sweep_seeds(workload, variant):
    """Target-network seeds of one sweep command; variant 0 starts at the
    committed seed 0."""
    first = variant * workload.sweep_size
    return list(range(first, first + workload.sweep_size))


def write_config(workload, variant, root, path):
    """Write the generated config of one workload variant to `path`."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(os.path.join(root, workload.config)) as fh:
        cp.read_file(fh)
    cp["simulation"]["duration"] = repr(workload.duration)
    cp["simulation"]["decimate"] = str(workload.decimate)
    if workload.name == "hover_record_all" and variant:
        rng = random.Random(variant)
        offset = [x + rng.uniform(-0.25, 0.25) for x in _vec(cp["initial"]["x"])]
        cp["initial"]["x"] = _fmt_vec(offset)
    elif workload.name == "wind_circle_aero":
        angle = 2.0 * math.pi * variant / N_VARIANTS
        cp["wind"]["base"] = _fmt_vec(_rotate_z(_vec(cp["wind"]["base"]), angle))
    with open(path, "w") as fh:
        cp.write(fh)


def cli_argv(workload, variant, config_path, out_dir):
    """windquad CLI arguments of one command."""
    if workload.command == "run":
        return ["run", "--config", config_path, "--out", out_dir]
    values = ",".join(str(s) for s in sweep_seeds(workload, variant))
    return ["sweep", "--config", config_path, "--param", "simulation.seed",
            "--values", values, "--out", out_dir]


def _parse_value(key, text):
    return int(text) if key in INT_KEYS else float(text)


def read_summaries(workload, out_dir):
    """Summaries the command wrote, one dict per run, restricted to SUMMARY_KEYS."""
    if workload.command == "run":
        found = {}
        with open(os.path.join(out_dir, "summary.txt")) as fh:
            for line in fh:
                if not line.strip():
                    break
                key, _, value = line.partition(":")
                if key in SUMMARY_KEYS:
                    found[key] = _parse_value(key, value.strip())
        return [found]
    with open(os.path.join(out_dir, "sweep.csv")) as fh:
        header = fh.readline().strip().split(",")
        rows = [dict(zip(header, line.strip().split(","))) for line in fh if line.strip()]
    return [{k: _parse_value(k, row[k]) for k in SUMMARY_KEYS} for row in rows]


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def summary_mismatches(got, want):
    """Human-readable differences between two lists of summaries."""
    if len(got) != len(want):
        return [f"{len(got)} runs, reference has {len(want)}"]
    problems = []
    for i, (g, w) in enumerate(zip(got, want)):
        for key in SUMMARY_KEYS:
            if key not in g:
                problems.append(f"run {i}: {key} missing")
            elif key in INT_KEYS:
                if g[key] != w[key]:
                    problems.append(f"run {i}: {key} = {g[key]}, reference {w[key]}")
            elif not abs(g[key] - w[key]) <= RTOL * abs(w[key]) + ATOL:
                problems.append(f"run {i}: {key} = {g[key]!r}, reference {w[key]!r}")
    return problems
