"""Command-line interface: run, validate-gains, sweep.

Exit codes: 0 success, 2 configuration or output-path error, 3 runtime abort.
"""

import argparse
import os
import sys

from .config import load_config
from .errors import ParseError, SimulationAbort, ValidationError
from .sim import run_simulation, write_csv, write_summary, write_weights_csv
from .stability import build_pd_matrices, format_report


def _run_overrides(args):
    ov = {}
    if args.duration is not None:
        ov[("simulation", "duration")] = str(args.duration)
    if args.dt is not None:
        ov[("simulation", "dt")] = str(args.dt)
    if args.adaptation is not None:
        ov[("simulation", "adaptation")] = args.adaptation
    if args.plant is not None:
        mode = {"full": "full_aero"}.get(args.plant, args.plant)
        ov[("simulation", "plant")] = mode
    if args.seed is not None:
        ov[("simulation", "seed")] = str(args.seed)
    if args.decimate is not None:
        ov[("simulation", "decimate")] = str(args.decimate)
    if args.wind is not None:
        if args.wind.strip().lower() == "none":
            ov[("wind", "kind")] = "none"
        else:
            ov[("wind", "kind")] = "constant"
            ov[("wind", "base")] = args.wind
    return ov


def _gain_report(cfg):
    return build_pd_matrices(cfg.gains(), cfg.get("quad", "mass"),
                             cfg.get("quad", "inertia"), cfg.assumptions())


def cmd_run(args):
    cfg = load_config(args.config, overrides=_run_overrides(args))
    report = _gain_report(cfg)
    ok = (report.c1_check.passed and report.c2_check.passed
          and report.all_positive_definite)
    if not ok:
        print("warning: gain feasibility checks failed "
              "(see validate-gains for details)", file=sys.stderr)
        if args.strict:
            raise ValidationError("gain checks failed and --strict is set")

    # --out names a directory for all three files, created before the run;
    # otherwise [output] gives each path, and an empty one skips that file
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        paths = [os.path.join(args.out, name)
                 for name in ("telemetry.csv", "summary.txt", "weights.csv")]
    else:
        paths = [cfg.get("output", key) for key in ("csv", "summary", "weights")]
    csv_path, summary_path, weights_path = paths

    try:
        result = run_simulation(cfg)
        telemetry, summary = result.telemetry, result.summary
        aborted = None
    except SimulationAbort as exc:
        telemetry, summary, aborted = exc.telemetry, None, exc

    if csv_path:
        write_csv(telemetry, csv_path)
    if summary is not None and summary_path:
        write_summary(summary, summary_path, report_text=format_report(report))
    if aborted is None and weights_path:
        write_weights_csv([("final_nn1", result.weights[0]),
                           ("final_nn2", result.weights[1])], weights_path)

    if aborted is not None:
        print(f"error: {aborted}", file=sys.stderr)
        return 3

    for key in ("rms_e_x", "max_e_x", "rms_e_x_tail", "settling_time",
                "max_psi", "final_V", "saturation_count"):
        print(f"{key}: {summary[key]}")
    return 0


def cmd_validate_gains(args):
    cfg = load_config(args.config)
    report = _gain_report(cfg)
    print(format_report(report))
    ok = (report.c1_check.passed and report.c2_check.passed
          and report.all_positive_definite)
    if args.strict and not ok:
        return 2
    return 0


def cmd_sweep(args):
    try:
        section, key = args.param.split(".", 1)
    except ValueError:
        raise ParseError("--param must look like section.key")
    values = [v for v in args.values.split(",") if v.strip()]
    if not values:
        raise ParseError("--values is empty")

    os.makedirs(args.out, exist_ok=True)
    rows = []
    for raw in values:
        cfg = load_config(args.config, overrides={(section, key): raw})
        result = run_simulation(cfg)
        row = {"param": f"{section}.{key}", "value": raw}
        row.update(result.summary)
        rows.append(row)

    path = os.path.join(args.out, "sweep.csv")
    with open(path, "w") as fh:
        cols = list(rows[0].keys())
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in cols) + "\n")
    print(f"wrote {path} ({len(rows)} runs)")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="windquad",
                                description="quadrotor adaptive-control simulation")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one closed-loop simulation")
    run.add_argument("--config", default=None, help="config file (defaults apply if omitted)")
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--duration", type=float, default=None)
    run.add_argument("--dt", type=float, default=None)
    run.add_argument("--wind", default=None, help="'none' or 'vx,vy,vz' constant wind")
    run.add_argument("--adaptation", choices=("on", "off"), default=None)
    run.add_argument("--plant", choices=("full", "simplified", "synthetic"), default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--decimate", type=int, default=None)
    run.add_argument("--strict", action="store_true",
                     help="treat failed gain checks as a configuration error")
    run.set_defaults(func=cmd_run)

    vg = sub.add_parser("validate-gains", help="print the stability report")
    vg.add_argument("--config", default=None)
    vg.add_argument("--strict", action="store_true")
    vg.set_defaults(func=cmd_validate_gains)

    sw = sub.add_parser("sweep", help="grid over one parameter")
    sw.add_argument("--config", default=None)
    sw.add_argument("--param", required=True, help="section.key to vary")
    sw.add_argument("--values", required=True, help="comma-separated values")
    sw.add_argument("--out", required=True)
    sw.set_defaults(func=cmd_sweep)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SimulationAbort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # an output directory or file that cannot be created
        print(f"output error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
