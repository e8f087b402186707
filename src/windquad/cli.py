"""Command-line interface: run, validate-gains, sweep.

Exit codes: 0 success, 2 configuration or output-path error, 3 runtime abort.
"""

import argparse
import errno
import os
import sys

from .config import SCHEMA, load_config
from .errors import ParseError, SimulationAbort, ValidationError
from .sim import run_simulation, write_csv, write_summary, write_weights_csv
from .stability import build_pd_matrices, format_report


class _Override(argparse.Action):
    """A run flag that sets config keys: `sets` is the "section.key" that
    takes the flag's value, or maps the value to {(section, key): text}."""

    def __init__(self, *args, sets, **kwargs):
        super().__init__(*args, **kwargs)
        self.sets = sets if callable(sets) else lambda v: {tuple(sets.split(".")): str(v)}

    def __call__(self, parser, namespace, value, option_string=None):
        namespace.overrides = {**namespace.overrides, **self.sets(value)}


def _wind(text):
    # every [wind] key back at its default (kind none, still air) first, so
    # that the flag replaces a gust or sine wind of the file instead of
    # tripping on the keys that its own kind does not read
    calm = {("wind", key): default for key, (_, default, _) in SCHEMA["wind"].items()}
    if text.strip().lower() == "none":
        return calm
    return {**calm, ("wind", "kind"): "constant", ("wind", "base"): text}


def _gain_report(cfg):
    return build_pd_matrices(cfg.gains, cfg.get("quad", "mass"),
                             cfg.get("quad", "inertia"), cfg.assumptions)


def _out_paths(folder, *names):
    """The paths of `names` in `folder`, which is created first.  A name that
    is a directory fails now rather than after a run."""
    os.makedirs(folder, exist_ok=True)
    paths = [os.path.join(folder, name) for name in names]
    for path in paths:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    return paths


def cmd_run(args):
    cfg = load_config(args.config, overrides=args.overrides)
    ignored = cfg.ignored()
    for line in ignored:
        print(f"ignored: {line}", file=sys.stderr)
    report = _gain_report(cfg)
    if not report.feasible:
        print("warning: gain feasibility checks failed "
              "(see validate-gains for details)", file=sys.stderr)
        if args.strict:
            raise ValidationError("gain checks failed and --strict is set")

    paths = (_out_paths(args.out, "telemetry.csv", "summary.txt", "weights.csv")
             if args.out else None)
    try:
        result = run_simulation(cfg)
    except SimulationAbort as exc:
        if paths:
            csv_path, *finished_only = paths
            write_csv(exc.telemetry, csv_path)
            # an earlier run's summary and weights must not sit beside this
            # run's partial telemetry
            for path in finished_only:
                if os.path.exists(path):
                    os.remove(path)
        print(f"error: {exc}", file=sys.stderr)
        return 3

    if paths:
        csv_path, summary_path, weights_path = paths
        write_csv(result.telemetry, csv_path)
        write_summary(result.summary, summary_path, report_text=format_report(report),
                      ignored=ignored)
        write_weights_csv([("final_nn1", result.weights[0]),
                           ("final_nn2", result.weights[1])], weights_path)
    for key in ("rms_e_x", "max_e_x", "rms_e_x_tail", "settling_time",
                "max_psi", "final_V", "saturation_count"):
        print(f"{key}: {result.summary[key]}")
    return 0


def cmd_validate_gains(args):
    cfg = load_config(args.config)
    report = _gain_report(cfg)
    print(format_report(report))
    if args.strict and not report.feasible:
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

    # every value is validated before the first run, so a bad one costs none
    configs = [load_config(args.config, overrides={(section, key): raw}) for raw in values]
    for line in dict.fromkeys(line for cfg in configs for line in cfg.ignored()):
        print(f"ignored: {line}", file=sys.stderr)
    path = _out_paths(args.out, "sweep.csv")[0]
    rows = []
    for raw, cfg in zip(values, configs):
        row = {"param": f"{section}.{key}", "value": raw}
        try:
            row.update(run_simulation(cfg).summary, status="ok", abort_step="", reason="")
        except SimulationAbort as exc:
            print(f"error: {section}.{key} = {raw}: {exc}", file=sys.stderr)
            # the file is split on plain commas
            row.update(status="aborted", abort_step=exc.step,
                       reason=str(exc.reason).replace(",", ";"))
        rows.append(row)

    # an aborted run's row leaves the summary columns empty
    finished = [row for row in rows if row["status"] == "ok"]
    cols = list((finished or rows)[0])
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(str(row.get(c, "")) for c in cols) + "\n")
    print(f"wrote {path} ({len(rows)} runs)")
    return 0 if len(finished) == len(rows) else 3


def build_parser():
    p = argparse.ArgumentParser(prog="windquad",
                                description="quadrotor adaptive-control simulation")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one closed-loop simulation")
    run.add_argument("--config", default=None, help="config file (defaults apply if omitted)")
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--duration", type=float, action=_Override, sets="simulation.duration")
    run.add_argument("--dt", type=float, action=_Override, sets="simulation.dt")
    run.add_argument("--wind", action=_Override, sets=_wind,
                     help="'none' or 'vx,vy,vz' constant wind")
    run.add_argument("--adaptation", choices=("on", "off"), action=_Override,
                     sets="simulation.adaptation")
    run.add_argument("--plant", choices=("full", "simplified", "synthetic"), action=_Override,
                     sets=lambda p: {("simulation", "plant"): "full_aero" if p == "full" else p})
    run.add_argument("--seed", type=int, action=_Override, sets="simulation.seed")
    run.add_argument("--decimate", type=int, action=_Override, sets="simulation.decimate")
    run.add_argument("--strict", action="store_true",
                     help="treat failed gain checks as a configuration error")
    run.set_defaults(func=cmd_run, overrides={})

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
