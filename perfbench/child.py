"""Run one windquad CLI command in this fresh interpreter.

Usage: python3 perfbench/child.py RESULT_JSON TRACE -- CLI_ARGS...

Imports `windquad` from the checkout's `src/`, calls `windquad.cli.main`
with CLI_ARGS and writes RESULT_JSON: the exit code, the monotonic-clock
entry and exit of every `run_simulation` call and the simulated seconds of
each run.  With TRACE = 1 it also wraps the layer functions in
`tracing.SITES` and writes their spans.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    result_path, trace, sep, *cli_args = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit(__doc__)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy
    import windquad
    from windquad import cli

    from tracing import LAYERS, Tracer

    result = {"rc": None, "runs": [], "windquad_file": windquad.__file__,
              "numpy": numpy.__version__}
    tracer = Tracer() if trace == "1" else None
    if tracer is not None:
        tracer.install()
    traced_run = cli.run_simulation

    def run_simulation(config):
        enter = time.monotonic()
        try:
            return traced_run(config)
        finally:
            n_steps = int(round(config.get("simulation", "duration")
                                / config.get("simulation", "dt")))
            result["runs"].append({"enter": enter, "exit": time.monotonic(),
                                   "steps": n_steps,
                                   "sim_s": n_steps * config.get("simulation", "dt")})

    cli.run_simulation = run_simulation
    try:
        result["rc"] = cli.main(cli_args)
    finally:
        cli.run_simulation = traced_run
        if tracer is not None:
            tracer.restore()
            result["layers"] = LAYERS
            result["spans"] = tracer.spans
            result["csv_rows"] = tracer.csv_rows
        with open(result_path, "w") as fh:
            json.dump(result, fh)
    return result["rc"]


if __name__ == "__main__":
    sys.exit(main())
