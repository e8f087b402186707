"""Record reference summaries for every workload and input variant.

Usage (from the checkout root): python3 perfbench/record_reference.py

Runs each workload's command once per variant and writes reference.json.
The committed file was recorded on the commit that added the benchmark;
re-record only for a deliberate change of behaviour, in its own commit.
"""

import json
import os
import shutil
import subprocess
import sys

import workloads
from run import BLAS_ENV, CHILD, ROOT, WORK_ROOT


def main():
    workdir = os.path.join(WORK_ROOT, f"reference-{os.getpid()}")
    os.makedirs(workdir)
    env = dict(os.environ, **BLAS_ENV)
    reference = {"keys": list(workloads.SUMMARY_KEYS), "workloads": {}}
    try:
        for workload in workloads.WORKLOADS.values():
            per_variant = reference["workloads"][workload.name] = {}
            for variant in range(workloads.N_VARIANTS):
                config = os.path.join(workdir, "config.ini")
                out_dir = os.path.join(workdir, f"{workload.name}-{variant}")
                workloads.write_config(workload, variant, ROOT, config)
                argv = workloads.cli_argv(workload, variant, config, out_dir)
                subprocess.run([sys.executable, CHILD, os.path.join(workdir, "result.json"),
                                "0", "--", *argv], cwd=ROOT, env=env, check=True)
                per_variant[str(variant)] = workloads.read_summaries(workload, out_dir)
                print(workload.name, variant, per_variant[str(variant)][0], flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
