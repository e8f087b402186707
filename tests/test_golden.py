"""Golden telemetry: the first 0.5 s of each `configs/` scenario, pinned.

Each fixture under `tests/golden/` is the `telemetry.csv` that
`windquad run --config configs/<name>.ini --duration 0.5 --decimate 10`
writes.  The test re-runs the same command and compares every column at
RTOL/ATOL, so a refactor that reorders floating-point operations passes
and a change of behaviour does not.  A deliberate numerical change
regenerates the fixtures, in a commit of their own, with

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import numpy as np
import pytest

from windquad.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SCENARIOS = ("baseline", "synthetic", "wind_circle")
RUN_ARGS = ("--duration", "0.5", "--decimate", "10")
RTOL = 1e-9
ATOL = 1e-12


def run_scenario(name, out_dir):
    """Run one scenario through the CLI; returns the telemetry.csv path."""
    code = main(["run", "--config", str(ROOT / "configs" / f"{name}.ini"),
                 *RUN_ARGS, "--out", str(out_dir)])
    assert code == 0
    return Path(out_dir) / "telemetry.csv"


def load(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


@pytest.mark.parametrize("name", SCENARIOS)
def test_golden_telemetry(name, tmp_path):
    gold_header, gold = load(GOLDEN_DIR / f"{name}.csv")
    header, data = load(run_scenario(name, tmp_path))
    assert header == gold_header
    assert data.shape == gold.shape
    for j, column in enumerate(header):
        np.testing.assert_allclose(data[:, j], gold[:, j], rtol=RTOL, atol=ATOL,
                                   err_msg=f"{name}.csv column {column}")


if __name__ == "__main__":
    import shutil
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    for scenario in SCENARIOS:
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copyfile(run_scenario(scenario, tmp), GOLDEN_DIR / f"{scenario}.csv")
        print(f"wrote {GOLDEN_DIR / f'{scenario}.csv'}")
