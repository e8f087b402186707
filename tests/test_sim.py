import math

import numpy as np
import pytest

import windquad.sim
from windquad.config import load_config
from windquad.errors import NoConvergence, RotorStopped, SimulationAbort
from windquad.scenarios import TrajectoryPoint
from windquad.sim import (COLUMNS, FIELDS, read_csv, run_simulation,
                          summarize, write_csv, write_summary,
                          write_weights_csv)
from windquad.adaptive import NNWeights


def fake_telemetry(t, e_x_norm):
    """Telemetry rows at times t with e_x = (e_x_norm, 0, 0), R = I, unit
    rotor speeds and every other column zero."""
    tel = np.zeros((len(t), len(COLUMNS)))
    tel[:, FIELDS["t"]] = t
    tel[:, FIELDS["e_x"].start] = e_x_norm
    tel[:, FIELDS["R"]] = np.eye(3).reshape(-1)
    tel[:, FIELDS["omegas"]] = 1.0
    return tel


# --- closed-loop behavior ------------------------------------------------------

def test_hover_converges():
    cfg = load_config(overrides={
        ("simulation", "duration"): "5",
        ("simulation", "adaptation"): "off",
        ("initial", "x"): "0.3 -0.2 0.1",
    })
    res = run_simulation(cfg)
    final_ex = np.linalg.norm(res.telemetry[-1, FIELDS["e_x"]])
    assert final_ex <= 1e-3
    # transient clips are flagged but do not affect the simplified plant
    assert res.summary["saturation_count"] < 50


def test_determinism_bitwise(tmp_path):
    files = []
    for tag in ("a", "b"):
        cfg = load_config(overrides={
            ("simulation", "duration"): "1",
            ("simulation", "plant"): "synthetic",
            ("simulation", "seed"): "123",
        })
        res = run_simulation(cfg)
        path = tmp_path / f"{tag}.csv"
        write_csv(res.telemetry, str(path))
        files.append(path.read_bytes())
    assert files[0] == files[1]


def test_seed_changes_synthetic_run():
    outs = []
    for seed in ("1", "2"):
        cfg = load_config(overrides={
            ("simulation", "duration"): "0.5",
            ("simulation", "plant"): "synthetic",
            ("simulation", "seed"): seed,
        })
        outs.append(run_simulation(cfg).telemetry[-1, FIELDS["e_x"]])
    assert not np.allclose(outs[0], outs[1])


def test_default_run_deterministic_bytes(tmp_path):
    blobs = []
    for tag in ("a", "b"):
        cfg = load_config(overrides={("simulation", "duration"): "0.5"})
        res = run_simulation(cfg)
        path = tmp_path / f"{tag}.csv"
        write_csv(res.telemetry, str(path))
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_step_gust_run_stays_bounded():
    # gust onset is the one permitted discontinuity; the loop must ride it out
    cfg = load_config(overrides={
        ("simulation", "plant"): "full_aero",
        ("simulation", "duration"): "4",
        ("simulation", "dt"): "0.002",
        ("quad", "mass"): "1.2",
        ("quad", "inertia"): "0.01 0.01 0.018",
        ("quad", "d_h"): "0.2",
        ("aero", "r_p"): "0.1",
        ("aero", "c_d"): "0.02",
        ("simplified", "calibrate"): "on",
        ("wind", "kind"): "step_gust",
        ("wind", "base"): "1 0 0",
        ("wind", "amplitude"): "2.0",
        ("wind", "onset"): "1.0",
        ("wind", "direction"): "0 1 0",
        ("gains", "k_x"): "4", ("gains", "k_v"): "3",
        ("gains", "k_r"): "3", ("gains", "k_omega"): "0.45",
    })
    res = run_simulation(cfg)
    assert res.summary["max_e_x"] < 0.5
    assert res.summary["max_psi"] < 0.5


def test_plant_mode_equivalence():
    # full-aero with zero wind, no flapping, no drag, calibrated coefficients
    # must match the simplified plant at hover to command level
    common = {
        ("simulation", "duration"): "1",
        ("simulation", "adaptation"): "off",
        ("simplified", "calibrate"): "on",
        ("aero", "c_alpha"): "0",
        ("aero", "c_d"): "0",
        ("wind", "kind"): "none",
    }
    runs = {}
    for mode in ("simplified", "full_aero"):
        cfg = load_config(overrides={**common, ("simulation", "plant"): mode})
        runs[mode] = run_simulation(cfg).telemetry
    for r_simp, r_aero in zip(runs["simplified"], runs["full_aero"]):
        for field in ("f", "thrusts", "M_c"):
            assert np.all(np.abs(r_simp[FIELDS[field]] - r_aero[FIELDS[field]]) < 1e-6)


def test_abort_on_degenerate_thrust():
    # zero gravity at perfect hover: the acceleration command vanishes
    cfg = load_config(overrides={
        ("simulation", "duration"): "1",
        ("quad", "gravity"): "0",
    })
    with pytest.raises(SimulationAbort) as err:
        run_simulation(cfg)
    assert err.value.step == 0
    assert "degenerac" in err.value.reason
    assert err.value.telemetry.shape == (0, len(COLUMNS))


def test_abort_on_non_finite_weights():
    # a learning rate this large overflows the first nn1 outer-layer update
    cfg = load_config(overrides={
        ("simulation", "duration"): "0.05",
        ("initial", "x"): "3 0 0",
        ("nn1", "gamma_w"): "1e308",
    })
    with np.errstate(over="ignore"), pytest.raises(SimulationAbort) as err:
        run_simulation(cfg)
    assert err.value.step == 0
    assert err.value.reason.startswith("adaptation failure: nn1.W has Frobenius norm")


# Abort paths that no config input reaches are triggered at step ABORT_STEP
# by patching a lookup site in windquad.sim.  ABORT_STEP is a multiple of
# DECIMATE, so the partial telemetry tells a plant-side abort (the step was
# recorded: ABORT_STEP // DECIMATE + 1 rows) from a controller-side abort
# (it was not: ceil(ABORT_STEP / DECIMATE) rows).
ABORT_STEP, DECIMATE, DT = 6, 3, 1e-3


def short_run_config(plant):
    return load_config(overrides={
        ("simulation", "plant"): plant,
        ("simulation", "duration"): "0.02",
        ("simulation", "dt"): str(DT),
        ("simulation", "decimate"): str(DECIMATE),
    })


def fault_at_abort_step(monkeypatch, fault):
    """Pass every plant-wrench value of step ABORT_STEP through `fault`."""
    step_rk4 = windquad.sim.step_rk4

    def patched(state, dt, wrench, params, t):
        if round(t / dt) == ABORT_STEP:
            plant = wrench
            wrench = lambda ts, s: fault(*plant(ts, s))
        return step_rk4(state, dt, wrench, params, t)

    monkeypatch.setattr(windquad.sim, "step_rk4", patched)


def abort_of(cfg):
    with pytest.raises(SimulationAbort) as err:
        run_simulation(cfg)
    assert err.value.step == ABORT_STEP
    return err.value


def assert_partial_telemetry(err, rows):
    assert err.telemetry.shape == (rows, len(COLUMNS))
    assert np.allclose(err.telemetry[:, FIELDS["t"]], DT * DECIMATE * np.arange(rows))


@pytest.mark.parametrize("exc", [RotorStopped("rotor 2 speed 0.5 rad/s below floor 1"),
                                 NoConvergence("bisection fallback stalled")])
def test_abort_on_plant_failure(monkeypatch, exc):
    def fault(U_e, M_e):
        raise exc

    fault_at_abort_step(monkeypatch, fault)
    err = abort_of(short_run_config("full_aero"))
    assert err.reason == f"plant failure: {exc}"
    assert_partial_telemetry(err, ABORT_STEP // DECIMATE + 1)


def test_abort_on_non_finite_state(monkeypatch):
    # a NaN force reaches v and, through the later RK4 stages, x; the
    # rotation and body rates stay finite, and x is checked first
    fault_at_abort_step(monkeypatch, lambda U_e, M_e: (U_e * np.nan, M_e))
    err = abort_of(short_run_config("simplified"))
    assert err.reason == "non-finite state component x"
    assert_partial_telemetry(err, ABORT_STEP // DECIMATE + 1)


def test_abort_on_degenerate_heading(monkeypatch):
    # at rest in hover the thrust axis is e3; from ABORT_STEP on the desired
    # heading is e3 as well
    trajectory_at = windquad.sim.trajectory_at

    def patched(gen, t):
        traj = trajectory_at(gen, t)
        if round(t / DT) < ABORT_STEP:
            return traj
        return TrajectoryPoint(traj.x_d, traj.v_d, traj.a_d,
                               b1_d=[0.0, 0.0, 1.0], b1_d_dot=np.zeros(3))

    monkeypatch.setattr(windquad.sim, "trajectory_at", patched)
    err = abort_of(short_run_config("simplified"))
    assert err.reason == "controller degeneracy: heading parallel to thrust axis"
    assert_partial_telemetry(err, math.ceil(ABORT_STEP / DECIMATE))


def test_decimation():
    cfg = load_config(overrides={
        ("simulation", "duration"): "0.1",
        ("simulation", "decimate"): "10",
    })
    res = run_simulation(cfg)
    assert len(res.telemetry) == 10


def decimated_run(plant, decimate):
    return run_simulation(load_config(overrides={
        ("simulation", "plant"): plant,
        ("simulation", "duration"): "0.2",
        ("simulation", "decimate"): str(decimate),
    }))


@pytest.mark.parametrize("plant", ["synthetic", "full_aero"])
def test_decimation_keeps_recorded_rows(plant):
    # a recorded row holds what that step computed, whatever the decimation
    every = decimated_run(plant, 1)
    sparse = decimated_run(plant, 7)
    assert np.array_equal(sparse.telemetry, every.telemetry[::7])
    if plant == "synthetic":
        assert np.array_equal(sparse.nn_error_sq, every.nn_error_sq[::7])


def test_lyapunov_only_on_recorded_steps(monkeypatch):
    calls = []
    lyapunov_value = windquad.sim.lyapunov_value

    def counted(*args, **kwargs):
        calls.append(None)
        return lyapunov_value(*args, **kwargs)

    monkeypatch.setattr(windquad.sim, "lyapunov_value", counted)
    res = run_simulation(load_config(overrides={
        ("simulation", "duration"): str(20 * DT),
        ("simulation", "dt"): str(DT),
        ("simulation", "decimate"): "5",
    }))
    assert len(res.telemetry) == 4
    assert len(calls) == 4


def test_wind_sampled_once_per_stage_time(monkeypatch):
    # RK4 stages 2 and 3 share t + dt/2: three samples per step, plus one
    # for the wind column of each recorded step
    times = []
    wind_at = windquad.sim.wind_at

    def counted(field_, t):
        times.append(t)
        return wind_at(field_, t)

    monkeypatch.setattr(windquad.sim, "wind_at", counted)
    res = run_simulation(load_config(overrides={
        ("simulation", "plant"): "full_aero",
        ("simulation", "duration"): str(20 * DT),
        ("simulation", "dt"): str(DT),
        ("simulation", "decimate"): "5",
        ("wind", "kind"): "sinusoidal",
        ("wind", "amplitude"): "2.0",
        ("wind", "frequency"): "3.0",
    }))
    assert len(res.telemetry) == 4
    assert len(times) == 3 * 20 + 4


# --- telemetry files -------------------------------------------------------------

def test_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv([], str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].split(",") == COLUMNS
    header, data = read_csv(str(path))
    assert header == COLUMNS
    assert data.shape == (0, len(COLUMNS))


def test_csv_roundtrip(tmp_path):
    cfg = load_config(overrides={("simulation", "duration"): "0.05"})
    res = run_simulation(cfg)
    path = tmp_path / "t.csv"
    write_csv(res.telemetry, str(path))
    header, data = read_csv(str(path))
    assert header == COLUMNS
    assert data.shape == (len(res.telemetry), len(COLUMNS))
    for orig, row in zip(res.telemetry, data):
        scale = np.maximum(np.abs(orig), 1.0)
        assert np.all(np.abs(orig - row) <= 1e-11 * scale)


def test_csv_column_count_documented():
    assert len(COLUMNS) == 67


# --- summary metrics --------------------------------------------------------------

def test_summary_constant_error():
    tel = fake_telemetry(0.01 * np.arange(100), 1.0)
    s = summarize(tel)
    assert s["rms_e_x"] == pytest.approx(1.0)
    assert s["max_e_x"] == pytest.approx(1.0)
    assert s["settling_time"] == math.inf


def test_summary_zero_error():
    tel = fake_telemetry(0.01 * np.arange(100), 0.0)
    s = summarize(tel)
    assert s["rms_e_x"] == 0.0 and s["max_e_x"] == 0.0
    assert s["settling_time"] == 0.0


def test_summary_settling_matches_analytic_crossing():
    dt = 0.01
    tau = 0.5
    band = 0.05
    t = dt * np.arange(600)
    tel = fake_telemetry(t, np.exp(-t / tau))
    s = summarize(tel, band=band)
    t_cross = -tau * math.log(band)
    assert abs(s["settling_time"] - t_cross) <= dt


def test_summary_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


def test_summary_file(tmp_path):
    s = summarize(fake_telemetry([0.0, 0.01], [0.5, 0.25]))
    path = tmp_path / "summary.txt"
    write_summary(s, str(path), report_text="nu: 1")
    text = path.read_text()
    assert "rms_e_x:" in text and "# stability report" in text


def test_weights_sidecar(tmp_path):
    nn = NNWeights.zeros(n_in=2, n_hidden=2, n_out=1)
    nn.W[0, 0] = 1.5
    path = tmp_path / "w.csv"
    write_weights_csv([("final_nn1", nn)], str(path))
    text = path.read_text()
    assert "final_nn1" in text
    assert "W 3x1 row-major" in text
    row = text.splitlines()[1].split(",")
    assert float(row[1]) == 1.5
    assert len(row) == 1 + nn.W.size + nn.V.size
