import configparser
import cProfile
import dataclasses
import math
import pstats
import re
import types
from pathlib import Path

import numpy as np
import pytest

import windquad.aero
import windquad.sim
from windquad.config import load_config
from windquad.errors import NoConvergence, RotorStopped, SimulationAbort
from windquad.layout import OUTPUT, STATE
from windquad.scenarios import TrajectoryPoint
from windquad.sim import (COLUMNS, FIELDS, run_simulation, summarize,
                          write_csv, write_summary, write_weights_csv)
from windquad.stability import lyapunov_value
from windquad.adaptive import NNWeights

from oracles import pack_state, read_csv

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
#: the recorded errors that the Lyapunov columns are evaluated from
LYAPUNOV_ERRORS = ("e_x", "e_v", "e_R", "e_Omega", "psi")


def same_bits(a, b):
    """True when a and b hold the same float64 bits: NaN payloads and the
    sign of zero count."""
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


def row_lyapunov(cfg, row):
    """The scalar (V1, V2, V) of one telemetry row's error blocks, without
    weight terms, in Python float arithmetic (which overflows to inf
    without a numpy warning), as the controller output holds them."""
    return lyapunov_value(*(row[FIELDS[name]].tolist() for name in LYAPUNOV_ERRORS),
                          cfg.gains, cfg.quad.m, cfg.quad.J_rows)


def has_scalar_lyapunov(cfg, rows):
    """True when every row's V1, V2 and V columns hold the bits of its
    scalar row_lyapunov."""
    return all(same_bits([row[FIELDS[name]] for name in ("V1", "V2", "V")],
                         row_lyapunov(cfg, row)) for row in rows)


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


def offset_hover_config(tmp_path):
    """configs/wind_circle.ini's vehicle, gains, full_aero plant and
    calibration hovering at the origin from a 2 m offset at rest, in still
    air, with adaptation off, for 1 s."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    parser.read(CONFIGS / "wind_circle.ini", encoding="utf-8")
    # a key or section that nothing reads is an error, so the circle's keys
    # and the wind go
    parser.remove_section("wind")
    for key in ("radius", "omega", "heading"):
        parser.remove_option("trajectory", key)
    parser["trajectory"]["kind"] = "hover"
    parser["initial"]["v"] = "0 0 0"
    parser["simulation"].update(adaptation="off", duration="1")
    path = tmp_path / "offset_hover.ini"
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return path


def test_offset_hover_is_lost_as_dt_shrinks(tmp_path):
    # a smaller step should only make the run more accurate, but the pure
    # geometric controller holds this start at dt 1e-3 and loses it at
    # dt 5e-4, 25 steps in (and at dt 2.5e-4, 28 steps in); a known defect,
    # pinned at the measured points until the computed-attitude rates are
    # exact
    path = offset_hover_config(tmp_path)
    held = run_simulation(load_config(path, overrides={("simulation", "dt"): "1e-3"}))
    assert len(held.telemetry) == 1000
    lost = load_config(path, overrides={("simulation", "dt"): "5e-4"})
    with pytest.raises(SimulationAbort) as err:
        run_simulation(lost)
    assert err.value.step == 25
    assert err.value.reason.startswith("plant failure: rotor 1 no sign change")
    # steps 0 to 25 were recorded, and their Lyapunov columns are filled
    # before the partial telemetry is attached
    assert len(err.value.telemetry) == 26
    assert has_scalar_lyapunov(lost, err.value.telemetry)


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
            wrench = lambda ts, *stage: fault(*plant(ts, *stage))
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


def test_abort_on_inflow_solve_failure_names_rotor_and_advance_ratios():
    # this climbing circle diverges (thrust commands reach 7e4 N) until an
    # inflow solve finds no root on [0, 1]; the reason names the rotor and
    # the advance ratios the solve was given
    cfg = load_config(overrides={
        ("simulation", "plant"): "full_aero",
        ("simulation", "duration"): "0.02",
        ("trajectory", "kind"): "circle",
        ("trajectory", "radius"): "0.5",
        ("trajectory", "omega"): "1",
        ("trajectory", "heading"): "fixed",
        ("trajectory", "v_z"): "0.1",
    })
    with pytest.raises(SimulationAbort) as err:
        run_simulation(cfg)
    assert err.value.step == 13
    match = re.fullmatch(r"plant failure: rotor [1-4] no sign change on \[0, 1\] "
                         r"at mu_x = (\S+), mu_z = (\S+)", err.value.reason)
    assert match, err.value.reason
    assert all(math.isfinite(float(mu)) for mu in match.groups())


def test_abort_on_non_finite_state(monkeypatch):
    # a NaN force reaches v and, through the later RK4 stages, x; the
    # rotation and body rates stay finite, and x is checked first
    fault_at_abort_step(monkeypatch, lambda U_e, M_e: ([u * np.nan for u in U_e], M_e))
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
                               b1_d=np.array([0.0, 0.0, 1.0]), b1_d_dot=np.zeros(3))

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


@pytest.mark.parametrize("plant", ["simplified", "synthetic", "full_aero"])
def test_plant_wrench_takes_floats(monkeypatch, plant):
    # run_simulation hands the plant wrench the stage, the commands, the
    # disturbances and the wind as Python floats
    def is_floats(value):
        return all(is_floats(a) if isinstance(a, (list, tuple)) else type(a) is float
                   for a in value)

    calls = []
    for name in ("simplified_wrench", "resultant_wrench"):
        wrench = getattr(windquad.sim, name)

        def recording(*args, wrench=wrench, **kwargs):
            # every argument but the parameter objects
            values = [a for a in (*args, *kwargs.values()) if not dataclasses.is_dataclass(a)]
            calls.append(is_floats(values))
            return wrench(*args, **kwargs)

        monkeypatch.setattr(windquad.sim, name, recording)
    run_simulation(short_run_config(plant))
    assert len(calls) == 4 * round(0.02 / DT)
    assert all(calls)


@pytest.mark.parametrize("overrides, left_out", [
    ({}, True),
    ({"delta2_amp": "0 0 0.05", "delta2_freq": "3"}, False),
    # a constant -0.0 makes the delta -0.0 at some times, and u - (-0.0)
    # turns a -0.0 u into +0.0
    ({"delta1": "-0 0 0"}, False),
], ids=["defaults", "delta2_amp", "negative-zero"])
def test_zero_disturbance_is_left_out(overrides, left_out):
    cfg = load_config(overrides={("disturbance", key): value
                                 for key, value in overrides.items()})
    assert (windquad.sim._injected_delta(cfg) is None) == left_out


@pytest.mark.parametrize("plant", ["simplified", "synthetic"])
def test_lyapunov_once_per_run(monkeypatch, plant):
    # the Lyapunov columns are evaluated after the loop, in one call over
    # the recorded rows: its errors are the rows' error blocks, transposed,
    # and its values are the rows' V columns.  On the synthetic plant each
    # network's weight terms are columns too, and they sum to nn_error_sq
    calls = []
    lyapunov = windquad.sim.lyapunov_value

    def recording(*args, **kwargs):
        values = lyapunov(*args, **kwargs)
        calls.append((args[:5], kwargs["weight_sq"], values))
        return values

    monkeypatch.setattr(windquad.sim, "lyapunov_value", recording)
    res = run_simulation(load_config(overrides={
        ("simulation", "plant"): plant,
        ("simulation", "duration"): str(20 * DT),
        ("simulation", "dt"): str(DT),
        ("simulation", "decimate"): "5",
    }))
    assert len(res.telemetry) == 4
    (errors, weight_sq, values), = calls
    for name, columns in zip(LYAPUNOV_ERRORS, errors):
        assert same_bits(np.transpose(columns), res.telemetry[:, FIELDS[name]]), name
    for name, column in zip(("V1", "V2", "V"), values):
        assert same_bits(column, res.telemetry[:, FIELDS[name]]), name
    if plant == "synthetic":
        assert np.shape(weight_sq) == (2, 2, 4)
        assert same_bits(np.sum(weight_sq, axis=1).T, res.nn_error_sq)
    else:
        assert weight_sq is None and res.nn_error_sq is None


def test_abort_fills_the_lyapunov_columns():
    # the spin overflows the first RK4 step, after the step's row is
    # recorded: the abort fills that row's Lyapunov columns before it
    # attaches the partial telemetry, and the overflow of V2 to inf, as
    # in the scalar value, raises no numpy warning (an error under pytest)
    cfg = load_config(CONFIGS / "baseline.ini", overrides={("initial", "Omega"): "1e156 0 0"})
    with pytest.raises(SimulationAbort) as err:
        run_simulation(cfg)
    assert err.value.step == 0
    assert err.value.reason.startswith("non-finite state component R")
    (row,) = err.value.telemetry
    assert row[FIELDS["V1"]] == 4.5
    assert row[FIELDS["V2"]] == row[FIELDS["V"]] == math.inf
    assert has_scalar_lyapunov(cfg, err.value.telemetry)


def test_wind_sampled_once_per_stage_time(monkeypatch):
    # one sample per distinct RK4 stage time of the run, plus one for the
    # wind column of each recorded step: stages 2 and 3 share t + dt/2, and
    # a step's last stage t + dt is the next step's first where it rounds
    # to (k + 1) dt
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
    stage_times = {k * DT + s for k in range(20) for s in (0.0, 0.5 * DT, DT)}
    row_times = [k * DT for k in range(0, 20, 5)]
    assert sorted(times) == sorted([*stage_times, *row_times])
    assert len(times) == len(stage_times) + 4 < 3 * 20 + 4


@pytest.mark.parametrize("plant", ["simplified", "synthetic", "full_aero"])
def test_one_wrench_per_run(monkeypatch, plant):
    # the plant is picked once: every step_rk4 call of a run gets the same
    # wrench function, which reads the step's command.  The objects are kept,
    # so that a freed closure's id cannot be reused by the next one
    wrenches = []
    step_rk4 = windquad.sim.step_rk4

    def recording(state, dt, wrench_fn, params, t=0.0):
        wrenches.append(wrench_fn)
        return step_rk4(state, dt, wrench_fn, params, t)

    monkeypatch.setattr(windquad.sim, "step_rk4", recording)
    run_simulation(load_config(overrides={("simulation", "plant"): plant,
                                          ("simulation", "duration"): str(10 * DT),
                                          ("simulation", "dt"): str(DT)}))
    assert len(wrenches) == 10
    assert all(w is wrenches[0] for w in wrenches)


@pytest.mark.parametrize("name", ["baseline", "synthetic", "wind_circle"])
def test_telemetry_blocks_equal_their_sources(monkeypatch, name):
    # each row is packed in one write and its Lyapunov columns are filled
    # over all rows at the end: every block, read through FIELDS, must be
    # bitwise what its source returned at that step, and V1, V2 and V the
    # scalar lyapunov_value of the step's errors, with the four squared
    # weight errors taken before the step on the synthetic plant
    sources = {"step": [], "traj": [], "out": [], "sq": [], "wind": {}}

    def recorder(key, fn):
        def recording(*args, **kwargs):
            value = fn(*args, **kwargs)
            sources[key].append(value)
            return value
        return recording

    def wind_at(field_, t, fn=windquad.sim.wind_at):
        sources["wind"][t] = value = fn(field_, t)
        return value

    def squared_distance(target, estimate, fn=windquad.sim._squared_distance):
        # keyed by the target block, which the run never updates
        value = fn(target, estimate)
        sources["sq"].append((target, value))
        return value

    for key, attr in (("step", "step_rk4"), ("traj", "trajectory_at")):
        monkeypatch.setattr(windquad.sim, attr, recorder(key, getattr(windquad.sim, attr)))
    monkeypatch.setattr(windquad.sim, "wind_at", wind_at)
    monkeypatch.setattr(windquad.sim, "_squared_distance", squared_distance)
    step = windquad.sim.GeometricAdaptiveController.step
    monkeypatch.setattr(windquad.sim.GeometricAdaptiveController, "step",
                        lambda ctrl, *args: recorder("out", step)(ctrl, *args))
    cfg = load_config(CONFIGS / f"{name}.ini", overrides={
        ("simulation", "duration"): "0.05", ("simulation", "decimate"): "3"})
    res = run_simulation(cfg)
    dt = cfg.get("simulation", "dt")
    # the carried float states, packed as the test's own reference
    states = [pack_state(*state) for state in (cfg.initial_state, *sources["step"])]
    checked = set()
    synthetic = name == "synthetic"
    assert len(res.telemetry) == math.ceil(len(sources["out"]) / 3)
    assert len(sources["sq"]) == (4 * len(res.telemetry) if synthetic else 0)
    for j, row in enumerate(res.telemetry):
        k = 3 * j
        t = k * dt
        out = sources["out"][k]
        blocks = {"t": t, "x_d": sources["traj"][k].x_d, "v_w": sources["wind"][t]}
        blocks.update((field, states[k][cols]) for field, cols in STATE.items())
        blocks.update((field, out[cols]) for field, cols in OUTPUT.items())
        weight_sq = None
        if synthetic:
            taken = {id(target): value for target, value in sources["sq"][4 * j:4 * j + 4]}
            W1, V1, W2, V2 = (taken[id(target)] for net in res.targets for target in (net.W, net.V))
            weight_sq = (W1, V1), (W2, V2)
            assert same_bits(res.nn_error_sq[j], [W1 + V1, W2 + V2]), j
        blocks.update(zip(("V1", "V2", "V"), lyapunov_value(
            *(out[OUTPUT[error]] for error in LYAPUNOV_ERRORS),
            cfg.gains, cfg.quad.m, cfg.quad.J_rows, weight_sq=weight_sq)))
        for field, value in blocks.items():
            assert same_bits(row[FIELDS[field]], value), (j, field)
        checked.update(blocks)
    assert checked == set(FIELDS)


def test_warm_start_inflow_evaluations_per_solve(monkeypatch):
    # each rotor's solve starts from its last inflow (carried across RK4
    # stages and steps), which cuts the residual evaluations per solve from
    # 5.0 (cold start from the hover guess) to about 2.75 on this scenario.
    # The solve writes its residual inline with one sqrt each, so the
    # sqrt calls made inside a solve count its residual evaluations
    counts = {"solves": 0, "residuals": 0}
    solve = windquad.aero.solve_thrust_inflow
    solving = [False]

    def counted_solve(*args):
        counts["solves"] += 1
        solving[0] = True
        try:
            return solve(*args)
        finally:
            solving[0] = False

    def counted_sqrt(x):
        counts["residuals"] += solving[0]
        return math.sqrt(x)

    counting_math = types.SimpleNamespace(**vars(math))
    counting_math.sqrt = counted_sqrt
    monkeypatch.setattr(windquad.aero, "solve_thrust_inflow", counted_solve)
    monkeypatch.setattr(windquad.aero, "math", counting_math)
    cfg = load_config(CONFIGS / "wind_circle.ini", {("simulation", "duration"): "0.5"})
    run_simulation(cfg)
    steps = round(0.5 / cfg.get("simulation", "dt"))
    assert counts["solves"] == 16 * steps
    assert counts["residuals"] / counts["solves"] <= 3.0


#: numpy calls per step of each config that build an array or read one back,
#: at most, by the profiler's label of the call
CONVERSION_BUDGET = {
    "baseline": {"numpy.array": 0, "tolist": 0, "numpy.zeros": 0},
    "synthetic": {"numpy.array": 6, "tolist": 5, "numpy.zeros": 0},
    "wind_circle": {"numpy.array": 2, "tolist": 1, "numpy.zeros": 0},
}
PROFILER_LABELS = {"numpy.array": "<built-in method numpy.array>",
                   "tolist": "<method 'tolist' of 'numpy.ndarray' objects>",
                   "numpy.zeros": "<built-in method numpy.zeros>"}
#: the (file, function) each call may come from: the array boundary of
#: README "Array conventions".  Arrays: the network input and the error
#: signal of the pair's weight update (in the controller step).  Reads: the
#: network outputs (the controller step and the synthetic plant's delta).
#: The state goes from step to step as floats, so no step packs it or
#: reads it back.
CONVERSION_SITES = {
    "numpy.array": {("adaptive.py", "build_network_input"), ("controller.py", "step")},
    "tolist": {("controller.py", "step"), ("sim.py", "delta")},
    "numpy.zeros": set(),
}


def conversion_calls(name, steps):
    """{call: {(file, function): count}} of CONVERSION_BUDGET's calls in a
    cProfile'd run_simulation of configs/<name>.ini over `steps` steps."""
    cfg = load_config(CONFIGS / f"{name}.ini")
    cfg = load_config(CONFIGS / f"{name}.ini", overrides={
        ("simulation", "duration"): str(steps * cfg.get("simulation", "dt"))})
    profile = cProfile.Profile()
    profile.runcall(run_simulation, cfg)
    stats = pstats.Stats(profile).stats
    calls = {}
    for call, label in PROFILER_LABELS.items():
        _, _, _, _, callers = stats.get(("~", 0, label), (0, 0, 0, 0, {}))
        calls[call] = {(Path(file).name, function): count
                       for (file, _, function), (_, count, _, _) in callers.items()}
    return calls


@pytest.mark.parametrize("name", sorted(CONVERSION_BUDGET))
def test_array_conversions_per_step(name):
    # helpers inside the step return floats, so a step builds an array only
    # where numpy computes or the state is packed, and reads one back only
    # from those: counted over 200 steps, the difference of a 201-step and
    # a 1-step run, which cancels the setup
    one, more = conversion_calls(name, 1), conversion_calls(name, 201)
    for call, budget in CONVERSION_BUDGET[name].items():
        added = {site: n - one[call].get(site, 0) for site, n in more[call].items()}
        added = {site: n for site, n in added.items() if n}
        assert set(added) <= CONVERSION_SITES[call], (call, added)
        assert sum(added.values()) <= 200 * budget, (call, added)


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
