from pathlib import Path

import numpy as np
import pytest

import windquad.cli
from windquad.cli import build_parser, main
from windquad.config import PLANT_KEYS, PLANT_MODES, SCHEMA, SWITCH_KEYS, load_config
from windquad.errors import ValidationError
from windquad.sim import COLUMNS

from oracles import read_csv

WIND_CIRCLE = str(Path(__file__).resolve().parent.parent / "configs" / "wind_circle.ini")


def write(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_run_writes_outputs(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--duration", "0.2", "--out", str(out)])
    assert code == 0
    assert (out / "telemetry.csv").exists()
    assert (out / "summary.txt").exists()
    assert (out / "weights.csv").exists()
    header, data = read_csv(str(out / "telemetry.csv"))
    assert len(data) == 200
    text = (out / "summary.txt").read_text()
    assert "rms_e_x:" in text and "bound_radius:" in text


def test_run_config_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "[simulation]\ndt = 0.2\n")
    assert main(["run", "--config", path]) == 2
    # numpy's generator takes no negative seed
    assert main(["run", "--plant", "synthetic", "--seed", "-1", "--duration", "0.02"]) == 2
    assert "simulation.seed" in capsys.readouterr().err
    # no hover trim exists for this pitch: the calibration's solve fails
    path = write(tmp_path, "[simplified]\ncalibrate = on\n[aero]\ntheta0 = 1e30\n")
    for argv in (["run", "--config", path, "--duration", "0.02"],
                 ["validate-gains", "--config", path]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "[simplified] calibrate = on: the hover solve" in err
        assert "[aero]" in err
    # config files are read as UTF-8
    path = tmp_path / "latin1.ini"
    path.write_bytes(b"[simulation]\nduration = 0.05  # \xff\n")
    assert main(["run", "--config", str(path)]) == 2
    assert f"config error: cannot read {path}" in capsys.readouterr().err


def test_run_unknown_key_exit_code(tmp_path, capsys):
    path = write(tmp_path, "[simulation]\nfoo = 1\n")
    assert main(["run", "--config", path]) == 2
    # output paths are no config keys: the files go to --out DIR
    path = write(tmp_path, "[output]\ncsv = t.csv\n")
    assert main(["run", "--config", path, "--duration", "0.05"]) == 2
    assert "unknown section [output]" in capsys.readouterr().err


def test_percent_is_a_literal_character(tmp_path, capsys):
    # a file value and an override are read alike, without interpolation
    path = write(tmp_path, "[simulation]\nplant = a%b\n")
    for argv in (["run", "--config", path, "--duration", "0.05"],
                 ["sweep", "--param", "simulation.plant", "--values", "a%b",
                  "--out", str(tmp_path / "sweep")]):
        assert main(argv) == 2
        assert "config error: simulation.plant must be one of" in capsys.readouterr().err


def test_run_duration_without_step_count(tmp_path, capsys):
    # round(0.0004 / 0.001) = 0 steps and round(inf) fails: both are config
    # errors, not an empty run or a traceback
    out = tmp_path / "out"
    assert main(["run", "--duration", "0.0004", "--out", str(out)]) == 2
    assert "simulation.duration" in capsys.readouterr().err
    assert not out.exists()
    assert main(["run", "--duration", "inf", "--out", str(out)]) == 2
    assert "simulation.duration" in capsys.readouterr().err
    assert main(["sweep", "--param", "simulation.duration", "--values", "0.0004",
                 "--out", str(tmp_path / "sweep")]) == 2
    assert "simulation.duration" in capsys.readouterr().err


def float_keys():
    """(section, key, default text) of every float and vector config key."""
    return [(section, key, default)
            for section, keys in SCHEMA.items()
            for key, (parse, default, _) in keys.items()
            if isinstance(parse(default), (float, np.ndarray))]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_run_rejects_non_finite_value(tmp_path, capsys, bad):
    # one non-finite entry per key; a vector keeps its other default entries
    failures = []
    for section, key, default in float_keys():
        value = " ".join([bad] + default.split()[1:])
        sections = {"simulation": {"duration": "0.02"}}
        sections.setdefault(section, {})[key] = value
        text = "".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                       for sec, kv in sections.items())
        code = main(["run", "--config", write(tmp_path, text),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        if code != 2 or f"{section}.{key}" not in err:
            failures.append((f"{section}.{key}", code, err.strip()))
    assert len(float_keys()) == 70
    assert failures == []


def test_run_rejects_overflowing_target_norm(tmp_path, capsys):
    # the target network is rescaled to this norm and its norm recomputed
    # from a sum of squares, so a norm whose square overflows fails at load
    # time; one whose square is finite still runs into the step abort
    out = str(tmp_path / "out")
    huge = 1e155
    assert huge * huge == float("inf")
    for key in ("target_w1", "target_v1", "target_w2", "target_v2"):
        path = write(tmp_path, f"[simulation]\nplant = synthetic\nduration = 0.02\n"
                               f"[disturbance]\n{key} = {huge!r}\n")
        assert main(["run", "--config", path, "--out", out]) == 2
        assert f"disturbance.{key}" in capsys.readouterr().err
    path = write(tmp_path, "[simulation]\nplant = synthetic\nduration = 0.02\n"
                           "[disturbance]\ntarget_w1 = 1e154\n")
    assert main(["run", "--config", path, "--out", out]) == 3
    assert "aborted at step" in capsys.readouterr().err


@pytest.mark.parametrize("section, key", [
    ("simulation", "duration"), ("aero", "omega_min"), ("assumptions", "eps2"),
    ("gains", "c1"), ("nn1", "w_max"), ("nn1", "v_max"), ("nn2", "w_max"), ("nn2", "v_max")])
def test_run_rejects_overflowing_derived_quantities(tmp_path, capsys, section, key):
    # the telemetry size, the thrust floor C_T' omega_min ** 2 and the gain
    # report's matrices and C5_i each overflow at 1e300: a load-time error
    # naming the key, not a traceback from np.empty, ** or eigvalsh
    text = f"[{section}]\n{key} = 1e300\n"
    if section != "simulation":
        text = "[simulation]\nduration = 0.02\n" + text
    path = write(tmp_path, text)
    for argv in (["run", "--config", path, "--out", str(tmp_path / "out")],
                 ["validate-gains", "--config", path]):
        assert main(argv) == 2
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "telemetry.csv").exists()



@pytest.mark.parametrize("text", [
    "[simulation]\nplant = full_aero\nduration = 0.02\n",
    "[simulation]\nduration = 0.02\n[simplified]\ncalibrate = on\n"],
    ids=["full_aero", "calibrate"])
def test_run_rejects_underflowing_lift_slope(tmp_path, capsys, text):
    # s C_la / 4 underflows to 0 at c_la = 5e-324: a load-time error naming
    # [aero], not a ZeroDivisionError traceback from the inflow solve
    path = write(tmp_path, text + "[aero]\nc_la = 5e-324\n")
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert "[aero]" in capsys.readouterr().err
    assert not (tmp_path / "out" / "telemetry.csv").exists()


@pytest.mark.parametrize("section", ["nn1", "nn2"])
def test_run_synthetic_width_zero_network(tmp_path, capsys, section):
    # a width-0 network is a learned bias: its target's V has no entries to
    # scale, so the run prints no numpy warning (the suite makes one an error)
    path = write(tmp_path, f"[simulation]\nplant = synthetic\nduration = 0.02\n"
                           f"[{section}]\nhidden = 0\n")
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert "Warning" not in capsys.readouterr().err
    header, data = read_csv(str(tmp_path / "out" / "telemetry.csv"))
    assert np.isfinite(data).all()

def test_derived_limits_sit_at_the_overflow():
    # just inside each limit still loads
    load_config(overrides={("aero", "omega_min"): "1e154"})
    rows_max = np.iinfo(np.intp).max // (8 * len(COLUMNS))
    load_config(overrides={("simulation", "duration"): str(0.9 * rows_max * 1e-3)})
    with pytest.raises(ValidationError, match="simulation.duration"):
        load_config(overrides={("simulation", "duration"): str(1.1 * rows_max * 1e-3)})
    with pytest.raises(ValidationError, match="aero.omega_min"):
        load_config(overrides={("aero", "omega_min"): "1e155"})


def test_run_unallocatable_telemetry_is_a_config_error(tmp_path, capsys):
    # indexable, so it passes the load-time limit, but 2.2e15 rows are 1 EiB,
    # beyond any 64-bit address space: np.empty fails before the first step
    assert main(["run", "--duration", "2.2e12", "--out", str(tmp_path / "out")]) == 2
    assert "config error: simulation.duration" in capsys.readouterr().err


def test_run_tangent_heading_without_speed(tmp_path, capsys):
    path = write(tmp_path, "[trajectory]\nkind = circle\nomega = 0\n")
    assert main(["run", "--config", path, "--duration", "0.05"]) == 2
    assert "[trajectory]" in capsys.readouterr().err


def test_run_abort_exit_code(tmp_path):
    path = write(tmp_path, "[quad]\ngravity = 0\n")
    new, reused = tmp_path / "new", tmp_path / "reused"
    assert main(["run", "--duration", "0.05", "--out", str(reused)]) == 0
    for out in (new, reused):
        code = main(["run", "--config", path, "--duration", "1", "--out", str(out)])
        assert code == 3
        # partial telemetry still written, but no summary and no weights,
        # not even those of an earlier run into the same directory
        header, data = read_csv(str(out / "telemetry.csv"))
        assert header == COLUMNS and data.shape == (0, len(COLUMNS))
        assert not (out / "summary.txt").exists()
        assert not (out / "weights.csv").exists()


def test_run_huge_disturbance_aborts(tmp_path, capsys):
    # finite but huge: the moment overflows the body rates and the attitude
    # update, which must end in an abort at step 0, not an SVD failure; with
    # warnings as errors, a numpy warning ahead of the abort fails the test
    path = write(tmp_path, "[disturbance]\ndelta2 = 1e300 0 0\n")
    code = main(["run", "--config", path, "--duration", "0.02",
                 "--out", str(tmp_path / "out")])
    assert code == 3
    assert "aborted at step 0: non-finite state component R" in capsys.readouterr().err


def test_run_overflowing_thrust_aborts(tmp_path, capsys):
    # m g overflows ||A||, which must abort as degenerate thrust, without a
    # numpy warning and not as a heading parallel to a zero thrust axis
    path = write(tmp_path, "[quad]\nmass = 1e300\n")
    code = main(["run", "--config", path, "--duration", "0.02",
                 "--out", str(tmp_path / "out")])
    assert code == 3
    assert ("aborted at step 0: controller degeneracy: ||A|| = inf"
            in capsys.readouterr().err)


def test_run_out_is_a_file(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["run", "--duration", "0.05", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "output error" in err and str(out) in err


def count_runs(monkeypatch):
    """List that gets one entry per run_simulation call of the CLI."""
    runs = []
    run = windquad.cli.run_simulation
    monkeypatch.setattr(windquad.cli, "run_simulation",
                        lambda cfg: runs.append(cfg) or run(cfg))
    return runs


def test_run_config_output_is_a_dir(tmp_path, capsys, monkeypatch):
    # a file name in --out that is a directory fails before the first run
    runs = count_runs(monkeypatch)
    out = tmp_path / "out"
    for argv, taken in ((["run", "--duration", "0.05"], "weights.csv"),
                        (["sweep", "--param", "simulation.duration", "--values", "0.02,0.05"],
                         "sweep.csv")):
        (out / taken).mkdir(parents=True)
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "output error" in err and str(out / taken) in err
    assert runs == []


def test_run_wind_override(tmp_path):
    out = tmp_path / "o"
    code = main(["run", "--duration", "0.05", "--wind", "1,0,0",
                 "--out", str(out)])
    assert code == 0
    header, data = read_csv(str(out / "telemetry.csv"))
    vw1 = data[0][header.index("vw1")]
    assert vw1 == 1.0


def test_wind_value_the_kind_ignores_is_rejected(tmp_path, capsys):
    # kind none is still air and constant is the base alone: a base or an
    # amplitude they would drop is a config error, not a windless run
    cases = (("none", "base = 5 0 0\n", "wind.base"),
             ("none", "amplitude = 2\n", "wind.amplitude"),
             ("constant", "base = 5 0 0\namplitude = 2\n", "wind.amplitude"))
    for kind, lines, named in cases:
        path = write(tmp_path, "[simulation]\nplant = full_aero\nduration = 0.1\n"
                               f"[wind]\nkind = {kind}\n{lines}")
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert named in capsys.readouterr().err
    # --wind none still turns off the wind of a config that sets a base,
    # and of one with a gust, whose amplitude, onset and direction it resets
    gust = write(tmp_path, "[simulation]\nplant = full_aero\n[wind]\nkind = step_gust\n"
                           "base = 1 0 0\namplitude = 2\nonset = 0.01\ndirection = 0 1 0\n",
                 "gust.ini")
    for name, config in (("calm", WIND_CIRCLE), ("calm_gust", gust)):
        out = tmp_path / name
        assert main(["run", "--config", config, "--wind", "none",
                     "--duration", "0.05", "--out", str(out)]) == 0
        header, data = read_csv(str(out / "telemetry.csv"))
        assert not data[:, [header.index(c) for c in ("vw1", "vw2", "vw3")]].any()
    # and --wind vx,vy,vz replaces the gust with that constant wind
    out = tmp_path / "steady"
    assert main(["run", "--config", gust, "--wind", "0,3,0",
                 "--duration", "0.05", "--out", str(out)]) == 0
    header, data = read_csv(str(out / "telemetry.csv"))
    assert (data[:, [header.index(c) for c in ("vw1", "vw2", "vw3")]] == [0.0, 3.0, 0.0]).all()


@pytest.mark.parametrize("text, named", [
    ("[simplified]\ncalibrate = on\nc_t = 1e-5\n", "simplified.c_t"),
    ("[simplified]\ncalibrate = on\nc_q = 1e-7\n", "simplified.c_q"),
    ("[wind]\nkind = constant\nbase = 1 0 0\nonset = 2\n", "wind.onset"),
    ("[wind]\nkind = sinusoidal\namplitude = 1\nfrequency = 1\nonset = 2\n", "wind.onset"),
    ("[wind]\nkind = none\nfrequency = 1\n", "wind.frequency"),
    ("[wind]\nkind = step_gust\namplitude = 1\nfrequency = 1\n", "wind.frequency"),
    ("[wind]\nkind = none\ndirection = 0 1 0\n", "wind.direction"),
    ("[wind]\nkind = constant\nbase = 1 0 0\ndirection = 0 1 0\n", "wind.direction"),
    # the same keys under a switch value that reads them
    ("[simplified]\ncalibrate = off\nc_t = 1e-5\nc_q = 1e-7\n", None),
    ("[wind]\nkind = step_gust\namplitude = 1\nonset = 0.01\ndirection = 0 1 0\n", None),
    ("[wind]\nkind = sinusoidal\namplitude = 1\nfrequency = 5\ndirection = 0 1 0\n", None),
    ("[trajectory]\nkind = hover\nradius = 3\n", "trajectory.radius"),
    ("[trajectory]\nkind = lissajous\nomega = 1\n", "trajectory.omega"),
    ("[trajectory]\nkind = hover\nheading = fixed\n", "trajectory.heading"),
    ("[trajectory]\nkind = lissajous\nv_z = 0.5\n", "trajectory.v_z"),
    ("[trajectory]\nkind = circle\namplitudes = 1 0 0\n", "trajectory.amplitudes"),
    ("[trajectory]\nkind = circle\nfrequencies = 1 1 0\n", "trajectory.frequencies"),
    ("[trajectory]\nkind = hover\nphases = 0 0 0\n", "trajectory.phases"),
    # small paths that start at the initial position, which the default
    # vehicle tracks on the aero plant
    ("[trajectory]\nkind = circle\ncenter = -0.1 0 0\nradius = 0.1\nomega = 0.5\n"
     "heading = fixed\nv_z = 0.01\n", None),
    ("[trajectory]\nkind = lissajous\namplitudes = 0.01 0.01 0\nfrequencies = 1 1 0\n"
     "phases = 0 0 0\n", None),
], ids=["c_t-calibrate", "c_q-calibrate", "onset-constant", "onset-sinusoidal",
        "frequency-none", "frequency-step_gust", "direction-none", "direction-constant",
        "read-calibrate-off", "read-step_gust", "read-sinusoidal",
        "radius-hover", "omega-lissajous", "heading-hover", "v_z-lissajous",
        "amplitudes-circle", "frequencies-circle", "phases-hover",
        "read-circle", "read-lissajous"])
def test_key_its_switch_ignores_is_rejected(tmp_path, capsys, text, named):
    # a key that its own section's switch never reads exits 2 naming it
    # (config.SWITCH_KEYS); a switch value that reads it runs
    path = write(tmp_path, "[simulation]\nplant = full_aero\nduration = 0.02\n" + text)
    code = main(["run", "--config", path, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    if named is None:
        assert code == 0, err
    else:
        assert code == 2 and f"{named} = " in err and "has no effect" in err


@pytest.mark.parametrize("plant", ["simplified", "synthetic"])
@pytest.mark.parametrize("text, named", [
    ("delta1_amp = 1 0 0\n", ("delta1_amp", "delta1_freq")),
    ("delta1_freq = 2\n", ("delta1_amp", "delta1_freq")),
    ("delta2_amp = 0 0 0.05\n", ("delta2_amp", "delta2_freq")),
    ("delta2_freq = 3\n", ("delta2_amp", "delta2_freq")),
    ("delta1_amp = 1 0 0\ndelta1_freq = 2\ndelta2_amp = 0 0 0.05\ndelta2_freq = 3\n", None),
], ids=["delta1_amp", "delta1_freq", "delta2_amp", "delta2_freq", "both"])
def test_sine_disturbance_needs_both_keys(tmp_path, capsys, plant, text, named):
    # an amplitude whose frequency is zero, or a frequency whose amplitude
    # is zero, moves nothing: it exits 2 naming both keys, on every plant
    # (config.SINE_KEYS); a sine with both runs
    path = write(tmp_path, f"[simulation]\nplant = {plant}\nduration = 0.02\n"
                           f"[disturbance]\n{text}")
    code = main(["run", "--config", path, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    if named is None:
        assert code == 0, err
    else:
        assert code == 2 and "has no effect" in err
        assert all(f"disturbance.{key} = " in err for key in named)


def test_disturbance_the_plant_ignores_is_reported(tmp_path, capsys):
    # the injected disturbance acts on the simplified plant alone; elsewhere
    # each non-zero key is listed on stderr and in summary.txt, and the run
    # goes on, so that --plant still works on one file
    path = write(tmp_path, "[simulation]\nduration = 0.02\n[disturbance]\n"
                           "delta1 = 1 0 0\ndelta2 = 0 0 0.05\n"
                           "delta1_amp = 0 0.5 0\ndelta1_freq = 2\n")
    lines = ["ignored: disturbance.delta1 = 1.0 0.0 0.0",
             "ignored: disturbance.delta2 = 0.0 0.0 0.05",
             "ignored: disturbance.delta1_amp = 0.0 0.5 0.0"]
    for plant in ("full_aero", "synthetic"):
        out = tmp_path / plant
        assert main(["run", "--config", path, "--plant", plant, "--out", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("ignored:")] == lines
        summary = (out / "summary.txt").read_text().splitlines()
        assert [line for line in summary if line.startswith("ignored:")] == lines
    out = tmp_path / "simplified"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    assert "ignored" not in capsys.readouterr().err
    assert "ignored" not in (out / "summary.txt").read_text()
    # and each moves the simplified run: a zero disturbance is left out of
    # the wrench, a moment sine alone is not
    sine = write(tmp_path, "[simulation]\nduration = 0.02\n[disturbance]\n"
                           "delta2_amp = 0 0 0.05\ndelta2_freq = 3\n", "sine.ini")
    calm = write(tmp_path, "[simulation]\nduration = 0.02\n", "calm.ini")
    for name, config in (("sine", sine), ("calm", calm)):
        assert main(["run", "--config", config, "--out", str(tmp_path / name)]) == 0
    _, calm_data = read_csv(str(tmp_path / "calm" / "telemetry.csv"))
    for name in ("simplified", "sine"):
        _, data = read_csv(str(tmp_path / name / "telemetry.csv"))
        assert not np.array_equal(data, calm_data), name
    # a sweep lists each line once, however many of its runs drop the key
    assert main(["sweep", "--config", path, "--param", "simulation.plant",
                 "--values", "full_aero,synthetic,synthetic", "--out", str(tmp_path / "sw")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("ignored:")] == lines


@pytest.mark.parametrize("plant, section, line", [
    ("full_aero", "[disturbance]\ntarget_w1 = 5\n", "disturbance.target_w1 = 5.0"),
    ("simplified", "[quad]\nd_v = -0.5\n", "quad.d_v = -0.5"),
], ids=["target_off_synthetic", "d_v_off_aero"])
def test_key_the_plant_ignores_is_reported(tmp_path, capsys, plant, section, line):
    # a synthetic target norm off the synthetic plant and a rotor height off
    # the aero plant leave the run unchanged: each is listed, the run exits 0
    path = write(tmp_path, f"[simulation]\nplant = {plant}\nduration = 0.05\n{section}")
    out = tmp_path / "o"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert [e for e in err if e.startswith("ignored:")] == [f"ignored: {line}"]
    summary = (out / "summary.txt").read_text().splitlines()
    assert [e for e in summary if e.startswith("ignored:")] == [f"ignored: {line}"]


@pytest.mark.parametrize("plant", ["simplified", "synthetic"])
def test_wind_off_the_aero_plant_is_reported(tmp_path, capsys, plant):
    # only the aero plant feels the wind: on the others --wind is listed on
    # stderr and in summary.txt, and the v_w columns still record the field
    out = tmp_path / plant
    assert main(["run", "--plant", plant, "--duration", "0.05", "--wind", "5,0,0",
                 "--out", str(out)]) == 0
    lines = ["ignored: wind.kind = constant", "ignored: wind.base = 5.0 0.0 0.0"]
    err = capsys.readouterr().err.splitlines()
    assert [e for e in err if e.startswith("ignored:")] == lines
    summary = (out / "summary.txt").read_text().splitlines()
    assert [e for e in summary if e.startswith("ignored:")] == lines
    header, data = read_csv(str(out / "telemetry.csv"))
    v_w = data[:, [header.index(name) for name in ("vw1", "vw2", "vw3")]]
    assert np.array_equal(v_w, np.tile([5.0, 0.0, 0.0], (len(data), 1)))
    assert main(["run", "--plant", "full_aero", "--duration", "0.05", "--wind", "5,0,0",
                 "--out", str(tmp_path / "full_aero")]) == 0
    assert "ignored" not in capsys.readouterr().err


def test_run_plant_takes_the_plant_modes(tmp_path, capsys):
    # --plant takes simulation.plant's own values, and no second name
    out = tmp_path / "o"
    code = main(["run", "--duration", "0.05", "--plant", "full_aero",
                 "--adaptation", "off", "--out", str(out),
                 "--config", write(tmp_path, "[simplified]\ncalibrate = on\n")])
    assert code == 0
    for plant in PLANT_MODES:
        args = build_parser().parse_args(["run", "--plant", plant])
        assert args.overrides == {("simulation", "plant"): plant}
    with pytest.raises(SystemExit) as exc:
        main(["run", "--duration", "0.05", "--plant", "full"])
    assert exc.value.code == 2
    assert "invalid choice: 'full'" in capsys.readouterr().err


def test_helix_kind_exits_2_naming_it(tmp_path, capsys):
    # a circle reads v_z: a climbing circle is the helix, and helix is no kind
    path = write(tmp_path, "[trajectory]\nkind = helix\n")
    assert main(["run", "--config", path, "--duration", "0.02"]) == 2
    assert "unknown trajectory kind 'helix'" in capsys.readouterr().err
    # with a climb rate, the error names v_z and the circle that reads it
    path = write(tmp_path, "[trajectory]\nkind = helix\nv_z = 0.3\n")
    assert main(["run", "--config", path, "--duration", "0.02"]) == 2
    assert ("trajectory.v_z = 0.3 has no effect under trajectory.kind = helix; "
            "it is read under trajectory.kind = circle") in capsys.readouterr().err


def test_strict_gain_gate(tmp_path):
    # defaults fail the N-matrix checks; --strict turns that into an error
    assert main(["run", "--duration", "0.05", "--strict"]) == 2


def test_validate_gains(capsys):
    assert main(["validate-gains"]) == 0
    out = capsys.readouterr().out
    assert "c1_check:" in out and "nu:" in out


def test_sweep(tmp_path):
    out = tmp_path / "sweep"
    code = main(["sweep", "--param", "gains.k_x", "--values", "3,5",
                 "--out", str(out),
                 "--config", write(tmp_path, "[simulation]\nduration = 0.05\n")])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("param,value,")


def test_sweep_validates_every_value_before_running(tmp_path, capsys, monkeypatch):
    # the invalid third value is found before the first two run
    runs = count_runs(monkeypatch)
    out = tmp_path / "sweep"
    assert main(["sweep", "--param", "quad.mass", "--values", "0.5,0.5,-1",
                 "--out", str(out), "--config",
                 write(tmp_path, "[simulation]\nduration = 0.05\n")]) == 2
    assert "[quad]" in capsys.readouterr().err
    assert runs == []
    assert not (out / "sweep.csv").exists()


def test_sweep_keeps_finished_runs(tmp_path, capsys):
    # the third run aborts at step 0 (||A|| overflows); the two finished rows
    # are written as before, the aborted one with its step and reason
    out = tmp_path / "sweep"
    config = write(tmp_path, "[simulation]\nduration = 0.05\n")
    assert main(["sweep", "--param", "quad.mass", "--values", "0.5,0.6,1e300",
                 "--out", str(out), "--config", config]) == 3
    assert "quad.mass = 1e300: aborted at step 0" in capsys.readouterr().err
    header, *lines = (out / "sweep.csv").read_text().splitlines()
    rows = [dict(zip(header.split(","), line.split(","), strict=True)) for line in lines]
    assert len(rows) == 3
    assert [row["status"] for row in rows] == ["ok", "ok", "aborted"]
    assert rows[2]["abort_step"] == "0"
    assert rows[2]["reason"].startswith("controller degeneracy: ||A|| = inf")
    assert rows[2]["rms_e_x"] == "" and rows[0]["steps"] == "50"
    # a finished row keeps every column and value of a sweep without aborts
    assert main(["sweep", "--param", "quad.mass", "--values", "0.5,0.6",
                 "--out", str(tmp_path / "ok"), "--config", config]) == 0
    ok_header, *ok_lines = (tmp_path / "ok" / "sweep.csv").read_text().splitlines()
    assert ok_header == header
    assert ok_lines == lines[:2]


def test_sweep_strips_each_value(tmp_path, capsys):
    # the spaces around a value reach neither the value column nor the
    # error line of a value that fails
    out = tmp_path / "sweep"
    config = write(tmp_path, "[simulation]\nduration = 0.05\n")
    assert main(["sweep", "--param", "simulation.duration", "--values", " 0.01, 0.02 ",
                 "--out", str(out), "--config", config]) == 0
    header, *lines = (out / "sweep.csv").read_text().splitlines()
    values = [line.split(",")[header.split(",").index("value")] for line in lines]
    assert values == ["0.01", "0.02"]
    assert main(["sweep", "--param", "quad.mass", "--values", "0.5, 1e300",
                 "--out", str(tmp_path / "abort"), "--config", config]) == 3
    assert "error: quad.mass = 1e300: aborted" in capsys.readouterr().err


def test_sweep_bad_param(tmp_path):
    assert main(["sweep", "--param", "nosuch", "--values", "1",
                 "--out", str(tmp_path)]) == 2


# --- edge-value probe --------------------------------------------------------

PROBE_VALUES = ("nan", "inf", "-1", "0", "1e300", "-1e300", "1e-300", "5e-324")
PROBE_KEYS = [(section, key) for section, keys in SCHEMA.items() for key in keys]
#: the plants of the probe, as config sections: the default simplified plant,
#: the synthetic plant, full rotor aerodynamics, and the simplified plant
#: calibrated from [aero]
PROBE_PLANTS = {
    "simplified": {},
    "synthetic": {"simulation": {"plant": "synthetic"}},
    "full_aero": {"simulation": {"plant": "full_aero"}},
    "calibrate": {"simplified": {"calibrate": "on"}},
}


def probe_contexts(section, key):
    """The config sections under which the probe sets section.key: the
    default config, whose plant or switch may leave the key unread (a load
    error or an `ignored:` line), then each plant that reads it (the [aero]
    keys on full_aero and under calibrate = on; the [wind] keys on every
    plant, whose v_w columns record the field), times each trajectory or
    wind kind that reads it."""
    yield {}
    plants = PROBE_PLANTS
    if (section, key) in PLANT_KEYS and section != "wind":
        readers = PLANT_KEYS[section, key] + (("calibrate",) if section == "aero" else ())
        plants = {name: PROBE_PLANTS[name] for name in readers}
    switch, values = SWITCH_KEYS.get((section, key), (None, (None,)))
    if switch == "calibrate":
        # read with calibrate = off only: on every plant but the calibrated one
        plants = {name: plant for name, plant in plants.items() if name != "calibrate"}
        switch = None
    for plant in plants.values():
        for value in values:
            sections = {name: dict(entries) for name, entries in plant.items()}
            if switch is not None:
                sections.setdefault(section, {})[switch] = value
            yield sections


@pytest.mark.parametrize("section, key", PROBE_KEYS,
                         ids=[f"{section}.{key}" for section, key in PROBE_KEYS])
def test_edge_value_probe(tmp_path, section, key):
    # each value, in every entry of a vector key, on the default config and
    # on every plant and under every trajectory and wind kind that reads the
    # key, either runs (0), fails at load time (2) or aborts naming a step
    # (3); an uncaught exception, a numpy warning included, fails the test.
    # All keys take about 12 s together on a 2-vCPU Xeon VM: 2632 runs of
    # 0.02 s, of which 822 exit 0, 1627 exit 2 and 183 exit 3
    width = len(SCHEMA[section][key][1].split())
    texts = set()
    for context in probe_contexts(section, key):
        for raw in PROBE_VALUES:
            sections = {"simulation": {"duration": "0.02"}}
            for name, entries in context.items():
                sections.setdefault(name, {}).update(entries)
            sections.setdefault(section, {})[key] = " ".join([raw] * width)
            text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items())
                           for name, entries in sections.items())
            # the probed key may be the context's own switch
            if text in texts:
                continue
            texts.add(text)
            code = main(["run", "--config", write(tmp_path, text),
                         "--out", str(tmp_path / "out")])
            assert code in (0, 2, 3), f"{section}.{key} = {raw} under {context}"


# --- dead-key probe ------------------------------------------------------------

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

#: (config, "section.key") pairs that the run reads but whose nudge moves
#: no output byte in 0.05 s
DEAD_KEY_ALLOWED = {
    # the controller's rotor-speed floor, read on every plant: no rotor of
    # these two comes near 1 rad/s in 0.05 s (baseline's large start offset
    # puts rotors on the floor)
    ("synthetic", "aero.omega_min"), ("wind_circle", "aero.omega_min"),
    # adaptation = off: the stability report reads min(gamma_w, gamma_v)
    # of each network, which these nudges leave in place
    ("baseline", "nn1.gamma_w"), ("baseline", "nn2.gamma_w"), ("baseline", "nn2.gamma_v"),
}


def nudges(cfg, section, key):
    """Texts of small changes of one key's value in cfg: a switch flipped,
    each other option of a choice, an integer plus one, each non-zero real
    number times 1.1, and 0.1 in every entry of a value that is all zero."""
    value = cfg.get(section, key)
    if isinstance(value, bool):
        return ["off" if value else "on"]
    if isinstance(value, str):
        options = [name.strip() for name in SCHEMA[section][key][2].split("(")[0].split("|")]
        return [option for option in options if option != value]
    if isinstance(value, int):
        return [str(value + 1)]
    reals = np.ravel(value) * 1.1 if np.any(value) else np.full(np.size(value), 0.1)
    return [" ".join(map(str, reals.tolist()))]


def probe_outputs(monkeypatch, capsys, tmp_path, config, overrides):
    """(exit code, stdout, stderr, outputs) of `windquad run --config config`
    for 0.05 s with `overrides` set; the three output writers record their
    arguments in memory instead of writing files."""
    outputs = []
    monkeypatch.setattr(windquad.cli, "write_csv",
                        lambda telemetry, path: outputs.append(telemetry.tobytes()))
    monkeypatch.setattr(windquad.cli, "write_summary",
                        lambda summary, path, **kw: outputs.append(repr((summary, kw))))
    monkeypatch.setattr(windquad.cli, "write_weights_csv", lambda snapshots, path: outputs.append(
        [(name, w.W.tobytes(), w.V.tobytes()) for name, w in snapshots]))
    layer = {("simulation", "duration"): "0.05", **overrides}
    monkeypatch.setattr(windquad.cli, "load_config",
                        lambda path, overrides=None: load_config(path, {**overrides, **layer}))
    code = main(["run", "--config", config, "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    return code, out, err, outputs


@pytest.mark.parametrize("name", ("baseline", "synthetic", "wind_circle"))
def test_no_key_is_silently_ignored(monkeypatch, capsys, tmp_path, name):
    # every SCHEMA key, nudged on its own, changes an output byte, exits 2
    # naming the key, is listed as ignored, or is on DEAD_KEY_ALLOWED, and
    # every key on that list for this config moves nothing.  The three
    # configs take about 2 s together on a 2-vCPU Xeon VM
    config = str(CONFIGS / f"{name}.ini")
    code, out, _, outputs = probe_outputs(monkeypatch, capsys, tmp_path, config, {})
    assert code == 0
    reference = (code, out, outputs)
    cfg = load_config(config, {("simulation", "duration"): "0.05"})
    dead, allowed = [], []
    for section, keys in SCHEMA.items():
        for key in keys:
            dotted = f"{section}.{key}"
            moved = False
            for text in nudges(cfg, section, key):
                code, out, err, outputs = probe_outputs(monkeypatch, capsys, tmp_path, config,
                                                        {(section, key): text})
                if code == 2:
                    assert dotted in err or f"[{section}] {key}" in err, err
                moved |= (code, out, outputs) != reference or f"ignored: {dotted} =" in err
            if not moved:
                (allowed if (name, dotted) in DEAD_KEY_ALLOWED else dead).append(dotted)
    assert not dead
    assert sorted(allowed) == sorted(k for n, k in DEAD_KEY_ALLOWED if n == name)
