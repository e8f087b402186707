import numpy as np
import pytest

from windquad.cli import main
from windquad.config import SCHEMA
from windquad.sim import COLUMNS, read_csv


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


def test_run_config_error_exit_code(tmp_path):
    path = write(tmp_path, "[simulation]\ndt = 0.2\n")
    assert main(["run", "--config", path]) == 2


def test_run_unknown_key_exit_code(tmp_path):
    path = write(tmp_path, "[simulation]\nfoo = 1\n")
    assert main(["run", "--config", path]) == 2


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


def test_run_tangent_heading_without_speed(tmp_path, capsys):
    path = write(tmp_path, "[trajectory]\nkind = circle\nomega = 0\n")
    assert main(["run", "--config", path, "--duration", "0.05"]) == 2
    assert "[trajectory]" in capsys.readouterr().err


def test_run_abort_exit_code(tmp_path):
    path = write(tmp_path, "[quad]\ngravity = 0\n")
    out = tmp_path / "out"
    code = main(["run", "--config", path, "--duration", "1", "--out", str(out)])
    assert code == 3
    # partial telemetry still written, but no summary and no weights
    assert (out / "telemetry.csv").exists()
    assert not (out / "summary.txt").exists()
    assert not (out / "weights.csv").exists()


def test_run_huge_disturbance_aborts(tmp_path, capsys):
    # finite but huge: the moment overflows the body rates and the attitude
    # update, which must end in an abort at step 0, not an SVD failure
    path = write(tmp_path, "[disturbance]\ndelta2 = 1e300 0 0\n")
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["run", "--config", path, "--duration", "0.02",
                     "--out", str(tmp_path / "out")])
    assert code == 3
    assert "aborted at step 0: non-finite state component R" in capsys.readouterr().err


def test_run_out_is_a_file(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["run", "--duration", "0.05", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "output error" in err and str(out) in err


OUTPUT_NAMES = {"csv": "t.csv", "summary": "s.txt", "weights": "w.csv"}


def output_config(tmp_path, extra="", **names):
    """Config whose [output] section names files under tmp_path; a name
    given as "" leaves that path empty."""
    names = {**OUTPUT_NAMES, **names}
    return write(tmp_path, extra + "[output]\n" + "".join(
        f"{key} = {tmp_path / name if name else ''}\n" for key, name in names.items()))


def test_run_config_output_paths(tmp_path):
    code = main(["run", "--config", output_config(tmp_path), "--duration", "0.2"])
    assert code == 0
    header, data = read_csv(str(tmp_path / "t.csv"))
    assert len(data) == 200
    text = (tmp_path / "s.txt").read_text()
    assert "rms_e_x:" in text and "bound_radius:" in text
    assert "final_nn1" in (tmp_path / "w.csv").read_text()


@pytest.mark.parametrize("skipped", sorted(OUTPUT_NAMES))
def test_run_config_output_empty_path_skips(tmp_path, skipped):
    path = output_config(tmp_path, **{skipped: ""})
    assert main(["run", "--config", path, "--duration", "0.05"]) == 0
    expected = [name for key, name in OUTPUT_NAMES.items() if key != skipped]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["run.ini", *expected])


def test_run_config_output_missing_dir(tmp_path, capsys):
    missing = tmp_path / "missing" / "t.csv"
    path = write(tmp_path, f"[output]\ncsv = {missing}\n")
    assert main(["run", "--config", path, "--duration", "0.05"]) == 2
    err = capsys.readouterr().err
    assert "output error" in err and str(missing) in err


def test_run_config_output_abort(tmp_path):
    # as with --out: the partial telemetry is written, no summary, no weights
    path = output_config(tmp_path, extra="[quad]\ngravity = 0\n")
    assert main(["run", "--config", path, "--duration", "1"]) == 3
    header, data = read_csv(str(tmp_path / "t.csv"))
    assert header == COLUMNS and data.shape == (0, len(COLUMNS))
    assert not (tmp_path / "s.txt").exists()
    assert not (tmp_path / "w.csv").exists()


def test_run_wind_override(tmp_path):
    out = tmp_path / "o"
    code = main(["run", "--duration", "0.05", "--wind", "1,0,0",
                 "--out", str(out)])
    assert code == 0
    header, data = read_csv(str(out / "telemetry.csv"))
    vw1 = data[0][header.index("vw1")]
    assert vw1 == 1.0


def test_run_plant_alias(tmp_path):
    out = tmp_path / "o"
    code = main(["run", "--duration", "0.05", "--plant", "full",
                 "--adaptation", "off", "--out", str(out),
                 "--config", write(tmp_path, "[simplified]\ncalibrate = on\n")])
    assert code == 0


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


def test_sweep_bad_param(tmp_path):
    assert main(["sweep", "--param", "nosuch", "--values", "1",
                 "--out", str(tmp_path)]) == 2
