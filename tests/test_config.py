import numpy as np
import pytest

import windquad.config
from windquad.config import (calibrate_simplified, default_config_text,
                             load_config)
from windquad.errors import ParseError, ValidationError
from windquad.sim import run_simulation


def write(tmp_path, text):
    p = tmp_path / "run.ini"
    p.write_text(text)
    return str(p)


def test_defaults_only():
    cfg = load_config()
    assert cfg.get("simulation", "dt") == 1e-3
    assert cfg.get("simulation", "plant") == "simplified"
    assert cfg.quad.m == 0.5 and cfg.aero.rho == 1.225 and cfg.gains.k_x == 4.0


def test_minimal_hover_file(tmp_path):
    path = write(tmp_path, "[trajectory]\nkind = hover\n")
    cfg = load_config(path)
    assert cfg.trajectory.kind == "hover"
    assert cfg.get("simulation", "duration") == 10.0


def test_dt_out_of_range(tmp_path):
    path = write(tmp_path, "[simulation]\ndt = 0.2\n")
    with pytest.raises(ValidationError, match="dt"):
        load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = write(tmp_path, "[simulation]\nfoo = 1\n")
    with pytest.raises(ParseError, match="foo"):
        load_config(path)


def test_unknown_section_rejected(tmp_path):
    path = write(tmp_path, "[warp_drive]\npower = 11\n")
    with pytest.raises(ParseError, match="warp_drive"):
        load_config(path)
    # not a section of defaults for every other one
    path = write(tmp_path, "[DEFAULT]\nduration = 1\n")
    with pytest.raises(ParseError, match=r"unknown section \[DEFAULT\]"):
        load_config(path)


def test_syntax_error(tmp_path):
    path = write(tmp_path, "no section header here\n")
    with pytest.raises(ParseError):
        load_config(path)


def test_missing_file():
    with pytest.raises(ParseError):
        load_config("/nonexistent/run.ini")


def test_bad_value_type(tmp_path):
    path = write(tmp_path, "[quad]\nmass = heavy\n")
    with pytest.raises(ParseError, match="mass"):
        load_config(path)


def test_negative_mass(tmp_path):
    path = write(tmp_path, "[quad]\nmass = -1\n")
    with pytest.raises(ValidationError, match="quad"):
        load_config(path)


def test_inertia_full_matrix(tmp_path):
    path = write(tmp_path,
                 "[quad]\ninertia = 0.02 0 0  0 0.02 0  0 0 0.04\n")
    cfg = load_config(path)
    assert np.allclose(cfg.quad.J, np.diag([0.02, 0.02, 0.04]))


def test_initial_attitude(tmp_path):
    path = write(tmp_path, "[initial]\nattitude = 0.5 0 0\n")
    R = np.array(load_config(path).initial_state[2])
    assert R[0, 0] == pytest.approx(np.cos(0.5))


def test_overrides_win(tmp_path):
    path = write(tmp_path, "[simulation]\nduration = 4\n")
    cfg = load_config(path, overrides={("simulation", "duration"): "7"})
    assert cfg.get("simulation", "duration") == 7.0


def test_unknown_override():
    # overrides are checked like file lines, and their keys lowercased alike
    with pytest.raises(ParseError, match=r"unknown section \[nope\]"):
        load_config(overrides={("nope", "nope"): "1"})
    with pytest.raises(ParseError, match=r"unknown key 'nope' in section \[quad\]"):
        load_config(overrides={("quad", "nope"): "1"})
    assert load_config(overrides={("quad", "MASS"): "0.7"}).get("quad", "mass") == 0.7


def test_calibrated_simplified_matches_hover():
    cfg = load_config(overrides={("simplified", "calibrate"): "on"})
    simp = cfg.simplified
    direct = calibrate_simplified(cfg.aero, cfg.quad)
    assert simp.C_T == pytest.approx(direct.C_T)
    assert simp.C_Q == pytest.approx(direct.C_Q)
    assert simp.C_T > 0 and simp.C_TQ > 0


def test_calibration_runs_once_per_run(monkeypatch):
    # load_config builds the calibrated parameters once, and the run
    # reads the same object instead of solving the hover inflow again
    calls = []

    def counted(aero, quad):
        calls.append(1)
        return calibrate_simplified(aero, quad)

    monkeypatch.setattr(windquad.config, "calibrate_simplified", counted)
    cfg = load_config(overrides={("simplified", "calibrate"): "on",
                                 ("simulation", "duration"): "0.005"})
    run_simulation(cfg)
    assert len(calls) == 1


def test_config_file_with_byte_order_mark(tmp_path):
    # an editor may save UTF-8 with a leading BOM; it is not part of the
    # first section header
    p = tmp_path / "bom.ini"
    p.write_text("\ufeff[simulation]\ndt = 0.002\n", encoding="utf-8")
    assert load_config(str(p)).get("simulation", "dt") == 0.002


def test_configs_compare_by_identity():
    # comparing the values dicts would ask numpy arrays for one truth value
    # and raise ValueError
    cfg = load_config()
    assert (load_config() == load_config()) is False
    assert (cfg == cfg) is True


@pytest.mark.parametrize("calibrate", ["off", "on"])
def test_run_parts_built_once(monkeypatch, calibrate):
    # load_config builds each part of a run once, and the run reads those
    # objects: no second QuadParams or ControllerGains, even for the
    # calibration's hover solve or the run's controller
    built = []

    def counting(cls):
        def build(*args, **kwargs):
            built.append(cls.__name__)
            return cls(*args, **kwargs)
        return build

    for name in ("QuadParams", "ControllerGains"):
        monkeypatch.setattr(windquad.config, name, counting(getattr(windquad.config, name)))
    cfg = load_config(overrides={("simplified", "calibrate"): calibrate,
                                 ("simulation", "duration"): "0.005"})
    run_simulation(cfg)
    assert sorted(built) == ["ControllerGains", "QuadParams"]


def test_schema_reference_text_is_loadable(tmp_path):
    text = default_config_text()
    assert "[simulation]" in text and "dt = 0.001" in text
    path = write(tmp_path, text)
    cfg = load_config(path)
    assert cfg.get("simulation", "dt") == 1e-3


@pytest.mark.parametrize("plant, calibrate, expected", [
    ("simplified", "off", ["disturbance.target_v2 = 0.3", "simulation.seed = 4",
                           "aero.r_p = 0.1", "aero.n_b = 3", "quad.d_v = -0.5"]),
    ("simplified", "on", ["disturbance.target_v2 = 0.3", "simulation.seed = 4",
                          "quad.d_v = -0.5"]),
    ("synthetic", "off", ["disturbance.delta2 = 0.0 0.1 0.0", "aero.r_p = 0.1",
                          "aero.n_b = 3", "quad.d_v = -0.5"]),
    ("full_aero", "off", ["disturbance.delta2 = 0.0 0.1 0.0", "disturbance.target_v2 = 0.3",
                          "simulation.seed = 4"]),
])
def test_ignored_lists_keys_off_their_plant(tmp_path, plant, calibrate, expected):
    # each plant-specific key set away from its default is listed on the
    # plants that never read it; aero.omega_min (the thrust floor of every
    # plant) and the keys left at their defaults never are
    path = write(tmp_path, f"[simulation]\nplant = {plant}\nseed = 4\n"
                           f"[simplified]\ncalibrate = {calibrate}\n"
                           "[quad]\nd_v = -0.5\n[aero]\nr_p = 0.1\nn_b = 3\nomega_min = 2\n"
                           "rho = 1.225\n[disturbance]\ndelta2 = 0 0.1 0\ntarget_v2 = 0.3\n")
    assert load_config(path).ignored() == expected
