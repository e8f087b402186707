import numpy as np
import pytest

from windquad.config import (calibrate_simplified, default_config_text,
                             load_config)
from windquad.errors import ParseError, ValidationError
from windquad.layout import unpack_state


def write(tmp_path, text):
    p = tmp_path / "run.ini"
    p.write_text(text)
    return str(p)


def test_defaults_only():
    cfg = load_config()
    assert cfg.get("simulation", "dt") == 1e-3
    assert cfg.get("simulation", "plant") == "simplified"
    cfg.quad()
    cfg.aero()
    cfg.gains()


def test_minimal_hover_file(tmp_path):
    path = write(tmp_path, "[trajectory]\nkind = hover\n")
    cfg = load_config(path)
    assert cfg.trajectory().kind == "hover"
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
    assert np.allclose(cfg.quad().J, np.diag([0.02, 0.02, 0.04]))


def test_initial_attitude(tmp_path):
    path = write(tmp_path, "[initial]\nattitude = 0.5 0 0\n")
    R = unpack_state(load_config(path).initial_state())[2]
    assert R[0, 0] == pytest.approx(np.cos(0.5))


def test_overrides_win(tmp_path):
    path = write(tmp_path, "[simulation]\nduration = 4\n")
    cfg = load_config(path, overrides={("simulation", "duration"): "7"})
    assert cfg.get("simulation", "duration") == 7.0


def test_unknown_override():
    with pytest.raises(ParseError):
        load_config(overrides={("nope", "nope"): "1"})


def test_calibrated_simplified_matches_hover():
    cfg = load_config(overrides={("simplified", "calibrate"): "on"})
    simp = cfg.simplified()
    direct = calibrate_simplified(cfg.aero(), cfg.quad())
    assert simp.C_T == pytest.approx(direct.C_T)
    assert simp.C_Q == pytest.approx(direct.C_Q)
    assert simp.C_T > 0 and simp.C_TQ > 0


def test_schema_reference_text_is_loadable(tmp_path):
    text = default_config_text()
    assert "[simulation]" in text and "dt = 0.001" in text
    path = write(tmp_path, text)
    cfg = load_config(path)
    assert cfg.get("simulation", "dt") == 1e-3
