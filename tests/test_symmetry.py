"""Closed-loop symmetries of the model, checked without an oracle.

Golden files pin today's behaviour, right or wrong, so a frame or sign error
in the wrench, the wind composition or the controller would be pinned with
it.  Two exact symmetries of the model catch such an error instead.  Both
hold with adaptation off, because the position network's input [1, x, v] is
not invariant under them.

- A quarter turn about e3.  Q = Rz(pi/2) maps (x, y, z) to (-y, x, z), which
  is exact in floating point.  The initial position, velocity and attitude
  (R -> Q R), every TrajectoryPoint field, the wind and the injected force
  are turned.  The vehicle turns with the scene, so its body frame does not
  change: every body-frame column matches column for column, with no rotor
  permutation, and every inertial column matches after the same turn.
- A Galilean shift on the full_aero plant.  A constant velocity c is added
  to the initial velocity, to v_d (and c t to x_d) and to the wind, and b1_d
  is kept.  The air-relative motion does not change, and with it no
  body-frame column.

The scene is transformed from outside the package: the tests wrap
`windquad.sim.trajectory_at` and `wind_at` and the config's initial state
with monkeypatch.  Neither symmetry holds bitwise, because the rounding of
the transformed run differs; each column is compared against the measured
agreement (see TURN_RTOL and SHIFT_ATOL).

A sign error that stays in the body frame, such as a flipped Omega x r_j in
the relative wind at a rotor hub, keeps both symmetries.  These tests cannot
see it.
"""

from pathlib import Path

import numpy as np
import pytest

import windquad.sim
from windquad.config import load_config
from windquad.layout import COLUMNS, FIELDS
from windquad.scenarios import TrajectoryPoint
from windquad.sim import run_simulation

from oracles import pack_state, state_floats

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

#: quarter turn about e3; Q @ v only permutes and negates entries
Q = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
#: Galilean shift velocity [m/s]
SHIFT = np.array([1.5, -0.5, 0.0])

#: inertial vector fields of the telemetry row; every other field is a
#: body-frame vector or a scalar that neither symmetry changes (R is
#: handled on its own)
INERTIAL = ("x", "v", "x_d", "e_x", "e_v", "delta1_hat", "v_w")

#: bounds on the largest |transformed - expected| of each column, as a
#: fraction of the column's largest |value|.  Measured over 0.5 s: at most
#: 1.4e-12 for the turn (Mc2 on full_aero; 3.7e-16 on simplified) and
#: 1.3e-11 for the shift (Mc2).  Each bound leaves a factor above 10.
TURN_RTOL = 1e-10
SHIFT_RTOL = 2e-10

SCENES = {
    # hover config, with a tangent-heading helix, a tilted spinning start and
    # both injected disturbances, so that every input of the turn is nonzero
    "simplified": ("baseline", {
        ("trajectory", "kind"): "helix", ("trajectory", "radius"): "1.0",
        ("trajectory", "v_z"): "0.3", ("trajectory", "heading"): "tangent",
        ("initial", "attitude"): "0.3 0.1 -0.2", ("initial", "omega"): "0.2 -0.1 0.3",
        ("disturbance", "delta1"): "0.3 -0.2 0.1",
        ("disturbance", "delta1_amp"): "0.1 0.2 -0.1",
        ("disturbance", "delta1_freq"): "2.0",
        ("disturbance", "delta2"): "0.01 -0.02 0.005",
    }),
    "full_aero": ("wind_circle", {
        ("initial", "attitude"): "0.3 0.02 -0.02", ("initial", "omega"): "0.05 -0.05 0.1",
    }),
}


def vec3(v):
    return " ".join(repr(float(c)) for c in v)


def scene_config(plant, extra=()):
    name, overrides = SCENES[plant]
    overrides = {**overrides, ("simulation", "duration"): "0.5",
                 ("simulation", "decimate"): "1", ("simulation", "adaptation"): "off",
                 **dict(extra)}
    return load_config(CONFIGS / f"{name}.ini", overrides=overrides)


def run_transformed(monkeypatch, cfg, traj_map, wind_map, state_map):
    """Telemetry of cfg with its trajectory, wind and initial state mapped."""
    trajectory_at, wind_at = windquad.sim.trajectory_at, windquad.sim.wind_at
    state = state_floats(state_map(*map(np.array, cfg.initial_state)))
    with monkeypatch.context() as m:
        m.setattr(windquad.sim, "trajectory_at",
                  lambda gen, t: traj_map(trajectory_at(gen, t), t))
        m.setattr(windquad.sim, "wind_at", lambda field_, t: wind_map(wind_at(field_, t), t))
        m.setattr(cfg, "initial_state", state)
        return run_simulation(cfg).telemetry


def column_scale(telemetry):
    """Largest |value| of each column; 1 for a column that is all zeros."""
    scale = np.abs(telemetry).max(axis=0)
    return np.where(scale > 0.0, scale, 1.0)


def column_errors(got, want, scale):
    """Column name -> max |got - want| / scale, for every telemetry column."""
    err = np.abs(got - want).max(axis=0) / scale
    return dict(zip(COLUMNS, err.tolist()))


@pytest.mark.parametrize("plant", ["simplified", "full_aero"])
def test_quarter_turn_about_e3(plant, monkeypatch):
    base = run_simulation(scene_config(plant)).telemetry
    extra = {}
    if plant == "simplified":
        _, overrides = SCENES[plant]
        for key in ("delta1", "delta1_amp"):
            d = [float(c) for c in overrides[("disturbance", key)].split()]
            extra[("disturbance", key)] = vec3(Q @ d)
    turned = run_transformed(
        monkeypatch, scene_config(plant, extra),
        lambda p, t: TrajectoryPoint(*(Q @ f for f in p)),
        lambda v_w, t: Q @ v_w,
        lambda x, v, R, Om: pack_state(Q @ x, Q @ v, Q @ R, Om))

    want = base.copy()
    for name in INERTIAL:
        want[:, FIELDS[name]] = base[:, FIELDS[name]] @ Q.T
    want[:, FIELDS["R"]] = (Q @ base[:, FIELDS["R"]].reshape(-1, 3, 3)).reshape(-1, 9)
    errors = column_errors(turned, want, column_scale(base))
    worst = max(errors, key=errors.get)
    assert errors[worst] <= TURN_RTOL, f"{plant}: column {worst} off by {errors[worst]:.2e} of its max"


def test_galilean_shift_full_aero(monkeypatch):
    base = run_simulation(scene_config("full_aero")).telemetry
    shifted = run_transformed(
        monkeypatch, scene_config("full_aero"),
        lambda p, t: p._replace(x_d=p.x_d + SHIFT * t, v_d=p.v_d + SHIFT),
        lambda v_w, t: v_w + SHIFT,
        lambda x, v, R, Om: pack_state(x, v + SHIFT, R, Om))

    t = base[:, FIELDS["t"]][:, None]
    want = base.copy()
    for name, add in (("x", SHIFT * t), ("x_d", SHIFT * t), ("v", SHIFT), ("v_w", SHIFT)):
        want[:, FIELDS[name]] += add
    errors = column_errors(shifted, want, column_scale(base))
    worst = max(errors, key=errors.get)
    assert errors[worst] <= SHIFT_RTOL, f"column {worst} off by {errors[worst]:.2e} of its max"
