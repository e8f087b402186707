"""Plain-text configuration: schema, parsing, validation, defaults.

The format is INI-style `key = value` under section headers, chosen so an
experiment record diffs cleanly.  Every key has a default; unknown sections
or keys are rejected with a ParseError; values violating a documented
invariant raise ValidationError naming the key.  `default_config_text()`
prints the full schema with defaults as a commented reference.
"""

import configparser
import io
from dataclasses import dataclass, field

import numpy as np

from .adaptive import AdaptationGains, NNWeights
from .aero import RotorAeroParams, solve_thrust_inflow, torque_coefficient
from .controller import ControllerGains
from .dynamics import DT_MAX, QuadParams, SimplifiedModelParams
from .errors import ParseError, ValidationError
from .layout import pack_state
from .scenarios import TrajectoryGenerator, WindField
from .se3 import rotation_zyx
from .stability import BoundAssumptions

PLANT_MODES = ("simplified", "full_aero", "synthetic")


def _parse_float(s):
    return float(s)


def _parse_int(s):
    return int(s)


def _parse_bool(s):
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected boolean, got {s!r}")


def _parse_vec(s):
    return np.array([float(tok) for tok in s.replace(",", " ").split()])


def _parse_vec3(s):
    v = _parse_vec(s)
    if v.shape != (3,):
        raise ValueError(f"expected 3 components, got {v.size}")
    return v


def _parse_inertia(s):
    v = _parse_vec(s)
    if v.size == 3:
        return np.diag(v)
    if v.size == 9:
        return v.reshape(3, 3)
    raise ValueError(f"inertia needs 3 (diagonal) or 9 entries, got {v.size}")


def _parse_str(s):
    return s.strip()


# section -> key -> (parser, default-as-text, comment)
SCHEMA = {
    "simulation": {
        "dt": (_parse_float, "0.001", "integrator step [s], in (0, 0.05]"),
        "duration": (_parse_float, "10.0", "run length [s]"),
        "plant": (_parse_str, "simplified", "simplified | full_aero | synthetic"),
        "adaptation": (_parse_bool, "on", "enable online weight updates"),
        "seed": (_parse_int, "0", "RNG seed (synthetic target networks)"),
        "decimate": (_parse_int, "1", "keep every Nth telemetry record"),
    },
    "quad": {
        "mass": (_parse_float, "0.5", "[kg]"),
        "inertia": (_parse_inertia, "0.006 0.006 0.011", "diagonal (3) or full (9) [kg m^2]"),
        "d_h": (_parse_float, "0.15", "horizontal rotor offset [m]"),
        "d_v": (_parse_float, "-0.02", "vertical rotor offset [m]"),
        "gravity": (_parse_float, "9.81", "[m/s^2], may be zero"),
    },
    "aero": {
        "rho": (_parse_float, "1.225", "air density [kg/m^3]"),
        "r_p": (_parse_float, "0.12", "rotor radius [m]"),
        "n_b": (_parse_int, "2", "blade count"),
        "chord": (_parse_float, "0.015", "blade chord [m]"),
        "c_la": (_parse_float, "5.7", "lift-curve slope [1/rad]"),
        "theta0": (_parse_float, "0.25", "blade pitch [rad]"),
        "c_d0": (_parse_float, "0.012", "blade profile drag coefficient"),
        "c_alpha": (_parse_float, "0.01", "flapping coefficient [rad s/m]"),
        "k_beta": (_parse_float, "0.05", "blade stiffness [N m/rad]"),
        "c_d": (_parse_float, "0.05", "body drag coefficient [kg/m]"),
        "omega_min": (_parse_float, "1.0", "rotor speed floor [rad/s]"),
    },
    "simplified": {
        "c_t": (_parse_float, "8.5e-06", "thrust coefficient [N s^2]"),
        "c_q": (_parse_float, "8.6e-08", "torque coefficient [N m s^2]"),
        "calibrate": (_parse_bool, "off", "derive c_t/c_q from the aero hover solve"),
    },
    "gains": {
        "k_x": (_parse_float, "4.0", "position gain"),
        "k_v": (_parse_float, "2.5", "velocity gain"),
        "k_r": (_parse_float, "8.0", "attitude gain"),
        "k_omega": (_parse_float, "0.6", "angular-rate gain"),
        "c1": (_parse_float, "1.0", "position error coupling"),
        "c2": (_parse_float, "0.8", "attitude error coupling"),
    },
    "nn1": {
        "gamma_w": (_parse_float, "20.0", "outer-layer learning rate"),
        "gamma_v": (_parse_float, "10.0", "inner-layer learning rate"),
        "kappa": (_parse_float, "0.015", "damping"),
        "w_max": (_parse_float, "3.0", "outer-layer norm bound"),
        "v_max": (_parse_float, "1.0", "inner-layer norm bound"),
        "hidden": (_parse_int, "10", "hidden-layer width"),
    },
    "nn2": {
        "gamma_w": (_parse_float, "10.0", "outer-layer learning rate"),
        "gamma_v": (_parse_float, "5.0", "inner-layer learning rate"),
        "kappa": (_parse_float, "0.05", "damping"),
        "w_max": (_parse_float, "0.5", "outer-layer norm bound"),
        "v_max": (_parse_float, "0.5", "inner-layer norm bound"),
        "hidden": (_parse_int, "10", "hidden-layer width"),
    },
    "trajectory": {
        "kind": (_parse_str, "hover", "hover | circle | helix | lissajous"),
        "heading": (_parse_str, "tangent", "tangent | fixed (circle/helix)"),
        "center": (_parse_vec3, "0 0 0", "[m]"),
        "radius": (_parse_float, "2.0", "circle/helix radius [m]"),
        "omega": (_parse_float, "0.5", "circle/helix angular rate [rad/s]"),
        "v_z": (_parse_float, "0.0", "helix climb rate [m/s]"),
        "amplitudes": (_parse_vec3, "1 1 0", "lissajous amplitudes [m]"),
        "frequencies": (_parse_vec3, "1 2 0", "lissajous frequencies [rad/s]"),
        "phases": (_parse_vec3, "0 1.5707963267948966 0", "lissajous phases [rad]"),
    },
    "wind": {
        "kind": (_parse_str, "none", "none | constant | step_gust | sinusoidal"),
        "base": (_parse_vec3, "0 0 0", "mean wind [m/s]"),
        "amplitude": (_parse_float, "0.0", "gust/sine amplitude [m/s]"),
        "onset": (_parse_float, "0.0", "gust onset time [s]"),
        "frequency": (_parse_float, "0.0", "sine frequency [Hz]"),
        "direction": (_parse_vec3, "1 0 0", "gust/sine direction"),
    },
    "disturbance": {
        "delta1": (_parse_vec3, "0 0 0", "constant force disturbance [N]"),
        "delta2": (_parse_vec3, "0 0 0", "constant moment disturbance [N m]"),
        "delta1_amp": (_parse_vec3, "0 0 0", "sinusoidal force amplitude [N]"),
        "delta1_freq": (_parse_float, "0.0", "force sine frequency [Hz]"),
        "delta2_amp": (_parse_vec3, "0 0 0", "sinusoidal moment amplitude [N m]"),
        "delta2_freq": (_parse_float, "0.0", "moment sine frequency [Hz]"),
        "target_w1": (_parse_float, "0.1", "synthetic target ||W1||_F"),
        "target_v1": (_parse_float, "0.05", "synthetic target ||V1||_F"),
        "target_w2": (_parse_float, "0.02", "synthetic target ||W2||_F"),
        "target_v2": (_parse_float, "0.05", "synthetic target ||V2||_F"),
    },
    "initial": {
        "x": (_parse_vec3, "0 0 0", "position [m]"),
        "v": (_parse_vec3, "0 0 0", "velocity [m/s]"),
        "attitude": (_parse_vec3, "0 0 0", "yaw pitch roll [rad]"),
        "omega": (_parse_vec3, "0 0 0", "body rates [rad/s]"),
    },
    "assumptions": {
        "psi1": (_parse_float, "0.25", "initial attitude error bound, in (0,1)"),
        "b1": (_parse_float, "10.0", "command acceleration bound [N]"),
        "b4": (_parse_float, "2.0", "computed-attitude rate bound [1/s]"),
        "e_x_max": (_parse_float, "2.0", "position error bound [m]"),
        "x_d_max": (_parse_float, "1.0", "desired position bound [m]"),
        "v_d_max": (_parse_float, "1.0", "desired velocity bound [m/s]"),
        "e_max": (_parse_float, "0.5", "Euler-angle norm bound [rad]"),
        "eps1": (_parse_float, "0.01", "approximation accuracy, force"),
        "eps2": (_parse_float, "0.01", "approximation accuracy, moment"),
    },
    "output": {
        "csv": (_parse_str, "", "telemetry path (empty: skip)"),
        "summary": (_parse_str, "", "summary path (empty: skip)"),
        "weights": (_parse_str, "", "weight sidecar path (empty: skip)"),
    },
}


@dataclass
class SimConfig:
    """Typed, validated configuration for one simulation run."""

    values: dict = field(default_factory=dict)

    def get(self, section, key):
        return self.values[(section, key)]

    # -- constructed objects -------------------------------------------------

    def quad(self):
        return QuadParams(m=self.get("quad", "mass"), J=self.get("quad", "inertia"),
                          d_h=self.get("quad", "d_h"), d_v=self.get("quad", "d_v"),
                          g=self.get("quad", "gravity"))

    def aero(self):
        return RotorAeroParams(
            rho=self.get("aero", "rho"), r_p=self.get("aero", "r_p"),
            N_b=self.get("aero", "n_b"), chord=self.get("aero", "chord"),
            C_la=self.get("aero", "c_la"), theta0=self.get("aero", "theta0"),
            C_D0=self.get("aero", "c_d0"), C_alpha=self.get("aero", "c_alpha"),
            K_beta=self.get("aero", "k_beta"), C_d=self.get("aero", "c_d"))

    def simplified(self):
        if self.get("simplified", "calibrate"):
            return calibrate_simplified(self.aero(), self.quad())
        return SimplifiedModelParams(C_T=self.get("simplified", "c_t"),
                                     C_Q=self.get("simplified", "c_q"))

    def gains(self):
        g1 = AdaptationGains(gamma_w=self.get("nn1", "gamma_w"),
                             gamma_v=self.get("nn1", "gamma_v"),
                             kappa=self.get("nn1", "kappa"))
        g2 = AdaptationGains(gamma_w=self.get("nn2", "gamma_w"),
                             gamma_v=self.get("nn2", "gamma_v"),
                             kappa=self.get("nn2", "kappa"))
        return ControllerGains(k_x=self.get("gains", "k_x"), k_v=self.get("gains", "k_v"),
                               k_R=self.get("gains", "k_r"), k_Omega=self.get("gains", "k_omega"),
                               c1=self.get("gains", "c1"), c2=self.get("gains", "c2"),
                               adapt1=g1, adapt2=g2)

    def network(self, index):
        sec = f"nn{index}"
        return NNWeights.zeros(n_in=6, n_hidden=self.get(sec, "hidden"), n_out=3,
                               W_max=self.get(sec, "w_max"), V_max=self.get(sec, "v_max"))

    def trajectory(self):
        return TrajectoryGenerator(
            kind=self.get("trajectory", "kind"), center=self.get("trajectory", "center"),
            radius=self.get("trajectory", "radius"), omega=self.get("trajectory", "omega"),
            v_z=self.get("trajectory", "v_z"), heading=self.get("trajectory", "heading"),
            amplitudes=self.get("trajectory", "amplitudes"),
            frequencies=self.get("trajectory", "frequencies"), phases=self.get("trajectory", "phases"))

    def wind(self):
        return WindField(kind=self.get("wind", "kind"), base=self.get("wind", "base"),
                         amplitude=self.get("wind", "amplitude"), onset=self.get("wind", "onset"),
                         frequency=self.get("wind", "frequency"), direction=self.get("wind", "direction"))

    def assumptions(self):
        return BoundAssumptions(
            psi1=self.get("assumptions", "psi1"), B1=self.get("assumptions", "b1"),
            B4=self.get("assumptions", "b4"),
            e_x_max=self.get("assumptions", "e_x_max"), x_d_max=self.get("assumptions", "x_d_max"),
            v_d_max=self.get("assumptions", "v_d_max"), E_max=self.get("assumptions", "e_max"),
            eps1=self.get("assumptions", "eps1"), eps2=self.get("assumptions", "eps2"),
            W_max1=self.get("nn1", "w_max"), V_max1=self.get("nn1", "v_max"),
            W_max2=self.get("nn2", "w_max"), V_max2=self.get("nn2", "v_max"))

    def initial_state(self):
        """Packed initial state (see layout.STATE)."""
        return pack_state(self.get("initial", "x"), self.get("initial", "v"),
                          rotation_zyx(*self.get("initial", "attitude")),
                          self.get("initial", "omega"))


def calibrate_simplified(aero, quad):
    """Constant coefficients matching the aero plant at zero-wind hover.

    C_T' = C_T(0,0) rho A_p r_p^2 and C_Q' likewise, so the hover-trim rotor
    speed produces identical thrust in both plants.
    """
    C_T, lam = solve_thrust_inflow(0.0, 0.0, aero)
    C_Q = torque_coefficient(C_T, lam, 0.0, 0.0, aero)
    scale = aero.rho * aero.A_p * aero.r_p ** 2
    return SimplifiedModelParams(C_T=C_T * scale, C_Q=C_Q * scale * aero.r_p)


def _validate(cfg):
    # NaN fails no comparison-based range check below and inf passes many;
    # either would surface mid-run or in the gain report instead
    for (section, key), value in cfg.values.items():
        if isinstance(value, (float, np.ndarray)) and not np.all(np.isfinite(value)):
            raise ValidationError(f"{section}.{key} must be finite, got {value}")
    dt = cfg.get("simulation", "dt")
    if not 0.0 < dt <= DT_MAX:
        raise ValidationError(f"simulation.dt must be in (0, {DT_MAX}], got {dt}")
    duration = cfg.get("simulation", "duration")
    # run_simulation takes round(duration / dt) steps: at least one needs
    # duration / dt > 0.5 (round(0.5) == 0), and a count needs it finite
    if not 0.5 < duration / dt < float("inf"):
        raise ValidationError(f"simulation.duration must be finite and cover at least "
                              f"one step of dt = {dt}, got {duration}")
    if cfg.get("simulation", "plant") not in PLANT_MODES:
        raise ValidationError(f"simulation.plant must be one of {PLANT_MODES}")
    if cfg.get("simulation", "decimate") < 1:
        raise ValidationError("simulation.decimate must be >= 1")
    # object constructors own the physical invariants
    builders = (("quad", cfg.quad), ("aero", cfg.aero), ("simplified", cfg.simplified),
                ("gains", cfg.gains), ("nn1", lambda: cfg.network(1)),
                ("nn2", lambda: cfg.network(2)), ("trajectory", cfg.trajectory),
                ("wind", cfg.wind), ("assumptions", cfg.assumptions),
                ("initial", cfg.initial_state))
    for section, build in builders:
        try:
            build()
        except (ValueError, ValidationError) as exc:
            raise ValidationError(f"[{section}] {exc}") from exc


def load_config(path=None, overrides=None):
    """Load, merge, and validate a configuration.

    path may be None (pure defaults).  `overrides` maps (section, key) to
    value text and is applied after the file, before validation.

    Raises
    ------
    ParseError
        On syntax errors, unknown sections, or unknown keys.
    ValidationError
        On invariant violations.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if path is not None:
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ParseError(str(exc)) from exc

    values = {}
    for section, keys in SCHEMA.items():
        for key, (parse, default, _) in keys.items():
            values[(section, key)] = parse(default)

    for section in parser.sections():
        if section not in SCHEMA:
            raise ParseError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise ParseError(f"unknown key {key!r} in section [{section}]")
            parse = SCHEMA[section][key][0]
            try:
                values[(section, key)] = parse(raw)
            except ValueError as exc:
                raise ParseError(f"[{section}] {key}: {exc}") from exc

    if overrides:
        for (section, key), raw in overrides.items():
            if section not in SCHEMA or key not in SCHEMA[section]:
                raise ParseError(f"unknown override {section}.{key}")
            parse = SCHEMA[section][key][0]
            try:
                values[(section, key)] = parse(raw)
            except ValueError as exc:
                raise ParseError(f"override {section}.{key}: {exc}") from exc

    cfg = SimConfig(values=values)
    _validate(cfg)
    return cfg


def default_config_text():
    """Full schema reference: every key with its default and meaning."""
    out = io.StringIO()
    for section, keys in SCHEMA.items():
        out.write(f"[{section}]\n")
        for key, (_, default, comment) in keys.items():
            out.write(f"{key} = {default}  # {comment}\n")
        out.write("\n")
    return out.getvalue()
