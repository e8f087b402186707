"""Plain-text configuration: schema, parsing, validation, defaults.

The format is INI-style `key = value` under section headers, chosen so an
experiment record diffs cleanly.  Every key has a default; unknown sections
or keys are rejected with a ParseError; values violating a documented
invariant raise ValidationError naming the key.  `load_config` returns a
SimConfig, which builds each part of a run (the vehicle, the rotor, the
gains, the networks, the trajectory, the wind, ...) once, at load time, as
a plain attribute.  `default_config_text()` prints the full schema with
defaults as a commented reference.
"""

import configparser
import io
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .adaptive import AdaptationGains, NNWeights
from .aero import RotorAeroParams, solve_thrust_inflow, torque_coefficient
from .controller import ControllerGains
from .dynamics import DT_MAX, QuadParams, SimplifiedModelParams
from .errors import NoConvergence, ParseError, ValidationError
from .layout import COLUMNS
from .scenarios import TrajectoryGenerator, WindField
from .se3 import rotation_zyx
from .stability import BoundAssumptions

PLANT_MODES = ("simplified", "full_aero", "synthetic")


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


# section -> key -> (parser, default-as-text, comment)
SCHEMA = {
    "simulation": {
        "dt": (float, "0.001", "integrator step [s], in (0, 0.05]"),
        "duration": (float, "10.0", "run length [s]"),
        "plant": (str.strip, "simplified", "simplified | full_aero | synthetic"),
        "adaptation": (_parse_bool, "on", "enable online weight updates"),
        "seed": (int, "0", "RNG seed (synthetic target networks)"),
        "decimate": (int, "1", "keep every Nth telemetry record"),
    },
    "quad": {
        "mass": (float, "0.5", "[kg]"),
        "inertia": (_parse_inertia, "0.006 0.006 0.011", "diagonal (3) or full (9) [kg m^2]"),
        "d_h": (float, "0.15", "horizontal rotor offset [m]"),
        "d_v": (float, "-0.02", "vertical rotor offset [m]"),
        "gravity": (float, "9.81", "[m/s^2], may be zero"),
    },
    "aero": {
        "rho": (float, "1.225", "air density [kg/m^3]"),
        "r_p": (float, "0.12", "rotor radius [m]"),
        "n_b": (int, "2", "blade count"),
        "chord": (float, "0.015", "blade chord [m]"),
        "c_la": (float, "5.7", "lift-curve slope [1/rad]"),
        "theta0": (float, "0.25", "blade pitch [rad]"),
        "c_d0": (float, "0.012", "blade profile drag coefficient"),
        "c_alpha": (float, "0.01", "flapping coefficient [rad s/m]"),
        "k_beta": (float, "0.05", "blade stiffness [N m/rad]"),
        "c_d": (float, "0.05", "body drag coefficient [kg/m]"),
        "omega_min": (float, "1.0", "rotor speed floor [rad/s]"),
    },
    "simplified": {
        "c_t": (float, "8.5e-06", "thrust coefficient [N s^2]"),
        "c_q": (float, "8.6e-08", "torque coefficient [N m s^2]"),
        "calibrate": (_parse_bool, "off", "derive c_t/c_q from the aero hover solve"),
    },
    "gains": {
        "k_x": (float, "4.0", "position gain"),
        "k_v": (float, "2.5", "velocity gain"),
        "k_r": (float, "8.0", "attitude gain"),
        "k_omega": (float, "0.6", "angular-rate gain"),
        "c1": (float, "1.0", "position error coupling"),
        "c2": (float, "0.8", "attitude error coupling"),
    },
    "nn1": {
        "gamma_w": (float, "20.0", "outer-layer learning rate"),
        "gamma_v": (float, "10.0", "inner-layer learning rate"),
        "kappa": (float, "0.015", "damping"),
        "w_max": (float, "3.0", "outer-layer norm bound"),
        "v_max": (float, "1.0", "inner-layer norm bound"),
        "hidden": (int, "10", "hidden-layer width"),
    },
    "nn2": {
        "gamma_w": (float, "10.0", "outer-layer learning rate"),
        "gamma_v": (float, "5.0", "inner-layer learning rate"),
        "kappa": (float, "0.05", "damping"),
        "w_max": (float, "0.5", "outer-layer norm bound"),
        "v_max": (float, "0.5", "inner-layer norm bound"),
        "hidden": (int, "10", "hidden-layer width"),
    },
    "trajectory": {
        "kind": (str.strip, "hover", "hover | circle | lissajous"),
        "heading": (str.strip, "tangent", "tangent | fixed (circle)"),
        "center": (_parse_vec3, "0 0 0", "[m]"),
        "radius": (float, "2.0", "circle radius [m]"),
        "omega": (float, "0.5", "circle angular rate [rad/s]"),
        "v_z": (float, "0.0", "circle climb rate [m/s]"),
        "amplitudes": (_parse_vec3, "1 1 0", "lissajous amplitudes [m]"),
        "frequencies": (_parse_vec3, "1 2 0", "lissajous frequencies [rad/s]"),
        "phases": (_parse_vec3, "0 1.5707963267948966 0", "lissajous phases [rad]"),
    },
    "wind": {
        "kind": (str.strip, "none", "none | constant | step_gust | sinusoidal"),
        "base": (_parse_vec3, "0 0 0", "mean wind [m/s]"),
        "amplitude": (float, "0.0", "gust/sine amplitude [m/s]"),
        "onset": (float, "0.0", "gust onset time [s]"),
        "frequency": (float, "0.0", "sine frequency [Hz]"),
        "direction": (_parse_vec3, "1 0 0", "gust/sine direction"),
    },
    "disturbance": {
        "delta1": (_parse_vec3, "0 0 0", "constant force disturbance [N]"),
        "delta2": (_parse_vec3, "0 0 0", "constant moment disturbance [N m]"),
        "delta1_amp": (_parse_vec3, "0 0 0", "sinusoidal force amplitude [N]"),
        "delta1_freq": (float, "0.0", "force sine frequency [Hz]"),
        "delta2_amp": (_parse_vec3, "0 0 0", "sinusoidal moment amplitude [N m]"),
        "delta2_freq": (float, "0.0", "moment sine frequency [Hz]"),
        "target_w1": (float, "0.1", "synthetic target ||W1||_F"),
        "target_v1": (float, "0.05", "synthetic target ||V1||_F"),
        "target_w2": (float, "0.02", "synthetic target ||W2||_F"),
        "target_v2": (float, "0.05", "synthetic target ||V2||_F"),
    },
    "initial": {
        "x": (_parse_vec3, "0 0 0", "position [m]"),
        "v": (_parse_vec3, "0 0 0", "velocity [m/s]"),
        "attitude": (_parse_vec3, "0 0 0", "yaw pitch roll [rad]"),
        "omega": (_parse_vec3, "0 0 0", "body rates [rad/s]"),
    },
    "assumptions": {
        "psi1": (float, "0.25", "initial attitude error bound, in (0,1)"),
        "b1": (float, "10.0", "command acceleration bound [N]"),
        "b4": (float, "2.0", "computed-attitude rate bound [1/s]"),
        "e_x_max": (float, "2.0", "position error bound [m]"),
        "x_d_max": (float, "1.0", "desired position bound [m]"),
        "v_d_max": (float, "1.0", "desired velocity bound [m/s]"),
        "e_max": (float, "0.5", "Euler-angle norm bound [rad]"),
        "eps1": (float, "0.01", "approximation accuracy, force"),
        "eps2": (float, "0.01", "approximation accuracy, moment"),
    },
}

#: keys that only some plants read: (section, key) -> the plants that read
#: it, in the order SimConfig.ignored() lists them.  The disturbance
#: frequencies are left out: a sine moves nothing without its amplitude,
#: which is listed.  aero.omega_min is left out: the controller's thrust
#: floor reads it on every plant.  Only the aero plant feels the wind; the
#: v_w telemetry columns record the configured field on every plant.
PLANT_KEYS = {
    **{("disturbance", key): ("simplified",)
       for key in ("delta1", "delta2", "delta1_amp", "delta2_amp")},
    **{("disturbance", key): ("synthetic",)
       for key in ("target_w1", "target_v1", "target_w2", "target_v2")},
    ("simulation", "seed"): ("synthetic",),
    **{("aero", key): ("full_aero",) for key in SCHEMA["aero"] if key != "omega_min"},
    ("quad", "d_v"): ("full_aero",),
    **{("wind", key): ("full_aero",) for key in SCHEMA["wind"]},
}

#: keys that their own section's switch reads under some of its values
#: only: (section, key) -> (switch key, the switch values that read it).
#: Under any other switch value, a value that differs from its SCHEMA
#: default is rejected at load time, since the run would drop it unread.
SWITCH_KEYS = {
    ("wind", "base"): ("kind", ("constant", "step_gust", "sinusoidal")),
    ("wind", "amplitude"): ("kind", ("step_gust", "sinusoidal")),
    ("wind", "onset"): ("kind", ("step_gust",)),
    ("wind", "frequency"): ("kind", ("sinusoidal",)),
    ("wind", "direction"): ("kind", ("step_gust", "sinusoidal")),
    ("simplified", "c_t"): ("calibrate", (False,)),
    ("simplified", "c_q"): ("calibrate", (False,)),
    **{("trajectory", key): ("kind", ("circle",))
       for key in ("radius", "omega", "heading", "v_z")},
    **{("trajectory", key): ("kind", ("lissajous",))
       for key in ("amplitudes", "frequencies", "phases")},
}

#: (amplitude, frequency) of each sine disturbance: either one moves
#: nothing without the other, so a non-default value of one with the other
#: at its default is rejected at load time
SINE_KEYS = (("delta1_amp", "delta1_freq"), ("delta2_amp", "delta2_freq"))


def _text(value):
    """A parsed value as config text: a vector space-separated, a switch on/off."""
    if isinstance(value, np.ndarray):
        return " ".join(map(str, value.tolist()))
    if isinstance(value, bool):
        return "on" if value else "off"
    return str(value)


@contextmanager
def _section(name):
    """Raise a constructor's ValueError or ValidationError again as a
    ValidationError naming the config section it was built from."""
    try:
        yield
    except (ValueError, ValidationError) as exc:
        raise ValidationError(f"[{name}] {exc}") from exc


@dataclass(eq=False)
class SimConfig:
    """Typed, validated configuration for one simulation run.

    `values` maps each (section, key) of SCHEMA to its parsed value.  The
    constructor validates them, then builds each part of the run once, as
    plain attributes: `quad`, `aero`, `simplified` (from the [aero] hover
    solve under simplified.calibrate = on), `gains`, `networks` (the zero
    nn1 and nn2 that a run starts from; the controller copies them),
    `trajectory`, `wind`, `assumptions`, and `initial_state` in the float
    form of dynamics.step_rk4 (x, v and Omega as lists of three floats, R
    as three rows).  The object constructors own the physical invariants: a
    part that they reject raises ValidationError("[section] ...").  Two
    configs compare by identity: `values` holds numpy arrays, whose `==`
    has no single truth value.
    """

    values: dict

    def __post_init__(self):
        _validate(self)
        get = self.get
        with _section("quad"):
            self.quad = QuadParams(m=get("quad", "mass"), J=get("quad", "inertia"),
                                   d_h=get("quad", "d_h"), d_v=get("quad", "d_v"),
                                   g=get("quad", "gravity"))
        with _section("aero"):
            self.aero = RotorAeroParams(
                rho=get("aero", "rho"), r_p=get("aero", "r_p"), N_b=get("aero", "n_b"),
                chord=get("aero", "chord"), C_la=get("aero", "c_la"),
                theta0=get("aero", "theta0"), C_D0=get("aero", "c_d0"),
                C_alpha=get("aero", "c_alpha"), K_beta=get("aero", "k_beta"),
                C_d=get("aero", "c_d"))
        with _section("simplified"):
            self.simplified = (calibrate_simplified(self.aero, self.quad)
                               if get("simplified", "calibrate") else
                               SimplifiedModelParams(C_T=get("simplified", "c_t"),
                                                     C_Q=get("simplified", "c_q")))
        with _section("gains"):
            g1, g2 = (AdaptationGains(gamma_w=get(nn, "gamma_w"), gamma_v=get(nn, "gamma_v"),
                                      kappa=get(nn, "kappa")) for nn in ("nn1", "nn2"))
            self.gains = ControllerGains(
                k_x=get("gains", "k_x"), k_v=get("gains", "k_v"), k_R=get("gains", "k_r"),
                k_Omega=get("gains", "k_omega"), c1=get("gains", "c1"), c2=get("gains", "c2"),
                adapt1=g1, adapt2=g2)
        self.networks = ()
        for nn in ("nn1", "nn2"):
            with _section(nn):
                self.networks += (NNWeights.zeros(n_in=6, n_hidden=get(nn, "hidden"), n_out=3,
                                                  W_max=get(nn, "w_max"), V_max=get(nn, "v_max")),)
        # each of these sections' keys is a keyword of its constructor
        with _section("trajectory"):
            self.trajectory = TrajectoryGenerator(
                **{key: get("trajectory", key) for key in SCHEMA["trajectory"]})
        with _section("wind"):
            self.wind = WindField(**{key: get("wind", key) for key in SCHEMA["wind"]})
        with _section("assumptions"):
            self.assumptions = BoundAssumptions(
                psi1=get("assumptions", "psi1"), B1=get("assumptions", "b1"),
                B4=get("assumptions", "b4"), e_x_max=get("assumptions", "e_x_max"),
                x_d_max=get("assumptions", "x_d_max"), v_d_max=get("assumptions", "v_d_max"),
                E_max=get("assumptions", "e_max"), eps1=get("assumptions", "eps1"),
                eps2=get("assumptions", "eps2"),
                W_max1=get("nn1", "w_max"), V_max1=get("nn1", "v_max"),
                W_max2=get("nn2", "w_max"), V_max2=get("nn2", "v_max"))
        self.initial_state = (get("initial", "x").tolist(), get("initial", "v").tolist(),
                              rotation_zyx(*get("initial", "attitude")).tolist(),
                              get("initial", "omega").tolist())

    def get(self, section, key):
        return self.values[(section, key)]

    def is_default(self, section, key):
        """True when the value equals the SCHEMA default of its key."""
        parse, default, _ = SCHEMA[section][key]
        return np.array_equal(self.get(section, key), parse(default))

    def ignored(self):
        """`section.key = value` of each key in PLANT_KEYS that the selected
        plant never reads and that differs from its SCHEMA default.  The
        [aero] keys are read on every plant under simplified.calibrate = on.

        Reported rather than rejected, so that one file serves every plant.
        """
        plant = self.get("simulation", "plant")
        calibrate = self.get("simplified", "calibrate")
        lines = []
        for (section, key), plants in PLANT_KEYS.items():
            if (plant in plants or (section == "aero" and calibrate)
                    or self.is_default(section, key)):
                continue
            lines.append(f"{section}.{key} = {_text(self.get(section, key))}")
        return lines


def calibrate_simplified(aero, quad):
    """Constant coefficients matching the aero plant at zero-wind hover.

    C_T' = C_T(0,0) rho A_p r_p^2 and C_Q' likewise, so the hover-trim rotor
    speed produces identical thrust in both plants.
    """
    try:
        C_T, lam = solve_thrust_inflow(0.0, 0.0, aero)
    except NoConvergence as exc:
        raise ValidationError(f"calibrate = on: the hover solve of the [aero] rotor "
                              f"found no trim ({exc})") from exc
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
    decimate = cfg.get("simulation", "decimate")
    if decimate < 1:
        raise ValidationError("simulation.decimate must be >= 1")
    # the telemetry array of run_simulation: numpy cannot size one whose
    # byte count overflows its index type
    rows = math.ceil(round(duration / dt) / decimate)
    if rows * len(COLUMNS) * np.dtype(float).itemsize > np.iinfo(np.intp).max:
        raise ValidationError(f"simulation.duration = {duration} needs {rows:.3g} telemetry rows "
                              f"at dt = {dt} and decimate = {decimate}, more than an "
                              f"array can index")
    # the thrust floor C_T' omega_min ** 2 of rotor_speed_from_thrust
    omega_min = cfg.get("aero", "omega_min")
    if omega_min * omega_min == float("inf"):
        raise ValidationError(f"aero.omega_min must have a finite square, got {omega_min}")
    if cfg.get("simulation", "seed") < 0:
        raise ValidationError("simulation.seed must be >= 0")
    # a synthetic target is scaled to its norm, which is then recomputed as
    # the root of a sum of squares: that sum overflows with the norm's square
    for key in ("target_w1", "target_v1", "target_w2", "target_v2"):
        norm = cfg.get("disturbance", key)
        if cfg.get("simulation", "plant") == "synthetic" and norm * norm == float("inf"):
            raise ValidationError(f"disturbance.{key} must have a finite square, got {norm}")
    for (section, key), (switch, readers) in SWITCH_KEYS.items():
        state = cfg.get(section, switch)
        if state not in readers and not cfg.is_default(section, key):
            raise ValidationError(
                f"{section}.{key} = {_text(cfg.get(section, key))} has no effect under "
                f"{section}.{switch} = {_text(state)}; it is read under "
                f"{section}.{switch} = {' | '.join(map(_text, readers))}")
    for amp, freq in SINE_KEYS:
        if cfg.is_default("disturbance", amp) != cfg.is_default("disturbance", freq):
            raise ValidationError(
                f"disturbance.{amp} = {_text(cfg.get('disturbance', amp))} with "
                f"disturbance.{freq} = {_text(cfg.get('disturbance', freq))} has no effect: "
                f"a sine disturbance needs both its amplitude and its frequency")


def load_config(path=None, overrides=None):
    """Load, merge, and validate a configuration.

    path may be None (pure defaults).  `overrides` maps (section, key) to
    value text.  The SCHEMA defaults, the file (UTF-8, a leading byte-order
    mark skipped) and the overrides are read in that order into one parser,
    later text winning, and every value is then parsed by the same loop.
    `%` is a literal character.

    Raises
    ------
    ParseError
        On syntax errors, an unreadable file, unknown sections, or unknown keys.
    ValidationError
        On invariant violations.
    """
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    parser.read_dict({section: {key: default for key, (_, default, _) in keys.items()}
                      for section, keys in SCHEMA.items()})
    layer = {}
    for (section, key), raw in (overrides or {}).items():
        layer.setdefault(section, {})[key] = raw
    try:
        if path is not None:
            with open(path, encoding="utf-8-sig") as fh:
                parser.read_file(fh)
        parser.read_dict(layer, source="<overrides>")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ParseError(str(exc)) from exc

    # ConfigParser would copy a [DEFAULT] section's keys into every section
    if parser.defaults():
        raise ParseError(f"unknown section [{parser.default_section}]")
    values = {}
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

    return SimConfig(values)


def default_config_text():
    """Full schema reference: every key with its default and meaning."""
    out = io.StringIO()
    for section, keys in SCHEMA.items():
        out.write(f"[{section}]\n")
        for key, (_, default, comment) in keys.items():
            out.write(f"{key} = {default}  # {comment}\n")
        out.write("\n")
    return out.getvalue()
