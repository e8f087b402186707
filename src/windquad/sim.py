"""Closed-loop simulation driver, telemetry array, CSV and summary output.

A run reads the parts that its SimConfig built at load time and picks its
plant once, before the first step: one wrench function, which reads the
step's command (f and M_c, or the rotor speeds).  One step of the loop:
sample the desired trajectory, run the controller (which also advances the
adaptive weights) and set the command from its output, integrate one RK4
step, record telemetry (one row of a preallocated float array per
decimated step, packed in one write, with the wind of the configured
field).  The Lyapunov columns are filled once per run, after the last
step or in an abort, by one lyapunov_value call over the recorded error
columns.  The state goes
from step to step in the float form of dynamics.step_rk4, in which
config.initial_state holds it.  A controller degeneracy, solver failure, or
non-finite state aborts the run with the step index and offending quantity;
partial telemetry is preserved on the raised SimulationAbort.

Plant modes
-----------
simplified:  U_e = m g e3 - f R e3 - delta1(t), M_e = M_c - delta2(t) with
             the configured constant-plus-sinusoid disturbance.  A
             disturbance that is +0.0 at every time is left out of the
             wrench, which is then bit-for-bit the same.
synthetic:   delta_i generated by a known random target network of the same
             architecture (seeded), so ideal weights are available and the
             full Lyapunov value including weight-error terms is recorded.
full_aero:   rotor speeds from the commanded thrusts drive the full
             aerodynamic plant under the configured wind field, sampled
             once per distinct RK4 stage time.  No other plant feels the
             wind (config.PLANT_KEYS).
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .adaptive import NetworkPair, NNWeights, build_network_input, nn_output
from .aero import resultant_wrench
from .controller import GeometricAdaptiveController
from .errors import (DegenerateMatrix, DegenerateThrust, HeadingDegenerate,
                     NoConvergence, NonFiniteWeights, RotorStopped,
                     SimulationAbort, ValidationError)
from .dynamics import simplified_wrench, step_rk4
from .layout import COLUMNS, FIELDS, OUTPUT, STATE
from .scenarios import trajectory_at, wind_at
from .stability import lyapunov_value

#: one telemetry row as native float64s, packed straight into the array's
#: bytes: each double is copied bit for bit, NaN payloads and -0.0 included
_ROW = struct.Struct(f"{len(COLUMNS)}d")
#: the recorded errors that the Lyapunov columns are evaluated from
_LYAPUNOV_ERRORS = ("e_x", "e_v", "e_R", "e_Omega", "psi")


@dataclass
class SimResult:
    telemetry: np.ndarray       # (n_records, len(COLUMNS)), read through FIELDS
    summary: dict
    targets: tuple = None       # (NNWeights, NNWeights) in synthetic mode
    nn_error_sq: np.ndarray = None  # (n_records, 2): ||W~i||^2 + ||V~i||^2, i = 1, 2
    weights: tuple = None       # final (nn1, nn2)


def _injected_delta(cfg):
    """The configured constant-plus-sinusoid delta(t, x, v, R, Omega), or
    None when it is +0.0 at every time: both constants +0.0 and both
    amplitudes zero."""
    (c1, c2, c3), (d1, d2, d3), (a1, a2, a3), (b1, b2, b3) = (
        cfg.get("disturbance", key).tolist()
        for key in ("delta1", "delta2", "delta1_amp", "delta2_amp"))
    consts = (c1, c2, c3, d1, d2, d3)
    # c + a sin is then 0.0 + (+-0.0) = +0.0, and u - (+0.0) is u for every
    # float u; a constant -0.0 would give -0.0 there, and u - (-0.0) turns
    # a -0.0 u into +0.0
    if (not any((*consts, a1, a2, a3, b1, b2, b3))
            and all(math.copysign(1.0, c) > 0.0 for c in consts)):
        return None
    f1 = cfg.get("disturbance", "delta1_freq")
    f2 = cfg.get("disturbance", "delta2_freq")

    def delta(t, x, v, R, Omega):
        s1 = math.sin(2.0 * math.pi * f1 * t)
        s2 = math.sin(2.0 * math.pi * f2 * t)
        return ((c1 + a1 * s1, c2 + a2 * s1, c3 + a3 * s1),
                (d1 + b1 * s2, d2 + b2 * s2, d3 + b3 * s2))

    return delta


def make_synthetic_targets(cfg):
    """Seeded target networks generating the synthetic disturbance pair."""
    rng = np.random.default_rng(cfg.get("simulation", "seed"))
    t1 = NNWeights.random(rng, n_in=6, n_hidden=cfg.get("nn1", "hidden"), n_out=3,
                          W_norm=cfg.get("disturbance", "target_w1"),
                          V_norm=cfg.get("disturbance", "target_v1"))
    t2 = NNWeights.random(rng, n_in=6, n_hidden=cfg.get("nn2", "hidden"), n_out=3,
                          W_norm=cfg.get("disturbance", "target_w2"),
                          V_norm=cfg.get("disturbance", "target_v2"))
    return t1, t2


def _synthetic_delta(targets):
    # the targets are never updated, so their pair is built once per run
    pair = NetworkPair(*targets)
    zero3 = (0.0, 0.0, 0.0)

    def delta(t, x, v, R, Omega):
        x_nn, _ = build_network_input(x, v, R, Omega, fallback_angles=zero3)
        y, _ = nn_output(pair, x_nn)
        y = y.tolist()
        return y[0:3], y[3:6]

    return delta


def _squared_distance(A, B):
    """The sum of (A - B)^2, squared in place: np.sum((A - B) ** 2), bit for bit."""
    d = A - B
    d *= d
    return d.sum()


def run_simulation(config):
    """Run the configured closed loop; returns SimResult.

    Deterministic for a fixed config and seed.  Raises SimulationAbort (with
    partial telemetry attached) on controller degeneracy, solver failure, or
    a non-finite state, and ValidationError, before the first step, when the
    telemetry array of simulation.duration cannot be allocated.
    """
    dt = config.get("simulation", "dt")
    duration = config.get("simulation", "duration")
    mode = config.get("simulation", "plant")
    decimate = config.get("simulation", "decimate")
    n_steps = int(round(duration / dt))

    quad, gains, gen, wind = config.quad, config.gains, config.trajectory, config.wind
    ctrl = GeometricAdaptiveController(
        gains, quad, config.simplified, *config.networks,
        adaptation=config.get("simulation", "adaptation"),
        omega_min=config.get("aero", "omega_min"))
    state = x, v, (r1, r2, r3), Omega = config.initial_state

    # the plant, picked once: its wrench reads the step's command f_cmd and
    # M_cmd, or omegas, which the loop sets from the controller's output
    f_at, M_at, omegas_at = OUTPUT["f"], OUTPUT["M_c"], OUTPUT["omegas"]
    targets = make_synthetic_targets(config) if mode == "synthetic" else None
    if mode == "full_aero":
        aero, omega_min = config.aero, config.get("aero", "omega_min")
        # each rotor's last inflow, the warm start of its next solve
        inflow = [aero.lam_guess] * 4
        # the last stage time and its wind: RK4 stages 2 and 3 share one
        # time, and so do a step's last stage and the next step's first
        # when t + dt rounds to (k + 1) dt; wind_at is pure
        stage_wind = [None, None]

        def wrench(ts, x, v, R, Omega):
            if stage_wind[0] != ts:
                stage_wind[:] = ts, wind_at(wind, ts)
            return resultant_wrench(v, R, Omega, stage_wind[1], omegas, quad,
                                    aero, omega_min, inflow)
    else:
        delta_fn = _injected_delta(config) if targets is None else _synthetic_delta(targets)
        if delta_fn is None:
            def wrench(ts, x, v, R, Omega):
                return simplified_wrench(R, f_cmd, M_cmd, quad)
        else:
            def wrench(ts, x, v, R, Omega):
                delta1, delta2 = delta_fn(ts, x, v, R, Omega)
                return simplified_wrench(R, f_cmd, M_cmd, quad, delta1=delta1, delta2=delta2)

    try:
        telemetry = np.empty((math.ceil(n_steps / decimate), len(COLUMNS)))
    except MemoryError as exc:
        raise ValidationError(f"simulation.duration = {duration}: {exc}") from None
    rows, pack_row = telemetry.data.cast("B"), _ROW.pack_into
    # ||W~1||^2, ||V~1||^2, ||W~2||^2, ||V~2||^2 of each recorded step
    weight_sq = np.empty((len(telemetry), 4)) if targets is not None else None
    n_rec = 0
    # the state's 18 floats in STATE order: the finiteness check and the
    # next telemetry row
    state_row = *x, *v, *r1, *r2, *r3, *Omega

    def fill_lyapunov():
        """Fill the Lyapunov columns of the recorded rows from their recorded
        errors (and weight errors), in one call over the columns."""
        rec = telemetry[:n_rec]
        weights = None if weight_sq is None else (weight_sq[:n_rec, :2].T,
                                                  weight_sq[:n_rec, 2:].T)
        for field, values in zip(("V1", "V2", "V"), lyapunov_value(
                *(rec[:, FIELDS[name]].T for name in _LYAPUNOV_ERRORS),
                gains, quad.m, quad.J_rows, weight_sq=weights)):
            rec[:, FIELDS[field]] = values

    def abort(step, reason):
        fill_lyapunov()
        err = SimulationAbort(step, reason)
        err.telemetry = telemetry[:n_rec]
        raise err

    # an overflow or NaN in a step ends in one of its named aborts (weights,
    # thrust, R, state), so numpy's warnings would only print ahead of it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            t = k * dt
            traj = trajectory_at(gen, t)
            record = k % decimate == 0
            if record and targets is not None:
                # before the step, whose weight update writes into the arrays
                (t1, t2), nn1, nn2 = targets, ctrl.nn1, ctrl.nn2
                weight_sq[n_rec] = (_squared_distance(t1.W, nn1.W), _squared_distance(t1.V, nn1.V),
                                    _squared_distance(t2.W, nn2.W), _squared_distance(t2.V, nn2.V))

            try:
                out = ctrl.step(state, traj, dt)
            except (DegenerateThrust, HeadingDegenerate) as exc:
                abort(k, f"controller degeneracy: {exc}")
            except NonFiniteWeights as exc:
                abort(k, f"adaptation failure: {exc}")

            if record:
                # one write, in SCHEMA order: t, state, x_d, output, the
                # three Lyapunov columns (filled by fill_lyapunov), v_w
                pack_row(rows, n_rec * _ROW.size, t, *state_row, *traj.x_d, *out,
                         0.0, 0.0, 0.0, *wind_at(wind, t))
                n_rec += 1

            f_cmd, M_cmd, omegas = out[f_at], out[M_at], out[omegas_at]
            try:
                state = step_rk4(state, dt, wrench, quad, t)
            except (RotorStopped, NoConvergence) as exc:
                abort(k, f"plant failure: {exc}")
            except DegenerateMatrix as exc:
                # R0 exp(hat(phi)) is a rotation up to rounding, so only a
                # non-finite chart increment can make it degenerate
                abort(k, f"non-finite state component R ({exc})")

            # a finite float sum proves every entry finite; a NaN or an
            # infinite entry makes it non-finite, and so can an overflow
            x, v, (r1, r2, r3), Omega = state
            state_row = *x, *v, *r1, *r2, *r3, *Omega
            if not math.isfinite(sum(state_row)):
                for name, cols in STATE.items():
                    if not all(map(math.isfinite, state_row[cols])):
                        abort(k, f"non-finite state component {name}")
        fill_lyapunov()

    nn_error_sq = None if weight_sq is None else weight_sq[:, 0::2] + weight_sq[:, 1::2]
    summary = summarize(telemetry)
    return SimResult(telemetry=telemetry, summary=summary, targets=targets,
                     nn_error_sq=nn_error_sq, weights=(ctrl.nn1, ctrl.nn2))


def summarize(telemetry, band=0.05):
    """Scalar metrics over a telemetry array, read through FIELDS.

    RMS and max of the position and attitude error norms over the full run
    and the last 20%, the settling time into `band` [m], weight-norm maxima,
    final Lyapunov value, and saturation counts.
    """
    if len(telemetry) == 0:
        raise ValueError("telemetry is empty")
    t = telemetry[:, FIELDS["t"]]
    ex = np.linalg.norm(telemetry[:, FIELDS["e_x"]], axis=1)
    eR = np.linalg.norm(telemetry[:, FIELDS["e_R"]], axis=1)
    tail = slice(int(math.floor(0.8 * len(t))), None)

    def rms(a):
        return float(np.sqrt(np.mean(a * a)))

    above = np.nonzero(ex > band)[0]
    if above.size == 0:
        settling = float(t[0])
    elif above[-1] == len(t) - 1:
        settling = float("inf")
    else:
        settling = float(t[above[-1] + 1])

    return {
        "steps": len(t),
        "t_final": float(t[-1]),
        "rms_e_x": rms(ex),
        "max_e_x": float(ex.max()),
        "rms_e_x_tail": rms(ex[tail]),
        "max_e_x_tail": float(ex[tail].max()),
        "rms_e_R": rms(eR),
        "max_e_R": float(eR.max()),
        "rms_e_R_tail": rms(eR[tail]),
        "max_e_R_tail": float(eR[tail].max()),
        "max_psi": float(telemetry[:, FIELDS["psi"]].max()),
        "settling_time": settling,
        "settling_band": band,
        "max_W1_norm": float(telemetry[:, FIELDS["W1_norm"]].max()),
        "max_V1_norm": float(telemetry[:, FIELDS["V1_norm"]].max()),
        "max_W2_norm": float(telemetry[:, FIELDS["W2_norm"]].max()),
        "max_V2_norm": float(telemetry[:, FIELDS["V2_norm"]].max()),
        "final_V": float(telemetry[-1, FIELDS["V"]]),
        "saturation_count": int(telemetry[:, FIELDS["saturated"]].sum()),
    }


def write_csv(telemetry, path):
    """Write a telemetry array with a header row and >= 12 significant digits."""
    np.savetxt(path, telemetry, fmt="%.12e", delimiter=",",
               header=",".join(COLUMNS), comments="")


def write_summary(summary, path, report_text, ignored=()):
    """Write `key: value` summary lines, then one `ignored: section.key = value`
    line per ignored config key, then the stability report."""
    with open(path, "w") as fh:
        for key, val in summary.items():
            fh.write(f"{key}: {val}\n")
        for line in ignored:
            fh.write(f"ignored: {line}\n")
        fh.write("\n# stability report\n")
        fh.write(report_text + "\n")


def write_weights_csv(snapshots, path):
    """Weight sidecar: one row per labelled snapshot.

    Columns: label, then W entries row-major (W11, W12, ...), then V entries
    row-major.  Shapes are recorded in the header.
    """
    with open(path, "w") as fh:
        for label, nn in snapshots:
            header = (f"# {label}: W {nn.W.shape[0]}x{nn.W.shape[1]} row-major, "
                      f"then V {nn.V.shape[0]}x{nn.V.shape[1]} row-major\n")
            fh.write(header)
            values = np.concatenate((nn.W.reshape(-1), nn.V.reshape(-1)))
            fh.write(label + "," + ",".join(f"{v:.12e}" for v in values) + "\n")
