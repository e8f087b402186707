"""Closed-loop simulation driver, telemetry array, CSV and summary output.

One step of the loop: sample the desired trajectory and wind, run the
controller (which also advances the adaptive weights), build the plant
wrench for the configured mode, integrate one RK4 step, record telemetry
(one row of a preallocated float array per decimated step).
A controller degeneracy, solver failure, or non-finite state aborts the run
with the step index and offending quantity; partial telemetry is preserved
on the raised SimulationAbort.

Plant modes
-----------
simplified:  U_e = m g e3 - f R e3 - delta1(t), M_e = M_c - delta2(t) with
             the configured constant-plus-sinusoid disturbance.
synthetic:   delta_i generated by a known random target network of the same
             architecture (seeded), so ideal weights are available and the
             full Lyapunov value including weight-error terms is recorded.
full_aero:   rotor speeds from the commanded thrusts drive the full
             aerodynamic plant under the configured wind field.
"""

import math
from dataclasses import dataclass

import numpy as np

from .adaptive import NNWeights, build_attitude_input, build_position_input, nn_output
from .aero import resultant_wrench
from .controller import GeometricAdaptiveController
from .errors import (DegenerateMatrix, DegenerateThrust, HeadingDegenerate,
                     NoConvergence, NonFiniteWeights, RotorStopped,
                     SimulationAbort)
from .dynamics import simplified_wrench, step_rk4
from .layout import (COLUMNS, FIELDS, OUTPUT, ROW_OUTPUT, ROW_STATE, STATE,
                     unpack_state)
from .scenarios import trajectory_at, wind_at
from .stability import lyapunov_value


@dataclass
class SimResult:
    telemetry: np.ndarray       # (n_records, len(COLUMNS)), read through FIELDS
    summary: dict
    targets: tuple = None       # (NNWeights, NNWeights) in synthetic mode
    nn_error_sq: np.ndarray = None  # (n_records, 2): ||W~i||^2 + ||V~i||^2, i = 1, 2
    weights: tuple = None       # final (nn1, nn2)


def _injected_delta(cfg):
    d1c = cfg.get("disturbance", "delta1")
    d2c = cfg.get("disturbance", "delta2")
    d1a = cfg.get("disturbance", "delta1_amp")
    d2a = cfg.get("disturbance", "delta2_amp")
    f1 = cfg.get("disturbance", "delta1_freq")
    f2 = cfg.get("disturbance", "delta2_freq")

    def delta(t, s):
        return (d1c + d1a * math.sin(2.0 * math.pi * f1 * t),
                d2c + d2a * math.sin(2.0 * math.pi * f2 * t))

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
    zero3 = np.zeros(3)

    def delta(t, s):
        x, v, R, Omega = unpack_state(s)
        x_nn2, _ = build_attitude_input(R, Omega, fallback_angles=zero3)
        (d1, _), (d2, _) = nn_output(targets, (build_position_input(x, v), x_nn2))
        return d1, d2

    return delta


def run_simulation(config):
    """Run the configured closed loop; returns SimResult.

    Deterministic for a fixed config and seed.  Raises SimulationAbort (with
    partial telemetry attached) on controller degeneracy, solver failure, or
    a non-finite state.
    """
    dt = config.get("simulation", "dt")
    duration = config.get("simulation", "duration")
    mode = config.get("simulation", "plant")
    decimate = config.get("simulation", "decimate")
    n_steps = int(round(duration / dt))

    quad = config.quad()
    simp = config.simplified()
    gains = config.gains()
    gen = config.trajectory()
    wind = config.wind()
    ctrl = GeometricAdaptiveController(
        gains, quad, simp,
        nn1=config.network(1), nn2=config.network(2),
        adaptation=config.get("simulation", "adaptation"),
        omega_min=config.get("aero", "omega_min"))
    state = config.initial_state()

    targets = None
    if mode == "synthetic":
        targets = make_synthetic_targets(config)
        delta_fn = _synthetic_delta(targets)
    elif mode == "simplified":
        delta_fn = _injected_delta(config)

    aero = config.aero() if mode == "full_aero" else None
    omega_min = config.get("aero", "omega_min")

    telemetry = np.empty((math.ceil(n_steps / decimate), len(COLUMNS)))
    nn_error_sq = np.empty((len(telemetry), 2)) if targets is not None else None
    n_rec = 0

    def abort(step, reason):
        err = SimulationAbort(step, reason)
        err.telemetry = telemetry[:n_rec]
        raise err

    for k in range(n_steps):
        t = k * dt
        traj = trajectory_at(gen, t)
        # the weights this step uses; update_weights returns new objects
        nn1, nn2 = ctrl.nn1, ctrl.nn2

        try:
            out = ctrl.step(state, traj, dt)
        except (DegenerateThrust, HeadingDegenerate) as exc:
            abort(k, f"controller degeneracy: {exc}")
        except NonFiniteWeights as exc:
            abort(k, f"adaptation failure: {exc}")

        if k % decimate == 0:
            row = telemetry[n_rec]
            row[FIELDS["t"]] = t
            row[ROW_STATE] = state
            row[FIELDS["x_d"]] = traj.x_d
            row[ROW_OUTPUT] = out
            row[FIELDS["W1_norm"]], row[FIELDS["V1_norm"]] = nn1.norms()
            row[FIELDS["W2_norm"]], row[FIELDS["V2_norm"]] = nn2.norms()
            nn_errors = None
            if targets is not None:
                nn_errors = ((targets[0].W - nn1.W, targets[0].V - nn1.V),
                             (targets[1].W - nn2.W, targets[1].V - nn2.V))
                (W1t, V1t), (W2t, V2t) = nn_errors
                nn_error_sq[n_rec] = (np.sum(W1t * W1t) + np.sum(V1t * V1t),
                                      np.sum(W2t * W2t) + np.sum(V2t * V2t))
            row[FIELDS["V1"]], row[FIELDS["V2"]], row[FIELDS["V"]] = lyapunov_value(
                *(row[FIELDS[name]] for name in ("e_x", "e_v", "e_R", "e_Omega", "psi")),
                gains, quad.m, quad.J, nn_errors=nn_errors)
            row[FIELDS["v_w"]] = wind_at(wind, t)
            n_rec += 1

        if mode == "full_aero":
            omegas = out[OUTPUT["omegas"]]
            # RK4 stages 2 and 3 share one time: sample the wind once per time
            stage_wind = [None, None]

            def wrench(ts, s):
                if stage_wind[0] != ts:
                    stage_wind[:] = ts, wind_at(wind, ts)
                return resultant_wrench(s, stage_wind[1], omegas, quad,
                                        aero, omega_min)
        else:
            f_cmd, M_cmd = out[OUTPUT["f"]], out[OUTPUT["M_c"]]

            def wrench(ts, s):
                delta1, delta2 = delta_fn(ts, s)
                return simplified_wrench(s, f_cmd, M_cmd, quad,
                                         delta1=delta1, delta2=delta2)

        try:
            state = step_rk4(state, dt, wrench, quad, t)
        except (RotorStopped, NoConvergence) as exc:
            abort(k, f"plant failure: {exc}")
        except DegenerateMatrix as exc:
            # R0 exp(hat(phi)) is a rotation up to rounding, so only a
            # non-finite chart increment can make it degenerate
            abort(k, f"non-finite state component R ({exc})")

        finite = np.isfinite(state)
        if not finite.all():
            name = next(name for name, cols in STATE.items() if not finite[cols].all())
            abort(k, f"non-finite state component {name}")

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


def read_csv(path):
    """Read a telemetry CSV back as (header list, (rows, columns) float array).

    A header-only file gives shape (0, len(header)).
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = [[float(tok) for tok in line.strip().split(",")]
                for line in fh if line.strip()]
    return header, np.array(data, dtype=float).reshape(len(data), len(header))


def write_summary(summary, path, report_text=None):
    """Write `key: value` summary lines, optionally with a stability report."""
    with open(path, "w") as fh:
        for key, val in summary.items():
            fh.write(f"{key}: {val}\n")
        if report_text:
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
