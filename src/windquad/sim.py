"""Closed-loop simulation driver, telemetry records, CSV and summary output.

One step of the loop: sample the desired trajectory and wind, run the
controller (which also advances the adaptive weights), build the plant
wrench for the configured mode, integrate one RK4 step, append telemetry.
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
from .errors import (DegenerateThrust, HeadingDegenerate, NoConvergence,
                     NonFiniteWeights, RotorStopped, SimulationAbort)
from .dynamics import simplified_wrench, step_rk4
from .scenarios import trajectory_at, wind_at
from .stability import lyapunov_value

#: telemetry column names, in file order
COLUMNS = (
    ["t"]
    + [f"x{i}" for i in "123"] + [f"v{i}" for i in "123"]
    + [f"R{i}{j}" for i in "123" for j in "123"]
    + [f"Om{i}" for i in "123"]
    + [f"xd{i}" for i in "123"]
    + [f"ex{i}" for i in "123"] + [f"ev{i}" for i in "123"]
    + [f"eR{i}" for i in "123"] + [f"eOm{i}" for i in "123"]
    + ["psi", "f"]
    + [f"Mc{i}" for i in "123"]
    + [f"T{j}" for j in "1234"] + [f"omega{j}" for j in "1234"]
    + [f"sat{j}" for j in "1234"]
    + [f"d1hat{i}" for i in "123"] + [f"d2hat{i}" for i in "123"]
    + ["W1_norm", "V1_norm", "W2_norm", "V2_norm"]
    + ["V1_lyap", "V2_lyap", "V_lyap"]
    + [f"vw{i}" for i in "123"]
)


@dataclass
class TelemetryRecord:
    """One step of telemetry; fields mirror the CSV schema."""

    t: float
    state_x: np.ndarray
    state_v: np.ndarray
    state_R: np.ndarray
    state_Omega: np.ndarray
    x_d: np.ndarray
    e_x: np.ndarray
    e_v: np.ndarray
    e_R: np.ndarray
    e_Omega: np.ndarray
    psi: float
    f: float
    M_c: np.ndarray
    thrusts: np.ndarray
    omegas: np.ndarray
    saturated: np.ndarray
    delta1_hat: np.ndarray
    delta2_hat: np.ndarray
    W1_norm: float
    V1_norm: float
    W2_norm: float
    V2_norm: float
    V1: float
    V2: float
    V: float
    v_w: np.ndarray

    def row(self):
        vals = ([self.t]
                + list(self.state_x) + list(self.state_v)
                + list(self.state_R.reshape(-1))
                + list(self.state_Omega) + list(self.x_d)
                + list(self.e_x) + list(self.e_v)
                + list(self.e_R) + list(self.e_Omega)
                + [self.psi, self.f] + list(self.M_c)
                + list(self.thrusts) + list(self.omegas)
                + [float(s) for s in self.saturated]
                + list(self.delta1_hat) + list(self.delta2_hat)
                + [self.W1_norm, self.V1_norm, self.W2_norm, self.V2_norm]
                + [self.V1, self.V2, self.V] + list(self.v_w))
        return vals


@dataclass
class SimResult:
    telemetry: list
    summary: dict
    targets: tuple = None       # (NNWeights, NNWeights) in synthetic mode
    nn_error_sq: list = None    # per-record (||W~1||^2+||V~1||^2, ||W~2||^2+||V~2||^2)
    weights: tuple = None       # final (nn1, nn2)


def _injected_delta(cfg):
    d1c = cfg.get("disturbance", "delta1")
    d2c = cfg.get("disturbance", "delta2")
    d1a = cfg.get("disturbance", "delta1_amp")
    d2a = cfg.get("disturbance", "delta2_amp")
    f1 = cfg.get("disturbance", "delta1_freq")
    f2 = cfg.get("disturbance", "delta2_freq")

    def delta1(t, state):
        return d1c + d1a * math.sin(2.0 * math.pi * f1 * t)

    def delta2(t, state):
        return d2c + d2a * math.sin(2.0 * math.pi * f2 * t)

    return delta1, delta2


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
    t1, t2 = targets
    zero3 = np.zeros(3)

    def delta1(t, state):
        return nn_output(t1, build_position_input(state.x, state.v))

    def delta2(t, state):
        x_nn, _ = build_attitude_input(state.R, state.Omega, fallback_angles=zero3)
        return nn_output(t2, x_nn)

    return delta1, delta2


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
        delta1_fn, delta2_fn = _synthetic_delta(targets)
    elif mode == "simplified":
        delta1_fn, delta2_fn = _injected_delta(config)

    aero = config.aero() if mode == "full_aero" else None
    omega_min = config.get("aero", "omega_min")

    telemetry = []
    nn_error_sq = [] if targets is not None else None

    def abort(step, reason):
        err = SimulationAbort(step, reason)
        err.telemetry = telemetry
        raise err

    for k in range(n_steps):
        t = k * dt
        traj = trajectory_at(gen, t)
        v_w = wind_at(wind, t)

        w1n, v1n = ctrl.nn1.norms()
        w2n, v2n = ctrl.nn2.norms()
        nn_errors = None
        if targets is not None:
            nn_errors = ((targets[0].W - ctrl.nn1.W, targets[0].V - ctrl.nn1.V),
                         (targets[1].W - ctrl.nn2.W, targets[1].V - ctrl.nn2.V))

        try:
            cmd, diag = ctrl.step(state, traj, dt)
        except (DegenerateThrust, HeadingDegenerate) as exc:
            abort(k, f"controller degeneracy: {exc}")
        except NonFiniteWeights as exc:
            abort(k, f"adaptation failure: {exc}")

        V1, V2, V = lyapunov_value(diag.e_x, diag.e_v, diag.e_R, diag.e_Omega,
                                   diag.psi, gains, quad.m, quad.J,
                                   nn_errors=nn_errors)

        if k % decimate == 0:
            if nn_error_sq is not None:
                (W1t, V1t), (W2t, V2t) = nn_errors
                nn_error_sq.append((float(np.sum(W1t * W1t) + np.sum(V1t * V1t)),
                                    float(np.sum(W2t * W2t) + np.sum(V2t * V2t))))
            telemetry.append(TelemetryRecord(
                t=t, state_x=state.x.copy(), state_v=state.v.copy(),
                state_R=state.R.copy(), state_Omega=state.Omega.copy(),
                x_d=traj.x_d, e_x=diag.e_x, e_v=diag.e_v, e_R=diag.e_R,
                e_Omega=diag.e_Omega, psi=diag.psi, f=cmd.f, M_c=cmd.M_c,
                thrusts=cmd.thrusts, omegas=cmd.omegas, saturated=cmd.saturated,
                delta1_hat=diag.delta1_hat, delta2_hat=diag.delta2_hat,
                W1_norm=w1n, V1_norm=v1n, W2_norm=w2n, V2_norm=v2n,
                V1=V1, V2=V2, V=V, v_w=v_w))

        if mode == "full_aero":
            omegas = cmd.omegas

            def wrench(ts, s):
                return resultant_wrench(s, wind_at(wind, ts), omegas, quad,
                                        aero, omega_min)
        else:
            f_cmd, M_cmd = cmd.f, cmd.M_c

            def wrench(ts, s):
                return simplified_wrench(s, f_cmd, M_cmd, quad,
                                         delta1=delta1_fn(ts, s),
                                         delta2=delta2_fn(ts, s))

        try:
            state = step_rk4(state, dt, wrench, quad, t)
        except (RotorStopped, NoConvergence) as exc:
            abort(k, f"plant failure: {exc}")

        if not state.is_finite():
            for name, val in (("x", state.x), ("v", state.v),
                              ("R", state.R), ("Omega", state.Omega)):
                if not np.all(np.isfinite(val)):
                    abort(k, f"non-finite state component {name}")

    summary = summarize(telemetry)
    return SimResult(telemetry=telemetry, summary=summary, targets=targets,
                     nn_error_sq=nn_error_sq, weights=(ctrl.nn1, ctrl.nn2))


def summarize(telemetry, band=0.05):
    """Scalar metrics over a telemetry series.

    RMS and max of the position and attitude error norms over the full run
    and the last 20%, the settling time into `band` [m], weight-norm maxima,
    final Lyapunov value, and saturation counts.
    """
    if not telemetry:
        raise ValueError("telemetry is empty")
    t = np.array([r.t for r in telemetry])
    ex = np.array([np.linalg.norm(r.e_x) for r in telemetry])
    eR = np.array([np.linalg.norm(r.e_R) for r in telemetry])
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
        "max_psi": float(max(r.psi for r in telemetry)),
        "settling_time": settling,
        "settling_band": band,
        "max_W1_norm": float(max(r.W1_norm for r in telemetry)),
        "max_V1_norm": float(max(r.V1_norm for r in telemetry)),
        "max_W2_norm": float(max(r.W2_norm for r in telemetry)),
        "max_V2_norm": float(max(r.V2_norm for r in telemetry)),
        "final_V": float(telemetry[-1].V),
        "saturation_count": int(sum(int(np.sum(r.saturated)) for r in telemetry)),
    }


def write_csv(telemetry, path):
    """Write telemetry with a header row and >= 12 significant digits."""
    with open(path, "w") as fh:
        fh.write(",".join(COLUMNS) + "\n")
        for rec in telemetry:
            fh.write(",".join(f"{v:.12e}" for v in rec.row()) + "\n")


def read_csv(path):
    """Read a telemetry CSV back as (header list, float array)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = [[float(tok) for tok in line.strip().split(",")]
                for line in fh if line.strip()]
    return header, np.array(data)


def write_summary(summary, path, report_text=None):
    """Write `key: value` summary lines, optionally with a stability report."""
    with open(path, "w") as fh:
        for key, val in summary.items():
            fh.write(f"{key}: {val}\n")
        if report_text:
            fh.write("\n# stability report\n")
            fh.write(report_text + "\n")


def weight_row(nn):
    """Flatten a network: W row-major, then V row-major."""
    return list(nn.W.reshape(-1)) + list(nn.V.reshape(-1))


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
            fh.write(label + "," + ",".join(f"{v:.12e}" for v in weight_row(nn)) + "\n")
