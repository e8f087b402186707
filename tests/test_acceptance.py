"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (visible with `pytest -s` or on
failure).  The expensive paired closed-loop runs are shared module-scoped
fixtures.  Discretization slack for the conditional decrease check is
documented at the check itself.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from windquad.aero import solve_thrust_inflow
from windquad.config import load_config
from windquad.controller import (ControllerGains, compute_A, compute_Rc,
                                 compute_thrust)
from windquad.dynamics import QuadParams, simplified_wrench, step_rk4
from windquad.se3 import attitude_error
from windquad.sim import FIELDS, run_simulation
from windquad.stability import (build_pd_matrices, set_d_functional,
                                ultimate_bound, validate_c1)

from conftest import at_rest
from oracles import (cross3, pack_state, state_floats, thrust_inflow_residuals,
                     thrust_mismatch_term, unpack_state)
from test_aero import bisection_oracle


def gate(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared closed-loop runs (scenario files under configs/ are the single
# source of truth; the CLI runs the same scenarios)
# ---------------------------------------------------------------------------

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def scenario_config(name, **kv):
    overrides = {tuple(k.split("__")): v for k, v in kv.items()}
    return load_config(str(CONFIG_DIR / name), overrides=overrides)


def paired(name):
    results = {}
    for mode in ("on", "off"):
        cfg = scenario_config(name, simulation__adaptation=mode)
        results[mode] = run_simulation(cfg)
    return results


def gain_report(cfg):
    return build_pd_matrices(cfg.gains, cfg.get("quad", "mass"),
                             cfg.get("quad", "inertia"), cfg.assumptions)


@pytest.fixture(scope="module")
def synthetic_pair():
    return paired("synthetic.ini")


@pytest.fixture(scope="module")
def synthetic_report():
    return gain_report(scenario_config("synthetic.ini"))


@pytest.fixture(scope="module")
def wind_pair():
    return paired("wind_circle.ini")


@pytest.fixture(scope="module")
def baseline_run():
    return run_simulation(scenario_config("baseline.ini"))


# ---------------------------------------------------------------------------
# 1. hover inflow closed form
# ---------------------------------------------------------------------------

def test_criterion_1_hover_inflow(aero_s01):
    C_T, lam = solve_thrust_inflow(0.0, 0.0, aero_s01)
    ok_values = (abs(lam - 0.0681495) < 1e-6) and (abs(C_T - 0.0092887) < 1e-6)

    solve_thrust_inflow(0.0, 0.0, aero_s01)        # warm up
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        solve_thrust_inflow(0.0, 0.0, aero_s01)
        best = min(best, time.perf_counter() - t0)
    ok_time = best < 1e-3

    gate(1, ok_values and ok_time,
         f"lam={lam:.7f} C_T={C_T:.7f} (refs 0.0681495/0.0092887), "
         f"solve time {best * 1e6:.1f} us < 1 ms")


# ---------------------------------------------------------------------------
# 2. Newton agrees with bisection on the advance-ratio grid
# ---------------------------------------------------------------------------

def test_criterion_2_newton_vs_bisection(aero_s01):
    t0 = time.perf_counter()
    worst_gap = 0.0
    worst_res = 0.0
    for mu_x in np.linspace(0.0, 0.3, 31):
        for mu_z in np.linspace(-0.05, 0.1, 31):
            C_T, lam = solve_thrust_inflow(mu_x, mu_z, aero_s01)
            C_T_ref, lam_ref = bisection_oracle(mu_x, mu_z, aero_s01)
            worst_gap = max(worst_gap, abs(lam - lam_ref), abs(C_T - C_T_ref))
            r1, r2 = thrust_inflow_residuals(C_T, lam, mu_x, mu_z, aero_s01)
            worst_res = max(worst_res, abs(r1), abs(r2))
    elapsed = time.perf_counter() - t0
    gate(2, worst_gap < 1e-8 and worst_res < 1e-10 and elapsed < 1.0,
         f"31x31 grid: max |Newton-bisection| {worst_gap:.2e} < 1e-8, "
         f"max residual {worst_res:.2e} < 1e-10, {elapsed:.2f} s < 1 s")


# ---------------------------------------------------------------------------
# 3. integrator conservation and orthogonality drift
# ---------------------------------------------------------------------------

def test_criterion_3_integrator_conservation():
    J = np.diag([0.02, 0.02, 0.04])
    quad = QuadParams(m=1.0, J=J, g=0.0)
    free = lambda t, x, v, R, Omega: (np.zeros(3), np.zeros(3))

    st = state_floats(pack_state(np.zeros(3), np.zeros(3), np.eye(3), np.array([1.0, 2.0, 3.0])))
    _, _, R, Omega = map(np.array, st)
    L0 = R @ (J @ Omega)
    E0 = 0.5 * Omega @ (J @ Omega)
    for _ in range(10000):
        st = step_rk4(st, 1e-3, free, quad)
    _, _, R, Omega = map(np.array, st)
    L_err = np.linalg.norm(R @ (J @ Omega) - L0) / np.linalg.norm(L0)
    E_err = abs(0.5 * Omega @ (J @ Omega) - E0) / E0

    drift = 0.0
    for _ in range(90000):
        st = step_rk4(st, 1e-3, free, quad)
    R = np.array(st[2])
    drift = np.linalg.norm(R.T @ R - np.eye(3))

    gate(3, L_err < 1e-6 and E_err < 1e-6 and drift <= 1e-10,
         f"momentum rel err {L_err:.2e} < 1e-6, energy rel err {E_err:.2e} < 1e-6, "
         f"orthogonality drift after 1e5 steps {drift:.2e} <= 1e-10")


# ---------------------------------------------------------------------------
# 4. geometric controller baseline convergence
# ---------------------------------------------------------------------------

def test_criterion_4_baseline_convergence(baseline_run):
    report = gain_report(scenario_config("baseline.ini"))
    gains_ok = (report.c1_check.passed and report.c2_check.passed
                and all(report.verdicts[n] for n in ("M11", "M12", "M21", "M22")))

    tel = baseline_run.telemetry
    psi0 = tel[0, FIELDS["psi"]]
    max_psi = baseline_run.summary["max_psi"]
    final_ex = np.linalg.norm(tel[-1, FIELDS["e_x"]])
    ok = gains_ok and psi0 < 1.0 and max_psi < 1.0 and final_ex <= 1e-3
    gate(4, ok,
         f"validated gains (c1/c2 + M-matrices PD: {gains_ok}), psi(0)={psi0:.3f} < 1, "
         f"max psi {max_psi:.3f} < 1, |e_x| at 10 s = {final_ex:.2e} <= 1e-3")


# ---------------------------------------------------------------------------
# 5. synthetic-truth ultimate boundedness
# ---------------------------------------------------------------------------

def test_criterion_5_synthetic_uub(synthetic_pair, synthetic_report):
    res_on = synthetic_pair["on"]
    res_off = synthetic_pair["off"]
    report = synthetic_report

    # target networks stay within the declared disturbance caps
    t1, t2 = res_on.targets
    cap1 = t1.W_max * math.sqrt(t1.n_hidden + 1.0)
    cap2 = t2.W_max * math.sqrt(t2.n_hidden + 1.0)
    caps_ok = cap1 <= 2.0 and cap2 <= 0.1

    pd_ok = report.all_positive_definite and report.nu > 0.0
    radius = ultimate_bound(report.nu, report.C5)

    cfg = scenario_config("synthetic.ini")
    g1 = max(cfg.get("nn1", "gamma_w"), cfg.get("nn1", "gamma_v"))
    g2 = max(cfg.get("nn2", "gamma_w"), cfg.get("nn2", "gamma_v"))
    tel = res_on.telemetry
    tail = slice(int(0.8 * len(tel)), None)
    functional = [
        set_d_functional(r[FIELDS["e_x"]], r[FIELDS["e_v"]], r[FIELDS["e_R"]],
                         r[FIELDS["e_Omega"]], z1, z2, g1, g2)
        for r, (z1, z2) in zip(tel[tail], res_on.nn_error_sq[tail])
    ]
    tail_max = max(functional)
    bounded = math.isfinite(tail_max)
    inside = tail_max <= radius

    ratio = res_off.summary["rms_e_x_tail"] / res_on.summary["rms_e_x_tail"]
    gate(5, caps_ok and pd_ok and bounded and inside and ratio >= 5.0,
         f"caps ({cap1:.2f} N <= 2, {cap2:.3f} N m <= 0.1), matrices PD: {pd_ok}, "
         f"tail functional max {tail_max:.2e} <= radius {radius:.1f}, "
         f"adaptation improvement {ratio:.1f}x >= 5x")


# ---------------------------------------------------------------------------
# 6. conditional Lyapunov decrease
# ---------------------------------------------------------------------------

def test_criterion_6_lyapunov_decrease(synthetic_pair, synthetic_report):
    res = synthetic_pair["on"]
    report = synthetic_report
    nu, C5 = report.nu, report.C5
    radius = ultimate_bound(nu, C5)
    dt = 1e-3
    # documented discretization slack: first-order hold of the commands and
    # explicit-Euler weight updates perturb the continuous-time dV/dt by O(dt)
    tol = 100.0 * dt

    V = res.telemetry[:, FIELDS["V"]]
    Vdot = (V[2:] - V[:-2]) / (2.0 * dt)
    above = V[1:-1] > radius
    checked = int(above.sum())
    violations = int(np.sum(Vdot[above] > -nu * V[1:-1][above] + C5 + tol))

    # eventual boundedness: the tail of V sits inside the (conservative)
    # radius; the empirical plateau is reported alongside
    plateau = V[int(0.8 * len(V)):].max()
    gate(6, violations == 0 and plateau <= radius,
         f"steps with V > C5/nu: {checked} (max V {V.max():.2e} vs radius {radius:.1f}), "
         f"decrease violations = {violations} (tol {tol:.2f} = 100 dt); "
         f"V tail max {plateau:.2e} <= radius (empirical plateau vs conservative bound)")


# ---------------------------------------------------------------------------
# 7. wind rejection on the full aerodynamic plant
# ---------------------------------------------------------------------------

def test_criterion_7_wind_rejection(wind_pair):
    res_on = wind_pair["on"]
    res_off = wind_pair["off"]
    on_tail = res_on.summary["rms_e_x_tail"]
    off_tail = res_off.summary["rms_e_x_tail"]
    ratio = off_tail / on_tail
    bounded = (res_on.summary["max_e_x"] < 5.0 and res_off.summary["max_e_x"] < 5.0)
    gate(7, ratio >= 3.0 and bounded,
         f"steady RMS |e_x|: off {off_tail:.4f} m vs on {on_tail:.4f} m, "
         f"ratio {ratio:.1f}x >= 3x; both runs bounded, no abort")


# ---------------------------------------------------------------------------
# 8. projection safety across all closed-loop acceptance runs
# ---------------------------------------------------------------------------

def test_criterion_8_projection_safety(synthetic_pair, wind_pair, baseline_run):
    worst = -math.inf
    ok = True
    runs = [(synthetic_pair["on"], "synthetic.ini"),
            (synthetic_pair["off"], "synthetic.ini"),
            (wind_pair["on"], "wind_circle.ini"),
            (wind_pair["off"], "wind_circle.ini"),
            (baseline_run, "baseline.ini")]
    for res, name in runs:
        cfg = scenario_config(name)
        bounds = {"W1": cfg.get("nn1", "w_max"), "V1": cfg.get("nn1", "v_max"),
                  "W2": cfg.get("nn2", "w_max"), "V2": cfg.get("nn2", "v_max")}
        for key, bound in bounds.items():
            observed = res.summary[f"max_{key}_norm"]
            ok = ok and (observed <= bound)
            worst = max(worst, observed - bound)
    gate(8, ok, f"max weight-norm excess over bounds across runs: {worst:.3e} <= 0 "
                 "(exact, zero tolerance)")


# ---------------------------------------------------------------------------
# 9. velocity-error equation residual
# ---------------------------------------------------------------------------

def velocity_error_residuals(dt, duration=2.0):
    """Closed loop with the control law evaluated continuously (inside the
    integrator stages), so the recorded trajectory is smooth and the
    velocity-error identity can be checked to discretization order."""
    quad = QuadParams(m=0.5, J=np.diag([0.006, 0.006, 0.011]), d_h=0.15, g=9.81)
    gains = ControllerGains(k_x=4.0, k_v=2.5, k_R=8.0, k_Omega=0.6, c1=1.0, c2=0.8)
    b1_d = np.array([1.0, 0.0, 0.0])

    def delta1(t):
        return np.array([0.3 * math.sin(1.9 * t),
                         0.2 * math.sin(1.3 * t + 0.4),
                         0.4 * math.sin(0.8 * t)])

    def control(t, s):
        e_x, e_v, R, Omega = unpack_state(s)     # hover target at the origin
        A = compute_A(e_x, e_v, np.zeros(3), np.zeros(3), gains, quad.m, quad.g)
        f = compute_thrust(A, R)
        R_c = np.array(compute_Rc(A, b1_d, 1e-6 * quad.m * quad.g))
        e_R, _ = attitude_error(R, R_c)
        e_R = np.array(e_R)
        M_c = (-gains.k_R * e_R - gains.k_Omega * Omega
               + cross3(Omega, quad.J @ Omega))
        return f, M_c, R_c, e_x, e_v

    def wrench(ts, x, v, R, Omega):
        f, M_c, _, _, _ = control(ts, pack_state(x, v, R, Omega))
        return simplified_wrench(R, f, M_c, quad, delta1=delta1(ts))

    st = at_rest()
    recs = []
    for k in range(int(round(duration / dt))):
        t = k * dt
        f, M_c, R_c, e_x, e_v = control(t, st)
        X = thrust_mismatch_term(f, unpack_state(st)[2], R_c)
        recs.append((e_x.copy(), e_v.copy(), delta1(t), X))
        st = pack_state(*step_rk4(state_floats(st), dt, wrench, quad, t))

    out = []
    for k in range(1, len(recs) - 1):
        e_x, e_v, d1, X = recs[k]
        ev_dot = (recs[k + 1][1] - recs[k - 1][1]) / (2.0 * dt)
        r = quad.m * ev_dot + gains.k_x * e_x + gains.k_v * e_v + d1 + X
        out.append(np.linalg.norm(r))
    return np.array(out)


def test_criterion_9_error_dynamics_residual():
    r1 = velocity_error_residuals(1e-3)
    r2 = velocity_error_residuals(5e-4)
    ok1 = r1.max() <= 10.0 * 1e-3 ** 2
    ok2 = r2.max() <= 10.0 * 5e-4 ** 2
    ratio = r1.max() / r2.max()
    second_order = 3.0 <= ratio <= 5.0
    gate(9, ok1 and ok2 and second_order,
         f"max residual {r1.max():.2e} <= 1e-5 (dt=1e-3), {r2.max():.2e} <= 2.5e-6 "
         f"(dt=5e-4), scaling ratio {ratio:.2f} in [3, 5]")


# ---------------------------------------------------------------------------
# 10. gain validator vectors
# ---------------------------------------------------------------------------

def test_criterion_10_gain_validator():
    fail_case = validate_c1(2.5, 16.0, 4.0)
    pass_case = validate_c1(1.0, 16.0, 4.0)

    gains = ControllerGains(k_x=16.0, k_v=5.6, k_R=8.0, k_Omega=2.54,
                            c1=2.0, c2=0.5)
    cfg = load_config()
    rep = build_pd_matrices(gains, 4.0, np.diag([0.02, 0.02, 0.04]),
                            cfg.assumptions)
    min_abs_eig = min(abs(e) for e in rep.eigenvalues["M11"])
    ok = ((not fail_case.passed) and pass_case.passed and min_abs_eig < 1e-12
          and not rep.verdicts["M11"])
    gate(10, ok,
         f"c1=2.5 fails, c1=1.0 passes (limit {pass_case.limit}); "
         f"M11 singular at c1=sqrt(k_x/m): |eig|_min = {min_abs_eig:.2e} < 1e-12")
