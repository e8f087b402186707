import math

import numpy as np
import pytest

from windquad.adaptive import NNWeights
from windquad.controller import (ControllerGains, GeometricAdaptiveController,
                                 compute_A, compute_Omega_c, compute_Rc,
                                 compute_moment, compute_thrust, mixing_matrix)
from windquad.dynamics import SimplifiedModelParams, simplified_wrench, step_rk4
from windquad.errors import DegenerateThrust, HeadingDegenerate
from windquad.layout import OUTPUT, pack_state
from windquad.scenarios import TrajectoryGenerator, TrajectoryPoint, trajectory_at
from windquad.se3 import expm_so3, is_rotation, rotation_zyx

from conftest import at_rest

E1 = np.array([1.0, 0.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def default_gains():
    return ControllerGains(k_x=4.0, k_v=2.5, k_R=8.0, k_Omega=0.6, c1=1.0, c2=0.8)


def hover_point():
    return TrajectoryPoint(x_d=np.zeros(3), v_d=np.zeros(3), a_d=np.zeros(3),
                           b1_d=E1, b1_d_dot=np.zeros(3))


@pytest.mark.parametrize("b1_d", [[math.nan, 0.0, 0.0]])
def test_trajectory_point_rejects_non_unit_heading(quad, b1_d):
    # A trajectory point no longer checks its heading; the controller step does.
    traj = hover_point()._replace(b1_d=np.array(b1_d))
    with pytest.raises(HeadingDegenerate):
        make_controller(quad).step(at_rest(), traj, 1e-3)


# --- acceleration command ----------------------------------------------------

def test_compute_A_hover():
    g = default_gains()
    A = compute_A(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3), g, 2.0, 9.81)
    assert np.allclose(A, [0.0, 0.0, -2.0 * 9.81])


def test_compute_A_position_term():
    g = ControllerGains(k_x=16.0, k_v=1.0, k_R=1.0, k_Omega=1.0, c1=1.0, c2=1.0)
    A = compute_A([1.0, 0, 0], np.zeros(3), np.zeros(3), np.zeros(3), g, 2.0, 9.81)
    assert np.allclose(A, [-16.0, 0.0, -19.62])


def test_compute_A_additive_compensation():
    g = default_gains()
    A = compute_A(np.zeros(3), np.zeros(3), [0.0, 0.0, 5.0], np.zeros(3), g, 2.0, 9.81)
    assert np.allclose(A, [0.0, 0.0, 5.0 - 2.0 * 9.81])


# --- thrust ------------------------------------------------------------------

def test_thrust_hover():
    A = np.array([0.0, 0.0, -2.0 * 9.81])
    assert compute_thrust(A, np.eye(3)) == pytest.approx(2.0 * 9.81)


def test_thrust_orthogonal_attitude():
    A = np.array([0.0, 0.0, -5.0])
    R = rotation_zyx(0.0, math.pi / 2, 0.0)   # body z now along -e1
    assert compute_thrust(A, R) == pytest.approx(0.0, abs=1e-12)


def test_thrust_equals_norm_A_when_aligned(rng):
    for _ in range(50):
        A = rng.standard_normal(3) * 5
        if np.linalg.norm(A) < 0.1:
            continue
        R_c = compute_Rc(A, E1 if abs(A[0]) < 4 else np.array([0.0, 1.0, 0.0]), 1e-9)
        assert compute_thrust(A, R_c) == pytest.approx(np.linalg.norm(A), rel=1e-12)


# --- computed attitude -------------------------------------------------------

def test_Rc_hover_identity():
    A = np.array([0.0, 0.0, -9.81])
    assert np.allclose(compute_Rc(A, E1, 1e-6), np.eye(3), atol=1e-14)


def test_Rc_degenerate_thrust():
    with pytest.raises(DegenerateThrust):
        compute_Rc(np.zeros(3), E1, 1e-6)
    with pytest.raises(DegenerateThrust):
        compute_Rc(np.array([math.nan, 0.0, -9.81]), E1, 1e-6)


def test_Rc_degenerate_heading():
    A = np.array([0.0, 0.0, -9.81])
    with pytest.raises(HeadingDegenerate):
        compute_Rc(A, E3, 1e-6)
    with pytest.raises(HeadingDegenerate):
        compute_Rc(A, [math.nan, 0.0, 0.0], 1e-6)


def test_Rc_always_rotation(rng):
    for _ in range(200):
        A = rng.standard_normal(3) * 10
        if np.linalg.norm(A) < 1e-3:
            continue
        b1 = rng.standard_normal(3)
        b1 /= np.linalg.norm(b1)
        if np.linalg.norm(np.cross(-A / np.linalg.norm(A), b1)) < 1e-3:
            continue
        R_c = compute_Rc(A, b1, 1e-9)
        assert is_rotation(R_c, tol=1e-12)
        assert np.allclose(R_c[:, 2], -A / np.linalg.norm(A), atol=1e-12)


def test_Rc_first_column_is_heading_projection(rng):
    A = np.array([1.0, -2.0, -9.0])
    b1 = np.array([0.6, 0.8, 0.0])
    R_c = compute_Rc(A, b1, 1e-9)
    b3 = R_c[:, 2]
    proj = b1 - b3 * (b3 @ b1)
    assert np.allclose(R_c[:, 0], proj / np.linalg.norm(proj), atol=1e-12)


# --- finite-difference rates -------------------------------------------------

def test_rates_constant_attitude():
    history = [np.eye(3)] * 3
    Om, Omd = compute_Omega_c(history, 1e-3)
    assert np.allclose(Om, 0.0) and np.allclose(Omd, 0.0)


def test_rates_first_step_zero():
    Om, Omd = compute_Omega_c([np.eye(3)], 1e-3)
    assert np.allclose(Om, 0.0) and np.allclose(Omd, 0.0)


def test_rates_analytic_yaw():
    w = 0.5
    for dt in (1e-3, 5e-4):
        history = [expm_so3(np.array([0, 0, w]) * (k * dt)) for k in range(3)]
        Om, _ = compute_Omega_c(history, dt)
        err = np.linalg.norm(Om - [0, 0, w])
        assert err < w * dt  # at worst first-order accurate


def test_rates_halving_dt_halves_error():
    # time-varying rate exposes the first-order phase lag of the backward
    # difference; the estimate at sample k trails the true rate by a dt/2
    a = 3.0

    def err(dt):
        hist = [expm_so3(np.array([0, 0, 0.5 * a * (k * dt) ** 2]))
                for k in range(3)]
        Om, _ = compute_Omega_c(hist, dt)
        return abs(Om[2] - a * 2 * dt)

    assert err(1e-3) / err(5e-4) == pytest.approx(2.0, rel=0.05)


def test_rates_constant_acceleration():
    # yaw rate ramps linearly: Omega_c_dot should recover the slope
    a = 2.0
    dt = 1e-4
    hist = [expm_so3(np.array([0, 0, 0.5 * a * (k * dt) ** 2])) for k in range(3)]
    _, Omd = compute_Omega_c(hist, dt)
    assert Omd[2] == pytest.approx(a, rel=0.05)


# --- moment law --------------------------------------------------------------

def test_moment_rest_equilibrium():
    g = default_gains()
    J = np.diag([1.0, 2.0, 3.0])
    M = compute_moment(np.zeros(3), np.zeros(3), np.zeros(3), np.eye(3),
                       np.eye(3), np.zeros(3), np.zeros(3), np.zeros(3), J, g)
    assert np.allclose(M, 0.0)


def test_moment_attitude_term():
    g = ControllerGains(k_x=1, k_v=1, k_R=8.0, k_Omega=1.0, c1=1, c2=1)
    J = np.eye(3)
    M = compute_moment([0.1, 0, 0], np.zeros(3), np.zeros(3), np.eye(3),
                       np.eye(3), np.zeros(3), np.zeros(3), np.zeros(3), J, g)
    assert np.allclose(M, [-0.8, 0.0, 0.0])


def test_moment_principal_axis_feedforward_cancels():
    g = default_gains()
    J = np.diag([1.0, 2.0, 3.0])
    Om = np.array([0.0, 0.0, 1.0])
    M = compute_moment(np.zeros(3), np.zeros(3), Om, np.eye(3), np.eye(3),
                       Om, np.zeros(3), np.zeros(3), J, g)
    assert np.allclose(M, 0.0, atol=1e-14)


# --- allocation --------------------------------------------------------------

def allocate(f, M, d_h, C_TQ):
    """The controller's allocation: the inverted mixing map applied to (f, M)."""
    return np.linalg.inv(mixing_matrix(d_h, C_TQ)) @ np.array([f, *M])


def test_allocation_pure_thrust():
    T = allocate(8.0, np.zeros(3), 0.3, 0.01)
    assert np.allclose(T, [2.0, 2.0, 2.0, 2.0])


def test_allocation_roll_case():
    T = allocate(8.0, np.array([0.6, 0.0, 0.0]), 0.3, 0.01)
    assert np.allclose(T, [2.0, 3.0, 2.0, 1.0])


def test_allocation_roundtrip(rng):
    mix = mixing_matrix(0.3, 0.02)
    for _ in range(100):
        f = rng.uniform(1.0, 20.0)
        M = rng.standard_normal(3)
        T = allocate(f, M, 0.3, 0.02)
        assert np.allclose(mix @ T, [f, *M], atol=1e-12)


def test_mixing_matches_rotor_geometry(quad):
    # rows 2-3 of the mixing map must equal the moments of -T e3 thrusts
    # at the physical rotor positions
    mix = mixing_matrix(quad.d_h, 0.015)
    for j, r_j in enumerate(quad.rotor_positions):
        lever = np.cross(r_j, -E3)
        assert mix[1, j] == pytest.approx(lever[0], abs=1e-15)
        assert mix[2, j] == pytest.approx(lever[1], abs=1e-15)


def test_mixing_is_invertible(quad):
    mix = mixing_matrix(quad.d_h, 0.012)
    assert abs(np.linalg.det(mix)) > 1e-6


# --- full control step -------------------------------------------------------

def make_controller(quad, adaptation=False):
    simp = SimplifiedModelParams(C_T=8.5e-6, C_Q=8.6e-8)
    return GeometricAdaptiveController(default_gains(), quad, simp,
                                       adaptation=adaptation)


def test_step_perfect_hover(quad):
    ctrl = make_controller(quad)
    state = at_rest()
    out = ctrl.step(state, hover_point(), 1e-3)
    assert out[OUTPUT["f"]] == pytest.approx(quad.m * quad.g)
    assert np.allclose(out[OUTPUT["M_c"]], 0.0, atol=1e-14)
    assert np.allclose(out[OUTPUT["e_x"]], 0.0) and out[OUTPUT["psi"]] == pytest.approx(0.0)
    assert np.allclose(out[OUTPUT["thrusts"]], quad.m * quad.g / 4.0)


def test_step_weights_damp_at_equilibrium(quad):
    simp = SimplifiedModelParams(C_T=8.5e-6, C_Q=8.6e-8)
    rng = np.random.default_rng(7)
    nn1 = NNWeights.random(rng, W_norm=1e-9, V_norm=1e-9, W_max=1.0, V_max=1.0)
    gains = default_gains()
    ctrl = GeometricAdaptiveController(gains, quad, simp, nn1=nn1, adaptation=True)
    state = at_rest()
    W0 = ctrl.nn1.W.copy()
    ctrl.step(state, hover_point(), 1e-3)
    # errors are ~zero so only the damping term acts (to first order)
    k = gains.adapt1.kappa * gains.adapt1.gamma_w * 1e-3
    assert np.allclose(ctrl.nn1.W, (1 - k) * W0, atol=1e-18)


def test_adaptation_off_matches_frozen_zero_weights(quad):
    gen = TrajectoryGenerator(kind="hover", center=np.zeros(3))
    runs = []
    for adapt in (False, True):
        ctrl = make_controller(quad, adaptation=adapt)
        # frozen zero weights vs adapting-from-zero weights:
        # commands must be identical while a == 0; start from an offset so
        # errors are nonzero and the two only match if gamma has no effect
        # on this first command
        state = pack_state(np.array([0.4, -0.2, 0.1]), np.zeros(3), np.eye(3), np.zeros(3))
        runs.append(ctrl.step(state, trajectory_at(gen, 0.0), 1e-3))
    assert runs[0][OUTPUT["f"]] == runs[1][OUTPUT["f"]]
    assert np.allclose(runs[0][OUTPUT["M_c"]], runs[1][OUTPUT["M_c"]])


def test_closed_loop_error_decreases(quad):
    simp = SimplifiedModelParams(C_T=8.5e-6, C_Q=8.6e-8)
    ctrl = make_controller(quad)
    gen = TrajectoryGenerator(kind="hover", center=np.zeros(3))
    state = pack_state(np.array([1.0, 1.0, 0.5]), np.zeros(3), np.eye(3), np.zeros(3))
    dt = 1e-3
    norms = []
    psi = []
    for k in range(4000):
        traj = trajectory_at(gen, k * dt)
        out = ctrl.step(state, traj, dt)
        norms.append(np.linalg.norm(out[OUTPUT["e_x"]]))
        psi.append(out[OUTPUT["psi"]])
        f, M_c = out[OUTPUT["f"]], out[OUTPUT["M_c"]]
        state = step_rk4(state, dt,
                         lambda ts, s: simplified_wrench(s, f, M_c, quad),
                         quad, k * dt)
    # after the initial transient the error envelope keeps shrinking
    # (a slow under-damped mode ripples below the envelope)
    windows = [max(norms[i:i + 1000]) for i in (1000, 2000, 3000)]
    assert windows[0] > windows[1] > windows[2]
    assert norms[-1] < 1e-3
    # the attitude error angle stays below 90 degrees throughout for this
    # initial condition, so the thrust axis stays inside the safe cone
    assert max(psi) < 1.0


def test_command_mixing_consistency(quad):
    # the allocation applied back through the mixing map reproduces (f, M_c)
    ctrl = make_controller(quad)
    mix = mixing_matrix(quad.d_h, ctrl.simplified.C_TQ)
    state = pack_state(np.array([0.4, -0.1, 0.2]), np.array([0.1, 0, 0]),
                       rotation_zyx(0.2, 0.1, -0.05), np.array([0.1, -0.2, 0.05]))
    out = ctrl.step(state, hover_point(), 1e-3)
    recovered = mix @ out[OUTPUT["thrusts"]]
    assert np.allclose(recovered, [out[OUTPUT["f"]], *out[OUTPUT["M_c"]]], atol=1e-9)
