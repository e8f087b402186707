import copy
import math
from collections import deque

import numpy as np
import pytest

import windquad.controller
from windquad.adaptive import (AdaptationGains, NetworkPair, NNWeights, build_network_input,
                               nn_output)
from windquad.aero import OMEGA_MIN
from windquad.controller import (ControllerGains, GeometricAdaptiveController,
                                 compute_A, compute_Omega_c, compute_Rc,
                                 compute_moment, compute_thrust, mixing_matrix)
from windquad.dynamics import SimplifiedModelParams, simplified_wrench, step_rk4
from windquad.errors import DegenerateThrust, HeadingDegenerate, NonFiniteWeights
from windquad.layout import OUTPUT, OUTPUT_COLUMNS
from windquad.scenarios import TrajectoryGenerator, TrajectoryPoint, trajectory_at
from windquad.se3 import GIMBAL_TOL, euler_zyx, expm_so3, rotation_zyx

from conftest import at_rest, random_inertia, random_rotation
from oracles import (cross3, hat, history_Omega_c, is_rotation, network_update, pack_state,
                     state_floats)

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
        make_controller(quad).step(state_floats(at_rest()), traj, 1e-3)


# --- acceleration command ----------------------------------------------------

def test_compute_A_hover():
    g = default_gains()
    A = compute_A(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3), g, 2.0, 9.81)
    assert np.allclose(A, [0.0, 0.0, -2.0 * 9.81])


def test_compute_A_position_term():
    g = ControllerGains(k_x=16.0, k_v=1.0, k_R=1.0, k_Omega=1.0, c1=1.0, c2=1.0)
    A = compute_A(np.array([1.0, 0, 0]), np.zeros(3), np.zeros(3), np.zeros(3), g, 2.0, 9.81)
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
    # finite entries whose norm overflows: -A / inf would be a zero thrust axis
    with np.errstate(over="ignore"), pytest.raises(DegenerateThrust, match=r"\|\|A\|\| = inf"):
        compute_Rc(np.array([1e200, 0.0, 1e200]), E1, 1e-6)


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
        R_c = np.array(compute_Rc(A, b1, 1e-9))
        assert is_rotation(R_c, tol=1e-12)
        assert np.allclose(R_c[:, 2], -A / np.linalg.norm(A), atol=1e-12)


def test_Rc_first_column_is_heading_projection(rng):
    A = np.array([1.0, -2.0, -9.0])
    b1 = np.array([0.6, 0.8, 0.0])
    R_c = np.array(compute_Rc(A, b1, 1e-9))
    b3 = R_c[:, 2]
    proj = b1 - b3 * (b3 @ b1)
    assert np.allclose(R_c[:, 0], proj / np.linalg.norm(proj), atol=1e-12)


# --- finite-difference rates -------------------------------------------------

def carried_rates(history, dt):
    """(Omega_c, Omega_c_dot) of each step of compute_Omega_c fed as the
    controller step feeds it: one R_c per step, with the previous R_c and
    the previous step's Omega_c (None until a backward difference formed it)."""
    R_prev = Omega_prev = None
    rates = []
    for R_c in history:
        Omega_c, Omega_c_dot = compute_Omega_c(R_prev, R_c, Omega_prev, dt)
        R_prev, Omega_prev = R_c, None if R_prev is None else Omega_c
        rates.append((Omega_c, Omega_c_dot))
    return rates


def rate_bits(rates):
    """float.hex of each entry of (Omega_c, Omega_c_dot): the sign of zero counts."""
    return [float(a).hex() for vec in rates for a in vec]


def test_rates_constant_attitude():
    Om, Omd = carried_rates([np.eye(3).tolist()] * 3, 1e-3)[-1]
    assert np.allclose(Om, 0.0) and np.allclose(Omd, 0.0)


def test_rates_first_step_zero():
    Om, Omd = compute_Omega_c(None, np.eye(3).tolist(), None, 1e-3)
    assert np.allclose(Om, 0.0) and np.allclose(Omd, 0.0)


def test_rates_analytic_yaw():
    w = 0.5
    for dt in (1e-3, 5e-4):
        history = [expm_so3(np.array([0, 0, w]) * (k * dt)) for k in range(3)]
        Om, _ = map(np.array, carried_rates(history, dt)[-1])
        err = np.linalg.norm(Om - [0, 0, w])
        assert err < w * dt  # at worst first-order accurate


def test_rates_halving_dt_halves_error():
    # time-varying rate exposes the first-order phase lag of the backward
    # difference; the estimate at sample k trails the true rate by a dt/2
    a = 3.0

    def err(dt):
        hist = [expm_so3(np.array([0, 0, 0.5 * a * (k * dt) ** 2]))
                for k in range(3)]
        Om, _ = carried_rates(hist, dt)[-1]
        return abs(Om[2] - a * 2 * dt)

    assert err(1e-3) / err(5e-4) == pytest.approx(2.0, rel=0.05)


def test_rates_constant_acceleration():
    # yaw rate ramps linearly: Omega_c_dot should recover the slope
    a = 2.0
    dt = 1e-4
    hist = [expm_so3(np.array([0, 0, 0.5 * a * (k * dt) ** 2])) for k in range(3)]
    _, Omd = carried_rates(hist, dt)[-1]
    assert Omd[2] == pytest.approx(a, rel=0.05)


@pytest.mark.parametrize("dt", [1e-3, 2e-3, 0.05])
def test_rates_bytes_equal_history_oracle(rng, dt):
    # the previous step's Omega_c is the backward difference that the
    # three-deep history forms a second time, so the carried form matches
    # it bit for bit at every step: the zero Omega_c and Omega_c_dot of step
    # 1 and the zero Omega_c_dot of step 2 included
    for _ in range(20):
        R = random_rotation(rng)
        history = []
        for _ in range(25):
            R = R @ random_rotation(rng, 0.2)
            history.append(tuple(map(tuple, R.tolist())))
        got = carried_rates(history, dt)
        for k, rates in enumerate(got):
            want = history_Omega_c(history[max(0, k - 2):k + 1], dt)
            assert rate_bits(rates) == rate_bits(want), k
        zero = [(0.0).hex()] * 3
        assert rate_bits(got[0]) == zero * 2         # step 1: no difference yet
        assert rate_bits(got[1][1:]) == zero         # step 2: no Omega_c_dot yet
        assert rate_bits(got[1][:1]) != zero and rate_bits(got[2][1:]) != zero


def test_step_rates_bytes_equal_history_oracle(quad, monkeypatch):
    # the controller carries R_c and Omega_c from step to step: the rates of
    # every step of a closed loop equal those of the computed-attitude
    # history, byte for byte
    calls = []
    compute = windquad.controller.compute_Omega_c

    def recording(R_prev, R_c, Omega_prev, dt):
        rates = compute(R_prev, R_c, Omega_prev, dt)
        calls.append((R_c, rates))
        return rates

    monkeypatch.setattr(windquad.controller, "compute_Omega_c", recording)
    ctrl, _ = adapted_controller(quad, 30)
    history = [R_c for R_c, _ in calls]
    for k, (_, rates) in enumerate(calls):
        want = history_Omega_c(history[max(0, k - 2):k + 1], 1e-3)
        assert rate_bits(rates) == rate_bits(want), k
    assert not all(a == 0.0 for a in calls[-1][1][1])


# --- moment law --------------------------------------------------------------

def test_moment_rest_equilibrium():
    g = default_gains()
    J = np.diag([1.0, 2.0, 3.0])
    M = compute_moment(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3), np.eye(3),
                       np.eye(3), np.zeros(3), np.zeros(3), J, g)
    assert np.allclose(M, 0.0)


def test_moment_attitude_term():
    g = ControllerGains(k_x=1, k_v=1, k_R=8.0, k_Omega=1.0, c1=1, c2=1)
    J = np.eye(3)
    M = compute_moment(np.array([0.1, 0, 0]), np.zeros(3), np.zeros(3), np.zeros(3),
                       np.eye(3), np.eye(3), np.zeros(3), np.zeros(3), J, g)
    assert np.allclose(M, [-0.8, 0.0, 0.0])


def test_moment_principal_axis_feedforward_cancels():
    g = default_gains()
    J = np.diag([1.0, 2.0, 3.0])
    Om = np.array([0.0, 0.0, 1.0])
    # R = R_c = I, so u = R^T R_c Omega_c = Omega_c = Om
    M = compute_moment(np.zeros(3), np.zeros(3), Om, Om, np.eye(3), np.eye(3),
                       np.zeros(3), np.zeros(3), J, g)
    assert np.allclose(M, 0.0, atol=1e-14)


def test_moment_full_inertia_matches_matrix_form(rng):
    # every J entry enters J Omega and J (Omega x u - R^T R_c Omega_c_dot);
    # a diagonal J would leave the off-diagonal products unchecked
    g = default_gains()
    for _ in range(20):
        J = random_inertia(rng)
        assert np.all(np.abs(J[~np.eye(3, dtype=bool)]) > 1e-6)
        R, R_c = random_rotation(rng), random_rotation(rng)
        e_R, e_Om, Om, Om_c, Om_c_dot, d2 = rng.standard_normal((6, 3))
        u = R.T @ R_c @ Om_c
        M = compute_moment(e_R, e_Om, Om, u, R, R_c, Om_c_dot, d2, J, g)
        ref = (d2 - g.k_R * e_R - g.k_Omega * e_Om + np.cross(Om, J @ Om)
               - J @ (np.cross(Om, u) - R.T @ R_c @ Om_c_dot))
        assert np.allclose(M, ref, rtol=0.0, atol=1e-12 * (1.0 + np.abs(ref).max()))


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
    state = state_floats(at_rest())
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
    state = state_floats(at_rest())
    W0 = ctrl.nn1.W.copy()
    ctrl.step(state, hover_point(), 1e-3)
    # errors are ~zero so only the damping term acts (to first order)
    k = gains.adapt1.kappa * gains.adapt1.gamma_w * 1e-3
    assert np.allclose(ctrl.nn1.W, (1 - k) * W0, atol=1e-18)


def test_step_output_norms_are_those_of_the_weights_used(quad, rng):
    simp = SimplifiedModelParams(C_T=8.5e-6, C_Q=8.6e-8)
    nets = [NNWeights.random(rng, W_norm=0.5, V_norm=1.5, W_max=1.0, V_max=2.0)
            for _ in range(2)]
    ctrl = GeometricAdaptiveController(default_gains(), quad, simp, nn1=nets[0],
                                       nn2=nets[1], adaptation=True)
    state = state_floats(pack_state(np.array([0.4, -0.2, 0.1]), np.array([0.1, 0.0, -0.3]),
                                    rotation_zyx(0.1, 0.05, -0.02), np.array([0.1, -0.2, 0.05])))
    for _ in range(3):
        used = [(w.W.copy(), w.V.copy()) for w in (ctrl.nn1, ctrl.nn2)]
        out = ctrl.step(state, hover_point(), 1e-3)
        for i, (w, (W, V)) in enumerate(zip((ctrl.nn1, ctrl.nn2), used), start=1):
            # the update ran, so the norms read before it differ from w's now
            assert not np.array_equal(w.W, W) and not np.array_equal(w.V, V)
            assert out[OUTPUT[f"W{i}_norm"]] == np.linalg.norm(W)
            assert out[OUTPUT[f"V{i}_norm"]] == np.linalg.norm(V)


def test_adaptation_off_matches_frozen_zero_weights(quad):
    gen = TrajectoryGenerator(kind="hover", center=np.zeros(3))
    runs = []
    for adapt in (False, True):
        ctrl = make_controller(quad, adaptation=adapt)
        # frozen zero weights vs adapting-from-zero weights:
        # commands must be identical while a == 0; start from an offset so
        # errors are nonzero and the two only match if gamma has no effect
        # on this first command
        state = state_floats(pack_state(np.array([0.4, -0.2, 0.1]), np.zeros(3), np.eye(3),
                                        np.zeros(3)))
        runs.append(ctrl.step(state, trajectory_at(gen, 0.0), 1e-3))
    assert runs[0][OUTPUT["f"]] == runs[1][OUTPUT["f"]]
    assert np.allclose(runs[0][OUTPUT["M_c"]], runs[1][OUTPUT["M_c"]])


def test_closed_loop_error_decreases(quad):
    simp = SimplifiedModelParams(C_T=8.5e-6, C_Q=8.6e-8)
    ctrl = make_controller(quad)
    gen = TrajectoryGenerator(kind="hover", center=np.zeros(3))
    state = state_floats(pack_state(np.array([1.0, 1.0, 0.5]), np.zeros(3), np.eye(3),
                                    np.zeros(3)))
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
                         lambda ts, x, v, R, Omega: simplified_wrench(R, f, M_c, quad),
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
    state = state_floats(pack_state(np.array([0.4, -0.1, 0.2]), np.array([0.1, 0, 0]),
                                    rotation_zyx(0.2, 0.1, -0.05), np.array([0.1, -0.2, 0.05])))
    out = ctrl.step(state, hover_point(), 1e-3)
    recovered = mix @ out[OUTPUT["thrusts"]]
    assert np.allclose(recovered, [out[OUTPUT["f"]], *out[OUTPUT["M_c"]]], atol=1e-9)


# --- the step against its array-arithmetic reference --------------------------

class ReferenceController:
    """Reference: the control step in numpy array arithmetic, one 3-vector or
    3x3 array per quantity.  GeometricAdaptiveController.step computes the
    same formulas in Python floats and must agree to rounding."""

    def __init__(self, gains, quad, simplified, nn1, nn2, adaptation):
        self.gains, self.quad, self.simplified = gains, quad, simplified
        self.nn1, self.nn2, self.adaptation = nn1, nn2, adaptation
        self.eps_thrust = 1e-6 * (quad.m * quad.g if quad.g > 0.0 else quad.m)
        self.mix_inv = np.linalg.inv(mixing_matrix(quad.d_h, simplified.C_TQ))
        self.history = deque(maxlen=3)
        self.last_angles = np.zeros(3)

    def step(self, s, traj, dt):
        gains, quad, E3 = self.gains, self.quad, np.array([0.0, 0.0, 1.0])
        x, v, R, Omega = map(np.array, s)
        e_x = x - traj.x_d
        e_v = v - traj.v_d
        x_nn, self.last_angles = build_network_input(
            x, v, R, Omega, fallback_angles=self.last_angles)
        nn1, nn2 = self.nn1, self.nn2
        y, (z, sigma) = nn_output(NetworkPair(nn1, nn2), x_nn)
        d1, d2 = y[0:3], y[3:6]

        A = d1 - gains.k_x * e_x - gains.k_v * e_v - quad.m * quad.g * E3 + quad.m * traj.a_d
        f = -float(A @ R[:, 2])
        norm_A = np.linalg.norm(A)
        if not self.eps_thrust < norm_A < np.inf:
            raise DegenerateThrust(f"||A|| = {norm_A:.3e} not in ({self.eps_thrust:.3e}, inf)")
        b3 = -A / norm_A
        C = -cross3(b3, traj.b1_d)
        norm_C = np.linalg.norm(C)
        if not norm_C > 1e-6:
            raise HeadingDegenerate("heading parallel to thrust axis")
        b2 = -C / norm_C
        R_c = np.column_stack((cross3(b2, b3), b2, b3))

        self.history.append(R_c)
        Omega_c = Omega_c_dot = np.zeros(3)
        if len(self.history) >= 2:
            def rate(R_prev, R_now):
                M = R_now.T @ ((R_now - R_prev) / dt)
                S = 0.5 * (M - M.T)
                return np.array([S[2, 1], S[0, 2], S[1, 0]])

            Omega_c = rate(self.history[-2], self.history[-1])
            if len(self.history) == 3:
                Omega_c_dot = (Omega_c - rate(self.history[-3], self.history[-2])) / dt

        Q = R_c.T @ R
        e_R = 0.5 * np.array([Q[2, 1] - Q[1, 2], Q[0, 2] - Q[2, 0], Q[1, 0] - Q[0, 1]])
        psi = 0.5 * np.trace(np.eye(3) - Q)
        e_Om = Omega - R.T @ R_c @ Omega_c
        J = quad.J
        ff = J @ (hat(Omega) @ R.T @ R_c @ Omega_c - R.T @ R_c @ Omega_c_dot)
        M_c = (d2 - gains.k_R * e_R - gains.k_Omega * e_Om
               + cross3(Omega, J @ Omega) - ff)

        out = np.empty(len(OUTPUT_COLUMNS))
        thrusts = self.mix_inv @ np.array([f, M_c[0], M_c[1], M_c[2]])
        C_T, T_min = self.simplified.C_T, self.simplified.C_T * OMEGA_MIN ** 2
        for j, T in enumerate(thrusts):
            if T <= T_min:
                omega, sat = OMEGA_MIN, float(T < T_min)
            else:
                omega, sat = np.sqrt(T / C_T), 0.0
            out[OUTPUT["omegas"].start + j], out[OUTPUT["saturated"].start + j] = omega, sat
        for name, value in (("e_x", e_x), ("e_v", e_v), ("e_R", e_R), ("e_Omega", e_Om),
                            ("psi", psi), ("f", f), ("M_c", M_c), ("thrusts", thrusts),
                            ("delta1_hat", d1), ("delta2_hat", d2),
                            ("W1_norm", nn1.W_norm), ("V1_norm", nn1.V_norm),
                            ("W2_norm", nn2.W_norm), ("V2_norm", nn2.V_norm)):
            out[OUTPUT[name]] = value

        if self.adaptation:
            # each network on its own, with its share of the pair's forward pass
            k = nn1.n_hidden + 1
            network_update(nn1, x_nn[:7], z[:k - 1], sigma[:k], e_v + gains.c1 * e_x,
                           gains.adapt1, dt, "nn1")
            network_update(nn2, x_nn[7:], z[k:], sigma[k:], e_Om + gains.c2 * e_R,
                           gains.adapt2, dt, "nn2")
        return out


def controller_pair(quad, nn1=None, nn2=None, adaptation=False, gains=None):
    """A controller and its reference, each with its own copy of the networks."""
    simp = SimplifiedModelParams(C_T=8.5e-6, C_Q=8.6e-8)
    gains = gains or default_gains()
    nn1 = nn1 if nn1 is not None else NNWeights.zeros()
    nn2 = nn2 if nn2 is not None else NNWeights.zeros()
    ctrl = GeometricAdaptiveController(gains, quad, simp, nn1=copy.deepcopy(nn1),
                                       nn2=copy.deepcopy(nn2), adaptation=adaptation)
    ref = ReferenceController(gains, quad, simp, copy.deepcopy(nn1), copy.deepcopy(nn2),
                              adaptation)
    return ctrl, ref


def random_case(rng, quad):
    """Random gains and networks, and three steps of nearby states and
    trajectory points, so the last step has a full computed-attitude history."""
    adapt = [AdaptationGains(*rng.uniform(0.1, 20.0, 2), rng.uniform(0.01, 0.5))
             for _ in range(2)]
    gains = ControllerGains(*rng.uniform(0.5, 10.0, 4), *rng.uniform(0.2, 2.0, 2),
                            adapt1=adapt[0], adapt2=adapt[1])
    nets = []
    for _ in range(2):
        W_norm, V_norm = rng.uniform(0.1, 3.0, 2)
        # bounds on either side of the norms, so that some updates project
        nets.append(NNWeights.random(rng, n_hidden=int(rng.integers(2, 12)),
                                     W_norm=W_norm, V_norm=V_norm,
                                     W_max=W_norm * rng.uniform(0.9, 1.5),
                                     V_max=V_norm * rng.uniform(0.9, 1.5)))
    x, v, Om = rng.standard_normal((3, 3))
    R = random_rotation(rng)
    x_d, v_d, a_d = rng.standard_normal((3, 3))
    b1 = rng.standard_normal(3)
    steps = []
    for _ in range(3):
        x, v, Om = (p + 0.05 * rng.standard_normal(3) for p in (x, v, Om))
        R = R @ random_rotation(rng, 0.05)
        x_d, v_d, a_d, b1 = (p + 0.05 * rng.standard_normal(3) for p in (x_d, v_d, a_d, b1))
        traj = TrajectoryPoint(x_d, v_d, a_d, b1 / np.linalg.norm(b1), np.zeros(3))
        steps.append((state_floats(pack_state(x, v, R, Om)), traj))
    return gains, nets, steps, rng.uniform(1e-4, 5e-3)


#: bound on |step - reference| of each output column, relative to the
#: largest |reference| value of that column over the cases, and on each
#: updated weight matrix, relative to its largest |entry|.  Measured: at most
#: 1.3e-15 for the output (omega1, adaptation on) and 5.3e-15 for the weights.
STEP_RTOL = 5e-14


@pytest.mark.parametrize("adaptation", [False, True])
def test_step_matches_array_reference(quad, adaptation):
    rng = np.random.default_rng(2024 + adaptation)
    got, want, weight_err = [], [], 0.0
    for _ in range(200):
        gains, nets, steps, dt = random_case(rng, quad)
        ctrl, ref = controller_pair(quad, *nets, adaptation=adaptation, gains=gains)
        for s, traj in steps:
            got.append(ctrl.step(s, traj, dt))
            want.append(ref.step(s, traj, dt))
            for w, w_ref in ((ctrl.nn1, ref.nn1), (ctrl.nn2, ref.nn2)):
                for M, M_ref in ((w.W, w_ref.W), (w.V, w_ref.V)):
                    weight_err = max(weight_err, float(np.abs(M - M_ref).max()
                                                       / np.abs(M_ref).max()))
    got, want = np.array(got), np.array(want)
    scale = np.abs(want).max(axis=0)
    scale[scale == 0.0] = 1.0
    err = np.abs(got - want).max(axis=0) / scale
    worst = int(err.argmax())
    assert err[worst] <= STEP_RTOL, f"column {OUTPUT_COLUMNS[worst]} off by {err[worst]:.2e}"
    assert weight_err <= STEP_RTOL


def adapted_controller(quad, steps):
    """A controller with random networks after `steps` adapted closed-loop
    steps, and a copy of its pair's W from before them."""
    rng = np.random.default_rng(99)
    gains, nets, _, _ = random_case(rng, quad)
    ctrl, _ = controller_pair(quad, *nets, adaptation=True, gains=gains)
    initial_W = ctrl.pair.W.copy()
    gen = TrajectoryGenerator(kind="hover", center=np.zeros(3))
    state = state_floats(pack_state(np.array([0.4, -0.2, 0.1]), np.zeros(3),
                                    rotation_zyx(0.2, 0.1, -0.1), np.zeros(3)))
    dt = 1e-3
    for k in range(steps):
        out = ctrl.step(state, trajectory_at(gen, k * dt), dt)
        f, M_c = out[OUTPUT["f"]], out[OUTPUT["M_c"]]
        state = step_rk4(state, dt,
                         lambda ts, x, v, R, Omega: simplified_wrench(R, f, M_c, quad),
                         quad, k * dt)
    return ctrl, initial_W


def test_pair_blocks_follow_the_updated_weights(quad):
    # after 200 adapted closed-loop steps the controller's block pair equals
    # one built afresh from its networks, and its off-diagonal blocks are
    # still exactly zero
    ctrl, initial_W = adapted_controller(quad, 200)
    pair, fresh = ctrl.pair, NetworkPair(ctrl.nn1, ctrl.nn2)
    (n1, h1), o1 = ctrl.nn1.V.shape, ctrl.nn1.W.shape[1]
    assert not pair.V[:n1, h1:].any() and not pair.V[n1:, :h1 + 1].any()
    assert not pair.W[:h1 + 1, o1:].any() and not pair.W[h1 + 1:, :o1].any()
    assert pair.W.tobytes() == fresh.W.tobytes() and pair.V.tobytes() == fresh.V.tobytes()
    # the weights moved, so blocks left as constructed would differ
    assert not np.array_equal(pair.W, initial_W)


def test_controller_networks_are_the_pair(quad, rng):
    # the networks the update writes into are views of the pair's blocks, so
    # the pair's forward pass is that of copies of the adapted networks
    ctrl, _ = adapted_controller(quad, 50)
    for w in (ctrl.nn1, ctrl.nn2):
        assert np.shares_memory(w.W, ctrl.pair.W) and np.shares_memory(w.V, ctrl.pair.V)
    fresh = NetworkPair(copy.deepcopy(ctrl.nn1), copy.deepcopy(ctrl.nn2))
    for _ in range(100):
        x, v, Om = rng.standard_normal((3, 3))
        x_nn, _ = build_network_input(x, v, random_rotation(rng), Om)
        (y, features), (y_ref, features_ref) = nn_output(ctrl.pair, x_nn), nn_output(fresh, x_nn)
        assert y.tobytes() == y_ref.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(features, features_ref))


@pytest.mark.parametrize("adaptation, random_nn2", [(False, False), (True, False), (False, True)],
                         ids=["frozen_zero", "adapting_zero", "frozen_nonzero"])
def test_frozen_zero_networks_are_evaluated_once(quad, monkeypatch, adaptation, random_nn2):
    per_step = adaptation or random_nn2
    calls = {"build_network_input": 0, "nn_output": 0}
    for name in calls:
        def counted(*args, _name=name, _call=getattr(windquad.controller, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(windquad.controller, name, counted)
    rng = np.random.default_rng(3)
    nn2 = NNWeights.random(rng, W_norm=1.0, V_norm=2.0) if random_nn2 else None
    simp = SimplifiedModelParams(C_T=8.5e-6, C_Q=8.6e-8)
    ctrl = GeometricAdaptiveController(default_gains(), quad, simp, nn2=nn2,
                                       adaptation=adaptation)
    built = dict(calls)
    # frozen zero networks: one forward pass, on a zero input, when built
    assert built == {"build_network_input": 0, "nn_output": 0 if per_step else 1}
    state = state_floats(pack_state(np.array([0.4, -0.2, 0.1]), np.array([0.1, 0.0, -0.3]),
                                    rotation_zyx(0.1, 0.05, -0.02), np.array([0.1, -0.2, 0.05])))
    for _ in range(5):
        out = ctrl.step(state, hover_point(), 1e-3)
    assert {name: n - built[name] for name, n in calls.items()} == dict.fromkeys(
        calls, 5 if per_step else 0)
    if not per_step:
        deltas = [*out[OUTPUT["delta1_hat"]], *out[OUTPUT["delta2_hat"]]]
        assert all(d == 0.0 and math.copysign(1.0, d) > 0.0 for d in deltas)


def test_one_pair_update_per_step(quad, monkeypatch):
    # both networks adapt in one update_weights call per step, on the pair
    # and the 6 entries [e_v + c1 e_x, e_Omega + c2 e_R] of its error signal
    calls = []
    update = windquad.controller.update_weights

    def recording(pair, x_nn, features, a, dt):
        calls.append((pair, a.shape))
        return update(pair, x_nn, features, a, dt)

    monkeypatch.setattr(windquad.controller, "update_weights", recording)
    ctrl, _ = controller_pair(quad, adaptation=True)
    state = state_floats(pack_state(np.array([0.4, -0.2, 0.1]), np.array([0.1, 0.0, -0.3]),
                                    rotation_zyx(0.1, 0.05, -0.02), np.array([0.1, -0.2, 0.05])))
    for _ in range(5):
        ctrl.step(state, hover_point(), 1e-3)
    assert calls == [(ctrl.pair, (6,))] * 5
    assert ctrl.pair.W.any()


def degenerate_cases():
    """(name, state, trajectory point, nn2) that the step must reject."""
    hover = hover_point()
    g = 9.81
    nan_net = NNWeights.zeros()
    nan_net.W = np.full_like(nan_net.W, math.nan)
    rest = state_floats(at_rest())
    return [
        ("A zero", rest, hover._replace(a_d=np.array([0.0, 0.0, g])), None),
        ("A tiny", rest, hover._replace(a_d=np.array([1e-7, 0.0, g])), None),
        ("A nan", rest, hover._replace(a_d=np.array([math.nan, 0.0, 0.0])), None),
        ("A inf", rest, hover._replace(a_d=np.array([math.inf, 0.0, 0.0])), None),
        ("A overflows", rest, hover._replace(a_d=np.array([1e200, 0.0, 1e200])), None),
        ("heading nan", rest, hover._replace(b1_d=np.array([math.nan, 0.0, 0.0])), None),
        ("heading parallel", rest, hover._replace(b1_d=np.array([0.0, 0.0, 1.0])), None),
        ("weights nan", rest, hover, nan_net),
    ]


@pytest.mark.parametrize("name, state, traj, nn2", degenerate_cases(),
                         ids=[case[0] for case in degenerate_cases()])
def test_step_degenerate_cases_match_reference(quad, name, state, traj, nn2):
    errors = []
    for impl in controller_pair(quad, nn2=nn2, adaptation=True):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                (DegenerateThrust, HeadingDegenerate, NonFiniteWeights)) as err:
            impl.step(state, traj, 1e-3)
        errors.append((type(err.value), str(err.value)))
    assert errors[0] == errors[1]


# --- gimbal-lock fallback through the step -------------------------------------

def locked_state(Om):
    """A state within GIMBAL_TOL of pitch pi/2."""
    R = rotation_zyx(-0.3, 0.5 * math.pi - 0.1 * GIMBAL_TOL, 0.2)
    return state_floats(pack_state(np.zeros(3), np.zeros(3), R, Om))


def attitude_output(nn2, angles, Om):
    # the pair forward of the controller: a zero nn1 beside nn2, at the
    # zero position and velocity of locked_state
    pair = NetworkPair(NNWeights.zeros(), nn2)
    y, _ = nn_output(pair, np.concatenate(([1.0], np.zeros(6), [1.0], angles, Om)))
    return y[3:6]


def test_step_gimbal_lock_reuses_previous_angles(quad, rng):
    simp = SimplifiedModelParams(C_T=8.5e-6, C_Q=8.6e-8)
    nn2 = NNWeights.random(rng, W_norm=1.0, V_norm=2.0)
    ctrl = GeometricAdaptiveController(default_gains(), quad, simp, nn2=nn2,
                                       adaptation=False)
    R = rotation_zyx(0.4, 0.2, -0.1)
    ctrl.step(state_floats(pack_state(np.zeros(3), np.zeros(3), R, np.array([0.1, -0.2, 0.3]))),
              hover_point(), 1e-3)
    Om = np.array([-0.2, 0.1, 0.05])
    out = ctrl.step(locked_state(Om), hover_point(), 1e-3)
    assert np.array_equal(out[OUTPUT["delta2_hat"]], attitude_output(nn2, euler_zyx(R), Om))


def test_step_gimbal_lock_on_first_step_uses_zero_angles(quad, rng):
    simp = SimplifiedModelParams(C_T=8.5e-6, C_Q=8.6e-8)
    nn2 = NNWeights.random(rng, W_norm=1.0, V_norm=2.0)
    ctrl = GeometricAdaptiveController(default_gains(), quad, simp, nn2=nn2,
                                       adaptation=False)
    Om = np.array([-0.2, 0.1, 0.05])
    out = ctrl.step(locked_state(Om), hover_point(), 1e-3)
    assert np.array_equal(out[OUTPUT["delta2_hat"]], attitude_output(nn2, np.zeros(3), Om))
