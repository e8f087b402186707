import math

import numpy as np
import pytest

import windquad.aero
from windquad.aero import (RotorAeroParams, advance_ratios,
                           drag_force, flap_direction, resultant_wrench,
                           solve_thrust_inflow, thrust_inflow_residuals,
                           torque_coefficient)
from windquad.dynamics import SimplifiedModelParams, rotor_speed_from_thrust
from windquad.errors import RotorStopped
from windquad.layout import pack_state, unpack_state
from windquad.se3 import cross3, hat, rotation_zyx

from conftest import at_rest, random_rotation


def hover_quadratic_oracle(params):
    """Closed-form hover inflow: 2 lam^2 + (s C_la/4) lam - s C_la theta0/6 = 0."""
    s_cla = params.solidity * params.C_la
    b = s_cla / 4.0
    c = -s_cla * params.theta0 / 6.0
    lam = (-b + math.sqrt(b * b - 8.0 * c)) / 4.0
    return 2.0 * lam * lam, lam


def bisection_oracle(mu_x, mu_z, params, lo=0.0, hi=1.0, iters=100):
    """Independent solve of lam = C_T(lam) / (2 sqrt(mu_x^2 + (lam+mu_z)^2))."""
    s_cla = params.solidity * params.C_la

    def ct(lam):
        return 0.5 * s_cla * (params.theta0 * (1.0 / 3.0 + mu_x ** 2 / 2.0)
                              - 0.5 * (lam + mu_z))

    def residual(lam):
        denom = 2.0 * math.sqrt(mu_x ** 2 + (lam + mu_z) ** 2)
        return lam - ct(lam) / denom

    flo = residual(lo if lo > 0 else 1e-12)
    assert flo * residual(hi) < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * residual(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = residual(mid)
    lam = 0.5 * (lo + hi)
    return ct(lam), lam


# --- relative wind -----------------------------------------------------------

def rotor_relative_wind(state, v_w, r_j):
    """Relative wind R^T (v_w - v) + hat(Omega) r_j at the rotor hub r_j (body
    frame) for ambient wind v_w (inertial): the formula resultant_wrench
    inlines in floats."""
    _, v, R, Omega = unpack_state(state)
    return R.T @ (np.asarray(v_w, float) - v) + hat(Omega) @ np.asarray(r_j, float)


def test_relative_wind_static_vehicle():
    st = at_rest()
    u = rotor_relative_wind(st, [3.0, 0.0, 0.0], [0.1, 0.0, 0.0])
    assert np.allclose(u, [3.0, 0.0, 0.0])


def test_relative_wind_comoving():
    st = pack_state(np.zeros(3), np.array([2.0, -1.0, 0.5]), np.eye(3), np.zeros(3))
    u = rotor_relative_wind(st, [2.0, -1.0, 0.5], [0.3, 0.0, 0.05])
    assert np.allclose(u, 0.0)


def test_relative_wind_spin_term():
    st = pack_state(np.zeros(3), np.zeros(3), np.eye(3), np.array([0.0, 0.0, 1.0]))
    u = rotor_relative_wind(st, np.zeros(3), [0.3, 0.0, 0.05])
    assert np.allclose(u, [0.0, 0.3, 0.0], atol=1e-15)


# --- advance ratios ----------------------------------------------------------

def test_advance_ratios_zero_wind():
    assert advance_ratios(np.zeros(3), 100.0, 0.25) == (0.0, 0.0)


def test_advance_ratios_values():
    mu_x, mu_z = advance_ratios(np.array([3.0, 4.0, 0.0]), 100.0, 0.25)
    assert mu_x == pytest.approx(0.2)
    assert mu_z == pytest.approx(0.0)


def test_advance_ratios_stopped_rotor():
    with pytest.raises(RotorStopped):
        advance_ratios(np.zeros(3), 0.0, 0.25)


# --- implicit thrust/inflow --------------------------------------------------

def test_hover_inflow_closed_form(aero_s01):
    C_T, lam = solve_thrust_inflow(0.0, 0.0, aero_s01)
    C_T_ref, lam_ref = hover_quadratic_oracle(aero_s01)
    assert lam == pytest.approx(lam_ref, abs=1e-12)
    assert C_T == pytest.approx(C_T_ref, abs=1e-12)
    # frozen values for s=0.1, C_la=5.7, theta0=0.2
    assert lam == pytest.approx(0.0681495, abs=1e-6)
    assert C_T == pytest.approx(0.0092887, abs=1e-6)


def test_zero_pitch_zero_thrust(aero_s01):
    p = RotorAeroParams(r_p=aero_s01.r_p, N_b=aero_s01.N_b, chord=aero_s01.chord,
                        C_la=aero_s01.C_la, theta0=0.0)
    C_T, lam = solve_thrust_inflow(0.0, 0.0, p)
    assert C_T == 0.0
    assert lam == 0.0


def test_grid_matches_bisection_oracle(aero_s01):
    for mu_x in np.linspace(0.0, 0.3, 7):
        for mu_z in np.linspace(-0.05, 0.1, 7):
            C_T, lam = solve_thrust_inflow(mu_x, mu_z, aero_s01)
            C_T_ref, lam_ref = bisection_oracle(mu_x, mu_z, aero_s01)
            assert lam == pytest.approx(lam_ref, abs=1e-8)
            assert C_T == pytest.approx(C_T_ref, abs=1e-8)
            r1, r2 = thrust_inflow_residuals(C_T, lam, mu_x, mu_z, aero_s01)
            assert abs(r1) < 1e-10 and abs(r2) < 1e-10


def test_inflow_nonnegative_for_climb(aero_s01):
    # hover/climb side of the operating envelope (the rotor stays loaded up
    # to mu_z = 0.1 at this blade pitch): induced inflow keeps the thrust sign
    for mu_x in np.linspace(0.0, 0.3, 7):
        for mu_z in np.linspace(0.0, 0.1, 7):
            C_T, lam = solve_thrust_inflow(mu_x, mu_z, aero_s01)
            assert lam >= 0.0
            assert math.isfinite(C_T)


def test_solver_deterministic(aero_s01):
    a = solve_thrust_inflow(0.17, 0.03, aero_s01)
    b = solve_thrust_inflow(0.17, 0.03, aero_s01)
    assert a == b


# --- torque coefficient ------------------------------------------------------

def test_torque_profile_term_only(aero_s01):
    # C_T = 0, lam = 0: only C_D0 s / 8
    assert torque_coefficient(0.0, 0.0, 0.0, 0.0, aero_s01) == pytest.approx(1.25e-4)


def test_torque_hover_value(aero_s01):
    C_T, lam = solve_thrust_inflow(0.0, 0.0, aero_s01)
    C_Q = torque_coefficient(C_T, lam, 0.0, 0.0, aero_s01)
    assert C_Q == pytest.approx(C_T * lam + 1.25e-4, abs=1e-12)
    assert C_Q == pytest.approx(7.5804e-4, abs=1e-7)


def test_torque_profile_scaling(aero_s01):
    base = torque_coefficient(0.0, 0.0, 0.0, 0.0, aero_s01)
    swept = torque_coefficient(0.0, 0.0, 0.3, 0.0, aero_s01)
    assert swept == pytest.approx(base * (1.0 + 3.0 * 0.09))


# --- flapping ----------------------------------------------------------------

def test_flap_zero_wind_limit():
    alpha, d = flap_direction(0.0, 0.0, 0.05)
    assert alpha == 0.0
    assert np.allclose(d, [0.0, 0.0, -1.0])


def test_flap_example_values():
    alpha, d = flap_direction(3.0, 4.0, 0.05)
    assert alpha == pytest.approx(0.25)
    expected = [-math.sin(0.25) * 0.6, -math.sin(0.25) * 0.8, -math.cos(0.25)]
    assert np.allclose(d, expected, atol=1e-12)
    assert np.allclose(d, [-0.14845, -0.19793, -0.96891], atol=1e-5)


def test_flap_direction_unit(rng):
    for _ in range(100):
        u1, u2 = rng.uniform(-20, 20, 2)
        _, d = flap_direction(u1, u2, rng.uniform(0.0, 0.1))
        assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-12)


# --- drag --------------------------------------------------------------------

def test_drag_zero_relative():
    v = np.array([1.0, 2.0, 3.0])
    assert np.allclose(drag_force(v, v, 0.5), 0.0)


def test_drag_zero_coefficient():
    assert np.allclose(drag_force([5.0, 0, 0], [0, 0, 0], 0.0), 0.0)


def test_drag_example():
    D = drag_force([2.0, 0.0, 0.0], [0.0, 0.0, 0.0], 0.5)
    assert np.allclose(D, [-2.0, 0.0, 0.0])


def test_drag_dissipative(rng):
    for _ in range(100):
        v = rng.standard_normal(3) * 5
        v_w = rng.standard_normal(3) * 5
        D = drag_force(v, v_w, rng.uniform(0.0, 1.0))
        assert D @ (v - v_w) <= 1e-12


# --- resultant wrench --------------------------------------------------------

def hover_trim_speed(quad, aero):
    """Scalar bisection for the rotor speed balancing gravity at hover."""
    def net(omega):
        st = at_rest()
        U_e, _ = resultant_wrench(st, np.zeros(3), [omega] * 4, quad, aero)
        return U_e[2]
    lo, hi = 10.0, 5000.0
    assert net(lo) > 0 > net(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if net(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_hover_symmetry(quad, aero_s01):
    st = at_rest()
    U_e, M_e = resultant_wrench(st, np.zeros(3), [400.0] * 4, quad, aero_s01)
    assert np.allclose(U_e[:2], 0.0, atol=1e-12)
    assert np.allclose(M_e, 0.0, atol=1e-12)


def test_hover_vertical_balance(quad, aero_s01):
    st = at_rest()
    omega = 400.0
    U_e, _ = resultant_wrench(st, np.zeros(3), [omega] * 4, quad, aero_s01)
    C_T, _ = solve_thrust_inflow(0.0, 0.0, aero_s01)
    T = C_T * aero_s01.rho * aero_s01.A_p * (aero_s01.r_p * omega) ** 2
    assert U_e[2] == pytest.approx(quad.m * quad.g - 4.0 * T, abs=1e-12)


def test_hover_trim(quad, aero_s01):
    omega_h = hover_trim_speed(quad, aero_s01)
    st = at_rest()
    U_e, M_e = resultant_wrench(st, np.zeros(3), [omega_h] * 4, quad, aero_s01)
    assert np.linalg.norm(U_e) < 1e-9 * quad.m * quad.g
    assert np.allclose(M_e, 0.0, atol=1e-12)


def test_wrench_frame_consistency(quad, aero_s01, rng):
    # rotating the world about gravity rotates the force and keeps the moment
    st = pack_state(np.zeros(3), rng.standard_normal(3), random_rotation(rng, 0.4),
                    rng.standard_normal(3))
    v_w = np.array([4.0, -1.0, 0.5])
    omegas = [380.0, 390.0, 385.0, 395.0]
    U_e, M_e = resultant_wrench(st, v_w, omegas, quad, aero_s01)
    Q = rotation_zyx(0.9, 0.0, 0.0)
    x, v, R, Omega = unpack_state(st)
    st_rot = pack_state(Q @ x, Q @ v, Q @ R, Omega)
    U_e2, M_e2 = resultant_wrench(st_rot, Q @ v_w, omegas, quad, aero_s01)
    assert np.allclose(U_e2, Q @ U_e, atol=1e-10)
    assert np.allclose(M_e2, M_e, atol=1e-12)


def test_wrench_propagates_rotor_stopped(quad, aero_s01):
    st = at_rest()
    with pytest.raises(RotorStopped, match=r"^rotor 2 speed 0\.5 rad/s below floor 1$"):
        resultant_wrench(st, np.zeros(3), [400.0, 0.5, 400.0, 400.0], quad, aero_s01)


def test_floored_rotor_speed_passes_aero_floor(quad, aero_s01):
    # for this C_T, sqrt((C_T * 30^2) / C_T) rounds to 29.999999999999996
    simp = SimplifiedModelParams(C_T=7.972875276996875e-05, C_Q=8.0e-07)
    omega_min = 30.0
    clipped, sat = rotor_speed_from_thrust(-1.0, simp, omega_min)
    assert sat and clipped == omega_min
    at_floor, sat = rotor_speed_from_thrust(simp.C_T * omega_min ** 2, simp, omega_min)
    assert not sat and at_floor == omega_min
    st = at_rest()
    U_e, M_e = resultant_wrench(st, np.array([3.0, 0.0, 0.0]),
                                [clipped, at_floor, 400.0, 400.0], quad,
                                aero_s01, omega_min)
    assert np.all(np.isfinite(U_e)) and np.all(np.isfinite(M_e))


def test_wrench_makes_four_scalar_solves(monkeypatch, quad, aero_s01, rng):
    # the benchmark's traced run counts 16 solves per step (4 wrench calls)
    # at the module-global lookup windquad.aero.solve_thrust_inflow
    calls = []
    solve = windquad.aero.solve_thrust_inflow

    def counted(mu_x, mu_z, params):
        calls.append((type(mu_x), type(mu_z)))
        return solve(mu_x, mu_z, params)

    monkeypatch.setattr(windquad.aero, "solve_thrust_inflow", counted)
    for n in range(1, 4):
        st = pack_state(np.zeros(3), rng.standard_normal(3), random_rotation(rng),
                        rng.standard_normal(3))
        resultant_wrench(st, rng.standard_normal(3), np.full(4, 400.0), quad, aero_s01)
        assert len(calls) == 4 * n
    assert set(calls) == {(float, float)}


# --- reference: the per-rotor numpy composition of the wrench ----------------

def reference_wrench(state, v_w, omegas, quad, aero, omega_min=1.0):
    """Per-rotor array evaluation of resultant_wrench, one rotor at a time."""
    force_body = np.zeros(3)
    moment = np.zeros(3)
    for j, (omega_j, r_j) in enumerate(zip(omegas, quad.rotor_positions)):
        r_j = np.array(r_j)
        u = rotor_relative_wind(state, v_w, r_j)
        if omega_j < omega_min:
            raise RotorStopped(f"rotor {j + 1}")
        tip = omega_j * aero.r_p
        mu_x = math.hypot(u[0], u[1]) / tip
        mu_z = u[2] / tip
        C_T, lam = solve_thrust_inflow(mu_x, mu_z, aero)
        C_Q = torque_coefficient(C_T, lam, mu_x, mu_z, aero)
        planar = math.hypot(u[0], u[1])
        if planar < 1e-12:
            alpha, d = 0.0, np.array([0.0, 0.0, -1.0])
        else:
            alpha = aero.C_alpha * planar
            d = np.array([-math.sin(alpha) * u[0] / planar,
                          -math.sin(alpha) * u[1] / planar, -math.cos(alpha)])
        tip2 = (aero.r_p * omega_j) ** 2
        T_j = C_T * aero.rho * aero.A_p * tip2
        Q_j = C_Q * aero.rho * aero.A_p * aero.r_p * tip2
        thrust = T_j * d
        force_body += thrust
        sign = 1.0 if j % 2 == 0 else -1.0
        moment += cross3(r_j, thrust) + sign * Q_j * d
        flap = 0.5 * aero.N_b * aero.K_beta * alpha
        moment += flap * np.array([d[0], d[1], 0.0])
    _, v, R, _ = unpack_state(state)
    rel = v - np.asarray(v_w, float)
    U_e = quad.m * quad.g * np.array([0.0, 0.0, 1.0]) \
        - aero.C_d * np.linalg.norm(rel) * rel + R @ force_body
    return U_e, moment


def assert_matches_reference(got, ref):
    for g, r in zip(got, ref):
        assert np.linalg.norm(g - r) <= 1e-12 * np.linalg.norm(r) + 1e-15


def test_wrench_matches_reference_random(quad, aero_s01, rng):
    for _ in range(1000):
        st = pack_state(np.zeros(3), 3.0 * rng.standard_normal(3), random_rotation(rng),
                        2.0 * rng.standard_normal(3))
        v_w = 5.0 * rng.standard_normal(3)
        omegas = rng.uniform(250.0, 900.0, 4)
        assert_matches_reference(resultant_wrench(st, v_w, omegas, quad, aero_s01),
                                 reference_wrench(st, v_w, omegas, quad, aero_s01))


def test_wrench_matches_reference_axial_wind(quad, aero_s01, rng):
    # wind along the body z axis of a non-spinning vehicle: every rotor takes
    # the zero in-plane (unflapped) branch
    for w in (-4.0, 0.0, 2.5):
        R = random_rotation(rng)
        st = pack_state(np.zeros(3), np.zeros(3), R, np.zeros(3))
        v_w = R @ np.array([0.0, 0.0, w])
        omegas = np.full(4, rng.uniform(300.0, 600.0))
        got = resultant_wrench(st, v_w, omegas, quad, aero_s01)
        assert_matches_reference(got, reference_wrench(st, v_w, omegas, quad, aero_s01))
        assert np.allclose(got[1][:2], 0.0, atol=1e-12)


def test_flap_moment_vanishes_without_wind(quad, aero_s01):
    # zero relative wind at every rotor: no flapping contribution at all
    st = at_rest()
    _, M_e = resultant_wrench(st, np.zeros(3), [420.0] * 4, quad, aero_s01)
    assert np.allclose(M_e, 0.0, atol=1e-12)


def test_flap_moment_magnitude_bounded(quad, aero_s01):
    # flapping adds at most (N_b/2) K_beta alpha_max * sqrt(2) per rotor
    st = at_rest()
    v_w = np.array([6.0, 0.0, 0.0])
    omegas = [400.0] * 4
    _, M_e = resultant_wrench(st, v_w, omegas, quad, aero_s01)
    alpha_max = aero_s01.C_alpha * np.linalg.norm(v_w)
    flap_cap = 4 * 0.5 * aero_s01.N_b * aero_s01.K_beta * alpha_max * math.sqrt(2.0)
    # total moment also contains thrust-tilt and reaction-torque terms; bound
    # those by their own caps to isolate a sane overall magnitude check
    assert np.linalg.norm(M_e) < 5.0 * (flap_cap + 1.0)


# --- parameter validation ----------------------------------------------------

def test_params_reject_high_solidity():
    with pytest.raises(ValueError):
        RotorAeroParams(r_p=0.1, N_b=8, chord=0.1)


def test_params_sweep_area():
    p = RotorAeroParams(r_p=0.2)
    assert p.A_p == pytest.approx(math.pi * 0.04, abs=1e-12)
