import dataclasses
import math
import types

import numpy as np
import pytest

import windquad.aero
from windquad.aero import (RotorAeroParams, drag_force, resultant_wrench,
                           solve_thrust_inflow, torque_coefficient)
from windquad.dynamics import SimplifiedModelParams, rotor_speed_from_thrust
from windquad.errors import NoConvergence, RotorStopped
from windquad.se3 import rotation_zyx

import oracles
from conftest import at_rest, random_rotation
from oracles import (advance_ratios, cross3, flap_direction, hat, pack_state,
                     resultant_wrench_oracle, solve_thrust_inflow_oracle, state_floats,
                     thrust_inflow_residuals, unpack_state)


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
    assert np.allclose(drag_force(np.array([5.0, 0, 0]), np.zeros(3), 0.0), 0.0)


def test_drag_example():
    D = drag_force(np.array([2.0, 0.0, 0.0]), np.zeros(3), 0.5)
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
        U_e, _ = resultant_wrench(*state_floats(st)[1:],
                                  np.zeros(3), np.full(4, omega), quad, aero)
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
    U_e, M_e = resultant_wrench(*state_floats(st)[1:],
                                np.zeros(3), np.full(4, 400.0), quad, aero_s01)
    assert np.allclose(U_e[:2], 0.0, atol=1e-12)
    assert np.allclose(M_e, 0.0, atol=1e-12)


def test_hover_vertical_balance(quad, aero_s01):
    st = at_rest()
    omega = 400.0
    U_e, _ = resultant_wrench(*state_floats(st)[1:],
                              np.zeros(3), np.full(4, omega), quad, aero_s01)
    C_T, _ = solve_thrust_inflow(0.0, 0.0, aero_s01)
    T = C_T * aero_s01.rho * aero_s01.A_p * (aero_s01.r_p * omega) ** 2
    assert U_e[2] == pytest.approx(quad.m * quad.g - 4.0 * T, abs=1e-12)


def test_hover_trim(quad, aero_s01):
    omega_h = hover_trim_speed(quad, aero_s01)
    st = at_rest()
    U_e, M_e = resultant_wrench(*state_floats(st)[1:],
                                np.zeros(3), np.full(4, omega_h), quad, aero_s01)
    assert np.linalg.norm(U_e) < 1e-9 * quad.m * quad.g
    assert np.allclose(M_e, 0.0, atol=1e-12)


def test_wrench_frame_consistency(quad, aero_s01, rng):
    # rotating the world about gravity rotates the force and keeps the moment
    st = pack_state(np.zeros(3), rng.standard_normal(3), random_rotation(rng, 0.4),
                    rng.standard_normal(3))
    v_w = np.array([4.0, -1.0, 0.5])
    omegas = np.array([380.0, 390.0, 385.0, 395.0])
    U_e, M_e = resultant_wrench(*state_floats(st)[1:], v_w, omegas, quad, aero_s01)
    Q = rotation_zyx(0.9, 0.0, 0.0)
    x, v, R, Omega = unpack_state(st)
    st_rot = pack_state(Q @ x, Q @ v, Q @ R, Omega)
    U_e2, M_e2 = resultant_wrench(*state_floats(st_rot)[1:], Q @ v_w, omegas, quad, aero_s01)
    assert np.allclose(U_e2, Q @ U_e, atol=1e-10)
    assert np.allclose(M_e2, M_e, atol=1e-12)


def test_wrench_propagates_rotor_stopped(quad, aero_s01):
    st = at_rest()
    with pytest.raises(RotorStopped, match=r"^rotor 2 speed 0\.5 rad/s below floor 1$"):
        resultant_wrench(*state_floats(st)[1:],
                         np.zeros(3), np.array([400.0, 0.5, 400.0, 400.0]), quad, aero_s01)


def test_floored_rotor_speed_passes_aero_floor(quad, aero_s01):
    # for this C_T, sqrt((C_T * 30^2) / C_T) rounds to 29.999999999999996
    simp = SimplifiedModelParams(C_T=7.972875276996875e-05, C_Q=8.0e-07)
    omega_min = 30.0
    clipped, sat = rotor_speed_from_thrust(-1.0, simp, omega_min)
    assert sat and clipped == omega_min
    at_floor, sat = rotor_speed_from_thrust(simp.C_T * omega_min ** 2, simp, omega_min)
    assert not sat and at_floor == omega_min
    st = at_rest()
    U_e, M_e = resultant_wrench(*state_floats(st)[1:], np.array([3.0, 0.0, 0.0]),
                                np.array([clipped, at_floor, 400.0, 400.0]), quad,
                                aero_s01, omega_min)
    assert np.all(np.isfinite(U_e)) and np.all(np.isfinite(M_e))


def test_wrench_makes_four_scalar_solves(monkeypatch, quad, aero_s01, rng):
    # the benchmark's traced run counts 16 solves per step (4 wrench calls)
    # at the module-global lookup windquad.aero.solve_thrust_inflow
    calls = []
    solve = windquad.aero.solve_thrust_inflow

    def counted(mu_x, mu_z, params, lam0=None):
        calls.append((type(mu_x), type(mu_z)))
        return solve(mu_x, mu_z, params, lam0)

    monkeypatch.setattr(windquad.aero, "solve_thrust_inflow", counted)
    for n in range(1, 4):
        st = pack_state(np.zeros(3), rng.standard_normal(3), random_rotation(rng),
                        rng.standard_normal(3))
        resultant_wrench(*state_floats(st)[1:], rng.standard_normal(3).tolist(), [400.0] * 4,
                         quad, aero_s01)
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
        assert np.linalg.norm(np.subtract(g, r)) <= 1e-12 * np.linalg.norm(r) + 1e-15


def test_wrench_matches_reference_random(quad, aero_s01, rng):
    for _ in range(1000):
        st = pack_state(np.zeros(3), 3.0 * rng.standard_normal(3), random_rotation(rng),
                        2.0 * rng.standard_normal(3))
        v_w = 5.0 * rng.standard_normal(3)
        omegas = rng.uniform(250.0, 900.0, 4)
        assert_matches_reference(resultant_wrench(*state_floats(st)[1:],
                                                  v_w, omegas, quad, aero_s01),
                                 reference_wrench(st, v_w, omegas, quad, aero_s01))


def test_wrench_matches_reference_axial_wind(quad, aero_s01, rng):
    # wind along the body z axis of a non-spinning vehicle: every rotor takes
    # the zero in-plane (unflapped) branch
    for w in (-4.0, 0.0, 2.5):
        R = random_rotation(rng)
        st = pack_state(np.zeros(3), np.zeros(3), R, np.zeros(3))
        v_w = R @ np.array([0.0, 0.0, w])
        omegas = np.full(4, rng.uniform(300.0, 600.0))
        got = resultant_wrench(*state_floats(st)[1:], v_w, omegas, quad, aero_s01)
        assert_matches_reference(got, reference_wrench(st, v_w, omegas, quad, aero_s01))
        assert np.allclose(got[1][:2], 0.0, atol=1e-12)


def test_wrench_with_carried_inflow_matches_cold_solve(quad, aero_s01, rng):
    # the carried start moves only Newton's path, not the root it reaches:
    # the list holds the previous state's solution, which is close for a
    # small perturbation and far for a fresh random state
    inflow = [aero_s01.lam_guess] * 4
    for _ in range(500):
        x, v, R, Omega = (np.zeros(3), 3.0 * rng.standard_normal(3), random_rotation(rng),
                          2.0 * rng.standard_normal(3))
        v_w = 5.0 * rng.standard_normal(3)
        omegas = rng.uniform(250.0, 900.0, 4)
        for nudge in (0.0, 1e-3):
            s = pack_state(x, v + nudge * rng.standard_normal(3), R,
                           Omega + nudge * rng.standard_normal(3))
            cold = resultant_wrench(*state_floats(s)[1:], v_w, omegas, quad, aero_s01)
            warm = resultant_wrench(*state_floats(s)[1:], v_w, omegas, quad, aero_s01, 1.0, inflow)
            assert_matches_reference(warm, cold)
            assert all(isinstance(lam, float) and math.isfinite(lam) for lam in inflow)


#: Newton starts far from the inflow root, and the advance-ratio grid they are tried on
FAR_STARTS = [-1e3, -1.0, 0.0, 1e-9, 0.9, 1.0, 10.0, 1e6]
MU_GRID = [(float(mu_x), float(mu_z)) for mu_x in np.linspace(0.0, 0.3, 7)
           for mu_z in np.linspace(-0.05, 0.1, 7)]


@pytest.mark.parametrize("lam0", FAR_STARTS)
def test_far_start_reaches_residual_tolerance(aero_s01, lam0):
    # from a start far from the root, Newton either converges or hands over
    # to the bisection fallback; both must meet the 1e-11 product-form residual
    s_cla = aero_s01.solidity * aero_s01.C_la
    for mu_x in np.linspace(0.0, 0.3, 7):
        for mu_z in np.linspace(-0.05, 0.1, 7):
            mu_x, mu_z = float(mu_x), float(mu_z)
            C_T, lam = solve_thrust_inflow(mu_x, mu_z, aero_s01, lam0)
            ct = 0.5 * s_cla * (aero_s01.theta0 * (1.0 / 3.0 + 0.5 * mu_x ** 2)
                                - 0.5 * (lam + mu_z))
            assert C_T == ct
            assert abs(2.0 * lam * math.hypot(mu_x, lam + mu_z) - C_T) <= 1e-11
            assert lam == pytest.approx(solve_thrust_inflow(mu_x, mu_z, aero_s01)[1],
                                        abs=1e-10)


@pytest.mark.parametrize("mu_x, mu_z", [(math.nan, 0.02), (0.1, math.nan)])
def test_nan_advance_ratio_raises(aero_s01, mu_x, mu_z):
    # a NaN residual fails every convergence check instead of passing it
    with pytest.raises(NoConvergence):
        solve_thrust_inflow(mu_x, mu_z, aero_s01)


@pytest.mark.parametrize("lam0", [math.nan, math.inf])
def test_non_finite_start_falls_back_to_bisection(aero_s01, lam0):
    C_T, lam = solve_thrust_inflow(0.1, 0.02, aero_s01, lam0)
    assert math.isfinite(C_T) and math.isfinite(lam)
    assert abs(2.0 * lam * math.hypot(0.1, lam + 0.02) - C_T) <= 1e-11
    assert lam == pytest.approx(solve_thrust_inflow(0.1, 0.02, aero_s01)[1], abs=1e-10)


# --- the fused per-rotor kernel against its unfused composition -------------
# resultant_wrench and solve_thrust_inflow write the advance ratios, the
# flapped direction, the inflow residual and C_T out inline; the oracles call
# one function per quantity.  Every float is compared bit for bit (float.hex
# tells -0.0 from 0.0).

def bits(values):
    """float.hex of every float in a nested tuple/list of floats."""
    if isinstance(values, float):
        return values.hex()
    return [bits(v) for v in values]


def solve_outcome(solve, *args):
    """(C_T, lam) of a solve as bits, or the message and residual it raised."""
    try:
        return bits(solve(*args))
    except NoConvergence as exc:
        return str(exc), repr(exc.residual)


@pytest.fixture
def evaluations(monkeypatch):
    """Residual evaluations so far: sqrt calls in windquad.aero (one per
    inline residual) and _inflow_residual calls of the oracle."""
    counts = {"kernel": 0, "oracle": 0}

    def counted_sqrt(x):
        counts["kernel"] += 1
        return math.sqrt(x)

    residual = oracles._inflow_residual

    def counted_residual(*args):
        counts["oracle"] += 1
        return residual(*args)

    counting_math = types.SimpleNamespace(**vars(math))
    counting_math.sqrt = counted_sqrt
    monkeypatch.setattr(windquad.aero, "math", counting_math)
    monkeypatch.setattr(oracles, "_inflow_residual", counted_residual)
    return counts


def assert_same_solve(evaluations, mu_x, mu_z, params, lam0):
    # same result or error, after the same number of residual evaluations
    # (so the same Newton path, stall and cap checks included)
    before = dict(evaluations)
    assert solve_outcome(solve_thrust_inflow, mu_x, mu_z, params, lam0) == \
        solve_outcome(solve_thrust_inflow_oracle, mu_x, mu_z, params, lam0)
    assert evaluations["kernel"] - before["kernel"] == evaluations["oracle"] - before["oracle"]


def test_wrench_bitwise_equals_oracle_composition(quad, aero_s01, rng):
    # cold starts, then a carried inflow list per side across all stages
    carried, carried_oracle = [aero_s01.lam_guess] * 4, [aero_s01.lam_guess] * 4
    for _ in range(1000):
        st = pack_state(np.zeros(3), 3.0 * rng.standard_normal(3), random_rotation(rng),
                        2.0 * rng.standard_normal(3))
        stage = state_floats(st)[1:]
        v_w = (5.0 * rng.standard_normal(3)).tolist()
        omegas = rng.uniform(250.0, 900.0, 4).tolist()
        args = (*stage, v_w, omegas, quad, aero_s01)
        assert bits(resultant_wrench(*args)) == bits(resultant_wrench_oracle(*args))
        assert bits(resultant_wrench(*args, 1.0, carried)) == \
            bits(resultant_wrench_oracle(*args, 1.0, carried_oracle))
        assert bits(carried) == bits(carried_oracle)


def test_wrench_bitwise_equals_oracle_axial_wind(quad, aero_s01, rng):
    # every rotor on the unflapped branch (planar < 1e-12), cold and carried
    carried, carried_oracle = [aero_s01.lam_guess] * 4, [aero_s01.lam_guess] * 4
    for w in (-4.0, -0.5, 0.0, 1e-9, 2.5):
        R = random_rotation(rng)
        stage = state_floats(pack_state(np.zeros(3), np.zeros(3), R, np.zeros(3)))[1:]
        # exactly axial in the body frame, as R^T (v_w - v) computes it
        v_w = [w * R[0, 2], w * R[1, 2], w * R[2, 2]]
        args = (*stage, v_w, [rng.uniform(300.0, 600.0)] * 4, quad, aero_s01)
        wrench = resultant_wrench(*args)
        assert bits(wrench) == bits(resultant_wrench_oracle(*args))
        assert bits(resultant_wrench(*args, 1.0, carried)) == \
            bits(resultant_wrench_oracle(*args, 1.0, carried_oracle))
        assert bits(carried) == bits(carried_oracle)


@pytest.mark.parametrize("lam0", [None, *FAR_STARTS])
def test_solve_bitwise_equals_oracle_far_starts(evaluations, aero_s01, lam0):
    for mu_x, mu_z in MU_GRID:
        assert_same_solve(evaluations, mu_x, mu_z, aero_s01, lam0)


@pytest.mark.parametrize("mu_x, mu_z, lam0", [
    (math.nan, 0.02, None), (0.1, math.nan, None), (0.1, 0.02, math.nan),
    (0.1, 0.02, math.inf), (0.1, 0.02, -math.inf),
    # Newton stops on its stall check: near the root, and with lam far
    # above 1 within the residual tolerance, then short of it (bisection)
    (0.0, -1000.0, None), (0.0, -100.0, 1e3), (0.0, -1000.0, 1e6),
    # Newton runs into its 50-step cap
    (0.0, 0.3, -1e6),
    # no sign change on [0, 1]: the abort of a diverged full_aero run
    (1875.2141825864655, 2364.3215981845142, 0.07)])
def test_solve_bitwise_equals_oracle_bisection_and_failures(evaluations, aero_s01,
                                                            mu_x, mu_z, lam0):
    assert_same_solve(evaluations, mu_x, mu_z, aero_s01, lam0)


def test_solve_takes_bisection_path_from_non_finite_start(evaluations, aero_s01):
    # the bisection fallback runs its 200 halvings plus the bracket and final
    # evaluations, against at most 51 for Newton
    before = evaluations["kernel"]
    solve_thrust_inflow(0.1, 0.02, aero_s01, math.nan)
    assert evaluations["kernel"] - before > 200


def test_cached_constants_follow_replace(quad, aero_s01, rng):
    # dataclasses.replace runs __post_init__ again, so no derived constant
    # keeps the value of the instance it was copied from
    changes = {"r_p": 0.1, "theta0": 0.27}
    replaced = dataclasses.replace(aero_s01, **changes)
    fresh = RotorAeroParams(**{**{f.name: getattr(aero_s01, f.name)
                                  for f in dataclasses.fields(aero_s01)}, **changes})
    assert bits([replaced.solidity, replaced.A_p, replaced.lam_guess]) == \
        bits([fresh.solidity, fresh.A_p, fresh.lam_guess])
    st = pack_state(np.zeros(3), rng.standard_normal(3), random_rotation(rng, 0.4),
                    rng.standard_normal(3))
    args = (*state_floats(st)[1:], [4.0, -1.0, 0.5], [380.0, 390.0, 385.0, 395.0], quad)
    got = resultant_wrench(*args, replaced)
    assert bits(got) == bits(resultant_wrench(*args, fresh))
    assert bits(got) != bits(resultant_wrench(*args, aero_s01))


def test_wrench_names_rotor_of_failed_solve(monkeypatch, quad, aero_s01):
    # the third rotor's solve fails: the message gains the rotor and its
    # advance ratios, and the solver's residual is kept
    solve, seen = windquad.aero.solve_thrust_inflow, []

    def failing_third(mu_x, mu_z, params, lam0=None):
        seen.append((mu_x, mu_z))
        if len(seen) == 3:
            raise NoConvergence("bisection fallback stalled", residual=0.25)
        return solve(mu_x, mu_z, params, lam0)

    monkeypatch.setattr(windquad.aero, "solve_thrust_inflow", failing_third)
    with pytest.raises(NoConvergence) as err:
        resultant_wrench(*state_floats(at_rest())[1:], [3.0, 0.0, 1.0], [400.0] * 4,
                         quad, aero_s01)
    mu_x, mu_z = seen[2]
    assert str(err.value) == (f"rotor 3 bisection fallback stalled at mu_x = {mu_x:.17g}, "
                              f"mu_z = {mu_z:.17g}")
    assert err.value.residual == 0.25


def test_flap_moment_vanishes_without_wind(quad, aero_s01):
    # zero relative wind at every rotor: no flapping contribution at all
    st = at_rest()
    _, M_e = resultant_wrench(*state_floats(st)[1:],
                              np.zeros(3), np.full(4, 420.0), quad, aero_s01)
    assert np.allclose(M_e, 0.0, atol=1e-12)


def test_flap_moment_magnitude_bounded(quad, aero_s01):
    # flapping adds at most (N_b/2) K_beta alpha_max * sqrt(2) per rotor
    st = at_rest()
    v_w = np.array([6.0, 0.0, 0.0])
    omegas = np.full(4, 400.0)
    _, M_e = resultant_wrench(*state_floats(st)[1:], v_w, omegas, quad, aero_s01)
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


def test_params_reject_overflowing_disk_area():
    # pi r_p^2 is formed at construction; an overflow is a ValueError, which
    # config loading turns into exit 2 naming [aero]
    with pytest.raises(ValueError, match="r_p is too large"):
        RotorAeroParams(r_p=1e300)


def test_params_reject_underflowing_lift_slope():
    # s C_la / 4 is the Newton slope of the hover start, where w = 0: one
    # that underflows to 0 is a ValueError, not a division by zero in the solve
    with pytest.raises(ValueError, match=r"C_la = 5e-324 is too small"):
        RotorAeroParams(C_la=5e-324)
    p = RotorAeroParams(C_la=1e-300)
    assert p.quarter_s_cla > 0.0
