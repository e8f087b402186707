import dataclasses
import math

import numpy as np
import pytest

import windquad.dynamics
from windquad.aero import resultant_wrench
from windquad.errors import DegenerateMatrix
from windquad.dynamics import (QuadParams, SimplifiedModelParams,
                               rotor_speed_from_thrust, simplified_wrench,
                               step_rk4)
from windquad.se3 import expm_so3, orthonormalize

from conftest import at_rest, random_rotation
from oracles import (NotSkewSymmetric, cross3, listed_step_rk4, pack_state, state_floats,
                     unpack_state)


def free_wrench(t, x, v, R, Omega):
    return np.zeros(3), np.zeros(3)


# --- integrator --------------------------------------------------------------

def test_ballistic_free_fall():
    quad = QuadParams(m=2.0, g=9.81)
    st = state_floats(at_rest())
    dt, T = 1e-3, 1.0

    def wrench(t, x, v, R, Omega):
        return quad.m * quad.g * np.array([0.0, 0.0, 1.0]), np.zeros(3)

    for _ in range(int(T / dt)):
        st = step_rk4(st, dt, wrench, quad)
    x, v, _, _ = map(np.array, st)
    assert x[2] == pytest.approx(0.5 * quad.g * T ** 2, abs=1e-10)
    assert v[2] == pytest.approx(quad.g * T, abs=1e-12)


def test_principal_axis_spin_exact():
    quad = QuadParams(m=1.0, J=np.diag([0.02, 0.02, 0.04]))
    Om0 = np.array([0.0, 0.0, 5.0])
    st = state_floats(pack_state(np.zeros(3), np.zeros(3), np.eye(3), Om0))
    dt, T = 1e-3, 10.0
    for _ in range(int(T / dt)):
        st = step_rk4(st, dt, free_wrench, quad)
    _, _, R, Omega = map(np.array, st)
    assert np.allclose(Omega, Om0, atol=1e-13)
    assert np.linalg.norm(R - np.array(expm_so3(Om0 * T))) < 1e-8


def symmetric_top_closed_form(Om0, J, t):
    """R(t), Omega(t) for a torque-free symmetric top (J1 == J2)."""
    s = Om0[2] * (J[2, 2] - J[0, 0]) / J[0, 0]
    e3 = np.array([0.0, 0.0, 1.0])
    R = np.array(expm_so3(t * (Om0 + s * e3))) @ np.array(expm_so3(-s * t * e3))
    Om = np.array(expm_so3(s * t * e3)) @ Om0
    return R, Om


def test_symmetric_top_against_closed_form():
    J = np.diag([0.02, 0.02, 0.04])
    quad = QuadParams(m=1.0, J=J, g=0.0)
    Om0 = np.array([1.5, 0.8, 3.0])
    st = state_floats(pack_state(np.zeros(3), np.zeros(3), np.eye(3), Om0))
    dt, T = 1e-3, 2.0
    for _ in range(int(T / dt)):
        st = step_rk4(st, dt, free_wrench, quad)
    R_ref, Om_ref = symmetric_top_closed_form(Om0, J, T)
    _, _, R, Omega = map(np.array, st)
    assert np.linalg.norm(R - R_ref) < 1e-9
    assert np.linalg.norm(Omega - Om_ref) < 1e-9


def test_integrator_fourth_order():
    J = np.diag([0.02, 0.02, 0.04])
    quad = QuadParams(m=1.0, J=J, g=0.0)
    Om0 = np.array([1.5, 0.8, 3.0])
    T = 2.0

    def terminal_error(dt):
        st = state_floats(pack_state(np.zeros(3), np.zeros(3), np.eye(3), Om0))
        for _ in range(int(round(T / dt))):
            st = step_rk4(st, dt, free_wrench, quad)
        R_ref, Om_ref = symmetric_top_closed_form(Om0, J, T)
        _, _, R, Omega = map(np.array, st)
        return np.linalg.norm(R - R_ref) + np.linalg.norm(Omega - Om_ref)

    assert terminal_error(0.02) / terminal_error(0.01) >= 14.0


def test_conservation_asymmetric_top():
    J = np.diag([0.02, 0.031, 0.045])
    quad = QuadParams(m=1.0, J=J, g=0.0)
    st = state_floats(pack_state(np.zeros(3), np.zeros(3), np.eye(3), np.array([1.0, 2.0, 3.0])))
    _, _, R, Omega = map(np.array, st)
    L0 = R @ (J @ Omega)
    E0 = 0.5 * Omega @ (J @ Omega)
    for _ in range(3000):
        st = step_rk4(st, 1e-3, free_wrench, quad)
    _, _, R, Omega = map(np.array, st)
    L = R @ (J @ Omega)
    E = 0.5 * Omega @ (J @ Omega)
    assert np.linalg.norm(L - L0) / np.linalg.norm(L0) < 1e-9
    assert abs(E - E0) / E0 < 1e-9


def test_rotation_stays_orthonormal():
    quad = QuadParams(m=1.0, J=np.diag([0.02, 0.02, 0.04]), g=0.0)
    st = state_floats(pack_state(np.zeros(3), np.zeros(3), np.eye(3), np.array([1.0, 2.0, 3.0])))
    worst = 0.0
    for _ in range(20000):
        st = step_rk4(st, 1e-3, free_wrench, quad)
        R = np.array(st[2])
        worst = max(worst, np.linalg.norm(R.T @ R - np.eye(3)))
    assert worst <= 1e-12


def test_step_rejects_bad_dt(quad):
    st = state_floats(at_rest())
    with pytest.raises(ValueError):
        step_rk4(st, 0.0, free_wrench, quad)
    with pytest.raises(ValueError):
        step_rk4(st, 0.06, free_wrench, quad)


def test_step_propagates_wrench_errors(quad):
    st = state_floats(at_rest())

    def broken(t, x, v, R, Omega):
        raise NotSkewSymmetric("boom")

    with pytest.raises(NotSkewSymmetric):
        step_rk4(st, 1e-3, broken, quad)


# --- reference: the per-component RK4 stages ---------------------------------

def _dexpinv(phi, Omega):
    """Chart rate d/dt phi for R = R0 exp(hat(phi)), Rdot = R hat(Omega).

    Inverse right-Jacobian series truncated after the second-order term
    (the cubic term vanishes), sufficient for a fourth-order integrator.
    """
    c = cross3(phi, Omega)
    return Omega + 0.5 * c + cross3(phi, c) / 12.0


def compose(R0, phi):
    """R0 exp(hat(phi)) as three rows of floats, each entry summed left to right."""
    A, E = R0.tolist(), expm_so3(phi)
    return [[A[i][0] * E[0][j] + A[i][1] * E[1][j] + A[i][2] * E[2][j] for j in range(3)]
            for i in range(3)]


def reference_step_rk4(state, dt, wrench_fn, params, t=0.0):
    """step_rk4 with each RK4 stage written out per component (x, v, phi, Omega),
    on a packed state."""
    m, J, J_inv = params.m, params.J, params.J_inv
    x0, v0, R0, Om0 = unpack_state(state)

    def rates(ts, x, v, phi, Omega):
        U_e, M_e = wrench_fn(ts, x.tolist(), v.tolist(), compose(R0, phi), Omega.tolist())
        return (v,
                np.asarray(U_e, float) / m,
                _dexpinv(phi, Omega),
                J_inv @ (np.asarray(M_e, float) - cross3(Omega, J @ Omega)))

    zero = np.zeros(3)

    k1 = rates(t, x0, v0, zero, Om0)
    k2 = rates(t + 0.5 * dt, x0 + 0.5 * dt * k1[0], v0 + 0.5 * dt * k1[1],
               0.5 * dt * k1[2], Om0 + 0.5 * dt * k1[3])
    k3 = rates(t + 0.5 * dt, x0 + 0.5 * dt * k2[0], v0 + 0.5 * dt * k2[1],
               0.5 * dt * k2[2], Om0 + 0.5 * dt * k2[3])
    k4 = rates(t + dt, x0 + dt * k3[0], v0 + dt * k3[1],
               dt * k3[2], Om0 + dt * k3[3])

    sixth = dt / 6.0
    x_new = x0 + sixth * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    v_new = v0 + sixth * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    phi = sixth * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
    Om_new = Om0 + sixth * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3])

    R_new = orthonormalize(compose(R0, phi))
    return pack_state(x_new, v_new, R_new, Om_new)


def random_wrench(rng, quad, aero):
    """A wrench_fn that depends on the stage time and state."""
    if aero is None:
        f = rng.uniform(2.0, 8.0)
        M_c = 0.05 * rng.standard_normal(3)
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        def wrench(ts, x, v, R, Omega):
            x, v, R, Omega = (np.array(a) for a in (x, v, R, Omega))
            return simplified_wrench(R, f, M_c, quad,
                                     delta1=a * np.sin(ts) + 0.1 * x - 0.2 * v,
                                     delta2=0.01 * b * Omega + 0.02 * R[:, 0])
        return wrench
    v_w = 5.0 * rng.standard_normal(3)
    omegas = rng.uniform(250.0, 900.0, 4)
    return lambda ts, x, v, R, Omega: resultant_wrench(
        v, R, Omega, ((1.0 + 0.1 * ts) * v_w).tolist(), omegas.tolist(), quad, aero)


@pytest.mark.parametrize("dt", [1e-3, 2e-3, 0.05])
@pytest.mark.parametrize("plant", ["simplified", "full_aero"])
def test_step_rk4_matches_reference(quad, aero_s01, rng, plant, dt):
    aero = aero_s01 if plant == "full_aero" else None
    for _ in range(1000):
        st = pack_state(rng.standard_normal(3), 3.0 * rng.standard_normal(3),
                        random_rotation(rng), 2.0 * rng.standard_normal(3))
        wrench = random_wrench(rng, quad, aero)
        t = rng.uniform(0.0, 30.0)
        got = pack_state(*step_rk4(state_floats(st), dt, wrench, quad, t))
        ref = reference_step_rk4(st, dt, wrench, quad, t)
        for name, g, r in zip(("x", "v", "R", "Omega"), unpack_state(got), unpack_state(ref)):
            assert np.array_equal(g, r), name


def random_inertia(rng):
    """A full symmetric positive-definite inertia about the default scale."""
    Q = random_rotation(rng)
    J = Q @ np.diag(rng.uniform(0.004, 0.02, 3)) @ Q.T
    return 0.5 * (J + J.T)


@pytest.mark.parametrize("plant", ["simplified", "full_aero"])
def test_step_rk4_matches_reference_full_inertia(aero_s01, rng, plant):
    # the float stage sums J Omega and J^-1 (...) left to right, while the
    # matrix-vector products of the reference may round differently in the
    # last bit for off-diagonal entries; a diagonal J has exact zero terms
    aero = aero_s01 if plant == "full_aero" else None
    for _ in range(500):
        quad = QuadParams(J=random_inertia(rng))
        st = pack_state(rng.standard_normal(3), 3.0 * rng.standard_normal(3),
                        random_rotation(rng), 2.0 * rng.standard_normal(3))
        wrench = random_wrench(rng, quad, aero)
        t = rng.uniform(0.0, 30.0)
        got = pack_state(*step_rk4(state_floats(st), 2e-3, wrench, quad, t))
        ref = reference_step_rk4(st, 2e-3, wrench, quad, t)
        for name, g, r in zip(("x", "v", "R", "Omega"), unpack_state(got), unpack_state(ref)):
            assert np.linalg.norm(g - r) <= 1e-12 * np.linalg.norm(r) + 1e-15, name


@pytest.mark.parametrize("plant", ["simplified", "full_aero"])
def test_step_rk4_bytes_equal_listed_stages(quad, aero_s01, rng, plant):
    # the stage values held in locals take the same float operations in the
    # same order as the 12-lists of listed_step_rk4
    aero = aero_s01 if plant == "full_aero" else None
    for _ in range(1000):
        st = state_floats(pack_state(rng.standard_normal(3), 3.0 * rng.standard_normal(3),
                                     random_rotation(rng), 2.0 * rng.standard_normal(3)))
        wrench = random_wrench(rng, quad, aero)
        t = rng.uniform(0.0, 30.0)
        dt = float(rng.choice([1e-3, 2e-3, 0.05]))
        got = pack_state(*step_rk4(st, dt, wrench, quad, t)).tolist()
        ref = pack_state(*listed_step_rk4(st, dt, wrench, quad, t)).tolist()
        assert [x.hex() for x in got] == [x.hex() for x in ref]


@pytest.mark.parametrize("moment", [math.inf, math.nan])
def test_step_rk4_non_finite_chart_raises_as_listed(quad, moment):
    # a non-finite body rate reaches the chart of stage 3, where expm_so3
    # rejects it
    def wrench(t, x, v, R, Omega):
        return (0.0, 0.0, 0.0), (moment, 0.0, 0.0)

    st = state_floats(pack_state(np.zeros(3), np.zeros(3), np.eye(3), np.array([0.3, -0.2, 1.0])))
    errors = []
    for step in (step_rk4, listed_step_rk4):
        with pytest.raises(DegenerateMatrix) as err:
            step(st, 1e-3, wrench, quad)
        errors.append(str(err.value))
    assert errors[0] == errors[1]


def test_step_rk4_skips_exp_of_zero(quad, monkeypatch):
    # stage 1 sits at phi = 0 and uses R0; stages 2-4 and the close need exp
    calls = []
    expm = windquad.dynamics.expm_so3
    monkeypatch.setattr(windquad.dynamics, "expm_so3",
                        lambda phi: calls.append(1) or expm(phi))
    st = state_floats(pack_state(np.zeros(3), np.zeros(3), np.eye(3), np.array([0.3, -0.2, 1.0])))
    for _ in range(5):
        st = step_rk4(st, 1e-3, free_wrench, quad)
    assert len(calls) == 20


def assert_floats(values, n=3):
    assert len(values) == n and all(type(a) is float for a in values), values


def test_step_rk4_hands_the_wrench_floats(quad, rng):
    # every stage reaches the wrench as Python floats (R as three rows of
    # three), and the step returns its state as floats in the same form
    times = []

    def recording(ts, x, v, R, Omega):
        assert type(ts) is float
        times.append(ts)
        for vec in (x, v, Omega):
            assert_floats(vec)
        assert len(R) == 3
        for row in R:
            assert_floats(row)
        return (0.1, -0.2, 4.0), (0.01, -0.02, 0.003)

    st = state_floats(pack_state(rng.standard_normal(3), rng.standard_normal(3),
                                 random_rotation(rng), rng.standard_normal(3)))
    for k in range(5):
        st = step_rk4(st, 1e-3, recording, quad, k * 1e-3)
        x, v, R, Omega = st
        for vec in (x, v, *R, Omega):
            assert_floats(vec)
    assert len(times) == 20


# --- rotor speed inversion ---------------------------------------------------

def test_rotor_speed_exact_inversion():
    p = SimplifiedModelParams(C_T=2e-5, C_Q=2e-7)
    omega, sat = rotor_speed_from_thrust(2e-5 * 1e4, p)
    assert omega == pytest.approx(100.0)
    assert not sat


def test_rotor_speed_clips_zero():
    p = SimplifiedModelParams(C_T=2e-5, C_Q=2e-7)
    omega, sat = rotor_speed_from_thrust(0.0, p)
    assert omega == pytest.approx(1.0)
    assert sat


def test_rotor_speed_clips_negative():
    p = SimplifiedModelParams(C_T=2e-5, C_Q=2e-7)
    omega, sat = rotor_speed_from_thrust(-3.0, p)
    assert omega == pytest.approx(1.0)
    assert sat


# --- simplified wrench -------------------------------------------------------

def test_simplified_hover_trim(quad):
    st = at_rest()
    U_e, M_e = simplified_wrench(state_floats(st)[2], quad.m * quad.g, np.zeros(3), quad)
    assert np.allclose(U_e, 0.0, atol=1e-12)
    assert np.allclose(M_e, 0.0)


def test_simplified_disturbance_sign(quad):
    st = at_rest()
    U_e, _ = simplified_wrench(state_floats(st)[2], quad.m * quad.g, np.zeros(3), quad,
                               delta1=np.array([1.0, 0.0, 0.0]))
    assert np.allclose(U_e, [-1.0, 0.0, 0.0])


def test_simplified_moment_passthrough(quad):
    st = at_rest()
    _, M_e = simplified_wrench(state_floats(st)[2], 0.0, np.array([0.0, 0.0, 0.1]), quad)
    assert np.allclose(M_e, [0.0, 0.0, 0.1])


# --- parameter validation ----------------------------------------------------

def test_quad_params_reject_bad_inertia():
    with pytest.raises(ValueError):
        QuadParams(J=np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        QuadParams(m=-1.0)


def test_rotor_positions_pattern(quad):
    # the hubs are made in __post_init__, which dataclasses.replace runs again
    for q in (quad, dataclasses.replace(quad, d_h=0.2, d_v=-0.03)):
        r1, r2, r3, r4 = q.rotor_positions
        assert np.allclose(r1, [q.d_h, 0.0, q.d_v])
        assert np.allclose(r2, [0.0, -q.d_h, q.d_v])
        assert np.allclose(r3, [-q.d_h, 0.0, q.d_v])
        assert np.allclose(r4, [0.0, q.d_h, q.d_v])


def test_simplified_params_ratio():
    p = SimplifiedModelParams(C_T=8.5e-6, C_Q=8.6e-8)
    assert p.C_TQ == pytest.approx(8.6e-8 / 8.5e-6)
