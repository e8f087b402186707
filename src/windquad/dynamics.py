"""Rigid-body equations of motion and a fixed-step Lie-group RK4 integrator.

State evolves by

    xdot = v,   m vdot = U_e,   Rdot = R hat(Omega),   J Omegadot + Omega x J Omega = M_e

with U_e in the inertial frame and M_e in the body frame.  The integrator is
classical RK4 on (x, v, Omega) coupled with a rotation-vector chart for R:
the chart rate is the body angular velocity corrected by the inverse
right-Jacobian series (truncated at second order, which preserves the global
O(dt^4) error), and the step closes with the exponential map of the averaged
body angular increment followed by re-orthonormalization.

The step is a float interface: it takes and returns the state as (x, v, R,
Omega), x, v and Omega three floats each and R three rows, and a wrench
callback receives (t, x, v, R, Omega) in the same form and returns
(U_e, M_e) as two float triples; simplified_wrench computes such a
wrench.  Each stage attitude R0 exp(hat(phi)) is composed in floats from
the rows of expm_so3, and the step builds no array.  The float rows of J
and J^-1 and the rotor hubs are plain attributes of QuadParams, made once
at construction.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .aero import OMEGA_MIN
from .se3 import expm_so3, orthonormalize

#: integrator step bound [s]
DT_MAX = 0.05


@dataclass(frozen=True)
class QuadParams:
    """Mass properties and geometry of the vehicle.

    Rotors sit at [d_h,0,d_v], [0,-d_h,d_v], [-d_h,0,d_v], [0,d_h,d_v] in the
    body frame.  J is a full symmetric positive-definite inertia matrix.
    Set at construction: J and J^-1 as three float rows (`J_rows`,
    `J_inv_rows`), and the rotor hubs as float triples (`rotor_positions`).
    """

    m: float = 0.5
    J: np.ndarray = field(default_factory=lambda: np.diag([0.006, 0.006, 0.011]))
    d_h: float = 0.15
    d_v: float = -0.02
    g: float = 9.81

    def __post_init__(self):
        object.__setattr__(self, "J", np.asarray(self.J, dtype=float))
        if self.m <= 0.0:
            raise ValueError("mass must be positive")
        if self.J.shape != (3, 3) or np.linalg.norm(self.J - self.J.T) > 1e-12:
            raise ValueError("J must be symmetric 3x3")
        if np.any(np.linalg.eigvalsh(self.J) <= 0.0):
            raise ValueError("J must be positive-definite")
        if self.d_h <= 0.0:
            raise ValueError("d_h must be positive")
        if self.g < 0.0:
            raise ValueError("g must be non-negative")
        # derived constants, set once: the float step reads J and J^-1 as
        # rows, and the aero wrench the rotor hubs, on every call
        d_h, d_v = self.d_h, self.d_v
        for name, value in (("J_rows", self.J.tolist()),
                            ("J_inv_rows", np.linalg.inv(self.J).tolist()),
                            ("rotor_positions", ((d_h, 0.0, d_v), (0.0, -d_h, d_v),
                                                 (-d_h, 0.0, d_v), (0.0, d_h, d_v)))):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class SimplifiedModelParams:
    """Constant thrust/torque coefficients assumed by the controller.

    T'_j = C_T' w_j^2 and Q'_j = C_Q' w_j^2 = C_TQ T'_j.
    """

    C_T: float = 8.5e-06
    C_Q: float = 8.6e-08

    def __post_init__(self):
        if self.C_T <= 0.0 or self.C_Q <= 0.0:
            raise ValueError("coefficients must be positive")

    @property
    def C_TQ(self):
        """Reactive torque per unit thrust [m]."""
        return self.C_Q / self.C_T


def step_rk4(state, dt, wrench_fn, params, t=0.0):
    """One classical RK4 step of the state under a wrench callback.

    state is (x, v, R, Omega) in the float form that the simulation loop
    carries: x, v and Omega three floats each, R three rows.  The stages
    integrate the 12 values y = (x, v, phi, Omega) as Python floats held in
    locals, phi being the rotation-vector chart about the initial attitude
    R0 (zero at stage 1, whose state is the given one).  Each stage calls
    wrench_fn(t, x, v, R, Omega) with x, v and Omega as lists of three
    floats and R as three rows of three floats: stages 2-4 compose
    R = R0 exp(hat(phi)) in floats from the rows of R0 and of
    expm_so3(phi), J and J^-1 are the float rows of params, and the close
    passes the composed rows to orthonormalize.  wrench_fn returns
    (U_e, M_e), two 3-sequences of floats.  dt must lie in (0, DT_MAX].
    Returns the new state in the same form, as tuples.  Errors raised by
    wrench_fn propagate; a non-finite attitude raises DegenerateMatrix.
    """
    if not 0.0 < dt <= DT_MAX:
        raise ValueError(f"dt must be in (0, {DT_MAX}], got {dt}")

    m = params.m
    (x1, x2, x3), (v1, v2, v3), R0, (w1, w2, w3) = state
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = R0
    (J11, J12, J13), (J21, J22, J23), (J31, J32, J33) = params.J_rows
    (K11, K12, K13), (K21, K22, K23), (K31, K32, K33) = params.J_inv_rows

    def rates(ts, x1, x2, x3, v1, v2, v3, p1, p2, p3, w1, w2, w3, R):
        # the 12 rates at the stage values (x, v, phi, Omega)
        (U1, U2, U3), (M1, M2, M3) = wrench_fn(ts, [x1, x2, x3], [v1, v2, v3], R,
                                               [w1, w2, w3])
        # chart rate Omega + phi x Omega / 2 + phi x (phi x Omega) / 12: the
        # inverse right-Jacobian series truncated after the second-order
        # term (the cubic term vanishes), enough for a fourth-order method
        c1 = p2 * w3 - p3 * w2
        c2 = p3 * w1 - p1 * w3
        c3 = p1 * w2 - p2 * w1
        # Euler's equation J^-1 (M_e - Omega x J Omega)
        h1 = J11 * w1 + J12 * w2 + J13 * w3
        h2 = J21 * w1 + J22 * w2 + J23 * w3
        h3 = J31 * w1 + J32 * w2 + J33 * w3
        e1 = M1 - (w2 * h3 - w3 * h2)
        e2 = M2 - (w3 * h1 - w1 * h3)
        e3 = M3 - (w1 * h2 - w2 * h1)
        return (v1, v2, v3, U1 / m, U2 / m, U3 / m,
                w1 + 0.5 * c1 + (p2 * c3 - p3 * c2) / 12.0,
                w2 + 0.5 * c2 + (p3 * c1 - p1 * c3) / 12.0,
                w3 + 0.5 * c3 + (p1 * c2 - p2 * c1) / 12.0,
                K11 * e1 + K12 * e2 + K13 * e3,
                K21 * e1 + K22 * e2 + K23 * e3,
                K31 * e1 + K32 * e2 + K33 * e3)

    def attitude(p1, p2, p3):
        # R0 exp(hat(phi)), three rows of floats
        (e11, e12, e13), (e21, e22, e23), (e31, e32, e33) = expm_so3((p1, p2, p3))
        return ((a11 * e11 + a12 * e21 + a13 * e31, a11 * e12 + a12 * e22 + a13 * e32,
                 a11 * e13 + a12 * e23 + a13 * e33),
                (a21 * e11 + a22 * e21 + a23 * e31, a21 * e12 + a22 * e22 + a23 * e32,
                 a21 * e13 + a22 * e23 + a23 * e33),
                (a31 * e11 + a32 * e21 + a33 * e31, a31 * e12 + a32 * e22 + a33 * e32,
                 a31 * e13 + a32 * e23 + a33 * e33))

    # the stages' rates k1 = f, k2 = g, k3 = q and k4 = r; stage j + 1
    # sits at y0 + h k_j, where phi starts from 0.0
    f1, f2, f3, f4, f5, f6, f7, f8, f9, f10, f11, f12 = rates(
        t, x1, x2, x3, v1, v2, v3, 0.0, 0.0, 0.0, w1, w2, w3, R0)
    h = 0.5 * dt
    p1, p2, p3 = 0.0 + h * f7, 0.0 + h * f8, 0.0 + h * f9
    g1, g2, g3, g4, g5, g6, g7, g8, g9, g10, g11, g12 = rates(
        t + h, x1 + h * f1, x2 + h * f2, x3 + h * f3, v1 + h * f4, v2 + h * f5, v3 + h * f6,
        p1, p2, p3, w1 + h * f10, w2 + h * f11, w3 + h * f12, attitude(p1, p2, p3))
    p1, p2, p3 = 0.0 + h * g7, 0.0 + h * g8, 0.0 + h * g9
    q1, q2, q3, q4, q5, q6, q7, q8, q9, q10, q11, q12 = rates(
        t + h, x1 + h * g1, x2 + h * g2, x3 + h * g3, v1 + h * g4, v2 + h * g5, v3 + h * g6,
        p1, p2, p3, w1 + h * g10, w2 + h * g11, w3 + h * g12, attitude(p1, p2, p3))
    p1, p2, p3 = 0.0 + dt * q7, 0.0 + dt * q8, 0.0 + dt * q9
    r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11, r12 = rates(
        t + dt, x1 + dt * q1, x2 + dt * q2, x3 + dt * q3,
        v1 + dt * q4, v2 + dt * q5, v3 + dt * q6,
        p1, p2, p3, w1 + dt * q10, w2 + dt * q11, w3 + dt * q12, attitude(p1, p2, p3))
    sixth = dt / 6.0
    return (
        (x1 + sixth * (f1 + 2.0 * g1 + 2.0 * q1 + r1),
         x2 + sixth * (f2 + 2.0 * g2 + 2.0 * q2 + r2),
         x3 + sixth * (f3 + 2.0 * g3 + 2.0 * q3 + r3)),
        (v1 + sixth * (f4 + 2.0 * g4 + 2.0 * q4 + r4),
         v2 + sixth * (f5 + 2.0 * g5 + 2.0 * q5 + r5),
         v3 + sixth * (f6 + 2.0 * g6 + 2.0 * q6 + r6)),
        orthonormalize(attitude(0.0 + sixth * (f7 + 2.0 * g7 + 2.0 * q7 + r7),
                                0.0 + sixth * (f8 + 2.0 * g8 + 2.0 * q8 + r8),
                                0.0 + sixth * (f9 + 2.0 * g9 + 2.0 * q9 + r9))),
        (w1 + sixth * (f10 + 2.0 * g10 + 2.0 * q10 + r10),
         w2 + sixth * (f11 + 2.0 * g11 + 2.0 * q11 + r11),
         w3 + sixth * (f12 + 2.0 * g12 + 2.0 * q12 + r12)))


def rotor_speed_from_thrust(T_cmd, params, omega_min=OMEGA_MIN):
    """Rotor speed realizing a commanded thrust under the simplified model.

    Thrust is floored at T_min = C_T' omega_min^2 (rotors cannot reverse);
    returns (omega, saturated) where the flag marks an active clip.  A
    command at or below the floor returns exactly omega_min: sqrt(T_min / C_T')
    can round one ulp below it, which the aero plant would reject.
    """
    T_min = params.C_T * omega_min ** 2
    if T_cmd <= T_min:
        return omega_min, bool(T_cmd < T_min)
    return math.sqrt(T_cmd / params.C_T), False


def simplified_wrench(R, f, M_c, params, delta1=None, delta2=None):
    """Wrench of the simplified control model at attitude R, with injected
    disturbances.

    U_e = m g e3 - f R e3 - delta1 (inertial), M_e = M_c - delta2 (body).
    R is three rows of three floats, f a float, and M_c, delta1 and delta2
    3-sequences of floats; returns two 3-sequences of floats.
    """
    (_, _, r13), (_, _, r23), (_, _, r33) = R
    # 0.0 - f r as in (m g) 0.0 - f r of m g e3 - f R e3: a zero product
    # gives +0.0 there, where -f r gives -0.0
    U1, U2, U3 = 0.0 - f * r13, 0.0 - f * r23, params.m * params.g - f * r33
    if delta1 is not None:
        d1, d2, d3 = delta1
        U1, U2, U3 = U1 - d1, U2 - d2, U3 - d3
    if delta2 is not None:
        (c1, c2, c3), (d1, d2, d3) = M_c, delta2
        M_c = (c1 - d1, c2 - d2, c3 - d3)
    return (U1, U2, U3), M_c
