"""Rigid-body equations of motion and a fixed-step Lie-group RK4 integrator.

State evolves by

    xdot = v,   m vdot = U_e,   Rdot = R hat(Omega),   J Omegadot + Omega x J Omega = M_e

with U_e in the inertial frame and M_e in the body frame.  The integrator is
classical RK4 on (x, v, Omega) coupled with a rotation-vector chart for R:
the chart rate is the body angular velocity corrected by the inverse
right-Jacobian series (truncated at second order, which preserves the global
O(dt^4) error), and the step closes with the exponential map of the averaged
body angular increment followed by re-orthonormalization.
"""

from dataclasses import dataclass, field

import numpy as np

from .aero import OMEGA_MIN
from .layout import pack_state, unpack_state
from .se3 import expm_so3, orthonormalize

#: integrator step bound [s]
DT_MAX = 0.05


@dataclass(frozen=True)
class QuadParams:
    """Mass properties and geometry of the vehicle.

    Rotors sit at [d_h,0,d_v], [0,-d_h,d_v], [-d_h,0,d_v], [0,d_h,d_v] in the
    body frame.  J is a full symmetric positive-definite inertia matrix.
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
        object.__setattr__(self, "_J_inv", np.linalg.inv(self.J))

    @property
    def J_inv(self):
        return self._J_inv

    @property
    def rotor_positions(self):
        """The four rotor hubs (body frame) as (x, y, z) float tuples."""
        d_h, d_v = self.d_h, self.d_v
        return ((d_h, 0.0, d_v), (0.0, -d_h, d_v), (-d_h, 0.0, d_v), (0.0, d_h, d_v))


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


def step_rk4(s, dt, wrench_fn, params, t=0.0):
    """One classical RK4 step of the packed state s under wrench_fn(t, s).

    The stages integrate the 12 values y = (x, v, phi, Omega) as Python
    floats, phi being the rotation-vector chart about the initial attitude
    (zero at stage 1, whose state is s itself).  wrench_fn receives each
    stage as a packed state and returns (U_e, M_e).  dt must lie in
    (0, DT_MAX].  Returns a new packed state.  Errors raised by wrench_fn
    propagate; a non-finite attitude raises DegenerateMatrix.
    """
    if not 0.0 < dt <= DT_MAX:
        raise ValueError(f"dt must be in (0, {DT_MAX}], got {dt}")

    m = params.m
    x0, v0, R0, Omega0 = unpack_state(s)
    (J11, J12, J13), (J21, J22, J23), (J31, J32, J33) = params.J.tolist()
    (K11, K12, K13), (K21, K22, K23), (K31, K32, K33) = params.J_inv.tolist()

    def rates(ts, y, st):
        _, _, _, v1, v2, v3, p1, p2, p3, w1, w2, w3 = y
        U_e, M_e = wrench_fn(ts, st)
        U1, U2, U3 = np.asarray(U_e, float).tolist()
        M1, M2, M3 = np.asarray(M_e, float).tolist()
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

    def stage(ts, h, k):
        y = [a + h * b for a, b in zip(y0, k)]
        return rates(ts, y, pack_state(y[0:3], y[3:6], R0 @ expm_so3(y[6:9]), y[9:12]))

    y0 = x0.tolist() + v0.tolist() + [0.0, 0.0, 0.0] + Omega0.tolist()
    k1 = rates(t, y0, s)
    k2 = stage(t + 0.5 * dt, 0.5 * dt, k1)
    k3 = stage(t + 0.5 * dt, 0.5 * dt, k2)
    k4 = stage(t + dt, dt, k3)
    sixth = dt / 6.0
    y = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
         for a, b1, b2, b3, b4 in zip(y0, k1, k2, k3, k4)]
    return pack_state(y[0:3], y[3:6], orthonormalize(R0 @ expm_so3(y[6:9])), y[9:12])


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
    return np.sqrt(T_cmd / params.C_T), False


def simplified_wrench(s, f, M_c, params, delta1=None, delta2=None):
    """Wrench of the simplified control model at packed state s, with
    injected disturbances.

    U_e = m g e3 - f R e3 - delta1 (inertial), M_e = M_c - delta2 (body).
    """
    R = unpack_state(s)[2]
    U_e = params.m * params.g * np.array([0.0, 0.0, 1.0]) - f * R[:, 2]
    if delta1 is not None:
        U_e = U_e - np.asarray(delta1, float)
    M_e = np.asarray(M_c, dtype=float)
    if delta2 is not None:
        M_e = M_e - np.asarray(delta2, float)
    return U_e, M_e
