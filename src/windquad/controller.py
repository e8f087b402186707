"""Geometric adaptive tracking controller and rotor allocation.

Thrust magnitude and computed attitude come from the acceleration command

    A = D1 - k_x e_x - k_v e_v - m g e3 + m a_d,        f = -A^T R e3,

with the third body axis commanded along -A/||A|| and the first axis the
projection of the desired heading onto the orthogonal plane.  The moment law
adds the attitude compensation term D2 and a feedforward built from the
computed angular velocity, which is estimated from backward finite
differences of the computed attitude (zeros on the first step).

Rotor allocation uses the mixing matrix

    [f  ]   [ 1     1    1     1   ] [T1]
    [M1 ] = [ 0    d_h   0   -d_h  ] [T2]
    [M2 ]   [ d_h   0  -d_h    0   ] [T3]
    [M3 ]   [-c    c    -c     c   ] [T4],   c = C_TQ.

Row two differs from a commonly reproduced singular variant; it follows
directly from the rotor positions (see README).
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .adaptive import (AdaptationGains, NNWeights, build_attitude_input,
                       build_position_input, nn_output, update_weights)
from .aero import OMEGA_MIN
from .dynamics import rotor_speed_from_thrust
from .errors import DegenerateThrust, HeadingDegenerate
from .layout import OUTPUT, OUTPUT_COLUMNS, unpack_state
from .se3 import E3, angular_velocity_error, attitude_error, cross3, hat

HEADING_TOL = 1e-6


@dataclass(frozen=True)
class ControllerGains:
    """Feedback gains and error-coupling constants, all positive."""

    k_x: float = 4.0
    k_v: float = 2.5
    k_R: float = 8.0
    k_Omega: float = 0.6
    c1: float = 1.0
    c2: float = 0.8
    adapt1: AdaptationGains = field(default_factory=AdaptationGains)
    adapt2: AdaptationGains = field(default_factory=AdaptationGains)

    def __post_init__(self):
        for name in ("k_x", "k_v", "k_R", "k_Omega", "c1", "c2"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


def compute_A(e_x, e_v, delta1_hat, a_d, gains, m, g):
    """Acceleration command D1 - k_x e_x - k_v e_v - m g e3 + m a_d."""
    return (np.asarray(delta1_hat, float) - gains.k_x * np.asarray(e_x, float)
            - gains.k_v * np.asarray(e_v, float) - m * g * E3 + m * np.asarray(a_d, float))


def compute_thrust(A, R):
    """Total thrust f = -A^T R e3."""
    return -float(np.asarray(A, float) @ np.asarray(R, float)[:, 2])


def compute_Rc(A, b1_d, eps_thrust):
    """Computed attitude from the acceleration command and desired heading.

    Column three is -A/||A||; column one is the projection of b1_d onto the
    plane orthogonal to it; column two completes the right-handed triad.

    Both checks are written `not norm > tol`, so a NaN norm fails them.

    Raises
    ------
    DegenerateThrust
        If ||A|| <= eps_thrust or is NaN.
    HeadingDegenerate
        If b1_d is parallel to the commanded thrust axis or NaN.
    """
    A = np.asarray(A, dtype=float)
    norm_A = np.linalg.norm(A)
    if not norm_A > eps_thrust:
        raise DegenerateThrust(f"||A|| = {norm_A:.3e} <= {eps_thrust:.3e}")
    b3 = -A / norm_A
    C = -cross3(b3, np.asarray(b1_d, float))
    norm_C = np.linalg.norm(C)
    if not norm_C > HEADING_TOL:
        raise HeadingDegenerate("heading parallel to thrust axis")
    b2 = -C / norm_C
    b1 = cross3(b2, b3)
    return np.column_stack((b1, b2, b3))


def compute_Omega_c(history, dt):
    """Computed angular velocity and acceleration from an R_c history.

    `history` holds the last up-to-three computed attitudes, oldest first.
    Backward differences: Omega_c = vee of the skew part of R_c^T Rdot_c;
    zero until enough samples accumulate (first step returns zeros).
    """
    if len(history) < 2:
        return np.zeros(3), np.zeros(3)

    def rate(R_prev, R_now):
        M = R_now.T @ ((R_now - R_prev) / dt)
        S = 0.5 * (M - M.T)
        return np.array([S[2, 1], S[0, 2], S[1, 0]])

    Omega_c = rate(history[-2], history[-1])
    if len(history) < 3:
        return Omega_c, np.zeros(3)
    Omega_prev = rate(history[-3], history[-2])
    return Omega_c, (Omega_c - Omega_prev) / dt


def compute_moment(e_R, e_Omega, Omega, R, R_c, Omega_c, Omega_c_dot,
                   delta2_hat, J, gains):
    """Moment law with gyroscopic and computed-attitude feedforward terms."""
    Omega = np.asarray(Omega, float)
    ff = J @ (hat(Omega) @ R.T @ R_c @ np.asarray(Omega_c, float)
              - R.T @ R_c @ np.asarray(Omega_c_dot, float))
    return (np.asarray(delta2_hat, float) - gains.k_R * np.asarray(e_R, float)
            - gains.k_Omega * np.asarray(e_Omega, float)
            + cross3(Omega, J @ Omega) - ff)


def mixing_matrix(d_h, C_TQ):
    """Map from per-rotor thrusts to (f, M1, M2, M3)."""
    return np.array([
        [1.0, 1.0, 1.0, 1.0],
        [0.0, d_h, 0.0, -d_h],
        [d_h, 0.0, -d_h, 0.0],
        [-C_TQ, C_TQ, -C_TQ, C_TQ],
    ])


class GeometricAdaptiveController:
    """Stateful control loop: one instance per simulation.

    Owns the two adaptive networks and the short computed-attitude history
    used for finite-difference feedforward.  `adaptation=False` freezes the
    weights, which with zero initial weights reproduces the pure geometric
    controller.
    """

    def __init__(self, gains, quad, simplified, nn1=None, nn2=None,
                 adaptation=True, omega_min=OMEGA_MIN):
        self.gains = gains
        self.quad = quad
        self.simplified = simplified
        self.nn1 = nn1 if nn1 is not None else NNWeights.zeros()
        self.nn2 = nn2 if nn2 is not None else NNWeights.zeros()
        self.adaptation = adaptation
        base = quad.m * quad.g if quad.g > 0.0 else quad.m
        self.eps_thrust = 1e-6 * base
        self.omega_min = omega_min
        self._mix_inv = np.linalg.inv(mixing_matrix(quad.d_h, simplified.C_TQ))
        self._rc_history = deque(maxlen=3)
        self._last_angles = np.zeros(3)

    def step(self, s, traj, dt):
        """Compute the command for packed state s and advance the networks.

        Returns a new (35,) vector laid out as layout.OUTPUT.  Degenerate-
        geometry errors propagate to the caller, which is expected to abort
        the run.
        """
        gains, quad = self.gains, self.quad
        x, v, R, Omega = unpack_state(s)
        e_x = x - traj.x_d
        e_v = v - traj.v_d

        x_nn1 = build_position_input(x, v)
        x_nn2, self._last_angles = build_attitude_input(
            R, Omega, fallback_angles=self._last_angles)
        (delta1_hat, features1), (delta2_hat, features2) = nn_output(
            (self.nn1, self.nn2), (x_nn1, x_nn2))

        A = compute_A(e_x, e_v, delta1_hat, traj.a_d, gains, quad.m, quad.g)
        f = compute_thrust(A, R)
        R_c = compute_Rc(A, traj.b1_d, self.eps_thrust)

        self._rc_history.append(R_c)
        Omega_c, Omega_c_dot = compute_Omega_c(self._rc_history, dt)

        e_R, psi = attitude_error(R, R_c)
        e_Om = angular_velocity_error(R, R_c, Omega, Omega_c)

        M_c = compute_moment(e_R, e_Om, Omega, R, R_c,
                             Omega_c, Omega_c_dot, delta2_hat, quad.J, gains)

        out = np.empty(len(OUTPUT_COLUMNS))
        thrusts = self._mix_inv @ np.array([f, M_c[0], M_c[1], M_c[2]])
        omegas, saturated = out[OUTPUT["omegas"]], out[OUTPUT["saturated"]]
        for j, T in enumerate(thrusts):
            omegas[j], saturated[j] = rotor_speed_from_thrust(
                T, self.simplified, self.omega_min)

        if self.adaptation:
            a1 = e_v + gains.c1 * e_x
            a2 = e_Om + gains.c2 * e_R
            self.nn1 = update_weights(self.nn1, x_nn1, features1, a1, gains.adapt1,
                                      dt, "nn1")
            self.nn2 = update_weights(self.nn2, x_nn2, features2, a2, gains.adapt2,
                                      dt, "nn2")

        for name, value in (("e_x", e_x), ("e_v", e_v), ("e_R", e_R), ("e_Omega", e_Om),
                            ("psi", psi), ("f", f), ("M_c", M_c), ("thrusts", thrusts),
                            ("delta1_hat", delta1_hat), ("delta2_hat", delta2_hat)):
            out[OUTPUT[name]] = value
        return out
