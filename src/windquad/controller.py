"""Geometric adaptive tracking controller and rotor allocation.

Thrust magnitude and computed attitude come from the acceleration command

    A = D1 - k_x e_x - k_v e_v - m g e3 + m a_d,        f = -A^T R e3,

with the third body axis commanded along -A/||A|| and the first axis the
projection of the desired heading onto the orthogonal plane.  The moment law
adds the attitude compensation term D2 and a feedforward built from the
computed angular velocity, which is estimated from backward finite
differences of the last two computed attitudes (zeros on the first step).

Rotor allocation uses the mixing matrix

    [f  ]   [ 1     1    1     1   ] [T1]
    [M1 ] = [ 0    d_h   0   -d_h  ] [T2]
    [M2 ]   [ d_h   0  -d_h    0   ] [T3]
    [M3 ]   [-c    c    -c     c   ] [T4],   c = C_TQ.

Row two differs from a commonly reproduced singular variant; it follows
directly from the rotor positions (see README).

The step computes in Python floats: it takes the state in the float form
of dynamics.step_rk4, reads the network outputs with one tolist(), and
the geometry helpers take and return 3-sequences of floats and 3x3 matrices
as three rows of floats.  R^T R_c Omega_c is formed once, for e_Omega and
the moment law.  Arrays remain in the network input, the forward pass and
the one error signal of the pair's weight update.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .adaptive import (AdaptationGains, NetworkPair, NNWeights, build_network_input,
                       nn_output, update_weights)
from .aero import OMEGA_MIN
from .dynamics import rotor_speed_from_thrust
from .errors import DegenerateThrust, HeadingDegenerate
from .se3 import attitude_error, computed_to_body

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
    """Acceleration command D1 - k_x e_x - k_v e_v - m g e3 + m a_d, three floats."""
    k_x, k_v = gains.k_x, gains.k_v
    (x1, x2, x3), (v1, v2, v3) = e_x, e_v
    (d1, d2, d3), (a1, a2, a3) = delta1_hat, a_d
    return (d1 - k_x * x1 - k_v * v1 + m * a1,
            d2 - k_x * x2 - k_v * v2 + m * a2,
            d3 - k_x * x3 - k_v * v3 - m * g + m * a3)


def compute_thrust(A, R):
    """Total thrust f = -A^T R e3."""
    (a1, a2, a3), ((_, _, r13), (_, _, r23), (_, _, r33)) = A, R
    return -(a1 * r13 + a2 * r23 + a3 * r33)


def compute_Rc(A, b1_d, eps_thrust):
    """Computed attitude from the acceleration command and desired heading.

    Column three is -A/||A||; column one is the projection of b1_d onto the
    plane orthogonal to it; column two completes the right-handed triad.
    Returns three rows of floats.

    Both checks are negated comparisons, so a NaN norm fails them.  The norms
    are square roots of sums of squares, so a finite A whose squares
    overflow has norm inf, as with np.linalg.norm.

    Raises
    ------
    DegenerateThrust
        If ||A|| <= eps_thrust or is NaN, or if it overflows to inf, where
        -A/||A|| would be no unit vector.
    HeadingDegenerate
        If b1_d is parallel to the commanded thrust axis or NaN.
    """
    a1, a2, a3 = A
    norm_A = math.sqrt(a1 * a1 + a2 * a2 + a3 * a3)
    if not eps_thrust < norm_A < math.inf:
        raise DegenerateThrust(f"||A|| = {norm_A:.3e} not in ({eps_thrust:.3e}, inf)")
    # the columns b1 = (p1, p2, p3), b2 = (q1, q2, q3), b3 = (r1, r2, r3)
    r1, r2, r3 = -a1 / norm_A, -a2 / norm_A, -a3 / norm_A
    h1, h2, h3 = b1_d
    # C = b1_d x b3
    c1, c2, c3 = h2 * r3 - h3 * r2, h3 * r1 - h1 * r3, h1 * r2 - h2 * r1
    norm_C = math.sqrt(c1 * c1 + c2 * c2 + c3 * c3)
    if not norm_C > HEADING_TOL:
        raise HeadingDegenerate("heading parallel to thrust axis")
    q1, q2, q3 = -c1 / norm_C, -c2 / norm_C, -c3 / norm_C
    p1, p2, p3 = q2 * r3 - q3 * r2, q3 * r1 - q1 * r3, q1 * r2 - q2 * r1
    return (p1, q1, r1), (p2, q2, r2), (p3, q3, r3)


def compute_Omega_c(R_prev, R_c, Omega_prev, dt):
    """Computed angular velocity and acceleration by backward differences.

    R_prev and R_c are the last two computed attitudes as rows of floats,
    Omega_prev the previous step's Omega_c at the same dt.  Omega_c is the
    vee of the skew part of R_c^T (R_c - R_prev) / dt, Omega_c_dot is
    (Omega_c - Omega_prev) / dt: two float triples, both zero with R_prev
    None (the first step), Omega_c_dot zero with Omega_prev None (the second).
    """
    if R_prev is None:
        return (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)
    # vee of the skew part of M = R_c^T D, D = (R_c - R_prev) / dt
    (n11, n12, n13), (n21, n22, n23), (n31, n32, n33) = R_c
    (o11, o12, o13), (o21, o22, o23), (o31, o32, o33) = R_prev
    d11, d12, d13 = (n11 - o11) / dt, (n12 - o12) / dt, (n13 - o13) / dt
    d21, d22, d23 = (n21 - o21) / dt, (n22 - o22) / dt, (n23 - o23) / dt
    d31, d32, d33 = (n31 - o31) / dt, (n32 - o32) / dt, (n33 - o33) / dt
    m12 = n11 * d12 + n21 * d22 + n31 * d32
    m13 = n11 * d13 + n21 * d23 + n31 * d33
    m21 = n12 * d11 + n22 * d21 + n32 * d31
    m23 = n12 * d13 + n22 * d23 + n32 * d33
    m31 = n13 * d11 + n23 * d21 + n33 * d31
    m32 = n13 * d12 + n23 * d22 + n33 * d32
    w1, w2, w3 = Omega_c = 0.5 * (m32 - m23), 0.5 * (m13 - m31), 0.5 * (m21 - m12)
    if Omega_prev is None:
        return Omega_c, (0.0, 0.0, 0.0)
    u1, u2, u3 = Omega_prev
    return Omega_c, ((w1 - u1) / dt, (w2 - u2) / dt, (w3 - u3) / dt)


def compute_moment(e_R, e_Omega, Omega, u, R, R_c, Omega_c_dot, delta2_hat, J, gains):
    """Moment law with gyroscopic and computed-attitude feedforward terms.

    M = D2 - k_R e_R - k_Omega e_Omega + Omega x J Omega
        - J (Omega x u - R^T R_c Omega_c_dot), three floats, where
    u = R^T R_c Omega_c is the computed angular velocity in the body frame.
    """
    w1, w2, w3 = Omega
    u1, u2, u3 = u
    a1, a2, a3 = computed_to_body(R, R_c, Omega_c_dot)
    # the bracket of the feedforward term
    b1, b2, b3 = w2 * u3 - w3 * u2 - a1, w3 * u1 - w1 * u3 - a2, w1 * u2 - w2 * u1 - a3
    (J11, J12, J13), (J21, J22, J23), (J31, J32, J33) = J
    # J Omega and J times the bracket
    h1 = J11 * w1 + J12 * w2 + J13 * w3
    h2 = J21 * w1 + J22 * w2 + J23 * w3
    h3 = J31 * w1 + J32 * w2 + J33 * w3
    f1 = J11 * b1 + J12 * b2 + J13 * b3
    f2 = J21 * b1 + J22 * b2 + J23 * b3
    f3 = J31 * b1 + J32 * b2 + J33 * b3
    k_R, k_Omega = gains.k_R, gains.k_Omega
    (d1, d2, d3), (r1, r2, r3), (o1, o2, o3) = delta2_hat, e_R, e_Omega
    return (d1 - k_R * r1 - k_Omega * o1 + (w2 * h3 - w3 * h2) - f1,
            d2 - k_R * r2 - k_Omega * o2 + (w3 * h1 - w1 * h3) - f2,
            d3 - k_R * r3 - k_Omega * o3 + (w1 * h2 - w2 * h1) - f3)


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

    Owns a block-diagonal pair of the two adaptive networks, copied from the
    given ones, and the last R_c and Omega_c of the finite-difference
    feedforward.  `nn1` and `nn2` are the pair's `nets`, which the weight
    update writes into; the given networks are left unchanged.
    `adaptation=False` freezes the weights, which with zero initial weights
    reproduces the pure geometric controller: the output of frozen zero
    networks is then evaluated once, here, and no step builds a network
    input.
    """

    def __init__(self, gains, quad, simplified, nn1=None, nn2=None,
                 adaptation=True, omega_min=OMEGA_MIN):
        self.gains = gains
        self.quad = quad
        self.simplified = simplified
        self.pair = NetworkPair(nn1 if nn1 is not None else NNWeights.zeros(),
                                nn2 if nn2 is not None else NNWeights.zeros(),
                                (gains.adapt1, gains.adapt2) if adaptation else None)
        self.nn1, self.nn2 = self.pair.nets
        self.adaptation = adaptation
        # the outputs of frozen networks whose blocks are all zero: +0.0 on
        # every finite input; None when each step evaluates the networks
        self._frozen_y = None
        if not (adaptation or self.pair.W.any() or self.pair.V.any()):
            y, _ = nn_output(self.pair, np.zeros(self.pair.V.shape[0]))
            self._frozen_y = y.tolist()
        base = quad.m * quad.g if quad.g > 0.0 else quad.m
        self.eps_thrust = 1e-6 * base
        self.omega_min = omega_min
        self._mix_inv = np.linalg.inv(mixing_matrix(quad.d_h, simplified.C_TQ)).tolist()
        # the last R_c and the last backward-difference Omega_c, None until there is one
        self._last_Rc = self._last_Omega_c = None
        self._last_angles = (0.0, 0.0, 0.0)

    def step(self, state, traj, dt):
        """Compute the command for the state and advance the networks.

        state is (x, v, R, Omega) in the float form that dynamics.step_rk4
        takes and returns; dt is the same on every step.
        Returns a list of 39 floats laid out as layout.OUTPUT, the clip flags
        as 1.0 or 0.0; its weight norms are those of the weights the command
        used, before this step's update.
        Degenerate-geometry errors propagate to the caller, which is expected
        to abort the run.
        """
        gains, quad = self.gains, self.quad
        # everything is Python floats, apart from the network input, the
        # forward pass and the weight update
        x, v, R, Omega = state
        y = self._frozen_y
        if y is None:
            x_nn, self._last_angles = build_network_input(
                x, v, R, Omega, fallback_angles=self._last_angles)
            y, features = nn_output(self.pair, x_nn)
            y = y.tolist()
        nn1, nn2 = self.nn1, self.nn2
        delta1_hat, delta2_hat = y[0:3], y[3:6]
        e_x = [a - b for a, b in zip(x, traj.x_d)]
        e_v = [a - b for a, b in zip(v, traj.v_d)]

        A = compute_A(e_x, e_v, delta1_hat, traj.a_d, gains, quad.m, quad.g)
        f = compute_thrust(A, R)
        R_c = compute_Rc(A, traj.b1_d, self.eps_thrust)

        R_prev = self._last_Rc
        Omega_c, Omega_c_dot = compute_Omega_c(R_prev, R_c, self._last_Omega_c, dt)
        self._last_Rc, self._last_Omega_c = R_c, None if R_prev is None else Omega_c

        e_R, psi = attitude_error(R, R_c)
        # R^T R_c Omega_c, read by e_Omega and the moment law
        u = u1, u2, u3 = computed_to_body(R, R_c, Omega_c)
        w1, w2, w3 = Omega
        e_Om = w1 - u1, w2 - u2, w3 - u3

        M_c = compute_moment(e_R, e_Om, Omega, u, R, R_c, Omega_c_dot,
                             delta2_hat, quad.J_rows, gains)

        M1, M2, M3 = M_c
        T1, T2, T3, T4 = thrusts = [k_f * f + k_1 * M1 + k_2 * M2 + k_3 * M3
                                    for k_f, k_1, k_2, k_3 in self._mix_inv]
        simplified, omega_min = self.simplified, self.omega_min
        o1, s1 = rotor_speed_from_thrust(T1, simplified, omega_min)
        o2, s2 = rotor_speed_from_thrust(T2, simplified, omega_min)
        o3, s3 = rotor_speed_from_thrust(T3, simplified, omega_min)
        o4, s4 = rotor_speed_from_thrust(T4, simplified, omega_min)
        # the fields in OUTPUT_SCHEMA order (the array reference of
        # test_step_matches_array_reference writes them through OUTPUT)
        out = [*e_x, *e_v, *e_R, *e_Om, psi, f, *M_c, *thrusts, o1, o2, o3, o4,
               float(s1), float(s2), float(s3), float(s4), *delta1_hat, *delta2_hat,
               nn1.W_norm, nn1.V_norm, nn2.W_norm, nn2.V_norm]

        if self.adaptation:
            # the error signals [e_v + c1 e_x, e_Omega + c2 e_R] of both networks
            c1, c2 = gains.c1, gains.c2
            (x1, x2, x3), (v1, v2, v3), (r1, r2, r3), (o1, o2, o3) = e_x, e_v, e_R, e_Om
            update_weights(self.pair, x_nn, features,
                           np.array([v1 + c1 * x1, v2 + c1 * x2, v3 + c1 * x3,
                                     o1 + c2 * r1, o2 + c2 * r2, o3 + c2 * r3]), dt)
        return out
