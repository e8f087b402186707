"""Rotor aerodynamics: relative wind, implicit thrust/inflow, flapping, drag.

This is the "true plant" force model.  Per rotor, the relative wind sets two
advance ratios; the thrust coefficient C_T and inflow ratio lam are coupled
through a pair of implicit equations solved by a damped Newton iteration on
lam (with a bisection fallback); blade flapping tilts the thrust direction
off the hub axis; a quadratic body drag acts at the center of mass.

Frames: relative wind and thrust directions in the body frame (z down),
drag and the resultant force in the inertial frame, the resultant moment in
the body frame.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, RotorStopped
from .layout import unpack_state

#: default floor on rotor speed [rad/s]; advance ratios diverge at zero speed
OMEGA_MIN = 1.0


@dataclass(frozen=True)
class RotorAeroParams:
    """Physical constants of one rotor plus body drag.

    Attributes
    ----------
    rho : float
        Air density [kg/m^3].
    r_p : float
        Rotor radius [m].
    N_b : int
        Number of blades.
    chord : float
        Blade chord [m].
    C_la : float
        Blade lift-curve slope [1/rad].
    theta0 : float
        Blade pitch angle [rad].
    C_D0 : float
        Blade profile drag coefficient.
    C_alpha : float
        Flapping angle coefficient [rad s/m].
    K_beta : float
        Blade stiffness [N m/rad].
    C_d : float
        Body drag coefficient [kg/m].
    """

    rho: float = 1.225
    r_p: float = 0.12
    N_b: int = 2
    chord: float = 0.015
    C_la: float = 5.7
    theta0: float = 0.25
    C_D0: float = 0.012
    C_alpha: float = 0.01
    K_beta: float = 0.05
    C_d: float = 0.05

    def __post_init__(self):
        for name in ("rho", "r_p", "chord", "C_la", "theta0", "C_D0",
                     "C_alpha", "K_beta", "C_d"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("rho", "r_p", "chord", "C_la"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if self.N_b < 1:
            raise ValueError("N_b must be at least 1")
        if not self.solidity < 1.0:
            raise ValueError("solidity ratio must be below 1")

    @property
    def A_p(self):
        """Rotor disk area pi r_p^2 [m^2]."""
        return math.pi * self.r_p ** 2

    @property
    def solidity(self):
        """Solidity ratio s = N_b c / (pi r_p)."""
        return self.N_b * self.chord / (math.pi * self.r_p)


def advance_ratios(u, omega_j, r_p, omega_min=OMEGA_MIN):
    """In-plane and axial advance ratios (mu_x, mu_z) of the relative wind u.

    Raises
    ------
    RotorStopped
        If omega_j < omega_min.
    """
    if omega_j < omega_min:
        raise RotorStopped(f"speed {omega_j:.17g} rad/s below floor {omega_min:.17g}")
    tip = omega_j * r_p
    mu_x = math.hypot(float(u[0]), float(u[1])) / tip
    mu_z = float(u[2]) / tip
    return mu_x, mu_z


def _ct_of_lambda(lam, mu_x, mu_z, s_cla, theta0):
    """Thrust coefficient from blade-element theory at a given inflow."""
    return 0.5 * s_cla * (theta0 * (1.0 / 3.0 + 0.5 * mu_x * mu_x) - 0.5 * (lam + mu_z))


def solve_thrust_inflow(mu_x, mu_z, params):
    """Solve the coupled implicit equations for (C_T, lam).

    The pair must satisfy

        C_T  = (s C_la / 2) [theta0 (1/3 + mu_x^2/2) - (lam + mu_z)/2]
        lam  = C_T / (2 sqrt(mu_x^2 + (lam + mu_z)^2))

    The second equation is handled in the singularity-free product form
    2 lam sqrt(mu_x^2 + (lam+mu_z)^2) - C_T(lam) = 0 and solved by Newton
    iteration (at most 50, to residual 1e-13) from the hover-scale guess
    sqrt(s C_la theta0 / 12), falling back to bisection on [0, 1] if Newton
    leaves the bracket or stalls short of residual 1e-11.

    Raises
    ------
    NoConvergence
        If neither Newton nor bisection reaches the residual tolerance.
    """
    s_cla = params.solidity * params.C_la

    def phi(lam):
        w = math.sqrt(mu_x * mu_x + (lam + mu_z) * (lam + mu_z))
        return 2.0 * lam * w - _ct_of_lambda(lam, mu_x, mu_z, s_cla, params.theta0), w

    lam = math.sqrt(s_cla * params.theta0 / 12.0)
    value, w = phi(lam)
    it = 0
    while abs(value) > 1e-13 and it < 50:
        if w > 1e-14:
            slope = 2.0 * w + 2.0 * lam * (lam + mu_z) / w + 0.25 * s_cla
        else:
            slope = 0.25 * s_cla
        step = value / slope
        lam -= step
        value, w = phi(lam)
        if abs(step) < 1e-16 * max(1.0, abs(lam)):
            break
        it += 1

    if abs(value) > 1e-11:
        # Newton stalled; bisect phi on [0, 1]
        lo, hi = 0.0, 1.0
        flo, _ = phi(lo)
        fhi, _ = phi(hi)
        if flo == 0.0:
            lam, value = lo, 0.0
        elif flo * fhi > 0.0:
            raise NoConvergence("no sign change on [0, 1]", residual=abs(value))
        else:
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fmid, _ = phi(mid)
                if flo * fmid <= 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fmid
            lam = 0.5 * (lo + hi)
            value, _ = phi(lam)
            if abs(value) > 1e-11:
                raise NoConvergence("bisection fallback stalled", residual=abs(value))

    return _ct_of_lambda(lam, mu_x, mu_z, s_cla, params.theta0), lam


def thrust_inflow_residuals(C_T, lam, mu_x, mu_z, params):
    """Residuals of the two implicit equations at (C_T, lam).

    The inflow residual uses the product form, which stays defined at the
    hover singular point mu = 0, lam = 0.
    """
    s_cla = params.solidity * params.C_la
    r1 = C_T - _ct_of_lambda(lam, mu_x, mu_z, s_cla, params.theta0)
    w = math.sqrt(mu_x * mu_x + (lam + mu_z) * (lam + mu_z))
    r2 = 2.0 * lam * w - C_T
    if w > 1e-12:
        r2 /= 2.0 * w
    return r1, r2


def torque_coefficient(C_T, lam, mu_x, mu_z, params):
    """Torque coefficient C_Q = C_T (lam + mu_z) + C_D0 s / 8 (1 + 3 mu_x^2)."""
    return C_T * (lam + mu_z) + params.C_D0 * params.solidity / 8.0 * (1.0 + 3.0 * mu_x * mu_x)


def flap_direction(u1, u2, C_alpha):
    """Flapping angle and tilted thrust direction for in-plane wind (u1, u2).

    Returns (alpha, (d1, d2, d3)) with d a unit vector in the body frame.  At
    zero in-plane wind the direction is the limit -e3.
    """
    planar = math.hypot(u1, u2)
    if planar < 1e-12:
        return 0.0, (0.0, 0.0, -1.0)
    alpha = C_alpha * planar
    sa = math.sin(alpha)
    return alpha, (-sa * u1 / planar, -sa * u2 / planar, -math.cos(alpha))


def drag_force(v, v_w, C_d):
    """Quadratic body drag -C_d ||v - v_w|| (v - v_w), inertial frame."""
    rel = np.asarray(v, float) - np.asarray(v_w, float)
    return -C_d * math.hypot(*rel.tolist()) * rel


def resultant_wrench(s, v_w, omegas, quad, aero, omega_min=OMEGA_MIN):
    """Total aerodynamic force (inertial) and moment (body) on the vehicle
    at packed state s.

    Per rotor j with speed omegas[j]:

        T_j = C_Tj rho A_p (r_p w_j)^2      thrust along the flapped axis d_j
        Q_j = C_Qj rho A_p r_p (r_p w_j)^2  reactive torque, alternating sign

    The flapping restoring moment (N_b/2) K_beta alpha_j is applied about the
    body x and y axes weighted by the in-plane components of d_j; the printed
    source expression is ambiguous, so only its magnitude and the zero-wind
    limit are contractual (see README).

    Force:  U_e = m g e3 + drag + R sum_j T_j d_j.

    The relative wind at rotor j is R^T (v_w - v) + Omega x r_j; R^T (v_w - v)
    is formed once and each rotor runs in float arithmetic.  RotorStopped
    names the rotor, 1-based as in the telemetry columns.
    """
    _, v, R, Omega = unpack_state(s)
    wx, wy, wz = ((np.asarray(v_w, float) - v) @ R).tolist()
    p, q, r = Omega.tolist()
    r_p = aero.r_p
    rho_A = aero.rho * aero.A_p
    flap_gain = 0.5 * aero.N_b * aero.K_beta
    fx = fy = fz = mx = my = mz = 0.0
    rotors = zip(np.asarray(omegas, float).tolist(), quad.rotor_positions)
    for j, (omega_j, (rx, ry, rz)) in enumerate(rotors):
        u1 = wx + q * rz - r * ry
        u2 = wy + r * rx - p * rz
        try:
            mu_x, mu_z = advance_ratios((u1, u2, wz + p * ry - q * rx),
                                        omega_j, r_p, omega_min)
        except RotorStopped as exc:
            raise RotorStopped(f"rotor {j + 1} {exc}") from None
        C_T, lam = solve_thrust_inflow(mu_x, mu_z, aero)
        C_Q = torque_coefficient(C_T, lam, mu_x, mu_z, aero)
        alpha, (d1, d2, d3) = flap_direction(u1, u2, aero.C_alpha)
        tip2 = (r_p * omega_j) ** 2
        T_j = C_T * rho_A * tip2
        Q_j = (-1.0) ** j * C_Q * rho_A * r_p * tip2
        t1, t2, t3 = T_j * d1, T_j * d2, T_j * d3
        fx += t1
        fy += t2
        fz += t3
        flap = flap_gain * alpha
        # r_j x (T_j d_j) + Q_j d_j + flap (d1, d2, 0)
        mx += ry * t3 - rz * t2 + Q_j * d1 + flap * d1
        my += rz * t1 - rx * t3 + Q_j * d2 + flap * d2
        mz += rx * t2 - ry * t1 + Q_j * d3

    U_e = R @ np.array([fx, fy, fz]) + drag_force(v, v_w, aero.C_d)
    U_e[2] += quad.m * quad.g
    return U_e, np.array([mx, my, mz])
