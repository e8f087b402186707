"""Rotor aerodynamics: relative wind, implicit thrust/inflow, flapping, drag.

This is the "true plant" force model.  Per rotor, the relative wind sets two
advance ratios; the thrust coefficient C_T and inflow ratio lam are coupled
through a pair of implicit equations solved by a damped Newton iteration on
lam (with a bisection fallback); blade flapping tilts the thrust direction
off the hub axis; a quadratic body drag acts at the center of mass.

Frames: relative wind and thrust directions in the body frame (z down),
drag and the resultant force in the inertial frame, the resultant moment in
the body frame.

Everything here computes in Python floats and builds no array:
resultant_wrench takes an RK4 stage as step_rk4 hands it (v, Omega and the
wind as float triples, R as three rows of floats) and returns two float
triples, and drag_force takes and returns float triples.

The per-rotor path is one float kernel: the wrench loop writes out the
advance ratios, the flapped thrust direction and the alternating torque sign
inline and calls solve_thrust_inflow once per rotor, whose Newton loop writes
out the residual and C_T inline.  RotorAeroParams sets its derived
constants once, at construction, as plain attributes: `solidity` s,
`half_s_cla` and `quarter_s_cla` (s C_la / 2 and / 4), `lam_guess` (the
hover-scale inflow sqrt(s C_la theta0 / 12), a cold solve's start), `A_p`
(pi r_p^2), `rho_A` (rho A_p), `flap_gain` (N_b K_beta / 2) and
`profile_torque` (C_D0 s / 8).  A rotor below the speed floor or an inflow
solve that fails aborts with a message naming the rotor; a solver failure
also gives the rotor's advance ratios.
"""

import math
from dataclasses import dataclass

from .errors import NoConvergence, RotorStopped

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
        # derived constants, set once: the inflow solve and the wrench read
        # them on every rotor evaluation
        s = self.N_b * self.chord / (math.pi * self.r_p)
        if not s < 1.0:
            raise ValueError("solidity ratio must be below 1")
        s_cla = s * self.C_la
        # where w vanishes (the hover start) the inflow solve's Newton slope
        # is s C_la / 4, which it divides by
        if not 0.25 * s_cla > 0.0:
            raise ValueError(f"C_la = {self.C_la!r} is too small: s C_la / 4 underflows to 0")
        try:
            A_p = math.pi * self.r_p ** 2
        except OverflowError:
            raise ValueError("r_p is too large: the disk area pi r_p^2 overflows") from None
        for name, value in (("solidity", s),
                            ("half_s_cla", 0.5 * s_cla),
                            ("quarter_s_cla", 0.25 * s_cla),
                            ("lam_guess", math.sqrt(s_cla * self.theta0 / 12.0)),
                            ("A_p", A_p),
                            ("rho_A", self.rho * A_p),
                            ("flap_gain", 0.5 * self.N_b * self.K_beta),
                            ("profile_torque", self.C_D0 * s / 8.0)):
            object.__setattr__(self, name, value)


def solve_thrust_inflow(mu_x, mu_z, params, lam0=None):
    """Solve the coupled implicit equations for (C_T, lam).

    The pair must satisfy

        C_T  = (s C_la / 2) [theta0 (1/3 + mu_x^2/2) - (lam + mu_z)/2]
        lam  = C_T / (2 sqrt(mu_x^2 + (lam + mu_z)^2))

    The second equation is handled in the singularity-free product form
    2 lam sqrt(mu_x^2 + (lam+mu_z)^2) - C_T(lam) = 0 and solved by Newton
    iteration (at most 50 steps to residual 1e-13, then one last correction
    from that residual) from lam0, or from the hover-scale guess
    `params.lam_guess` when lam0 is None, falling back to bisection on
    [0, 1] if Newton leaves the bracket or stalls short of residual 1e-11.
    A caller that solves the same rotor repeatedly passes its last lam as
    lam0 (a warm start).

    The residual and C_T are written out inline, with the lam-free part
    theta0 (1/3 + mu_x^2/2) of C_T formed once per solve.

    Raises
    ------
    NoConvergence
        If neither Newton nor bisection reaches the residual tolerance.
    """
    half_s_cla = params.half_s_cla
    quarter_s_cla = params.quarter_s_cla
    blade = params.theta0 * (1.0 / 3.0 + 0.5 * mu_x * mu_x)
    mu_x2 = mu_x * mu_x
    lam = params.lam_guess if lam0 is None else lam0
    # residual 2 lam w - C_T(lam), with a = lam + mu_z and w = |(mu_x, a)|
    a = lam + mu_z
    w = math.sqrt(mu_x2 + a * a)
    value = 2.0 * lam * w - half_s_cla * (blade - 0.5 * a)
    for _ in range(50):
        if w > 1e-14:
            slope = 2.0 * w + 2.0 * lam * a / w + quarter_s_cla
        else:
            slope = quarter_s_cla
        step = value / slope
        lam -= step
        if not abs(value) > 1e-13:
            # converged: this last step, taken from the residual in hand
            # without a new evaluation, puts lam on the root to rounding
            # whatever the start, so a warm and a cold solve agree
            break
        a = lam + mu_z
        w = math.sqrt(mu_x2 + a * a)
        value = 2.0 * lam * w - half_s_cla * (blade - 0.5 * a)
        # abs(step) < 1e-16 max(1, |lam|), spelled without a max call
        size = abs(lam)
        if abs(step) < 1e-16 * (size if size > 1.0 else 1.0):
            break

    # each check below is written negated, so that a NaN residual (a NaN
    # input, or a NaN or infinite lam0) fails it: a non-finite result is
    # never returned
    if not abs(value) <= 1e-11:
        # Newton stalled; bisect the residual on [0, 1]
        def residual(lam):
            a = lam + mu_z
            return 2.0 * lam * math.sqrt(mu_x2 + a * a) - half_s_cla * (blade - 0.5 * a)

        lo, hi = 0.0, 1.0
        flo, fhi = residual(lo), residual(hi)
        if flo == 0.0:
            lam, value = lo, 0.0
        elif not flo * fhi <= 0.0:
            raise NoConvergence("no sign change on [0, 1]", residual=abs(value))
        else:
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fmid = residual(mid)
                if flo * fmid <= 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fmid
            lam = 0.5 * (lo + hi)
            value = residual(lam)
            if not abs(value) <= 1e-11:
                raise NoConvergence("bisection fallback stalled", residual=abs(value))

    return half_s_cla * (blade - 0.5 * (lam + mu_z)), lam


def torque_coefficient(C_T, lam, mu_x, mu_z, params):
    """Torque coefficient C_Q = C_T (lam + mu_z) + C_D0 s / 8 (1 + 3 mu_x^2)."""
    return C_T * (lam + mu_z) + params.profile_torque * (1.0 + 3.0 * mu_x * mu_x)


def drag_force(v, v_w, C_d):
    """Quadratic body drag -C_d ||v - v_w|| (v - v_w), inertial frame, from
    two 3-sequences of floats; returns three floats."""
    (v1, v2, v3), (w1, w2, w3) = v, v_w
    d1, d2, d3 = v1 - w1, v2 - w2, v3 - w3
    k = -C_d * math.hypot(d1, d2, d3)
    return k * d1, k * d2, k * d3


def resultant_wrench(v, R, Omega, v_w, omegas, quad, aero, omega_min=OMEGA_MIN,
                     inflow=None):
    """Total aerodynamic force (inertial) and moment (body) on the vehicle
    at velocity v, attitude R and body rates Omega.

    v, Omega, the wind v_w and the four rotor speeds omegas are sequences
    of floats and R is three rows of three floats, as an RK4 stage passes
    them; returns (U_e, M_e), two 3-sequences of floats.

    Per rotor j with speed omegas[j]:

        T_j = C_Tj rho A_p (r_p w_j)^2      thrust along the flapped axis d_j
        Q_j = C_Qj rho A_p r_p (r_p w_j)^2  reactive torque, alternating sign

    The flapping restoring moment (N_b/2) K_beta alpha_j is applied about the
    body x and y axes weighted by the in-plane components of d_j; the printed
    source expression is ambiguous, so only its magnitude and the zero-wind
    limit are contractual (see README).

    Force:  U_e = m g e3 + drag + R sum_j T_j d_j.

    The relative wind at rotor j is R^T (v_w - v) + Omega x r_j; R^T (v_w - v)
    is formed once and each rotor runs in float arithmetic, one
    solve_thrust_inflow call per rotor.  RotorStopped names the rotor,
    1-based as in the telemetry columns; a NoConvergence from the solve is
    raised again naming the rotor and its advance ratios mu_x and mu_z, with
    the solver's residual kept.

    `inflow`, when given, is a list of four floats owned by the caller's run:
    rotor j's inflow solve starts from inflow[j], which is then overwritten
    with the solved lam, so the start carries across RK4 stages and steps.
    Without it every solve starts cold from the hover-scale guess.
    """
    (r11, r12, r13), (r21, r22, r23), (r31, r32, r33) = R
    (v1, v2, v3), (w1, w2, w3) = v, v_w
    # R^T (v_w - v)
    g1, g2, g3 = w1 - v1, w2 - v2, w3 - v3
    wx = r11 * g1 + r21 * g2 + r31 * g3
    wy = r12 * g1 + r22 * g2 + r32 * g3
    wz = r13 * g1 + r23 * g2 + r33 * g3
    p, q, r = Omega
    r_p, C_alpha = aero.r_p, aero.C_alpha
    rho_A, flap_gain = aero.rho_A, aero.flap_gain
    if inflow is None:
        inflow = [None] * 4
    fx = fy = fz = mx = my = mz = 0.0
    sign = 1.0  # reactive torque sign, alternating from rotor 1
    rotors = zip(omegas, quad.rotor_positions)
    for j, (omega_j, (rx, ry, rz)) in enumerate(rotors):
        if omega_j < omega_min:
            raise RotorStopped(f"rotor {j + 1} speed {omega_j:.17g} rad/s "
                               f"below floor {omega_min:.17g}")
        u1 = wx + q * rz - r * ry
        u2 = wy + r * rx - p * rz
        # advance ratios of the relative wind (u1, u2, u3)
        planar = math.hypot(u1, u2)
        tip = omega_j * r_p
        mu_x, mu_z = planar / tip, (wz + p * ry - q * rx) / tip
        try:
            C_T, lam = solve_thrust_inflow(mu_x, mu_z, aero, inflow[j])
        except NoConvergence as exc:
            raise NoConvergence(f"rotor {j + 1} {exc} at mu_x = {mu_x:.17g}, "
                                f"mu_z = {mu_z:.17g}", residual=exc.residual) from None
        inflow[j] = lam
        C_Q = torque_coefficient(C_T, lam, mu_x, mu_z, aero)
        # flapping angle alpha and the flapped thrust direction d; at zero
        # in-plane wind d is the limit -e3
        if planar < 1e-12:
            alpha, d1, d2, d3 = 0.0, 0.0, 0.0, -1.0
        else:
            alpha = C_alpha * planar
            sa = math.sin(alpha)
            d1, d2, d3 = -sa * u1 / planar, -sa * u2 / planar, -math.cos(alpha)
        tip2 = tip ** 2
        T_j = C_T * rho_A * tip2
        Q_j = sign * C_Q * rho_A * r_p * tip2
        sign = -sign
        t1, t2, t3 = T_j * d1, T_j * d2, T_j * d3
        fx += t1
        fy += t2
        fz += t3
        flap = flap_gain * alpha
        # r_j x (T_j d_j) + Q_j d_j + flap (d1, d2, 0)
        mx += ry * t3 - rz * t2 + Q_j * d1 + flap * d1
        my += rz * t1 - rx * t3 + Q_j * d2 + flap * d2
        mz += rx * t2 - ry * t1 + Q_j * d3

    # R (f_x, f_y, f_z) + drag + m g e3
    D1, D2, D3 = drag_force(v, v_w, aero.C_d)
    return ((r11 * fx + r12 * fy + r13 * fz + D1,
             r21 * fx + r22 * fy + r23 * fz + D2,
             r31 * fx + r32 * fy + r33 * fz + D3 + quad.m * quad.g),
            (mx, my, mz))
