"""Test oracles: functions that only the tests call.

Each restates a quantity of the model in its plain numpy or closed form,
for the tests to check the simulator's own (float) code against.
"""

import math

import numpy as np

from windquad.aero import OMEGA_MIN, drag_force
from windquad.errors import NoConvergence, RotorStopped, WindquadError

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])

SKEW_TOL = 1e-8

#: tolerance of is_rotation
ROTATION_TOL = 1e-9


class NotSkewSymmetric(WindquadError):
    """Input to the vee map is not skew-symmetric within tolerance."""


def hat(v):
    """Skew-symmetric matrix such that hat(v) @ w == cross(v, w)."""
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def vee(M, tol=SKEW_TOL):
    """Inverse of the hat map.

    Raises
    ------
    NotSkewSymmetric
        If ||M + M^T||_F exceeds `tol`.
    """
    defect = np.linalg.norm(M + M.T)
    if defect > tol:
        raise NotSkewSymmetric(f"||M + M^T||_F = {defect:.3e} > {tol:.1e}")
    return np.array([M[2, 1], M[0, 2], M[1, 0]])


def cross3(a, b):
    """Cross product of two 3-vectors; avoids np.cross axis overhead."""
    return np.array([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def is_rotation(R, tol=ROTATION_TOL):
    """True if R satisfies the rotation-matrix invariants within tol."""
    if R.shape != (3, 3):
        return False
    if np.linalg.norm(R.T @ R - np.eye(3)) > tol:
        return False
    return abs(np.linalg.det(R) - 1.0) <= tol


def attitude_error_jacobian(Q):
    """Matrix C(Q) = 0.5 (tr(Q) I - Q) appearing in the e_R rate equation.

    For Q in SO(3) its operator norm is at most one.
    """
    return 0.5 * (np.trace(Q) * np.eye(3) - Q)


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


# --- the aero plant's per-rotor functions, one call per quantity -----------
# windquad.aero fuses these into the wrench loop and the Newton loop of its
# inflow solve, keeping every float expression and its order; test_aero
# checks the fused code against this composition bit for bit.

def advance_ratios(u, omega_j, r_p, omega_min=OMEGA_MIN):
    """In-plane and axial advance ratios (mu_x, mu_z) of the relative wind u.

    Raises
    ------
    RotorStopped
        If omega_j < omega_min.
    """
    if omega_j < omega_min:
        raise RotorStopped(f"speed {omega_j:.17g} rad/s below floor {omega_min:.17g}")
    u1, u2, u3 = u
    tip = omega_j * r_p
    return math.hypot(u1, u2) / tip, u3 / tip


def _ct_of_lambda(lam, mu_x, mu_z, s_cla, theta0):
    """Thrust coefficient from blade-element theory at a given inflow."""
    return 0.5 * s_cla * (theta0 * (1.0 / 3.0 + 0.5 * mu_x * mu_x) - 0.5 * (lam + mu_z))


def _inflow_residual(lam, mu_x, mu_z, s_cla, theta0):
    """Product-form inflow residual 2 lam w - C_T(lam), and w = |(mu_x, lam + mu_z)|."""
    w = math.sqrt(mu_x * mu_x + (lam + mu_z) * (lam + mu_z))
    return 2.0 * lam * w - _ct_of_lambda(lam, mu_x, mu_z, s_cla, theta0), w


def solve_thrust_inflow_oracle(mu_x, mu_z, params, lam0=None):
    """windquad.aero.solve_thrust_inflow with the residual and C_T as calls:
    the same Newton steps, caps, bisection fallback and errors.  The cold
    start is formed here from the fields, not read from the params."""
    s_cla = params.solidity * params.C_la
    theta0 = params.theta0
    if lam0 is None:
        lam = math.sqrt(params.solidity * params.C_la * params.theta0 / 12.0)
    else:
        lam = lam0
    value, w = _inflow_residual(lam, mu_x, mu_z, s_cla, theta0)
    for _ in range(50):
        if w > 1e-14:
            slope = 2.0 * w + 2.0 * lam * (lam + mu_z) / w + 0.25 * s_cla
        else:
            slope = 0.25 * s_cla
        step = value / slope
        lam -= step
        if not abs(value) > 1e-13:
            break
        value, w = _inflow_residual(lam, mu_x, mu_z, s_cla, theta0)
        if abs(step) < 1e-16 * max(1.0, abs(lam)):
            break

    if not abs(value) <= 1e-11:
        lo, hi = 0.0, 1.0
        flo, _ = _inflow_residual(lo, mu_x, mu_z, s_cla, theta0)
        fhi, _ = _inflow_residual(hi, mu_x, mu_z, s_cla, theta0)
        if flo == 0.0:
            lam, value = lo, 0.0
        elif not flo * fhi <= 0.0:
            raise NoConvergence("no sign change on [0, 1]", residual=abs(value))
        else:
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fmid, _ = _inflow_residual(mid, mu_x, mu_z, s_cla, theta0)
                if flo * fmid <= 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fmid
            lam = 0.5 * (lo + hi)
            value, _ = _inflow_residual(lam, mu_x, mu_z, s_cla, theta0)
            if not abs(value) <= 1e-11:
                raise NoConvergence("bisection fallback stalled", residual=abs(value))

    return _ct_of_lambda(lam, mu_x, mu_z, s_cla, theta0), lam


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


def resultant_wrench_oracle(v, R, Omega, v_w, omegas, quad, aero, omega_min=OMEGA_MIN,
                            inflow=None):
    """windquad.aero.resultant_wrench composed from the per-rotor functions
    above (same arguments, same float expressions in the same order).  The
    disk area, flap gain and C_Q are formed here from the fields, not read
    from the params' derived constants."""
    (r11, r12, r13), (r21, r22, r23), (r31, r32, r33) = R
    (v1, v2, v3), (w1, w2, w3) = v, v_w
    g1, g2, g3 = w1 - v1, w2 - v2, w3 - v3
    wx = r11 * g1 + r21 * g2 + r31 * g3
    wy = r12 * g1 + r22 * g2 + r32 * g3
    wz = r13 * g1 + r23 * g2 + r33 * g3
    p, q, r = Omega
    r_p = aero.r_p
    rho_A = aero.rho * (math.pi * aero.r_p ** 2)
    flap_gain = 0.5 * aero.N_b * aero.K_beta
    if inflow is None:
        inflow = [None] * 4
    fx = fy = fz = mx = my = mz = 0.0
    rotors = zip(omegas, quad.rotor_positions)
    for j, (omega_j, (rx, ry, rz)) in enumerate(rotors):
        u1 = wx + q * rz - r * ry
        u2 = wy + r * rx - p * rz
        try:
            mu_x, mu_z = advance_ratios((u1, u2, wz + p * ry - q * rx),
                                        omega_j, r_p, omega_min)
        except RotorStopped as exc:
            raise RotorStopped(f"rotor {j + 1} {exc}") from None
        C_T, lam = solve_thrust_inflow_oracle(mu_x, mu_z, aero, inflow[j])
        inflow[j] = lam
        C_Q = C_T * (lam + mu_z) + aero.C_D0 * aero.solidity / 8.0 * (1.0 + 3.0 * mu_x * mu_x)
        alpha, (d1, d2, d3) = flap_direction(u1, u2, aero.C_alpha)
        tip2 = (r_p * omega_j) ** 2
        T_j = C_T * rho_A * tip2
        Q_j = (-1.0) ** j * C_Q * rho_A * r_p * tip2
        t1, t2, t3 = T_j * d1, T_j * d2, T_j * d3
        fx += t1
        fy += t2
        fz += t3
        flap = flap_gain * alpha
        mx += ry * t3 - rz * t2 + Q_j * d1 + flap * d1
        my += rz * t1 - rx * t3 + Q_j * d2 + flap * d2
        mz += rx * t2 - ry * t1 + Q_j * d3

    D1, D2, D3 = drag_force(v, v_w, aero.C_d)
    return ((r11 * fx + r12 * fy + r13 * fz + D1,
             r21 * fx + r22 * fy + r23 * fz + D2,
             r31 * fx + r32 * fy + r33 * fz + D3 + quad.m * quad.g),
            (mx, my, mz))


def thrust_mismatch_term(f, R, R_c):
    """Force component from imperfect attitude tracking.

    (f / (e3^T R_c^T R e3)) [ (e3^T R_c^T R e3) R e3 - R_c e3 ]; appears in
    the velocity-error equation and vanishes when R e3 aligns with R_c e3.
    """
    r3 = R[:, 2]
    rc3 = R_c[:, 2]
    align = float(rc3 @ r3)
    return (f / align) * (align * r3 - rc3)


def read_csv(path):
    """Read a telemetry CSV back as (header list, (rows, columns) float array).

    A header-only file gives shape (0, len(header)).
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = [[float(tok) for tok in line.strip().split(",")]
                for line in fh if line.strip()]
    return header, np.array(data, dtype=float).reshape(len(data), len(header))
