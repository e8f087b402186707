"""Test oracles: functions that only the tests call.

Each restates a quantity of the model in its plain numpy or closed form,
for the tests to check the simulator's own (float) code against.
"""

import math

import numpy as np

from windquad.adaptive import BLOCK_NAMES, project_to_ball, sigmoid_features
from windquad.aero import OMEGA_MIN, drag_force
from windquad.errors import NoConvergence, RotorStopped, WindquadError
from windquad.layout import STATE
from windquad.se3 import expm_so3, orthonormalize

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


# --- the tests' boundary between the packed (18,) state and the float form
# (x, v, R, Omega) that the simulator carries from step to step

def pack_state(x, v, R, Omega):
    """Packed (18,) state, in layout.STATE order, from position, velocity,
    3x3 attitude and body rates: arrays, or the simulator's float form."""
    r1, r2, r3 = R
    return np.array([*x, *v, *r1, *r2, *r3, *Omega], dtype=float)


def state_floats(s):
    """The float form of a packed state, from one tolist(): (x, v, R, Omega)
    with x, v and Omega as lists of three and R as three rows of three."""
    state = s.tolist()
    r = state[STATE["R"]]
    return state[STATE["x"]], state[STATE["v"]], (r[0:3], r[3:6], r[6:9]), state[STATE["Omega"]]


def unpack_state(s):
    """Views (x, v, R, Omega) into a packed state, R as a 3x3 matrix."""
    return s[STATE["x"]], s[STATE["v"]], s[STATE["R"]].reshape(3, 3), s[STATE["Omega"]]


def history_Omega_c(history, dt):
    """Computed angular velocity and acceleration from an R_c history.

    `history` holds the last up-to-three computed attitudes, oldest first,
    each as three rows of floats.  Backward differences: Omega_c = vee of
    the skew part of R_c^T Rdot_c; zero until enough samples accumulate
    (first step returns zeros).  Returns two float triples.  The reference
    for controller.compute_Omega_c, which carries the previous rate instead
    of the third attitude.
    """
    if len(history) < 2:
        return (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)

    def rate(R_prev, R_now):
        # vee of the skew part of M = R_now^T D, D = (R_now - R_prev) / dt
        (n11, n12, n13), (n21, n22, n23), (n31, n32, n33) = R_now
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
        return 0.5 * (m32 - m23), 0.5 * (m13 - m31), 0.5 * (m21 - m12)

    w1, w2, w3 = Omega_c = rate(history[-2], history[-1])
    if len(history) < 3:
        return Omega_c, (0.0, 0.0, 0.0)
    u1, u2, u3 = rate(history[-3], history[-2])
    return Omega_c, ((w1 - u1) / dt, (w2 - u2) / dt, (w3 - u3) / dt)


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


def network_update(w, x_nn, z, sigma, a, gains, dt, name="nn"):
    """The update law of one network on its own, in place on w: the array
    reference of the controller step, where update_weights steps both
    networks of the pair at once.

    Wdot = -gamma_w [sigma(z) a^T - sigma'(z) z a^T] - kappa gamma_w W
    Vdot = -gamma_v x_nn [sigma'(z)^T W a]^T         - kappa gamma_v V

    (z, sigma) is the network's forward pass on its input x_nn.  Writes the
    new matrices into w.W and w.V and rebinds the norms once both
    projections succeed; raises NonFiniteWeights naming `name`.W or
    `name`.V otherwise.
    """
    s = sigma[1:]
    ds = s * (1.0 - s)
    u = sigma.copy()
    u[1:] -= ds * z
    W_dot = (-gains.gamma_w * (u[:, None] * a)
             - gains.kappa * gains.gamma_w * w.W)
    V_dot = (-gains.gamma_v * (x_nn[:, None] * (ds * (w.W[1:] @ a)))
             - gains.kappa * gains.gamma_v * w.V)
    W, W_norm = project_to_ball(w.W + dt * W_dot, w.W_max, f"{name}.W")
    V, V_norm = project_to_ball(w.V + dt * V_dot, w.V_max, f"{name}.V")
    w.W[...], w.V[...] = W, V
    w.W_norm, w.V_norm = W_norm, V_norm


def blockwise_nn_output(pair, x_nn):
    """nn_output with the pair's W and V as arrays of their own: z = V^T x_nn
    and y = W^T sigma as matmuls of the transposes, the reference that the
    forward on the views of theta matches bit for bit."""
    W, V = pair.W.copy(), pair.V.copy()
    z = V.T @ x_nn
    sigma = sigmoid_features(z)
    sigma[pair.bias2] = 1.0
    return W.T @ sigma, (z, sigma)


def blockwise_update_weights(pair, x_nn, features, a, gains, dt):
    """update_weights with the pair's W and V as arrays of their own, each
    stepped by its own outer product and two gain matrices of its shape,
    made here from the two networks' AdaptationGains `gains`: the reference
    that the step of theta's network entries matches bit for bit.

    Returns the new (W, V) and the four norms in BLOCK_NAMES order and
    leaves the pair unchanged; raises NonFiniteWeights naming the first bad
    block, as update_weights does.
    """
    W0, V0 = pair.W.copy(), pair.V.copy()
    G_W, K_W = np.zeros_like(W0), np.zeros_like(W0)
    G_V, K_V = np.zeros_like(V0), np.zeros_like(V0)
    for (Wb, Vb), g in zip(pair.blocks, gains):
        G_W[Wb], K_W[Wb] = -g.gamma_w, g.kappa * g.gamma_w
        G_V[Vb], K_V[Vb] = -g.gamma_v, g.kappa * g.gamma_v
    z, sigma = features
    (W1, V1), (W2, V2) = pair.blocks
    out1, out2 = pair.outputs
    s = sigma[1:]
    ds = s * (1.0 - s)
    u = sigma.copy()
    u[1:] -= ds * z
    Wa = np.concatenate((W0[W1][1:] @ a[out1], [0.0], W0[W2][1:] @ a[out2]))
    W = W0 + dt * (G_W * (u[:, None] * a) - K_W * W0)
    V = V0 + dt * (G_V * (x_nn[:, None] * (ds * Wa)) - K_V * V0)

    views = (W[W1], V[V1], W[W2], V[V2])
    nets = pair.nets
    bounds = (nets[0].W_max, nets[0].V_max, nets[1].W_max, nets[1].V_max)
    projected = [project_to_ball(M, bound, name)
                 for M, bound, name in zip(views, bounds, BLOCK_NAMES)]
    for view, (M, _) in zip(views, projected):
        if M is not view:
            view[...] = M
    return W, V, [n for _, n in projected]


def listed_step_rk4(state, dt, wrench_fn, params, t=0.0):
    """dynamics.step_rk4 with each stage's 12 values (x, v, phi, Omega) as
    one list, formed by a comprehension and handed to the wrench as slices:
    the reference that step_rk4, with the values in locals, matches bit for
    bit.  Takes and returns the state in the same float form."""
    m = params.m
    x0, v0, R0, Omega0 = state
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = R0
    (J11, J12, J13), (J21, J22, J23), (J31, J32, J33) = params.J_rows
    (K11, K12, K13), (K21, K22, K23), (K31, K32, K33) = params.J_inv_rows

    def rates(ts, y, R):
        _, _, _, v1, v2, v3, p1, p2, p3, w1, w2, w3 = y
        (U1, U2, U3), (M1, M2, M3) = wrench_fn(ts, y[0:3], y[3:6], R, y[9:12])
        c1 = p2 * w3 - p3 * w2
        c2 = p3 * w1 - p1 * w3
        c3 = p1 * w2 - p2 * w1
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

    def attitude(phi):
        (e11, e12, e13), (e21, e22, e23), (e31, e32, e33) = expm_so3(phi)
        return ((a11 * e11 + a12 * e21 + a13 * e31, a11 * e12 + a12 * e22 + a13 * e32,
                 a11 * e13 + a12 * e23 + a13 * e33),
                (a21 * e11 + a22 * e21 + a23 * e31, a21 * e12 + a22 * e22 + a23 * e32,
                 a21 * e13 + a22 * e23 + a23 * e33),
                (a31 * e11 + a32 * e21 + a33 * e31, a31 * e12 + a32 * e22 + a33 * e32,
                 a31 * e13 + a32 * e23 + a33 * e33))

    def stage(ts, h, k):
        y = [a + h * b for a, b in zip(y0, k)]
        return rates(ts, y, attitude(y[6:9]))

    y0 = [*x0, *v0, 0.0, 0.0, 0.0, *Omega0]
    k1 = rates(t, y0, R0)
    k2 = stage(t + 0.5 * dt, 0.5 * dt, k1)
    k3 = stage(t + 0.5 * dt, 0.5 * dt, k2)
    k4 = stage(t + dt, dt, k3)
    sixth = dt / 6.0
    y = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
         for a, b1, b2, b3, b4 in zip(y0, k1, k2, k3, k4)]
    return y[0:3], y[3:6], orthonormalize(attitude(y[6:9])), y[9:12]
