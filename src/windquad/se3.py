"""Rotation-group primitives: attitude errors, Euler angles, the rotation
exponential and the projection onto SO(3).

Conventions
-----------
Rotation matrices map body-frame coordinates to inertial-frame coordinates
(R^T R = I, det R = +1).  Euler angles use the intrinsic Z-Y-X
(yaw-pitch-roll) sequence.  All angles in radians.

The functions that the controller step, the integrator and the network
inputs call work in Python floats: attitude_error, computed_to_body,
expm_so3, orthonormalize and euler_zyx take 3-sequences of floats and 3x3
matrices as three rows of floats (arrays too), and return floats, a matrix
as three rows.  rotation_zyx, which the
config loader calls, returns an array.
"""

import math

import numpy as np

from .errors import DegenerateMatrix, GimbalLock

GIMBAL_TOL = 1e-6

#: ||R^T R - I||_F at which orthonormalize counts R as closed: a few units
#: of rounding (a Newton-Schulz step leaves at most 8.3e-16 near SO(3))
ROUNDING_DEFECT = 1e-15
#: ||M^T M - I||_F below which orthonormalize uses Newton-Schulz steps
#: (four reach ROUNDING_DEFECT from the edge); farther inputs take the SVD
POLAR_NEWTON_RANGE = 0.1
#: step cap, after which the SVD takes over
POLAR_NEWTON_STEPS = 6


def attitude_error(R, R_c):
    """Attitude error vector and configuration error of R relative to R_c.

    R and R_c are 3x3: three rows of floats, or arrays.

    Returns
    -------
    e_R : three floats
        0.5 * (R_c^T R - R^T R_c)^vee.
    psi : float
        0.5 * tr(I - R_c^T R), in [0, 2]; zero iff R == R_c.
    """
    (r11, r12, r13), (r21, r22, r23), (r31, r32, r33) = R
    (c11, c12, c13), (c21, c22, c23), (c31, c32, c33) = R_c
    # Q = R_c^T R, entry by entry
    q11 = c11 * r11 + c21 * r21 + c31 * r31
    q22 = c12 * r12 + c22 * r22 + c32 * r32
    q33 = c13 * r13 + c23 * r23 + c33 * r33
    q12 = c11 * r12 + c21 * r22 + c31 * r32
    q21 = c12 * r11 + c22 * r21 + c32 * r31
    q13 = c11 * r13 + c21 * r23 + c31 * r33
    q31 = c13 * r11 + c23 * r21 + c33 * r31
    q23 = c12 * r13 + c22 * r23 + c32 * r33
    q32 = c13 * r12 + c23 * r22 + c33 * r32
    e_R = (0.5 * (q32 - q23), 0.5 * (q13 - q31), 0.5 * (q21 - q12))
    return e_R, 0.5 * ((1.0 - q11) + (1.0 - q22) + (1.0 - q33))


def computed_to_body(R, R_c, w):
    """R^T R_c w, a vector of the computed frame in body coordinates, as three
    floats.  R and R_c are 3x3 (arrays or three rows of floats), w a
    3-sequence."""
    (r11, r12, r13), (r21, r22, r23), (r31, r32, r33) = R
    (c11, c12, c13), (c21, c22, c23), (c31, c32, c33) = R_c
    w1, w2, w3 = w
    u1 = c11 * w1 + c12 * w2 + c13 * w3
    u2 = c21 * w1 + c22 * w2 + c23 * w3
    u3 = c31 * w1 + c32 * w2 + c33 * w3
    return (r11 * u1 + r21 * u2 + r31 * u3, r12 * u1 + r22 * u2 + r32 * u3,
            r13 * u1 + r23 * u2 + r33 * u3)


def rotation_zyx(yaw, pitch, roll):
    """Rotation matrix for intrinsic Z-Y-X angles (yaw, pitch, roll)."""
    cy, sy = np.cos(yaw), np.sin(yaw)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cr, sr = np.cos(roll), np.sin(roll)
    Rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    Ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    Rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    return Rz @ Ry @ Rx


def euler_zyx(R, tol=GIMBAL_TOL):
    """Intrinsic Z-Y-X (yaw, pitch, roll) angles of a rotation matrix, as
    three floats.  R is 3x3: three rows of floats, or an array.

    Raises
    ------
    GimbalLock
        If |cos(pitch)| < tol, i.e. pitch within ~tol of +-pi/2.
    """
    (r11, _, _), (r21, _, _), (r31, r32, r33) = R
    sp = min(1.0, max(-1.0, -r31))
    cp = math.sqrt(max(0.0, 1.0 - sp * sp))
    if cp < tol:
        raise GimbalLock(f"|cos(pitch)| = {cp:.2e} < {tol:.1e}")
    return math.atan2(r21, r11), math.asin(sp), math.atan2(r32, r33)


def expm_so3(phi):
    """Rotation exponential exp(hat(phi)) via the Rodrigues formula.

    phi is a 3-sequence of floats: the integrator passes the chart of an
    RK4 stage as a list.  Returns I + a hat(phi) + b (phi phi^T - theta^2 I)
    as three rows of floats.

    Raises
    ------
    DegenerateMatrix
        If |phi|^2 is not finite (a NaN or infinite chart).
    """
    p1, p2, p3 = phi
    q1, q2, q3 = p1 * p1, p2 * p2, p3 * p3
    theta2 = q1 + q2 + q3
    if theta2 < 1e-8:
        # series keeps full double accuracy for theta < 1e-4
        a = 1.0 - theta2 / 6.0 * (1.0 - theta2 / 20.0)
        b = 0.5 * (1.0 - theta2 / 12.0 * (1.0 - theta2 / 30.0))
    elif theta2 < math.inf:
        theta = math.sqrt(theta2)
        a = math.sin(theta) / theta
        b = (1.0 - math.cos(theta)) / theta2
    else:
        raise DegenerateMatrix(f"rotation vector must have a finite norm, got |phi|^2 = {theta2}")
    s1, s2, s3 = a * p1, a * p2, a * p3
    b12, b13, b23 = b * p1 * p2, b * p1 * p3, b * p2 * p3
    return ((1.0 - b * (q2 + q3), b12 - s3, b13 + s2),
            (b12 + s3, 1.0 - b * (q1 + q3), b23 - s1),
            (b13 - s2, b23 + s1, 1.0 - b * (q1 + q2)))


def orthonormalize(M):
    """Closest rotation matrix in the polar/SVD sense, as three rows of floats.

    M is 3x3: three rows of floats as the integrator's close passes them,
    or an array; its entries are read as Python floats, on which an
    overflow or 0 * inf gives inf or NaN without a numpy warning.  The
    determinant is a cofactor expansion in floats.  After its check, a
    matrix near SO(3) (||M^T M - I||_F < POLAR_NEWTON_RANGE) takes
    Newton-Schulz steps R <- R (3I - R^T R) / 2, which converge
    quadratically to the polar factor, until ||R^T R - I||_F is at most
    ROUNDING_DEFECT; a rotation already there is returned unchanged.  A
    farther matrix takes the SVD, once its entries are checked finite (a
    non-finite one is never near).

    Raises
    ------
    DegenerateMatrix
        If det M is not positive (NaN included), an entry is not finite, or
        M is near rank-deficient.
    """
    r1, r2, r3 = M
    entries = a, b, c, d, e, f, g, h, i = tuple(map(float, (*r1, *r2, *r3)))
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    # a cofactor holds 0 * inf = NaN on some infinite entries, where an LU
    # determinant is +-inf: without a NaN entry, the finiteness check below
    # names such a matrix
    if not det > 0.0 and (det == det or any(x != x for x in entries)):
        raise DegenerateMatrix(f"determinant must be positive, got {det}")
    for steps in range(POLAR_NEWTON_STEPS + 1):
        # Gram matrix G = R^T R and ||G - I||_F^2, in floats
        g11, g22, g33 = a * a + d * d + g * g, b * b + e * e + h * h, c * c + f * f + i * i
        g12, g13, g23 = a * b + d * e + g * h, a * c + d * f + g * i, b * c + e * f + h * i
        x11, x22, x33 = g11 - 1.0, g22 - 1.0, g33 - 1.0
        # products, not ** 2, which raises OverflowError on a huge entry
        defect2 = (x11 * x11 + x22 * x22 + x33 * x33
                   + 2.0 * (g12 * g12 + g13 * g13 + g23 * g23))
        if defect2 <= ROUNDING_DEFECT ** 2:
            return (a, b, c), (d, e, f), (g, h, i)
        # a non-finite M gives a NaN or infinite defect and leaves here too
        if steps == POLAR_NEWTON_STEPS or not defect2 < POLAR_NEWTON_RANGE ** 2:
            break
        # R (3I - G) / 2 = R H, H symmetric
        h11, h22, h33 = 1.5 - 0.5 * g11, 1.5 - 0.5 * g22, 1.5 - 0.5 * g33
        h12, h13, h23 = -0.5 * g12, -0.5 * g13, -0.5 * g23
        a, b, c = (a * h11 + b * h12 + c * h13, a * h12 + b * h22 + c * h23,
                   a * h13 + b * h23 + c * h33)
        d, e, f = (d * h11 + e * h12 + f * h13, d * h12 + e * h22 + f * h23,
                   d * h13 + e * h23 + f * h33)
        g, h, i = (g * h11 + h * h12 + i * h13, g * h12 + h * h22 + i * h23,
                   g * h13 + h * h23 + i * h33)

    rows = [list(entries[k:k + 3]) for k in (0, 3, 6)]
    if not all(map(math.isfinite, entries)):
        # an infinite entry can pass the determinant check (diag(inf, 1, 1)
        # has det +inf), and np.linalg.svd does not return on it
        raise DegenerateMatrix(f"matrix entries must be finite, got {rows}")
    U, s, Vt = np.linalg.svd(np.array(rows))
    if s[-1] < 1e-12 * max(1.0, s[0]):
        raise DegenerateMatrix("matrix is near rank-deficient")
    R = U @ Vt
    if np.linalg.det(R) < 0.0:
        # det M > 0 makes this unreachable for well-conditioned inputs,
        # kept as a hard guarantee of det(+1)
        U[:, -1] = -U[:, -1]
        R = U @ Vt
    return tuple(tuple(map(float, row)) for row in R)
