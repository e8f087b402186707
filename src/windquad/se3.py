"""Rotation-group primitives: hat/vee maps, attitude errors, Euler angles.

Conventions
-----------
Rotation matrices map body-frame coordinates to inertial-frame coordinates
(R^T R = I, det R = +1).  Euler angles use the intrinsic Z-Y-X
(yaw-pitch-roll) sequence.  All angles in radians.

Vectors and matrices are float ndarrays and are used as given; only
expm_so3 converts its argument.
"""

import numpy as np

from .errors import DegenerateMatrix, GimbalLock, NotSkewSymmetric

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])

ROTATION_TOL = 1e-9
SKEW_TOL = 1e-8
GIMBAL_TOL = 1e-6


def hat(v):
    """Skew-symmetric matrix such that hat(v) @ w == cross(v, w)."""
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def cross3(a, b):
    """Cross product of two 3-vectors; avoids np.cross axis overhead."""
    return np.array([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


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


def is_rotation(R, tol=ROTATION_TOL):
    """True if R satisfies the rotation-matrix invariants within tol."""
    if R.shape != (3, 3):
        return False
    if np.linalg.norm(R.T @ R - np.eye(3)) > tol:
        return False
    return abs(np.linalg.det(R) - 1.0) <= tol


def attitude_error(R, R_c):
    """Attitude error vector and configuration error of R relative to R_c.

    Returns
    -------
    e_R : (3,) ndarray
        0.5 * (R_c^T R - R^T R_c)^vee.
    psi : float
        0.5 * tr(I - R_c^T R), in [0, 2]; zero iff R == R_c.
    """
    Q = R_c.T @ R
    e_R = 0.5 * np.array([Q[2, 1] - Q[1, 2], Q[0, 2] - Q[2, 0], Q[1, 0] - Q[0, 1]])
    psi = 0.5 * np.trace(np.eye(3) - Q)
    return e_R, psi


def angular_velocity_error(R, R_c, Omega, Omega_c):
    """Body angular velocity error Omega - R^T R_c Omega_c."""
    return Omega - R.T @ R_c @ Omega_c


def attitude_error_jacobian(Q):
    """Matrix C(Q) = 0.5 (tr(Q) I - Q) appearing in the e_R rate equation.

    For Q in SO(3) its operator norm is at most one.
    """
    return 0.5 * (np.trace(Q) * np.eye(3) - Q)


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
    """Intrinsic Z-Y-X (yaw, pitch, roll) angles of a rotation matrix.

    Raises
    ------
    GimbalLock
        If |cos(pitch)| < tol, i.e. pitch within ~tol of +-pi/2.
    """
    sp = -R[2, 0]
    sp = min(1.0, max(-1.0, sp))
    cp = np.sqrt(max(0.0, 1.0 - sp * sp))
    if cp < tol:
        raise GimbalLock(f"|cos(pitch)| = {cp:.2e} < {tol:.1e}")
    pitch = np.arcsin(sp)
    yaw = np.arctan2(R[1, 0], R[0, 0])
    roll = np.arctan2(R[2, 1], R[2, 2])
    return np.array([yaw, pitch, roll])


def expm_so3(phi):
    """Rotation exponential exp(hat(phi)) via the Rodrigues formula.

    phi may be any 3-sequence of floats: the integrator passes the chart of
    an RK4 stage as a list, and this is where it becomes an array.
    """
    phi = np.asarray(phi, dtype=float)
    theta2 = float(phi @ phi)
    K = hat(phi)
    if theta2 < 1e-8:
        # series keeps full double accuracy for theta < 1e-4
        a = 1.0 - theta2 / 6.0 * (1.0 - theta2 / 20.0)
        b = 0.5 * (1.0 - theta2 / 12.0 * (1.0 - theta2 / 30.0))
    else:
        theta = np.sqrt(theta2)
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / theta2
    return np.eye(3) + a * K + b * (K @ K)


def orthonormalize(M):
    """Closest rotation matrix in the polar/SVD sense.

    Idempotent on valid rotations.

    Raises
    ------
    DegenerateMatrix
        If det M is not positive (NaN included) or M is near rank-deficient.
    """
    det = np.linalg.det(M)
    if not det > 0.0:
        raise DegenerateMatrix(f"determinant must be positive, got {det}")
    U, s, Vt = np.linalg.svd(M)
    if s[-1] < 1e-12 * max(1.0, s[0]):
        raise DegenerateMatrix("matrix is near rank-deficient")
    R = U @ Vt
    if np.linalg.det(R) < 0.0:
        # det M > 0 makes this unreachable for well-conditioned inputs,
        # kept as a hard guarantee of det(+1)
        U[:, -1] = -U[:, -1]
        R = U @ Vt
    return R
