"""Test oracles: functions that only the tests call.

Each restates a quantity of the model in its plain numpy or closed form,
for the tests to check the simulator's own (float) code against.
"""

import math

import numpy as np

from windquad.aero import _ct_of_lambda
from windquad.errors import WindquadError

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
