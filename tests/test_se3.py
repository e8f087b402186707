import math

import numpy as np
import pytest
import scipy.linalg

from windquad.errors import DegenerateMatrix, GimbalLock
from windquad.se3 import (attitude_error, computed_to_body, euler_zyx, expm_so3, orthonormalize,
                          rotation_zyx)

from conftest import random_rotation
from oracles import NotSkewSymmetric, attitude_error_jacobian, hat, is_rotation, vee

E1, E2, E3 = np.eye(3)


def test_hat_cross_identity():
    assert np.allclose(hat(E1) @ E2, E3)


def test_hat_skew():
    H = hat([1.0, 2.0, 3.0])
    assert np.allclose(H.T + H, np.zeros((3, 3)))


def test_hat_vee_roundtrip():
    v = np.array([0.3, -1.2, 5.0])
    assert np.allclose(vee(hat(v)), v)


def test_hat_matches_cross_random(rng):
    for _ in range(200):
        v, w = rng.standard_normal(3), rng.standard_normal(3)
        assert np.allclose(hat(v) @ w, np.cross(v, w), atol=1e-14)


def test_vee_zero():
    assert np.allclose(vee(np.zeros((3, 3))), np.zeros(3))


def test_vee_of_hat_e3():
    assert np.allclose(vee(hat(E3)), E3)


def test_vee_rejects_symmetric():
    with pytest.raises(NotSkewSymmetric):
        vee(np.eye(3))


def test_attitude_error_identity():
    e_R, psi = attitude_error(np.eye(3), np.eye(3))
    assert np.allclose(e_R, 0.0)
    assert psi == pytest.approx(0.0, abs=1e-15)


def test_attitude_error_yaw_quarter_turn():
    R = rotation_zyx(math.pi / 2, 0.0, 0.0)
    e_R, psi = attitude_error(R, np.eye(3))
    assert np.allclose(e_R, [0.0, 0.0, 1.0], atol=1e-12)
    assert psi == pytest.approx(1.0, abs=1e-12)


def test_attitude_error_pi_roll_saturates():
    R = rotation_zyx(0.0, 0.0, math.pi)
    _, psi = attitude_error(R, np.eye(3))
    assert psi == pytest.approx(2.0, abs=1e-12)


def test_psi_bounds_random(rng):
    # 0.5 ||e_R||^2 <= psi <= ||e_R||^2 / (2 - psi) whenever psi < 2
    for _ in range(300):
        R = random_rotation(rng, max_angle=0.98 * math.pi)
        R_c = random_rotation(rng, max_angle=0.98 * math.pi)
        e_R, psi = attitude_error(R, R_c)
        e_R = np.array(e_R)
        if psi >= 1.999:
            continue
        n2 = float(e_R @ e_R)
        assert 0.5 * n2 <= psi + 1e-12
        assert psi <= n2 / (2.0 - psi) + 1e-12


def test_error_jacobian_norm_bounded(rng):
    for _ in range(300):
        Q = random_rotation(rng).T @ random_rotation(rng)
        C = attitude_error_jacobian(Q)
        assert np.linalg.norm(C, ord=2) <= 1.0 + 1e-12


def angular_velocity_error(R, R_c, Omega, Omega_c):
    """e_Omega = Omega - R^T R_c Omega_c, as the controller step forms it."""
    return np.subtract(Omega, computed_to_body(R, R_c, Omega_c))


def test_angular_velocity_error_matched():
    R = random_rotation(np.random.default_rng(3))
    Om = np.array([0.1, -0.4, 0.9])
    assert np.allclose(angular_velocity_error(R, R, Om, Om), 0.0, atol=1e-14)


def test_angular_velocity_error_zero_command():
    Om = np.array([0.3, 0.2, -0.1])
    assert np.allclose(angular_velocity_error(np.eye(3), np.eye(3), Om, np.zeros(3)), Om)


def test_angular_velocity_error_rotated_command():
    R_c = rotation_zyx(math.pi / 2, 0.0, 0.0)
    e = angular_velocity_error(np.eye(3), R_c, np.zeros(3), E1)
    assert np.allclose(e, -R_c @ E1, atol=1e-14)
    assert np.allclose(e, [0.0, -1.0, 0.0], atol=1e-14)


def test_euler_identity():
    assert np.allclose(euler_zyx(np.eye(3)), 0.0)


def test_euler_pure_yaw():
    assert np.allclose(euler_zyx(rotation_zyx(0.7, 0.0, 0.0)), [0.7, 0.0, 0.0])


def test_euler_gimbal_lock():
    with pytest.raises(GimbalLock):
        euler_zyx(rotation_zyx(0.0, math.pi / 2, 0.0))


def test_euler_roundtrip_random(rng):
    for _ in range(300):
        ypr = rng.uniform([-math.pi, -1.4, -math.pi], [math.pi, 1.4, math.pi])
        R = rotation_zyx(*ypr)
        assert np.linalg.norm(rotation_zyx(*euler_zyx(R)) - R) < 1e-9


def test_expm_quarter_turn():
    R = expm_so3([0.0, 0.0, math.pi / 2])
    assert np.allclose(R, rotation_zyx(math.pi / 2, 0.0, 0.0), atol=1e-14)


def test_expm_small_angle_series(rng):
    v = 1e-6 * rng.standard_normal(3)
    R = np.array(expm_so3(v))
    assert is_rotation(R, tol=1e-14)
    assert np.allclose(vee(0.5 * (R - R.T)), v, atol=1e-15)


def test_expm_matches_matrix_exponential(rng):
    # the float Rodrigues entries against a general-purpose expm, on both
    # sides of the series switch at theta^2 = 1e-8 and up to theta = 3
    for theta in np.concatenate(([1e-9, 1e-5, 9.9e-5, 1.01e-4], rng.uniform(0.0, 3.0, 50))):
        axis = rng.standard_normal(3)
        phi = theta * axis / np.linalg.norm(axis)
        R = np.array(expm_so3(phi.tolist()))
        assert np.allclose(R, scipy.linalg.expm(hat(phi)), rtol=0.0, atol=1e-14)
        assert is_rotation(R, tol=1e-14)


@pytest.mark.parametrize("phi", [[math.inf, 0.0, 0.0], [0.0, math.nan, 0.0],
                                 [1e200, 0.0, 0.0], [-math.inf, math.inf, 1.0]])
def test_expm_rejects_non_finite_chart(phi):
    with pytest.raises(DegenerateMatrix, match=r"finite norm"):
        expm_so3(phi)


def test_orthonormalize_idempotent(rng):
    R = random_rotation(rng)
    assert np.linalg.norm(np.array(orthonormalize(R)) - R) < 1e-14


def test_orthonormalize_removes_scale():
    assert np.allclose(orthonormalize(1.001 * np.eye(3)), np.eye(3), atol=1e-14)


def test_orthonormalize_matches_polar_oracle(rng):
    for _ in range(50):
        R = random_rotation(rng)
        M = R + 1e-6 * rng.standard_normal((3, 3))
        Q = np.array(orthonormalize(M))
        assert np.linalg.norm(Q.T @ Q - np.eye(3)) < 1e-14
        U, _ = scipy.linalg.polar(M)
        assert np.allclose(Q, U, atol=1e-12)


def test_orthonormalize_rejects_non_finite_entries():
    # diag(inf, 1, 1) has det +inf, which passes the determinant check, and
    # np.linalg.svd does not return on it: the entries are checked before it
    for M in (np.diag([np.inf, 1.0, 1.0]), np.diag([1.0, np.inf, np.inf]),
              expm_so3([0.3, -0.2, 1.1]) + np.diag([0.0, 0.0, np.inf])):
        with pytest.raises(DegenerateMatrix, match=r"must be finite"):
            orthonormalize(M)
    with np.errstate(invalid="ignore"), pytest.raises(DegenerateMatrix, match=r"got nan"):
        orthonormalize(np.diag([np.nan, 1.0, 1.0]))


def test_orthonormalize_determinant_sign_matches_lapack(rng):
    # the cofactor determinant decides as np.linalg.det does wherever
    # |det| > 1e-9: a negative one is rejected by name, a positive one is
    # not; near-singular matrices are drawn as two random rows and a third
    # close to their span
    checked = 0
    for k in range(4000):
        M = rng.standard_normal((3, 3))
        if k % 2:
            M[2] = rng.standard_normal() * M[0] + rng.standard_normal() * M[1]
            M[2] += 10.0 ** rng.uniform(-9.0, -6.0) * rng.standard_normal(3)
        det = np.linalg.det(M)
        if abs(det) <= 1e-9:
            continue
        checked += 1
        if det < 0.0:
            with pytest.raises(DegenerateMatrix, match=r"determinant must be positive"):
                orthonormalize(M)
        else:
            try:
                orthonormalize(M)
            except DegenerateMatrix as exc:
                assert "determinant" not in str(exc)
    assert checked > 3000


def test_orthonormalize_rows_match_array_form(rng):
    # the integrator's close passes three rows of floats and gets three
    # tuples back: the same rotation, bitwise, and the same errors
    for scale in (1.0, 1.0 + 1e-7, 3.0):
        for _ in range(50):
            M = scale * (random_rotation(rng) + 1e-9 * rng.standard_normal((3, 3)))
            got = orthonormalize(tuple(map(tuple, M.tolist())))
            assert type(got) is tuple and all(type(r) is tuple for r in got)
            assert np.array_equal(np.array(got), orthonormalize(M))
    for M in (np.diag([1.0, np.inf, np.inf]), np.diag([1.0, 1.0, -1.0])):
        with pytest.raises(DegenerateMatrix) as from_array:
            orthonormalize(M)
        with pytest.raises(DegenerateMatrix) as from_rows:
            orthonormalize(M.tolist())
        assert str(from_rows.value) == str(from_array.value)


def test_orthonormalize_keeps_rotations_and_far_inputs(rng):
    # at the rounding level a rotation comes back bitwise; a huge or far
    # (non-polar-Newton) input still takes the SVD
    for _ in range(200):
        R = random_rotation(rng)
        if np.linalg.norm(R.T @ R - np.eye(3)) < 5e-16:
            assert np.array_equal(np.array(orthonormalize(R)), R)
        for scale in (0.5, 3.0, 1e80):
            assert np.allclose(orthonormalize(scale * R), R, atol=1e-14)


def test_orthonormalize_rejects_reflections():
    with pytest.raises(DegenerateMatrix):
        orthonormalize(np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(DegenerateMatrix):
        orthonormalize(np.diag([1.0, 1.0, 0.0]))
