import math

import numpy as np
import pytest

from windquad.aero import RotorAeroParams
from windquad.dynamics import QuadParams

from oracles import pack_state


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def quad():
    return QuadParams(m=0.5, J=np.diag([0.006, 0.006, 0.011]),
                      d_h=0.15, d_v=-0.02, g=9.81)


@pytest.fixture
def aero_s01():
    """Rotor params with solidity exactly 0.1 (reference blade geometry)."""
    r_p = 0.12
    chord = 0.1 * math.pi * r_p / 2
    return RotorAeroParams(r_p=r_p, N_b=2, chord=chord, C_la=5.7, theta0=0.2,
                           C_D0=0.01, C_alpha=0.05, K_beta=0.05, C_d=0.5)


def random_rotation(rng, max_angle=math.pi):
    """Uniform-axis random rotation with angle up to max_angle."""
    from windquad.se3 import expm_so3
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, max_angle)
    return np.array(expm_so3(angle * axis))


def random_inertia(rng):
    """A full symmetric positive-definite inertia about the default scale."""
    Q = random_rotation(rng)
    J = Q @ np.diag(rng.uniform(0.004, 0.02, 3)) @ Q.T
    return 0.5 * (J + J.T)


def at_rest():
    """Packed state at the origin, at rest, with R = I."""
    return pack_state(np.zeros(3), np.zeros(3), np.eye(3), np.zeros(3))
