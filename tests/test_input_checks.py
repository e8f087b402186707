"""Input checks at their boundary values, and the raises no run reaches.

Each check rejects the boundary value itself (a bound of 0.0, psi1 = 2), so
a `<=` that turned into `<` would let it through.
"""

import re

import numpy as np
import pytest

from windquad.adaptive import (AdaptationGains, NetworkPair, NNWeights, build_network_input,
                               nn_output, project_to_ball, update_weights)
from windquad.config import load_config
from windquad.dynamics import QuadParams
from windquad.errors import DimensionMismatch, ParseError
from windquad.stability import validate_c1, validate_c2

J = np.diag([0.02, 0.02, 0.04])


@pytest.mark.parametrize("c2, k_R, psi1, named", [
    (0.0, 8.0, 0.5, "inputs must be positive"),
    (0.5, 0.0, 0.5, "inputs must be positive"),
    (0.5, 8.0, 2.0, "psi1 must be below 2"),
])
def test_validate_c2_rejects_the_boundary(c2, k_R, psi1, named):
    with pytest.raises(ValueError, match=named):
        validate_c2(c2, k_R, J, psi1)


@pytest.mark.parametrize("c1, k_x, m", [(0.0, 16.0, 4.0), (1.0, 0.0, 4.0), (1.0, 16.0, 0.0)])
def test_validate_c1_rejects_non_positive_inputs(c1, k_x, m):
    with pytest.raises(ValueError, match="inputs must be positive"):
        validate_c1(c1, k_x, m)


@pytest.mark.parametrize("M", [np.zeros((3, 2)), np.ones((3, 2))])
def test_project_to_ball_rejects_a_zero_bound(M):
    with pytest.raises(ValueError, match="bound must be positive"):
        project_to_ball(M, 0.0)


@pytest.mark.parametrize("bounds", [{"W_max": 0.0}, {"V_max": 0.0}])
def test_weights_reject_a_zero_norm_bound(bounds):
    with pytest.raises(ValueError, match="norm bounds must be positive"):
        NNWeights.zeros(**bounds)


def test_weights_reject_mismatched_shapes():
    # W has one row per hidden unit plus the bias: 11 rows for 10 units
    with pytest.raises(DimensionMismatch, match=r"W \(10, 3\) incompatible with V \(7, 10\)"):
        NNWeights(W=np.zeros((10, 3)), V=np.zeros((7, 10)))


def test_update_weights_rejects_a_zero_step():
    gains = (AdaptationGains(gamma_w=4.0, gamma_v=2.0, kappa=0.1),
             AdaptationGains(gamma_w=3.0, gamma_v=6.0, kappa=0.2))
    pair = NetworkPair(NNWeights.zeros(), NNWeights.zeros(), gains)
    x_nn, _ = build_network_input(np.zeros(3), np.zeros(3), np.eye(3), np.zeros(3))
    _, features = nn_output(pair, x_nn)
    with pytest.raises(ValueError, match="dt must be positive"):
        update_weights(pair, x_nn, features, np.zeros(6), 0.0)


def test_quad_params_reject_an_asymmetric_inertia():
    J_skewed = J.copy()
    J_skewed[0, 1] = 1e-3
    with pytest.raises(ValueError, match="J must be symmetric 3x3"):
        QuadParams(J=J_skewed)


@pytest.mark.parametrize("section, key, raw, error", [
    ("initial", "x", "1 2", "expected 3 components, got 2"),
    ("quad", "inertia", "0.006 0 0 0.006", "inertia needs 3 (diagonal) or 9 entries, got 4"),
])
def test_load_config_rejects_a_wrong_length(section, key, raw, error):
    with pytest.raises(ParseError, match=re.escape(f"[{section}] {key}: {error}")):
        load_config(overrides={(section, key): raw})
