import numpy as np
import pytest

from windquad.adaptive import (AdaptationGains, NNWeights,
                               build_attitude_input, build_position_input,
                               nn_output, project_to_ball, sigmoid_features,
                               update_weights)
from windquad.errors import DimensionMismatch, GimbalLock, NonFiniteWeights
from windquad.se3 import rotation_zyx


def output(w, x_nn):
    """Output of one network through the sequence interface."""
    [(y, _)] = nn_output([w], [x_nn])
    return y


def update(w, x_nn, a, gains, dt):
    """update_weights fed with the forward pass of nn_output."""
    [(_, features)] = nn_output([w], [x_nn])
    return update_weights(w, x_nn, features, a, gains, dt)


# --- features ----------------------------------------------------------------

def test_sigmoid_at_zero():
    sigma, ds = sigmoid_features(np.zeros(2))
    assert np.allclose(sigma, [1.0, 0.5, 0.5])
    assert np.allclose(ds, [0.25, 0.25])


def test_sigmoid_saturation():
    sigma, ds = sigmoid_features(np.array([50.0, 80.0, 800.0]))
    assert np.allclose(sigma, [1.0, 1.0, 1.0, 1.0], atol=1e-15)
    assert np.allclose(ds, 0.0, atol=1e-15)
    # and the negative side must not overflow
    sigma, _ = sigmoid_features(np.array([-800.0]))
    assert sigma[1] == pytest.approx(0.0, abs=1e-15)


def test_sigmoid_jacobian_central_difference(rng):
    z = rng.standard_normal(6)
    _, ds = sigmoid_features(z)
    assert ds.shape == (6,)
    h = 1e-5
    for k in range(6):
        e = np.zeros(6)
        e[k] = h
        sp, _ = sigmoid_features(z + e)
        sm, _ = sigmoid_features(z - e)
        # column k of the Jacobian: ds_k in row k + 1, zero elsewhere
        column = np.zeros(7)
        column[k + 1] = ds[k]
        assert np.allclose((sp - sm) / (2 * h), column, atol=1e-8)


# --- forward pass ------------------------------------------------------------

def test_output_zero_weights():
    w = NNWeights.zeros()
    assert np.allclose(output(w, build_position_input(np.ones(3), np.ones(3))), 0.0)


def test_output_hand_value():
    # V = 0, two hidden units, all-ones single output column: 1 + 0.5 + 0.5
    w = NNWeights(W=np.ones((3, 1)), V=np.zeros((3, 2)))
    x = np.array([1.0, 0.3, -0.7])
    assert output(w, x)[0] == pytest.approx(2.0)


def test_output_bounded(rng):
    w = NNWeights.random(rng, W_norm=2.0, V_norm=3.0, W_max=2.0, V_max=3.0)
    cap = w.W_max * np.sqrt(w.n_hidden + 1.0)   # ||W||_F ||sigma||
    for _ in range(50):
        x = np.concatenate(([1.0], rng.standard_normal(6) * 100))
        assert np.linalg.norm(output(w, x)) <= cap + 1e-12


def test_output_dimension_check():
    w = NNWeights.zeros()
    with pytest.raises(DimensionMismatch):
        output(w, np.zeros(5))


def test_output_lipschitz_in_input(rng):
    w = NNWeights.random(rng, W_norm=1.5, V_norm=2.5, W_max=1.5, V_max=2.5)
    L = 0.25 * w.W_max * w.V_max
    for _ in range(100):
        x = rng.standard_normal(7)
        dx = rng.standard_normal(7) * 1e-4
        dy = output(w, x + dx) - output(w, x)
        assert np.linalg.norm(dy) <= L * np.linalg.norm(dx) * (1 + 1e-6)


# --- input builders ----------------------------------------------------------

def test_position_input_zero():
    assert np.allclose(build_position_input(np.zeros(3), np.zeros(3)),
                       [1, 0, 0, 0, 0, 0, 0])


def test_position_input_concatenation():
    x_nn = build_position_input([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert np.allclose(x_nn, [1, 1, 2, 3, 4, 5, 6])
    assert x_nn[0] == 1.0


def test_attitude_input_identity():
    x_nn, angles = build_attitude_input(np.eye(3), np.zeros(3))
    assert np.allclose(x_nn, [1, 0, 0, 0, 0, 0, 0])
    assert np.allclose(angles, 0.0)


def test_attitude_input_yaw():
    R = rotation_zyx(0.3, 0.0, 0.0)
    x_nn, _ = build_attitude_input(R, np.array([0.0, 0.0, 1.0]))
    assert np.allclose(x_nn, [1, 0.3, 0, 0, 0, 0, 1], atol=1e-12)


def test_attitude_input_gimbal_fallback():
    R = rotation_zyx(0.0, np.pi / 2, 0.0)
    with pytest.raises(GimbalLock):
        build_attitude_input(R, np.zeros(3))
    last = np.array([0.1, 1.5, -0.2])
    x_nn, angles = build_attitude_input(R, np.zeros(3), fallback_angles=last)
    assert np.allclose(angles, last)
    assert np.allclose(x_nn[1:4], last)


# --- projection --------------------------------------------------------------

def test_projection_scales_down():
    M = np.full((2, 2), 5.0)
    out = project_to_ball(M, 5.0)
    assert np.linalg.norm(out) <= 5.0
    assert np.allclose(out, M * (5.0 / np.linalg.norm(M)), atol=1e-12)


def test_projection_identity_inside():
    M = np.eye(2)
    assert project_to_ball(M, 5.0) is M


def test_projection_idempotent(rng):
    M = rng.standard_normal((4, 3)) * 10
    once = project_to_ball(M, 2.0)
    twice = project_to_ball(once, 2.0)
    assert np.allclose(once, twice)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_projection_rejects_non_finite(bad):
    # radial scaling by bound / inf would turn [[inf, 1]] into [[nan, 0]]
    with pytest.raises(NonFiniteWeights, match=r"^nn1\.W has Frobenius norm"):
        project_to_ball(np.array([[bad, 1.0]]), 5.0, "nn1.W")


# --- update law --------------------------------------------------------------

def test_update_damping_only(rng):
    w = NNWeights.random(rng, W_norm=0.5, V_norm=0.5, W_max=1.0, V_max=1.0)
    g = AdaptationGains(gamma_w=4.0, gamma_v=2.0, kappa=0.1)
    dt = 1e-3
    x_nn = build_position_input(rng.standard_normal(3), rng.standard_normal(3))
    out = update(w, x_nn, np.zeros(3), g, dt)
    assert np.allclose(out.W, (1 - g.kappa * g.gamma_w * dt) * w.W, atol=1e-14)
    assert np.allclose(out.V, (1 - g.kappa * g.gamma_v * dt) * w.V, atol=1e-14)


def test_update_from_zero_weights():
    w = NNWeights.zeros(n_in=6, n_hidden=2, n_out=3)
    g = AdaptationGains(gamma_w=4.0, gamma_v=2.0, kappa=0.1)
    a = np.array([0.5, -0.2, 0.1])
    x_nn = build_position_input(np.ones(3), np.zeros(3))
    out = update(w, x_nn, a, g, 1e-3)
    sigma0 = np.array([1.0, 0.5, 0.5])
    assert np.allclose(out.V, 0.0)
    assert np.allclose(out.W, -g.gamma_w * 1e-3 * np.outer(sigma0, a), atol=1e-15)


def test_update_respects_bounds(rng):
    w = NNWeights.zeros(n_in=6, n_hidden=10, n_out=3, W_max=0.05, V_max=0.05)
    g = AdaptationGains(gamma_w=50.0, gamma_v=50.0, kappa=0.01)
    for _ in range(500):
        x_nn = build_position_input(rng.standard_normal(3), rng.standard_normal(3))
        a = rng.standard_normal(3)
        w = update(w, x_nn, a, g, 1e-3)
        Wn, Vn = w.norms()
        assert Wn <= w.W_max and Vn <= w.V_max


def test_geometric_decay_with_zero_error(rng):
    w = NNWeights.random(rng, W_norm=0.5, V_norm=0.5, W_max=1.0, V_max=1.0)
    g = AdaptationGains(gamma_w=4.0, gamma_v=2.0, kappa=0.5)
    dt = 1e-3
    x_nn = build_position_input(np.zeros(3), np.zeros(3))
    Wn0, Vn0 = w.norms()
    n = 200
    for _ in range(n):
        w = update(w, x_nn, np.zeros(3), g, dt)
    Wn, Vn = w.norms()
    assert Wn == pytest.approx(Wn0 * (1 - g.kappa * g.gamma_w * dt) ** n, rel=1e-9)
    assert Vn == pytest.approx(Vn0 * (1 - g.kappa * g.gamma_v * dt) ** n, rel=1e-9)


def test_update_dimension_check():
    w = NNWeights.zeros()
    g = AdaptationGains()
    with pytest.raises(DimensionMismatch):
        update(w, np.zeros(7), np.zeros(2), g, 1e-3)


# --- offline approximation sanity -------------------------------------------

def test_architecture_fits_smooth_function(rng):
    # train the same three-layer structure offline on sin(x1) + x2^2;
    # validates the forward pass and Jacobians, not the online law
    def target(p):
        return np.sin(p[:, 0]) + p[:, 1] ** 2

    grid = np.linspace(-1.0, 1.0, 21)
    P = np.array([[a, b] for a in grid for b in grid])
    y = target(P)
    X = np.column_stack([np.ones(len(P)), P])          # bias + two inputs

    n_h = 10
    W = 0.5 * rng.standard_normal((n_h + 1, 1))
    V = 0.5 * rng.standard_normal((3, n_h))

    def forward(W, V):
        Z = X @ V                                      # (n, n_h)
        S = 1.0 / (1.0 + np.exp(-Z))
        feats = np.column_stack([np.ones(len(P)), S])  # (n, n_h+1)
        return feats, S, (feats @ W)[:, 0]

    # plain Adam on mean squared error
    mW = np.zeros_like(W); vW = np.zeros_like(W)
    mV = np.zeros_like(V); vV = np.zeros_like(V)
    b1, b2, lr, eps = 0.9, 0.999, 0.05, 1e-8
    for it in range(1, 4001):
        feats, S, pred = forward(W, V)
        err = pred - y
        gW = (feats.T @ err)[:, None] / len(P)
        dS = S * (1.0 - S)
        gV = X.T @ ((err[:, None] * W[1:, 0][None, :]) * dS) / len(P)
        mW = b1 * mW + (1 - b1) * gW; vW = b2 * vW + (1 - b2) * gW ** 2
        mV = b1 * mV + (1 - b1) * gV; vV = b2 * vV + (1 - b2) * gV ** 2
        W -= lr * (mW / (1 - b1 ** it)) / (np.sqrt(vW / (1 - b2 ** it)) + eps)
        V -= lr * (mV / (1 - b1 ** it)) / (np.sqrt(vV / (1 - b2 ** it)) + eps)

    _, _, pred = forward(W, V)
    assert np.max(np.abs(pred - y)) <= 0.05


# --- one forward pass for a sequence of networks -----------------------------

def separate_output(w, x_nn):
    """One network evaluated on its own sigmoid_features call."""
    z = w.V.T @ x_nn
    sigma, ds = sigmoid_features(z)
    return w.W.T @ sigma, z, sigma, ds


@pytest.mark.parametrize("hidden", [(10, 10), (10, 7), (1, 17)])
def test_stacked_output_matches_separate(rng, hidden):
    for _ in range(2000):
        nets = [NNWeights.random(rng, n_hidden=h, W_norm=rng.uniform(0.1, 3.0),
                                 V_norm=rng.uniform(0.1, 5.0)) for h in hidden]
        inputs = [np.concatenate(([1.0], 10.0 * rng.standard_normal(6))) for _ in nets]
        for (y, features), w, x_nn in zip(nn_output(nets, inputs), nets, inputs):
            for got, ref in zip((y, *features), separate_output(w, x_nn)):
                assert np.array_equal(got, ref)


def test_stacked_output_dimension_check():
    with pytest.raises(DimensionMismatch):
        nn_output([NNWeights.zeros(), NNWeights.zeros()], [np.zeros(7), np.zeros(5)])


# --- reference: the update law recomputing its forward pass ------------------

def reference_update_weights(w, x_nn, a, gains, dt):
    """update_weights evaluating z = V^T x_nn and its features itself."""
    z = w.V.T @ x_nn
    sigma, ds = sigmoid_features(z)
    W_dot = (-gains.gamma_w * np.outer(sigma - np.concatenate(([0.0], ds * z)), a)
             - gains.kappa * gains.gamma_w * w.W)
    V_dot = (-gains.gamma_v * np.outer(x_nn, ds * (w.W[1:] @ a))
             - gains.kappa * gains.gamma_v * w.V)
    return NNWeights(project_to_ball(w.W + dt * W_dot, w.W_max),
                     project_to_ball(w.V + dt * V_dot, w.V_max), w.W_max, w.V_max)


@pytest.mark.parametrize("hidden", [5, 10, 17])
def test_update_with_passed_features_matches_recomputation(rng, hidden):
    g = AdaptationGains(gamma_w=20.0, gamma_v=10.0, kappa=0.015)
    for _ in range(2000):
        # bounds at the drawn norms, so the projection is often active
        W_norm, V_norm = rng.uniform(0.1, 3.0), rng.uniform(0.1, 5.0)
        w = NNWeights.random(rng, n_hidden=hidden, W_norm=W_norm, V_norm=V_norm)
        x_nn = np.concatenate(([1.0], 10.0 * rng.standard_normal(6)))
        a = rng.standard_normal(3)
        got = update(w, x_nn, a, g, 1e-2)
        ref = reference_update_weights(w, x_nn, a, g, 1e-2)
        assert np.array_equal(got.W, ref.W) and np.array_equal(got.V, ref.V)
