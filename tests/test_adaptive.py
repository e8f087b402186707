import numpy as np
import pytest

from windquad.adaptive import (AdaptationGains, NetworkPair, NNWeights,
                               build_network_input, nn_output, project_to_ball,
                               sigmoid_features, update_weights)
from windquad.errors import DimensionMismatch, GimbalLock, NonFiniteWeights
from windquad.se3 import rotation_zyx

from conftest import random_rotation


def build_position_input(x, v):
    """Position-network share of build_network_input: x_nn[:7] = [1, x, v]."""
    x_nn, _ = build_network_input(x, v, np.eye(3), np.zeros(3))
    return x_nn[:7]


def build_attitude_input(R, Omega, fallback_angles=None):
    """Attitude-network share of build_network_input, x_nn[7:] =
    [1, yaw, pitch, roll, Omega], and the angles used."""
    x_nn, angles = build_network_input(np.zeros(3), np.zeros(3), R, Omega,
                                       fallback_angles=fallback_angles)
    return x_nn[7:], angles


def network_output(w, x_nn):
    """Reference: one network evaluated on its own, as
    (W^T sigma, z, sigma, ds)."""
    z = w.V.T @ x_nn
    sigma, ds = sigmoid_features(z)
    return w.W.T @ sigma, z, sigma, ds


def zero_like(w):
    n_in, n_hidden = w.V.shape
    return NNWeights.zeros(n_in=n_in - 1, n_hidden=n_hidden, n_out=w.W.shape[1])


def output(w, x_nn):
    """Output of one network through the pair forward, beside a zero network."""
    y, _ = nn_output(NetworkPair(w, zero_like(w)), np.concatenate((x_nn, x_nn)))
    return y[:w.W.shape[1]]


def update(w, x_nn, a, gains, dt):
    """update_weights, in place on w, fed with the forward pass of the
    reference network_output (the pair's features differ from it in the
    last bits, see test_pair_output_matches_per_network_oracle)."""
    _, *features = network_output(w, x_nn)
    update_weights(w, x_nn, features, a, gains, dt)


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


def masked_sigmoid_features(z):
    """Reference: the two-branch form, each side's exp taken where it cannot
    overflow."""
    s = np.empty_like(z)
    pos = z >= 0.0
    s[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    s[~pos] = ez / (1.0 + ez)
    return np.concatenate(([1.0], s)), s * (1.0 - s)


def test_sigmoid_bitwise_equals_masked_reference(rng):
    extremes = np.array([0.0, -0.0, 745.0, -745.0, 1e308, -1e308])
    draws = [scale * rng.standard_normal(50_000) for scale in (1.0, 10.0, 100.0, 800.0)]
    z = np.concatenate([extremes] + draws)
    with np.errstate(over="raise"):
        sigma, ds = sigmoid_features(z)
    ref_sigma, ref_ds = masked_sigmoid_features(z)
    assert sigma.tobytes() == ref_sigma.tobytes()
    assert ds.tobytes() == ref_ds.tobytes()


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



def test_random_width_zero_network_is_a_bias(rng):
    # V has no entries to scale, so it keeps norm 0 and no division by it
    # runs (the suite turns numpy's divide-by-zero warning into an error)
    w = NNWeights.random(rng, n_hidden=0, W_norm=0.7, V_norm=1.5)
    assert w.V.shape == (7, 0) and w.V_norm == 0.0
    assert w.W_norm == pytest.approx(0.7, rel=1e-15)
    for _ in range(10):
        x = np.concatenate(([1.0], rng.standard_normal(6)))
        assert np.array_equal(output(w, x), w.W[0])

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
    out, _ = project_to_ball(M, 5.0)
    assert np.linalg.norm(out) <= 5.0
    assert np.allclose(out, M * (5.0 / np.linalg.norm(M)), atol=1e-12)


def test_projection_identity_inside():
    M = np.eye(2)
    out, _ = project_to_ball(M, 5.0)
    assert out is M


def test_projection_idempotent(rng):
    M = rng.standard_normal((4, 3)) * 10
    once, _ = project_to_ball(M, 2.0)
    twice, _ = project_to_ball(once, 2.0)
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
    W0, V0 = w.W.copy(), w.V.copy()
    update(w, x_nn, np.zeros(3), g, dt)
    assert np.allclose(w.W, (1 - g.kappa * g.gamma_w * dt) * W0, atol=1e-14)
    assert np.allclose(w.V, (1 - g.kappa * g.gamma_v * dt) * V0, atol=1e-14)


def test_update_from_zero_weights():
    w = NNWeights.zeros(n_in=6, n_hidden=2, n_out=3)
    g = AdaptationGains(gamma_w=4.0, gamma_v=2.0, kappa=0.1)
    a = np.array([0.5, -0.2, 0.1])
    x_nn = build_position_input(np.ones(3), np.zeros(3))
    update(w, x_nn, a, g, 1e-3)
    sigma0 = np.array([1.0, 0.5, 0.5])
    assert np.allclose(w.V, 0.0)
    assert np.allclose(w.W, -g.gamma_w * 1e-3 * np.outer(sigma0, a), atol=1e-15)


def test_update_respects_bounds(rng):
    w = NNWeights.zeros(n_in=6, n_hidden=10, n_out=3, W_max=0.05, V_max=0.05)
    g = AdaptationGains(gamma_w=50.0, gamma_v=50.0, kappa=0.01)
    for _ in range(500):
        x_nn = build_position_input(rng.standard_normal(3), rng.standard_normal(3))
        a = rng.standard_normal(3)
        update(w, x_nn, a, g, 1e-3)
        assert w.W_norm <= w.W_max and w.V_norm <= w.V_max


def test_geometric_decay_with_zero_error(rng):
    w = NNWeights.random(rng, W_norm=0.5, V_norm=0.5, W_max=1.0, V_max=1.0)
    g = AdaptationGains(gamma_w=4.0, gamma_v=2.0, kappa=0.5)
    dt = 1e-3
    x_nn = build_position_input(np.zeros(3), np.zeros(3))
    Wn0, Vn0 = w.W_norm, w.V_norm
    n = 200
    for _ in range(n):
        update(w, x_nn, np.zeros(3), g, dt)
    Wn, Vn = w.W_norm, w.V_norm
    assert Wn == pytest.approx(Wn0 * (1 - g.kappa * g.gamma_w * dt) ** n, rel=1e-9)
    assert Vn == pytest.approx(Vn0 * (1 - g.kappa * g.gamma_v * dt) ** n, rel=1e-9)


def test_update_writes_into_the_same_arrays(rng):
    w = NNWeights.random(rng, W_norm=0.5, V_norm=0.5, W_max=1.0, V_max=1.0)
    W0, V0 = w.W, w.V
    g = AdaptationGains(gamma_w=50.0, gamma_v=50.0, kappa=0.01)
    for _ in range(50):
        before = W0.copy(), V0.copy()
        x_nn = np.concatenate(([1.0], rng.standard_normal(6)))
        a = rng.standard_normal(3)
        ref_W, ref_V = reference_update_weights(w, x_nn, a, g, 1e-2)
        update(w, x_nn, a, g, 1e-2)
        assert w.W is W0 and w.V is V0
        assert not np.array_equal(W0, before[0]) and not np.array_equal(V0, before[1])
        assert np.allclose(W0, ref_W, rtol=1e-12, atol=1e-15)
        assert np.allclose(V0, ref_V, rtol=1e-12, atol=1e-15)


def test_norms_track_weights_bitwise(rng):
    # bounds at the drawn norms, so the projection is often active
    w = NNWeights.random(rng, W_norm=0.5, V_norm=0.5)
    assert w.W_norm == np.linalg.norm(w.W) and w.V_norm == np.linalg.norm(w.V)
    g = AdaptationGains(gamma_w=50.0, gamma_v=50.0, kappa=0.01)
    for _ in range(200):
        update(w, np.concatenate(([1.0], 10.0 * rng.standard_normal(6))),
               rng.standard_normal(3), g, 1e-2)
        assert w.W_norm == np.linalg.norm(w.W) and w.V_norm == np.linalg.norm(w.V)


def test_non_finite_V_leaves_weights_unchanged(rng):
    # W's step stays finite; V's learning rate overflows its step
    w = NNWeights.random(rng, W_norm=0.5, V_norm=0.5, W_max=1.0, V_max=1.0)
    before = (w.W, w.V, w.W_norm, w.V_norm)
    copies = (w.W.copy(), w.V.copy())
    g = AdaptationGains(gamma_w=1.0, gamma_v=1e308, kappa=0.05)
    x_nn = np.concatenate(([1.0], 10.0 * rng.standard_normal(6)))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFiniteWeights, match=r"^nn\.V has Frobenius norm"):
        update(w, x_nn, np.ones(3), g, 1e-2)
    assert all(now is then for now, then in zip((w.W, w.V, w.W_norm, w.V_norm), before))
    assert np.array_equal(w.W, copies[0]) and np.array_equal(w.V, copies[1])


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


# --- one forward pass for a network pair ---------------------------------------

@pytest.mark.parametrize("hidden", [(10, 10), (10, 7), (1, 17), None])
def test_pair_output_matches_per_network_oracle(rng, hidden):
    # networks and inputs drawn as random_case of test_controller draws them;
    # hidden None draws both sizes per pair from 2 to 11.  The block sums
    # add zeros between the terms, so the grouping differs and the pair
    # agrees with the oracle to rounding, not bitwise.  Each tolerance is
    # set by the terms summed: a dot product's rounding scales with the sum
    # of |terms|, and z cancels far below it
    for _ in range(2000):
        sizes = hidden or rng.integers(2, 12, 2)
        nets = [NNWeights.random(rng, n_hidden=int(h), W_norm=rng.uniform(0.1, 3.0),
                                 V_norm=rng.uniform(0.1, 3.0)) for h in sizes]
        x, v, Om = rng.standard_normal((3, 3))
        x_nn, _ = build_network_input(x, v, random_rotation(rng), Om)
        y, features = nn_output(NetworkPair(*nets), x_nn)
        for got_y, got_features, w, x_w in zip((y[:3], y[3:]), features, nets,
                                               (x_nn[:7], x_nn[7:])):
            ref_y, ref_z, ref_sigma, ref_ds = network_output(w, x_w)
            scales = (np.abs(w.W).T @ np.abs(ref_sigma), np.abs(w.V).T @ np.abs(x_w), 1.0, 1.0)
            for got, ref, scale in zip((got_y, *got_features),
                                       (ref_y, ref_z, ref_sigma, ref_ds), scales):
                assert got.shape == ref.shape
                assert np.all(np.abs(got - ref) <= 1e-15 * np.maximum(1.0, scale))


def test_stacked_output_dimension_check():
    pair = NetworkPair(NNWeights.zeros(), NNWeights.zeros())
    with pytest.raises(DimensionMismatch):
        nn_output(pair, np.zeros(12))



def test_pair_nets_are_views_of_the_blocks(rng):
    given = [NNWeights.random(rng, n_hidden=h, W_norm=0.5, V_norm=1.5, W_max=1.0, V_max=2.0)
             for h in (10, 7)]
    copies = [(w.W.copy(), w.V.copy()) for w in given]
    pair = NetworkPair(*given)
    x, v, Om = rng.standard_normal((3, 3))
    x_nn, _ = build_network_input(x, v, random_rotation(rng), Om)
    _, features = nn_output(pair, x_nn)
    for w, f, inputs in zip(pair.nets, features, pair.inputs):
        update_weights(w, x_nn[inputs], f, rng.standard_normal(3), AdaptationGains(), 1e-2)
    for w, nn, (W, V) in zip(pair.nets, given, copies):
        assert np.shares_memory(w.W, pair.W) and np.shares_memory(w.V, pair.V)
        assert (w.W_max, w.V_max) == (nn.W_max, nn.V_max)
        # the update wrote into the pair, and the given networks were copied
        assert not np.array_equal(w.W, W) and not np.array_equal(w.V, V)
        assert np.array_equal(nn.W, W) and np.array_equal(nn.V, V)
    fresh = NetworkPair(*pair.nets)
    assert fresh.W.tobytes() == pair.W.tobytes() and fresh.V.tobytes() == pair.V.tobytes()

# --- reference: the update law recomputing its forward pass ------------------

def reference_update_weights(w, x_nn, a, gains, dt):
    """update_weights evaluating z = V^T x_nn and its features itself;
    returns the new (W, V) and leaves w unchanged."""
    z = w.V.T @ x_nn
    sigma, ds = sigmoid_features(z)
    W_dot = (-gains.gamma_w * np.outer(sigma - np.concatenate(([0.0], ds * z)), a)
             - gains.kappa * gains.gamma_w * w.W)
    V_dot = (-gains.gamma_v * np.outer(x_nn, ds * (w.W[1:] @ a))
             - gains.kappa * gains.gamma_v * w.V)
    W, _ = project_to_ball(w.W + dt * W_dot, w.W_max)
    V, _ = project_to_ball(w.V + dt * V_dot, w.V_max)
    return W, V


@pytest.mark.parametrize("hidden", [5, 10, 17])
def test_update_with_passed_features_matches_recomputation(rng, hidden):
    g = AdaptationGains(gamma_w=20.0, gamma_v=10.0, kappa=0.015)
    for _ in range(2000):
        # bounds at the drawn norms, so the projection is often active
        W_norm, V_norm = rng.uniform(0.1, 3.0), rng.uniform(0.1, 5.0)
        w = NNWeights.random(rng, n_hidden=hidden, W_norm=W_norm, V_norm=V_norm)
        x_nn = np.concatenate(([1.0], 10.0 * rng.standard_normal(6)))
        a = rng.standard_normal(3)
        ref_W, ref_V = reference_update_weights(w, x_nn, a, g, 1e-2)
        update(w, x_nn, a, g, 1e-2)
        assert np.array_equal(w.W, ref_W) and np.array_equal(w.V, ref_V)


# --- reference: the update law with numpy's outer product and norm ----------

def outer_update_weights(w, x_nn, features, a, gains, dt):
    """update_weights as np.outer, np.concatenate and np.linalg.norm form it;
    returns the new (W, V, W_norm, V_norm) and leaves w unchanged."""
    z, sigma, ds = features
    W_dot = (-gains.gamma_w * np.outer(sigma - np.concatenate(([0.0], ds * z)), a)
             - gains.kappa * gains.gamma_w * w.W)
    V_dot = (-gains.gamma_v * np.outer(x_nn, ds * (w.W[1:] @ a))
             - gains.kappa * gains.gamma_v * w.V)

    def project(M, bound):
        n = np.linalg.norm(M)
        while n > bound:
            M = M * (bound / n)
            n = np.linalg.norm(M)
        return M, n

    W, W_norm = project(w.W + dt * W_dot, w.W_max)
    V, V_norm = project(w.V + dt * V_dot, w.V_max)
    return W, V, W_norm, V_norm


@pytest.mark.parametrize("hidden", [2, 10, 17])
def test_update_bytes_equal_outer_product_form(rng, hidden):
    g = AdaptationGains(gamma_w=20.0, gamma_v=10.0, kappa=0.015)
    projected = 0
    for _ in range(2000):
        # bounds at the drawn norms, so the projection is often active
        w = NNWeights.random(rng, n_hidden=hidden, W_norm=rng.uniform(0.1, 3.0),
                             V_norm=rng.uniform(0.1, 5.0))
        x_nn = np.concatenate(([1.0], 10.0 * rng.standard_normal(6)))
        a = rng.standard_normal(3)
        _, *features = network_output(w, x_nn)
        ref = outer_update_weights(w, x_nn, features, a, g, 1e-2)
        update_weights(w, x_nn, features, a, g, 1e-2)
        projected += ref[2] == w.W_max
        got = (w.W, w.V, w.W_norm, w.V_norm)
        assert all(np.asarray(x).tobytes() == np.asarray(r).tobytes()
                   for x, r in zip(got, ref))
    assert projected > 100
