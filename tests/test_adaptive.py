import copy

import numpy as np
import pytest

from windquad.adaptive import (BLOCK_NAMES, AdaptationGains, NetworkPair, NNWeights,
                               build_network_input, nn_output, project_to_ball,
                               sigmoid_features, update_weights)
from windquad.errors import DimensionMismatch, GimbalLock, NonFiniteWeights
from windquad.se3 import rotation_zyx

from conftest import random_rotation
from oracles import blockwise_nn_output, blockwise_update_weights


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
    """Reference: one network evaluated on its own, as (W^T sigma, z, sigma)."""
    z = w.V.T @ x_nn
    sigma = sigmoid_features(z)
    return w.W.T @ sigma, z, sigma


def zero_like(w):
    n_in, n_hidden = w.V.shape
    return NNWeights.zeros(n_in=n_in - 1, n_hidden=n_hidden, n_out=w.W.shape[1])


def output(w, x_nn):
    """Output of one network through the pair forward, beside a zero network."""
    y, _ = nn_output(NetworkPair(w, zero_like(w)), np.concatenate((x_nn, x_nn)))
    return y[:w.W.shape[1]]


def random_input(rng, scale=1.0):
    """A (14,) pair input [1, 6 entries, 1, 6 entries]."""
    x_nn = scale * rng.standard_normal(14)
    x_nn[[0, 7]] = 1.0
    return x_nn


def pair_features(pair, x_nn):
    """The (z, sigma) of the pair forward laid out as nn_output lays them
    out, [z1, 0, z2] and [1, s1, 1, s2], but each network's share from its
    own reference network_output (the pair's forward rounds differently in
    the last bits, see test_pair_output_matches_per_network_oracle)."""
    (_, z1, s1), (_, z2, s2) = (network_output(w, x) for w, x in
                                zip(pair.nets, (x_nn[:7], x_nn[7:])))
    return np.concatenate((z1, [0.0], z2)), np.concatenate((s1, s2))


def update(pair, x_nn, a, dt):
    """update_weights, in place on the pair, fed with pair_features."""
    update_weights(pair, x_nn, pair_features(pair, x_nn), a, dt)


# --- features ----------------------------------------------------------------

def test_sigmoid_at_zero():
    sigma = sigmoid_features(np.zeros(2))
    assert np.allclose(sigma, [1.0, 0.5, 0.5])


def test_sigmoid_saturation():
    sigma = sigmoid_features(np.array([50.0, 80.0, 800.0]))
    assert np.allclose(sigma, [1.0, 1.0, 1.0, 1.0], atol=1e-15)
    # and the negative side must not overflow
    sigma = sigmoid_features(np.array([-800.0]))
    assert sigma[1] == pytest.approx(0.0, abs=1e-15)


def masked_sigmoid_features(z):
    """Reference: the two-branch form, each side's exp taken where it cannot
    overflow."""
    s = np.empty_like(z)
    pos = z >= 0.0
    s[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    s[~pos] = ez / (1.0 + ez)
    return np.concatenate(([1.0], s))


def test_sigmoid_bitwise_equals_masked_reference(rng):
    extremes = np.array([0.0, -0.0, 745.0, -745.0, 1e308, -1e308])
    draws = [scale * rng.standard_normal(50_000) for scale in (1.0, 10.0, 100.0, 800.0)]
    z = np.concatenate([extremes] + draws)
    with np.errstate(over="raise"):
        sigma = sigmoid_features(z)
    assert sigma.tobytes() == masked_sigmoid_features(z).tobytes()


def test_sigmoid_jacobian_central_difference(rng):
    # the diagonal ds = s (1 - s) that update_weights forms from sigma
    z = rng.standard_normal(6)
    s = sigmoid_features(z)[1:]
    ds = s * (1.0 - s)
    h = 1e-5
    for k in range(6):
        e = np.zeros(6)
        e[k] = h
        sp = sigmoid_features(z + e)
        sm = sigmoid_features(z - e)
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

GAINS = (AdaptationGains(gamma_w=4.0, gamma_v=2.0, kappa=0.1),
         AdaptationGains(gamma_w=3.0, gamma_v=6.0, kappa=0.2))


def random_pair(rng, gains=GAINS):
    """A pair of random networks of widths 10 and 7, norms 0.5, bounds 1."""
    return NetworkPair(*(NNWeights.random(rng, n_hidden=h, W_norm=0.5, V_norm=0.5,
                                          W_max=1.0, V_max=1.0) for h in (10, 7)), gains)


def test_update_damping_only(rng):
    pair = random_pair(rng)
    dt = 1e-3
    before = [(w.W.copy(), w.V.copy()) for w in pair.nets]
    update(pair, random_input(rng), np.zeros(6), dt)
    for w, (W0, V0), g in zip(pair.nets, before, GAINS):
        assert np.allclose(w.W, (1 - g.kappa * g.gamma_w * dt) * W0, atol=1e-14)
        assert np.allclose(w.V, (1 - g.kappa * g.gamma_v * dt) * V0, atol=1e-14)


def test_update_from_zero_weights():
    pair = NetworkPair(NNWeights.zeros(n_hidden=2), NNWeights.zeros(n_hidden=3), GAINS)
    a = np.array([0.5, -0.2, 0.1, 0.3, 0.0, -0.4])
    x_nn, _ = build_network_input(np.ones(3), np.zeros(3), np.eye(3), np.zeros(3))
    update(pair, x_nn, a, 1e-3)
    for w, g, a_w in zip(pair.nets, GAINS, (a[:3], a[3:])):
        sigma0 = np.array([1.0] + [0.5] * w.n_hidden)
        assert np.allclose(w.V, 0.0)
        assert np.allclose(w.W, -g.gamma_w * 1e-3 * np.outer(sigma0, a_w), atol=1e-15)


def test_update_respects_bounds(rng):
    g = AdaptationGains(gamma_w=50.0, gamma_v=50.0, kappa=0.01)
    pair = NetworkPair(NNWeights.zeros(W_max=0.05, V_max=0.05),
                       NNWeights.zeros(n_hidden=7, W_max=0.03, V_max=0.04), (g, g))
    for _ in range(500):
        update(pair, random_input(rng), rng.standard_normal(6), 1e-3)
        for w in pair.nets:
            assert w.W_norm <= w.W_max and w.V_norm <= w.V_max


def test_geometric_decay_with_zero_error(rng):
    gains = (AdaptationGains(gamma_w=4.0, gamma_v=2.0, kappa=0.5),
             AdaptationGains(gamma_w=2.0, gamma_v=3.0, kappa=0.25))
    pair = random_pair(rng, gains)
    dt = 1e-3
    x_nn, _ = build_network_input(np.zeros(3), np.zeros(3), np.eye(3), np.zeros(3))
    norms0 = [(w.W_norm, w.V_norm) for w in pair.nets]
    n = 200
    for _ in range(n):
        update(pair, x_nn, np.zeros(6), dt)
    for w, (Wn0, Vn0), g in zip(pair.nets, norms0, gains):
        assert w.W_norm == pytest.approx(Wn0 * (1 - g.kappa * g.gamma_w * dt) ** n, rel=1e-9)
        assert w.V_norm == pytest.approx(Vn0 * (1 - g.kappa * g.gamma_v * dt) ** n, rel=1e-9)


def test_update_writes_into_the_same_arrays(rng):
    g = AdaptationGains(gamma_w=50.0, gamma_v=50.0, kappa=0.01)
    pair = random_pair(rng, (g, g))

    def arrays():
        return [pair.W, pair.V] + [M for w in pair.nets for M in (w.W, w.V)]

    initial = arrays()
    for _ in range(50):
        before = pair.W.copy(), pair.V.copy()
        x_nn = random_input(rng)
        a = rng.standard_normal(6)
        refs = [reference_update_weights(w, x_w, a_w, g, 1e-2) for w, x_w, a_w in
                zip(pair.nets, (x_nn[:7], x_nn[7:]), (a[:3], a[3:]))]
        update(pair, x_nn, a, 1e-2)
        assert all(M is then for M, then in zip(arrays(), initial))
        assert not np.array_equal(pair.W, before[0]) and not np.array_equal(pair.V, before[1])
        for w, (ref_W, ref_V) in zip(pair.nets, refs):
            assert np.allclose(w.W, ref_W, rtol=1e-12, atol=1e-15)
            assert np.allclose(w.V, ref_V, rtol=1e-12, atol=1e-15)


def test_norms_track_weights_bitwise(rng):
    # bounds at the drawn norms, so the projection is often active
    g = AdaptationGains(gamma_w=50.0, gamma_v=50.0, kappa=0.01)
    pair = NetworkPair(*(NNWeights.random(rng, n_hidden=h, W_norm=0.5, V_norm=0.5)
                         for h in (10, 7)), (g, g))
    for w in pair.nets:
        assert w.W_norm == np.linalg.norm(w.W) and w.V_norm == np.linalg.norm(w.V)
    for _ in range(200):
        update(pair, random_input(rng, 10.0), rng.standard_normal(6), 1e-2)
        for w in pair.nets:
            assert w.W_norm == np.linalg.norm(w.W) and w.V_norm == np.linalg.norm(w.V)


def non_finite_step(rng, huge):
    """A pair whose gains put learning rate 1e308 on the blocks named in
    `huge`, and an input on which their steps overflow."""
    gains = [AdaptationGains(gamma_w=1e308 if f"nn{i}.W" in huge else 1.0,
                             gamma_v=1e308 if f"nn{i}.V" in huge else 1.0, kappa=0.05)
             for i in (1, 2)]
    return random_pair(rng, gains), random_input(rng, 10.0)


def test_non_finite_V_leaves_weights_unchanged(rng):
    # nn2's V step overflows, the other three stay finite; nothing is
    # written, nn1's update included
    pair, x_nn = non_finite_step(rng, ("nn2.V",))
    before = [(w.W, w.V, w.W_norm, w.V_norm) for w in pair.nets]
    copies = (pair.W.copy(), pair.V.copy())
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFiniteWeights, match=r"^nn2\.V has Frobenius norm"):
        update(pair, x_nn, np.ones(6), 1e-2)
    for w, then in zip(pair.nets, before):
        assert all(now is was for now, was in zip((w.W, w.V, w.W_norm, w.V_norm), then))
    assert pair.W.tobytes() == copies[0].tobytes() and pair.V.tobytes() == copies[1].tobytes()


@pytest.mark.parametrize("first", range(4))
def test_first_non_finite_block_is_named(rng, first):
    # every block from `first` on overflows; the error names the first in
    # the order nn1.W, nn1.V, nn2.W, nn2.V
    pair, x_nn = non_finite_step(rng, BLOCK_NAMES[first:])
    copies = (pair.W.copy(), pair.V.copy())
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteWeights) as err:
        update(pair, x_nn, np.ones(6), 1e-2)
    assert str(err.value).startswith(f"{BLOCK_NAMES[first]} has Frobenius norm")
    assert pair.W.tobytes() == copies[0].tobytes() and pair.V.tobytes() == copies[1].tobytes()


def test_update_dimension_check():
    pair = NetworkPair(NNWeights.zeros(), NNWeights.zeros(), GAINS)
    x_nn, _ = build_network_input(np.zeros(3), np.zeros(3), np.eye(3), np.zeros(3))
    _, features = nn_output(pair, x_nn)
    # one network's error signal, and one network's input
    with pytest.raises(DimensionMismatch):
        update_weights(pair, x_nn, features, np.zeros(3), 1e-3)
    with pytest.raises(DimensionMismatch):
        update_weights(pair, x_nn[:7], features, np.zeros(6), 1e-3)


def test_off_diagonal_blocks_stay_positive_zero(rng):
    # 200 updates through the pair forward, with bounds at the drawn norms
    # so that the projection is often active: every entry off the diagonal
    # blocks, V's zero column included, is still +0.0
    g = AdaptationGains(gamma_w=50.0, gamma_v=50.0, kappa=0.01)
    pair = NetworkPair(*(NNWeights.random(rng, n_hidden=h, W_norm=0.5, V_norm=0.5)
                         for h in (10, 7)), (g, g))
    initial = pair.W.copy(), pair.V.copy()
    for _ in range(200):
        x_nn = random_input(rng, 10.0)
        _, features = nn_output(pair, x_nn)
        update_weights(pair, x_nn, features, rng.standard_normal(6), 1e-2)
    off_W, off_V = np.ones(pair.W.shape, bool), np.ones(pair.V.shape, bool)
    for W, V in pair.blocks:
        off_W[W], off_V[V] = False, False
    for M, off, M0 in ((pair.W, off_W, initial[0]), (pair.V, off_V, initial[1])):
        assert off.any()
        assert not M[off].any() and not np.signbit(M[off]).any()
        assert not np.array_equal(M, M0)


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
        pair = NetworkPair(*nets)
        y, (z, sigma) = nn_output(pair, x_nn)
        # V's zero column feeds the second bias
        k = pair.bias2
        assert z[k - 1] == 0.0 and sigma[k] == 1.0
        for got_y, got_z, got_sigma, w, x_w in zip((y[:3], y[3:]), (z[:k - 1], z[k:]),
                                                   (sigma[:k], sigma[k:]), nets,
                                                   (x_nn[:7], x_nn[7:])):
            ref_y, ref_z, ref_sigma = network_output(w, x_w)
            scales = (np.abs(w.W).T @ np.abs(ref_sigma), np.abs(w.V).T @ np.abs(x_w), 1.0)
            for got, ref, scale in zip((got_y, got_z, got_sigma), (ref_y, ref_z, ref_sigma),
                                       scales):
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
    pair = NetworkPair(*given, (AdaptationGains(), AdaptationGains()))
    x, v, Om = rng.standard_normal((3, 3))
    x_nn, _ = build_network_input(x, v, random_rotation(rng), Om)
    _, features = nn_output(pair, x_nn)
    update_weights(pair, x_nn, features, rng.standard_normal(6), 1e-2)
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
    """One network's update law evaluating z = V^T x_nn and its features
    itself; returns the new (W, V) and leaves w unchanged."""
    z = w.V.T @ x_nn
    sigma = sigmoid_features(z)
    ds = sigma[1:] * (1.0 - sigma[1:])
    W_dot = (-gains.gamma_w * np.outer(sigma - np.concatenate(([0.0], ds * z)), a)
             - gains.kappa * gains.gamma_w * w.W)
    V_dot = (-gains.gamma_v * np.outer(x_nn, ds * (w.W[1:] @ a))
             - gains.kappa * gains.gamma_v * w.V)
    W, _ = project_to_ball(w.W + dt * W_dot, w.W_max)
    V, _ = project_to_ball(w.V + dt * V_dot, w.V_max)
    return W, V


PAIR_GAINS = (AdaptationGains(gamma_w=20.0, gamma_v=10.0, kappa=0.015),
              AdaptationGains(gamma_w=5.0, gamma_v=30.0, kappa=0.05))


def drawn_pair(rng, hidden, widths):
    """A pair with PAIR_GAINS of a first network of width `hidden` and a
    second of a width drawn from `widths`, so that most pairs are unequal.
    Their bounds are the drawn norms, so the projection is often active."""
    return NetworkPair(*(NNWeights.random(rng, n_hidden=int(h), W_norm=rng.uniform(0.1, 3.0),
                                          V_norm=rng.uniform(0.1, 5.0))
                         for h in (hidden, rng.choice(widths))), PAIR_GAINS)


def shares(pair, x_nn, a):
    """Each network's input and share of the error signal."""
    return zip(pair.nets, (x_nn[:7], x_nn[7:]), (a[:3], a[3:]), PAIR_GAINS)


@pytest.mark.parametrize("hidden", [5, 10, 17])
def test_update_with_passed_features_matches_recomputation(rng, hidden):
    for _ in range(2000):
        pair = drawn_pair(rng, hidden, (0, 2, 5, 10, 17))
        x_nn = random_input(rng, 10.0)
        a = rng.standard_normal(6)
        refs = [reference_update_weights(w, x_w, a_w, g, 1e-2)
                for w, x_w, a_w, g in shares(pair, x_nn, a)]
        update(pair, x_nn, a, 1e-2)
        for w, (ref_W, ref_V) in zip(pair.nets, refs):
            assert np.array_equal(w.W, ref_W) and np.array_equal(w.V, ref_V)


# --- reference: the update law with numpy's outer product and norm ----------

def outer_update_weights(w, x_nn, features, a, gains, dt):
    """One network's update law as np.outer, np.concatenate and
    np.linalg.norm form it, from its own (z, sigma); returns the new
    (W, V, W_norm, V_norm) and leaves w unchanged."""
    z, sigma = features
    ds = sigma[1:] * (1.0 - sigma[1:])
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


@pytest.mark.parametrize("hidden", [0, 2, 10, 17])
def test_update_bytes_equal_outer_product_form(rng, hidden):
    # each block of the pair update against the per-network oracle on a
    # contiguous copy of its network, fed with the network's own features
    projected = 0
    for _ in range(2000):
        pair = drawn_pair(rng, hidden, (0, 2, 10, 17))
        x_nn = random_input(rng, 10.0)
        a = rng.standard_normal(6)
        features = pair_features(pair, x_nn)
        k = pair.bias2
        own = ((features[0][:k - 1], features[1][:k]), (features[0][k:], features[1][k:]))
        refs = [outer_update_weights(copy.deepcopy(w), x_w, f, a_w, g, 1e-2)
                for (w, x_w, a_w, g), f in zip(shares(pair, x_nn, a), own)]
        update_weights(pair, x_nn, features, a, 1e-2)
        for w, ref in zip(pair.nets, refs):
            projected += ref[2] == w.W_max
            got = (w.W, w.V, w.W_norm, w.V_norm)
            assert all(np.asarray(x).tobytes() == np.asarray(r).tobytes()
                       for x, r in zip(got, ref))
    assert projected > 100


# --- the flat theta = [W | V] against W and V as arrays of their own ----------

WIDTHS = (0, 2, 10, 17)


def theta_off_blocks(pair):
    """The entries of theta outside the four network blocks, found through
    the blocks of W and V (not through the pair's idx)."""
    off_W, off_V = np.ones(pair.W.shape, bool), np.ones(pair.V.shape, bool)
    for W, V in pair.blocks:
        off_W[W], off_V[V] = False, False
    return pair.theta[np.concatenate((off_W.ravel(), off_V.ravel()))]


@pytest.mark.parametrize("hidden", WIDTHS)
def test_forward_bytes_equal_blockwise_oracle(rng, hidden):
    for _ in range(500):
        pair = drawn_pair(rng, hidden, WIDTHS)
        x_nn = random_input(rng, 10.0)
        y, (z, sigma) = nn_output(pair, x_nn)
        ref_y, (ref_z, ref_sigma) = blockwise_nn_output(pair, x_nn)
        for got, ref in ((y, ref_y), (z, ref_z), (sigma, ref_sigma)):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("hidden", WIDTHS)
def test_update_bytes_equal_blockwise_oracle(rng, hidden):
    # random unequal pairs with bounds at their drawn norms, stepped
    # through their own forward; each step against the blockwise update
    projected = np.zeros(4, int)
    for _ in range(500):
        pair = drawn_pair(rng, hidden, WIDTHS)
        for _ in range(3):
            x_nn = random_input(rng, 10.0)
            a = rng.standard_normal(6)
            _, features = nn_output(pair, x_nn)
            W, V, norms = blockwise_update_weights(pair, x_nn, features, a, PAIR_GAINS, 1e-2)
            update_weights(pair, x_nn, features, a, 1e-2)
            assert pair.W.tobytes() == W.tobytes() and pair.V.tobytes() == V.tobytes()
            got = [n for w in pair.nets for n in (w.W_norm, w.V_norm)]
            assert np.array(got).tobytes() == np.array(norms).tobytes()
            bounds = [b for w in pair.nets for b in (w.W_max, w.V_max)]
            projected += [n == b for n, b in zip(norms, bounds)]
        off = theta_off_blocks(pair)
        assert not off.any() and not np.signbit(off).any()
    # steps with the projection active, per block; the V of a width-0 first
    # network has no entries to project
    assert all(projected[[0, 2, 3]] > 100)
    assert projected[1] > 100 or hidden == 0


def huge_gains(blocks):
    """PAIR_GAINS with learning rate 1e308 on the named blocks."""
    return [AdaptationGains(gamma_w=1e308 if f"nn{i}.W" in blocks else g.gamma_w,
                            gamma_v=1e308 if f"nn{i}.V" in blocks else g.gamma_v,
                            kappa=g.kappa)
            for i, g in zip((1, 2), PAIR_GAINS)]


@pytest.mark.parametrize("first", range(4))
@pytest.mark.parametrize("cause", ["inf", "nan", "overflow"])
def test_non_finite_update_matches_blockwise_oracle(rng, first, cause):
    # the blocks from `first` on hold an inf or a NaN, or their learning
    # rate overflows the step: both forms name the first bad block in
    # BLOCK_NAMES order, and update_weights writes nothing
    bad = BLOCK_NAMES[first:]
    gains = huge_gains(bad) if cause == "overflow" else PAIR_GAINS
    checked = 0
    for hidden in WIDTHS:
        pair = NetworkPair(*drawn_pair(rng, hidden, WIDTHS[1:]).nets, gains)
        blocks = dict(zip(BLOCK_NAMES, (M for w in pair.nets for M in (w.W, w.V))))
        # the V of a width-0 first network has no entries to hold a bad value
        if not blocks[bad[0]].size:
            continue
        x_nn = random_input(rng, 10.0)
        _, features = nn_output(pair, x_nn)
        if cause != "overflow":
            for name in bad:
                if blocks[name].size:
                    blocks[name][-1, -1] = float(cause)
        before = pair.theta.tobytes()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteWeights) as ref:
                blockwise_update_weights(pair, x_nn, features, np.ones(6), gains, 1e-2)
            with pytest.raises(NonFiniteWeights) as err:
                update_weights(pair, x_nn, features, np.ones(6), 1e-2)
        assert str(err.value) == str(ref.value)
        assert str(err.value).startswith(f"{bad[0]} has Frobenius norm")
        assert pair.theta.tobytes() == before
        checked += 1
    assert checked >= 3


def test_theta_holds_both_networks(rng):
    # theta is W in C order, then V in C order, and W, V and the nets are
    # views of it; the entries of theta outside idx stay +0.0 over updates
    # with the projection active
    g = AdaptationGains(gamma_w=50.0, gamma_v=50.0, kappa=0.01)
    pair = NetworkPair(*(NNWeights.random(rng, n_hidden=h, W_norm=0.5, V_norm=0.5)
                         for h in (10, 7)), (g, g))
    theta, W, V = pair.theta, pair.W, pair.V
    assert theta.shape == (W.size + V.size,)
    assert W.flags.c_contiguous and V.flags.c_contiguous
    assert W.base is theta and V.base is theta
    assert (W.ctypes.data, V.ctypes.data) == (theta.ctypes.data, theta.ctypes.data + W.nbytes)
    views = [M for w in pair.nets for M in (w.W, w.V)]
    for w in pair.nets:
        assert np.shares_memory(w.W, W) and np.shares_memory(w.V, V)
    for _ in range(200):
        x_nn = random_input(rng, 10.0)
        _, features = nn_output(pair, x_nn)
        update_weights(pair, x_nn, features, rng.standard_normal(6), 1e-2)
    off = np.ones(theta.size, bool)
    off[pair.idx] = False
    assert off.any() and not theta[off].any() and not np.signbit(theta[off]).any()
    assert theta[off].size == theta_off_blocks(pair).size
    assert all(now is then for now, then in zip((M for w in pair.nets for M in (w.W, w.V)),
                                                 views))
    for (Wb, Vb), w in zip(pair.blocks, pair.nets):
        assert W[Wb].tobytes() == w.W.tobytes() and V[Vb].tobytes() == w.V.tobytes()


def test_index_arrays_address_the_network_blocks(rng):
    # idx holds the four blocks in BLOCK_NAMES order, each in C order;
    # (ip, iq) is each entry's place in the matrix diag(W, V), whose
    # rows and columns p q^T spans; G and K are each block's gains
    for hidden in WIDTHS:
        pair = drawn_pair(rng, hidden, WIDTHS)
        blocks = [M for w in pair.nets for M in (w.W, w.V)]
        assert [s.stop - s.start for s in pair.segments] == [M.size for M in blocks]
        assert pair.segments[-1].stop == pair.idx.size
        for segment, M in zip(pair.segments, blocks):
            assert pair.theta[pair.idx[segment]].tobytes() == M.tobytes()
        diag = np.block([[pair.W, np.zeros((pair.W.shape[0], pair.V.shape[1]))],
                         [np.zeros((pair.V.shape[0], pair.W.shape[1])), pair.V]])
        assert diag[pair.ip, pair.iq].tobytes() == pair.theta[pair.idx].tobytes()
        rates = [(-r, g.kappa * r) for g in PAIR_GAINS for r in (g.gamma_w, g.gamma_v)]
        for segment, (G, K) in zip(pair.segments, rates):
            assert (pair.G[segment] == G).all() and (pair.K[segment] == K).all()


def test_pair_without_gains_builds_no_index_arrays(rng):
    # the synthetic plant's target pair is never updated
    pair = NetworkPair(*(NNWeights.random(rng, n_hidden=h) for h in (10, 7)))
    assert not any(hasattr(pair, name) for name in ("idx", "ip", "iq", "segments", "G", "K"))
