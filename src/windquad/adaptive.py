"""Online-adapted three-layer networks for disturbance compensation.

Two networks run in the control loop: one produces the position-channel
compensation term, the other the attitude-channel term.  Each network is
y = W^T sigma(V^T x) with a fixed bias feature, sigmoid hidden units, and
weight matrices driven by a damped gradient-style update law; Frobenius-ball
projection keeps both matrices inside configured norm bounds at all times.

Both networks run as one NetworkPair, the only store of their weights: one
flat parameter vector theta holding W, then V, each in C order, where W and
V are block-diagonal over the two networks.  nn_output evaluates the pair
in one pass on the (14,) input of build_network_input, on C-contiguous
views W and V of theta, and update_weights steps both update laws of both
networks on theta's network entries only, as the matching entries of one
outer product scaled by two gain vectors.  The pair's `nets` are two
NNWeights whose W and V are views of the network blocks and which hold the
norms and bounds.  The synthetic plant's target networks form a pair of
their own that is never updated.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, GimbalLock, NonFiniteWeights
from .se3 import euler_zyx


@dataclass(frozen=True)
class AdaptationGains:
    """Learning rates and damping of one network's update law."""

    gamma_w: float = 10.0
    gamma_v: float = 5.0
    kappa: float = 0.05

    def __post_init__(self):
        if self.gamma_w <= 0.0 or self.gamma_v <= 0.0 or self.kappa <= 0.0:
            raise ValueError("adaptation gains must be positive")


@dataclass
class NNWeights:
    """Weight estimate pair with norm bounds.

    W: (n_hidden+1, n_out); V: (n_in+1, n_hidden), with Frobenius norms
    (W_norm, V_norm).  Invariant: the norms never exceed (W_max, V_max);
    enforced by projection after every update.
    """

    W: np.ndarray
    V: np.ndarray
    W_max: float = 20.0
    V_max: float = 20.0
    W_norm: float = field(init=False)
    V_norm: float = field(init=False)

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=float)
        self.V = np.asarray(self.V, dtype=float)
        if self.W_max <= 0.0 or self.V_max <= 0.0:
            raise ValueError("norm bounds must be positive")
        if self.W.ndim != 2 or self.V.ndim != 2 or self.W.shape[0] != self.V.shape[1] + 1:
            raise DimensionMismatch(
                f"W {self.W.shape} incompatible with V {self.V.shape}")
        self.W_norm = np.linalg.norm(self.W)
        self.V_norm = np.linalg.norm(self.V)

    @classmethod
    def zeros(cls, n_in=6, n_hidden=10, n_out=3, W_max=20.0, V_max=20.0):
        """Zero-initialized network; its output is identically zero."""
        return cls(W=np.zeros((n_hidden + 1, n_out)), V=np.zeros((n_in + 1, n_hidden)),
                   W_max=W_max, V_max=V_max)

    @classmethod
    def random(cls, rng, n_in=6, n_hidden=10, n_out=3, W_norm=1.0, V_norm=1.0,
               W_max=None, V_max=None):
        """Random network with exact Frobenius norms (W_norm, V_norm).

        Used as a known target generating a synthetic disturbance.
        """
        W = rng.standard_normal((n_hidden + 1, n_out))
        V = rng.standard_normal((n_in + 1, n_hidden))
        # a matrix without entries (V of a width-0 network, which is a
        # learned bias) keeps its norm 0
        for M, norm in ((W, W_norm), (V, V_norm)):
            if M.size:
                M *= norm / np.linalg.norm(M)
        return cls(W=W, V=V, W_max=W_max or max(W_norm, 1e-12),
                   V_max=V_max or max(V_norm, 1e-12))

    @property
    def n_hidden(self):
        return self.V.shape[1]


def sigmoid_features(z):
    """Feature vector sigma(z) = [1, s(z_1), ..., s(z_n)] for the logistic s.

    The Jacobian of sigma in z has a zero first row and diag(ds) below,
    ds_k = s_k (1 - s_k), which update_weights forms from sigma.
    """
    # e = exp(-|z|) lies in [0, 1], so neither side can overflow: s is
    # 1 / (1 + e) for z >= 0 and e / (1 + e) below, divided into sigma[1:]
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    sigma = np.empty(len(z) + 1)
    sigma[0] = 1.0
    numerator = np.where(z >= 0.0, 1.0, e)
    e += 1.0
    np.divide(numerator, e, out=sigma[1:])
    return sigma


class NetworkPair:
    """Two networks held as one flat parameter vector.

    For networks (W1, V1) with h1 hidden units and (W2, V2) with h2 the
    pair evaluates the block-diagonal matrices

        W = [[W1, 0 ],        V = [[V1, 0, 0 ],
             [0,  W2]],            [0,  0, V2]],

    on the input [x_nn1, x_nn2].  Column h1 of V is zero: the feature it
    feeds is overwritten with the second network's bias, so the features
    are [1, s1, 1, s2].  `theta` is one flat vector holding W in C order,
    then V in C order; `W` and `V` are C-contiguous reshape views of it.
    The constructor copies the two given networks into the network blocks,
    once, and leaves them unchanged.  `nets` are two NNWeights, with the
    given networks' bounds, whose W and V are views of the network blocks;
    update_weights writes only those four blocks, so every other entry of
    theta stays +0.0.

    A pair built with `gains`, the two networks' AdaptationGains, is one
    that update_weights steps.  It holds the network entries as indices
    made once: `idx` are their positions in theta, the four blocks in
    BLOCK_NAMES order and each block in C order, and `segments` the four
    blocks' slices of idx.  `ip` and `iq` are each entry's row and column
    of the outer product p q^T, and `G` and `K` its gains, -gamma_w and
    kappa gamma_w on a W block, -gamma_v and kappa gamma_v on a V block.
    A pair built without gains is never updated and has none of these.
    """

    def __init__(self, nn1, nn2, gains=None):
        (n1, h1), (n2, h2) = nn1.V.shape, nn2.V.shape
        o1 = nn1.W.shape[1]
        (rows, cols), (n, h) = (h1 + h2 + 2, o1 + nn2.W.shape[1]), (n1 + n2, h1 + 1 + h2)
        n_W = rows * cols
        self.theta = np.zeros(n_W + n * h)
        self.W, self.V = self.theta[:n_W].reshape(rows, cols), self.theta[n_W:].reshape(n, h)
        # the second network's entries of z and sigma start at bias2, and
        # its entries of y and of the error signal at o1
        self.bias2 = h1 + 1
        self.outputs = (slice(0, o1), slice(o1, None))
        # each network's (W, V) block, as indices into W and V
        self.blocks = ((np.s_[:h1 + 1, :o1], np.s_[:n1, :h1]),
                       (np.s_[h1 + 1:, o1:], np.s_[n1:, h1 + 1:]))
        for (W, V), nn in zip(self.blocks, (nn1, nn2)):
            self.W[W], self.V[V] = nn.W, nn.V
        self.nets = tuple(NNWeights(W=self.W[W], V=self.V[V], W_max=nn.W_max, V_max=nn.V_max)
                          for (W, V), nn in zip(self.blocks, (nn1, nn2)))
        if gains is None:
            return
        # each theta entry's position, and its row of p and column of q:
        # (i, j) of W is p_i q_j, and (i, j) of V is p_{rows+i} q_{cols+j}
        at = np.arange(self.theta.size)
        W_at, V_at = at[:n_W].reshape(rows, cols), at[n_W:].reshape(n, h)
        (Wi, Wj), (Vi, Vj) = np.indices((rows, cols)), np.indices((n, h))
        in_p = np.concatenate((Wi.ravel(), rows + Vi.ravel()))
        in_q = np.concatenate((Wj.ravel(), cols + Vj.ravel()))
        per_block = [M[b].ravel() for (W, V) in self.blocks for M, b in ((W_at, W), (V_at, V))]
        self.idx = np.concatenate(per_block)
        self.ip, self.iq = in_p[self.idx], in_q[self.idx]
        sizes = [b.size for b in per_block]
        self.segments = tuple(slice(end - size, end)
                              for size, end in zip(sizes, itertools.accumulate(sizes)))
        self.G = np.repeat([-r for g in gains for r in (g.gamma_w, g.gamma_v)], sizes)
        self.K = np.repeat([g.kappa * r for g in gains for r in (g.gamma_w, g.gamma_v)], sizes)


def nn_output(pair, x_nn):
    """Outputs [y1, y2] of a NetworkPair on the input [x_nn1, x_nn2].

    One forward pass: z = V^T x_nn, one sigmoid_features call, and
    y = W^T sigma.  Returns y and the pass's (z, sigma), the pre-activation
    and the features with both biases, which update_weights takes instead
    of recomputing the forward pass.
    """
    if x_nn.shape != (pair.V.shape[0],):
        raise DimensionMismatch(f"input {x_nn.shape} vs V {pair.V.shape}")
    z = x_nn.dot(pair.V)
    sigma = sigmoid_features(z)
    sigma[pair.bias2] = 1.0
    return sigma.dot(pair.W), (z, sigma)


def build_network_input(x, v, R, Omega, fallback_angles=None):
    """Input [1, x, v, 1, yaw, pitch, roll, Omega] of the network pair.

    The first seven entries feed the position network, the last seven the
    attitude network.  x, v and Omega are 3-sequences of floats and R is
    three rows of three floats (or a 3x3 array).  Near gimbal lock the last
    valid angle set may be substituted via `fallback_angles`; without one
    the GimbalLock propagates.

    Returns
    -------
    x_nn : (14,) ndarray
    angles : three floats
        The angles actually used (callers keep these as the next fallback).
    """
    try:
        angles = euler_zyx(R)
    except GimbalLock:
        if fallback_angles is None:
            raise
        angles = fallback_angles
    return np.array([1.0, *x, *v, 1.0, *angles, *Omega]), angles


def _frobenius(M):
    """||M||_F as np.linalg.norm forms it: the root of the flattened dot."""
    r = M.ravel("K")
    return math.sqrt(r.dot(r))


def project_to_ball(M, bound, name="M"):
    """Radial projection of M onto the Frobenius ball of radius `bound`.

    Returns the projected matrix and its Frobenius norm.  Raises
    NonFiniteWeights naming M as `name` if ||M||_F is inf or NaN.
    """
    if bound <= 0.0:
        raise ValueError("bound must be positive")
    n = _frobenius(M)
    if not math.isfinite(n):
        raise NonFiniteWeights(f"{name} has Frobenius norm {n}")
    while n > bound:
        M = M * (bound / n)
        n = _frobenius(M)
    return M, n


#: the pair's blocks in the order update_weights checks and names them
BLOCK_NAMES = ("nn1.W", "nn1.V", "nn2.W", "nn2.V")
_ZERO = np.zeros(1)


def update_weights(pair, x_nn, features, a, dt):
    """One explicit-Euler step of both networks' update laws, then projection.

    Wdot = -gamma_w [sigma(z) a^T - sigma'(z) z a^T] - kappa gamma_w W
    Vdot = -gamma_v x_nn [sigma'(z)^T W a]^T         - kappa gamma_v V

    for each network of a NetworkPair built with gains, evaluated at the
    estimated pre-activation z = V^T x_nn, with a = [a1, a2] the two
    networks' error signals.  `features` is the (z, sigma) that nn_output
    returned for the pair and x_nn.  Both laws of both networks step at
    once on the pair's network entries theta[idx]: with p = [u; x_nn],
    where u = sigma - sigma'(z) z, and q = [a; sigma'(z) Wa], the step is

        old + dt (G * p[ip] q[iq] - K * old),   old = theta[idx],

    the network entries of the outer product p q^T, scaled by the pair's
    gain vectors; only W_i[1:] a_i is formed per network.  Each network
    block, a contiguous segment of the step, is then projected onto its
    network's Frobenius ball.  Updates the pair in place, once all four
    norms are finite: the new entries are written into pair.theta, and the
    norms into pair.nets.  Otherwise raises NonFiniteWeights naming the
    first bad block in BLOCK_NAMES order and writes nothing.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if x_nn.shape != (pair.V.shape[0],):
        raise DimensionMismatch(f"input {x_nn.shape} vs V {pair.V.shape}")
    if a.shape != (pair.W.shape[1],):
        raise DimensionMismatch(f"error signal {a.shape} vs W {pair.W.shape}")

    theta, idx = pair.theta, pair.idx
    z, sigma = features
    nn1, nn2 = pair.nets
    out1, out2 = pair.outputs
    # ds = sigma'(z) is 0 at the second bias, where sigma is 1; p is
    # [u; x_nn] with u = sigma - sigma' z, the first bias untouched
    s = sigma[1:]
    ds = s * (1.0 - s)
    p = np.concatenate((sigma, x_nn))
    p[1:len(sigma)] -= ds * z
    # q is [a; ds Wa], with W_i[1:] a_i of each network on its own, which
    # keeps its rounding, and 0 for the zero column of V
    q = np.concatenate((a, nn1.W[1:] @ a[out1], _ZERO, nn2.W[1:] @ a[out2]))
    q[len(a):] *= ds
    # the step above, in place on the network entries of the outer product
    old = theta[idx]
    step = p[pair.ip] * q[pair.iq]
    step *= pair.G
    step -= pair.K * old
    step *= dt
    step += old

    # each block's norm as _frobenius forms it, on its contiguous segment
    bounds = (nn1.W_max, nn1.V_max, nn2.W_max, nn2.V_max)
    norms = []
    for segment, bound, name in zip(pair.segments, bounds, BLOCK_NAMES):
        r = step[segment]
        n = math.sqrt(r.dot(r))
        if not math.isfinite(n):
            raise NonFiniteWeights(f"{name} has Frobenius norm {n}")
        if n > bound:
            step[segment], n = project_to_ball(r, bound, name)
        norms.append(n)
    theta[idx] = step
    nn1.W_norm, nn1.V_norm, nn2.W_norm, nn2.V_norm = norms
