"""Online-adapted three-layer networks for disturbance compensation.

Two networks run in the control loop: one produces the position-channel
compensation term, the other the attitude-channel term.  Each network is
y = W^T sigma(V^T x) with a fixed bias feature, sigmoid hidden units, and
weight matrices driven by a damped gradient-style update law; Frobenius-ball
projection keeps both matrices inside configured norm bounds at all times.
"""

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
        W *= W_norm / np.linalg.norm(W)
        V *= V_norm / np.linalg.norm(V)
        return cls(W=W, V=V, W_max=W_max or max(W_norm, 1e-12),
                   V_max=V_max or max(V_norm, 1e-12))

    @property
    def n_hidden(self):
        return self.V.shape[1]


def sigmoid_features(z):
    """Feature vector sigma(z) with bias and the diagonal of its Jacobian.

    sigma = [1, s(z_1), ..., s(z_n)] for the logistic s.  The Jacobian of
    sigma in z has a zero first row and diag(ds) below, ds_k = s_k (1 - s_k);
    only the (n,) vector ds is returned.
    """
    # exp(-|z|) lies in [0, 1], so neither side can overflow
    e = np.exp(-np.abs(z))
    s = np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    return np.concatenate(([1.0], s)), s * (1.0 - s)


def nn_output(nets, inputs):
    """Outputs W^T sigma(V^T x) of a sequence of networks, one input each.

    The pre-activations of all networks pass through one sigmoid_features
    call; the sigmoid works element by element, so each network's values
    equal those of a separate evaluation.  Returns one (y, (z, sigma, ds))
    per network: the output, its pre-activation z = V^T x, the features
    sigma(z) with bias, and the diagonal ds of their Jacobian, which
    update_weights takes instead of recomputing the forward pass.
    """
    zs = []
    for w, x_nn in zip(nets, inputs, strict=True):
        if x_nn.shape != (w.V.shape[0],):
            raise DimensionMismatch(f"input {x_nn.shape} vs V {w.V.shape}")
        zs.append(w.V.T @ x_nn)
    sigma, ds = sigmoid_features(np.concatenate(zs))
    out, lo = [], 0
    for w, z in zip(nets, zs):
        hi = lo + len(z)
        sig = np.concatenate(([1.0], sigma[1 + lo:1 + hi]))
        out.append((w.W.T @ sig, (z, sig, ds[lo:hi])))
        lo = hi
    return out


def build_position_input(x, v):
    """Position-network input [1, x, v], from two 3-sequences of floats."""
    return np.array([1.0, *x, *v])


def build_attitude_input(R, Omega, fallback_angles=None):
    """Attitude-network input [1, yaw, pitch, roll, Omega].

    R is three rows of three floats (or a 3x3 array) and Omega a 3-sequence
    of floats.  Near gimbal lock the last valid angle set may be
    substituted via `fallback_angles`; without one the GimbalLock
    propagates.

    Returns
    -------
    x_nn : (7,) ndarray
    angles : three floats
        The angles actually used (callers keep these as the next fallback).
    """
    try:
        angles = euler_zyx(R)
    except GimbalLock:
        if fallback_angles is None:
            raise
        angles = fallback_angles
    return np.array([1.0, *angles, *Omega]), angles


def project_to_ball(M, bound, name="M"):
    """Radial projection of M onto the Frobenius ball of radius `bound`.

    Returns the projected matrix and its Frobenius norm.  Raises
    NonFiniteWeights naming M as `name` if ||M||_F is inf or NaN.
    """
    if bound <= 0.0:
        raise ValueError("bound must be positive")
    n = np.linalg.norm(M)
    if not math.isfinite(n):
        raise NonFiniteWeights(f"{name} has Frobenius norm {n}")
    while n > bound:
        M = M * (bound / n)
        n = np.linalg.norm(M)
    return M, n


def update_weights(w, x_nn, features, a, gains, dt, name="nn"):
    """One explicit-Euler step of the weight update laws, then projection.

    Wdot = -gamma_w [sigma(z) a^T - sigma'(z) z a^T] - kappa gamma_w W
    Vdot = -gamma_v x_nn [sigma'(z)^T W a]^T         - kappa gamma_v V

    evaluated at the estimated pre-activation z = V^T x_nn.  `features` is
    the (z, sigma, ds) that nn_output returned for w and x_nn.  `name`
    labels the network in errors.  Updates w in place: W, V and their norms
    are rebound, never written into, once both projections succeed.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if x_nn.shape != (w.V.shape[0],):
        raise DimensionMismatch(f"input {x_nn.shape} vs V {w.V.shape}")
    if a.shape != (w.W.shape[1],):
        raise DimensionMismatch(f"error signal {a.shape} vs W {w.W.shape}")

    z, sigma, ds = features
    W_dot = (-gains.gamma_w * np.outer(sigma - np.concatenate(([0.0], ds * z)), a)
             - gains.kappa * gains.gamma_w * w.W)
    V_dot = (-gains.gamma_v * np.outer(x_nn, ds * (w.W[1:] @ a))
             - gains.kappa * gains.gamma_v * w.V)

    W, W_norm = project_to_ball(w.W + dt * W_dot, w.W_max, f"{name}.W")
    V, V_norm = project_to_ball(w.V + dt * V_dot, w.V_max, f"{name}.V")
    w.W, w.V, w.W_norm, w.V_norm = W, V, W_norm, V_norm
