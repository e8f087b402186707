"""Desired-trajectory and wind-field generators for closed-loop experiments.

All generators are pure functions of time with analytic derivatives.  The
step gust is the single permitted discontinuity; every other signal is
smooth so the boundedness assumptions of the gain analysis can be checked
against declared maxima.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

_E1 = np.array([1.0, 0.0, 0.0])


class TrajectoryPoint(NamedTuple):
    """Desired position and its first two derivatives, inertial frame, and
    the unit heading direction with its rate."""

    x_d: np.ndarray
    v_d: np.ndarray
    a_d: np.ndarray
    b1_d: np.ndarray
    b1_d_dot: np.ndarray


@dataclass(frozen=True)
class WindField:
    """Ambient wind velocity profile, inertial frame.

    kind: "none", "constant", "step_gust", or "sinusoidal".  base applies to
    all kinds; the gust adds amplitude*direction after onset; the sinusoid
    adds amplitude*direction*sin(2 pi frequency t).
    """

    kind: str = "none"
    base: np.ndarray = field(default_factory=lambda: np.zeros(3))
    amplitude: float = 0.0
    onset: float = 0.0
    frequency: float = 0.0
    direction: np.ndarray = field(default_factory=lambda: _E1.copy())

    def __post_init__(self):
        object.__setattr__(self, "base", np.asarray(self.base, dtype=float))
        d = np.asarray(self.direction, dtype=float)
        n = np.linalg.norm(d)
        if self.kind not in ("none", "constant", "step_gust", "sinusoidal"):
            raise ValueError(f"unknown wind kind {self.kind!r}")
        if self.kind in ("step_gust", "sinusoidal"):
            if self.amplitude < 0.0:
                raise ValueError("amplitude must be non-negative")
            if n == 0.0:
                raise ValueError("direction must be non-zero")
            d = d / n
        object.__setattr__(self, "direction", d)

    @property
    def max_speed(self):
        """Declared bound on ||v_w(t)|| over all t."""
        if self.kind in ("step_gust", "sinusoidal"):
            return float(np.linalg.norm(self.base)) + self.amplitude
        return float(np.linalg.norm(self.base))


def wind_at(field_, t):
    """Wind velocity of a WindField at time t >= 0 [m/s, inertial]."""
    if field_.kind == "none":
        return np.zeros(3)
    v = field_.base.copy()
    if field_.kind == "step_gust" and t >= field_.onset:
        v = v + field_.amplitude * field_.direction
    elif field_.kind == "sinusoidal":
        v = v + field_.amplitude * math.sin(2.0 * math.pi * field_.frequency * t) * field_.direction
    return v


@dataclass(frozen=True)
class TrajectoryGenerator:
    """Desired-position generator with analytic derivatives.

    kinds
    -----
    hover:     fixed point `center`, heading e1.
    circle:    radius/omega in the horizontal plane about `center`.
    helix:     circle plus constant climb rate v_z.
    lissajous: center + amp * sin(freq * t + phase) per axis, heading e1.

    circle/helix default to tangent-direction heading; heading="fixed"
    holds e1 instead (yaw authority on a small quad is far weaker than
    roll/pitch, so aggressive heading tracking is a deliberate choice).
    """

    kind: str = "hover"
    center: np.ndarray = field(default_factory=lambda: np.zeros(3))
    radius: float = 1.0
    omega: float = 0.5
    v_z: float = 0.0
    heading: str = "tangent"
    amplitudes: np.ndarray = field(default_factory=lambda: np.array([1.0, 1.0, 0.0]))
    frequencies: np.ndarray = field(default_factory=lambda: np.array([1.0, 2.0, 0.0]))
    phases: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.5 * math.pi, 0.0]))

    def __post_init__(self):
        if self.kind not in ("hover", "circle", "helix", "lissajous"):
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        if self.heading not in ("tangent", "fixed"):
            raise ValueError(f"unknown heading law {self.heading!r}")
        for name in ("center", "amplitudes", "frequencies", "phases"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.kind in ("circle", "helix"):
            if self.radius <= 0.0:
                raise ValueError("radius must be positive")
            if self.heading == "tangent" and self.max_speed == 0.0:
                raise ValueError("tangent heading needs a non-zero speed "
                                 "(omega and v_z are both zero); use heading = fixed")

    @property
    def max_speed(self):
        if self.kind == "hover":
            return 0.0
        if self.kind in ("circle", "helix"):
            return math.hypot(self.radius * self.omega, self.v_z)
        return float(np.linalg.norm(self.amplitudes * self.frequencies))

    @property
    def max_accel(self):
        if self.kind == "hover":
            return 0.0
        if self.kind in ("circle", "helix"):
            return self.radius * self.omega ** 2
        return float(np.linalg.norm(self.amplitudes * self.frequencies ** 2))

    @property
    def max_jerk(self):
        if self.kind == "hover":
            return 0.0
        if self.kind in ("circle", "helix"):
            return self.radius * abs(self.omega) ** 3
        return float(np.linalg.norm(self.amplitudes * np.abs(self.frequencies) ** 3))


def trajectory_at(gen, t):
    """TrajectoryPoint of a generator at time t >= 0."""
    if gen.kind == "hover":
        return TrajectoryPoint(x_d=gen.center, v_d=np.zeros(3), a_d=np.zeros(3),
                               b1_d=_E1, b1_d_dot=np.zeros(3))

    if gen.kind in ("circle", "helix"):
        r, w = gen.radius, gen.omega
        c, s = math.cos(w * t), math.sin(w * t)
        x = gen.center + np.array([r * c, r * s, -gen.v_z * t])
        v = np.array([-r * w * s, r * w * c, -gen.v_z])
        a = np.array([-r * w * w * c, -r * w * w * s, 0.0])
        if gen.heading == "fixed":
            return TrajectoryPoint(x_d=x, v_d=v, a_d=a, b1_d=_E1, b1_d_dot=np.zeros(3))
        # unit tangent; speed is constant so its rate is analytic
        speed = math.hypot(r * w, gen.v_z)
        b1 = v / speed
        return TrajectoryPoint(x_d=x, v_d=v, a_d=a, b1_d=b1, b1_d_dot=a / speed)

    # lissajous
    arg = gen.frequencies * t + gen.phases
    x = gen.center + gen.amplitudes * np.sin(arg)
    v = gen.amplitudes * gen.frequencies * np.cos(arg)
    a = -gen.amplitudes * gen.frequencies ** 2 * np.sin(arg)
    return TrajectoryPoint(x_d=x, v_d=v, a_d=a, b1_d=_E1, b1_d_dot=np.zeros(3))
