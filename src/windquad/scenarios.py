"""Desired-trajectory and wind-field generators for closed-loop experiments.

All generators are pure functions of time with analytic derivatives.  The
step gust is the single permitted discontinuity; every other signal is
smooth, as the boundedness assumptions of the gain analysis take it to be.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

_ZERO3 = (0.0, 0.0, 0.0)
_E1 = (1.0, 0.0, 0.0)


class TrajectoryPoint(NamedTuple):
    """Desired position and its first two derivatives, inertial frame, and
    the unit heading direction with its rate, each three floats."""

    x_d: tuple
    v_d: tuple
    a_d: tuple
    b1_d: tuple
    b1_d_dot: tuple


@dataclass(frozen=True)
class WindField:
    """Ambient wind velocity profile, inertial frame.

    kind: "none", "constant", "step_gust", or "sinusoidal".  "none" is still
    air and reads no other field; the other kinds start from base; the gust
    adds amplitude*direction after onset; the sinusoid adds
    amplitude*direction*sin(2 pi frequency t).  The config loader rejects a
    non-default value of a field that the kind does not read.
    """

    kind: str = "none"
    base: tuple = _ZERO3
    amplitude: float = 0.0
    onset: float = 0.0
    frequency: float = 0.0
    direction: tuple = _E1

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(map(float, self.base)))
        d = tuple(map(float, self.direction))
        if self.kind not in ("none", "constant", "step_gust", "sinusoidal"):
            raise ValueError(f"unknown wind kind {self.kind!r}")
        if self.kind in ("step_gust", "sinusoidal"):
            if self.amplitude < 0.0:
                raise ValueError("amplitude must be non-negative")
            if not all(map(math.isfinite, d)):
                raise ValueError(f"direction must be finite, got {list(d)}")
            if not any(d):
                raise ValueError("direction must be non-zero")
            # scaled by the largest entry first, so that math.hypot cannot
            # overflow (np.linalg.norm does at 1e300)
            scale = max(map(abs, d))
            norm = math.hypot(*(x / scale for x in d))
            d = tuple(x / scale / norm for x in d)
        object.__setattr__(self, "direction", d)


def wind_at(field_, t):
    """Wind velocity of a WindField at time t >= 0 [m/s, inertial], three floats."""
    if field_.kind == "none":
        return _ZERO3
    if field_.kind == "step_gust" and t >= field_.onset:
        scale = field_.amplitude
    elif field_.kind == "sinusoidal":
        scale = field_.amplitude * math.sin(2.0 * math.pi * field_.frequency * t)
    else:
        return field_.base
    return tuple(b + scale * d for b, d in zip(field_.base, field_.direction))


@dataclass(frozen=True)
class TrajectoryGenerator:
    """Desired-position generator with analytic derivatives.

    kinds
    -----
    hover:     fixed point `center`, heading e1.
    circle:    radius/omega in the horizontal plane about `center`, plus
               constant climb rate v_z.
    lissajous: center + amp * sin(freq * t + phase) per axis, heading e1.

    circle defaults to tangent-direction heading; heading="fixed"
    holds e1 instead (yaw authority on a small quad is far weaker than
    roll/pitch, so aggressive heading tracking is a deliberate choice).
    """

    kind: str = "hover"
    center: tuple = _ZERO3
    radius: float = 1.0
    omega: float = 0.5
    v_z: float = 0.0
    heading: str = "tangent"
    amplitudes: tuple = (1.0, 1.0, 0.0)
    frequencies: tuple = (1.0, 2.0, 0.0)
    phases: tuple = (0.0, 0.5 * math.pi, 0.0)

    def __post_init__(self):
        if self.kind not in ("hover", "circle", "lissajous"):
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        if self.heading not in ("tangent", "fixed"):
            raise ValueError(f"unknown heading law {self.heading!r}")
        for name in ("center", "amplitudes", "frequencies", "phases"):
            object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        if self.kind == "circle":
            if self.radius <= 0.0:
                raise ValueError("radius must be positive")
            speed = math.hypot(self.radius * self.omega, self.v_z)
            if self.heading == "tangent" and speed == 0.0:
                raise ValueError("tangent heading needs a non-zero speed "
                                 "(omega and v_z are both zero); use heading = fixed")


def trajectory_at(gen, t):
    """TrajectoryPoint of a generator at time t >= 0."""
    if gen.kind == "hover":
        return TrajectoryPoint(x_d=gen.center, v_d=_ZERO3, a_d=_ZERO3, b1_d=_E1, b1_d_dot=_ZERO3)

    if gen.kind == "circle":
        r, w, v_z = gen.radius, gen.omega, gen.v_z
        c, s = math.cos(w * t), math.sin(w * t)
        c1, c2, c3 = gen.center
        x = (c1 + r * c, c2 + r * s, c3 + -v_z * t)
        v = (-r * w * s, r * w * c, -v_z)
        a = (-r * w * w * c, -r * w * w * s, 0.0)
        if gen.heading == "fixed":
            return TrajectoryPoint(x_d=x, v_d=v, a_d=a, b1_d=_E1, b1_d_dot=_ZERO3)
        # unit tangent; speed is constant so its rate is analytic
        speed = math.hypot(r * w, v_z)
        return TrajectoryPoint(x_d=x, v_d=v, a_d=a, b1_d=tuple(vi / speed for vi in v),
                               b1_d_dot=tuple(ai / speed for ai in a))

    # lissajous, axis by axis
    x, v, a = zip(*((c + A * math.sin(f * t + p), A * f * math.cos(f * t + p),
                     -A * (f * f) * math.sin(f * t + p))
                    for c, A, f, p in zip(gen.center, gen.amplitudes, gen.frequencies, gen.phases)))
    return TrajectoryPoint(x_d=x, v_d=v, a_d=a, b1_d=_E1, b1_d_dot=_ZERO3)
