import numpy as np
import pytest

from windquad.scenarios import (TrajectoryGenerator, TrajectoryPoint, WindField,
                                trajectory_at, wind_at)


# --- wind fields ---------------------------------------------------------------

def test_constant_wind():
    f = WindField(kind="constant", base=[5.0, 0.0, 0.0])
    for t in (0.0, 1.7, 100.0):
        assert np.allclose(wind_at(f, t), [5.0, 0.0, 0.0])


def test_step_gust():
    f = WindField(kind="step_gust", base=[1.0, 0.0, 0.0], amplitude=3.0,
                  onset=2.0, direction=[0.0, 1.0, 0.0])
    assert np.allclose(wind_at(f, 1.999), [1.0, 0.0, 0.0])
    assert np.allclose(wind_at(f, 2.0), [1.0, 3.0, 0.0])
    assert np.allclose(wind_at(f, 50.0), [1.0, 3.0, 0.0])


def test_sinusoidal_wind_bound():
    f = WindField(kind="sinusoidal", base=[2.0, 0.0, 0.0], amplitude=1.5,
                  frequency=0.7, direction=[1.0, 0.0, 0.0])
    peak = max(np.linalg.norm(wind_at(f, t)) for t in np.linspace(0, 10, 5000))
    assert peak <= f.max_speed + 1e-12
    assert wind_at(f, 0.0)[0] == pytest.approx(2.0)


def test_none_wind():
    assert np.allclose(wind_at(WindField(), 3.0), 0.0)


def test_wind_rejects_unknown_kind():
    with pytest.raises(ValueError):
        WindField(kind="tornado")


@pytest.mark.parametrize("direction, unit", [
    ([1e300, 0.0, 0.0], [1.0, 0.0, 0.0]),
    ([0.0, -1e300, 1e300], [0.0, -2 ** -0.5, 2 ** -0.5]),
    ([1.7e308, 1.7e308, 1.7e308], [3 ** -0.5] * 3),
    ([5e-324, 0.0, 0.0], [1.0, 0.0, 0.0]),
])
def test_gust_direction_extreme_scale(direction, unit):
    # the direction is normalized without overflow (np.linalg.norm returned
    # inf at 1e300, and the gust vanished) or underflow
    f = WindField(kind="step_gust", amplitude=2.0, onset=1.0, direction=direction)
    assert np.allclose(f.direction, unit, rtol=0.0, atol=1e-15)
    assert np.allclose(wind_at(f, 1.0), 2.0 * np.array(unit), rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("direction", [[np.inf, 0.0, 0.0], [0.0, np.nan, 1.0], [0.0, 0.0, 0.0]])
def test_gust_direction_rejects_non_finite_or_zero(direction):
    with pytest.raises(ValueError, match=r"direction must be (finite|non-zero)"):
        WindField(kind="sinusoidal", amplitude=1.0, frequency=1.0, direction=direction)


# --- trajectories ----------------------------------------------------------------

def point_at(gen, t):
    """trajectory_at with each field read as an array."""
    return TrajectoryPoint(*map(np.array, trajectory_at(gen, t)))


def fd_check(gen, t, h=1e-4, tol=1e-6):
    plus = point_at(gen, t + h)
    minus = point_at(gen, t - h)
    here = point_at(gen, t)
    assert np.linalg.norm((plus.x_d - minus.x_d) / (2 * h) - here.v_d) < tol
    assert np.linalg.norm((plus.v_d - minus.v_d) / (2 * h) - here.a_d) < tol
    assert np.linalg.norm((plus.b1_d - minus.b1_d) / (2 * h) - here.b1_d_dot) < tol


def test_hover_point():
    gen = TrajectoryGenerator(kind="hover", center=[1.0, 2.0, -3.0])
    tp = trajectory_at(gen, 5.0)
    assert np.allclose(tp.x_d, [1.0, 2.0, -3.0])
    assert np.allclose(tp.v_d, 0.0) and np.allclose(tp.a_d, 0.0)
    assert np.allclose(tp.b1_d, [1.0, 0.0, 0.0])


def test_circle_acceleration_magnitude():
    gen = TrajectoryGenerator(kind="circle", radius=2.0, omega=0.5)
    for t in (0.0, 0.9, 4.2):
        tp = trajectory_at(gen, t)
        assert np.linalg.norm(tp.a_d) == pytest.approx(2.0 * 0.25)
        assert np.linalg.norm(tp.b1_d) == pytest.approx(1.0)


def test_derivatives_match_finite_differences():
    gens = [
        TrajectoryGenerator(kind="circle", radius=2.0, omega=0.5),
        TrajectoryGenerator(kind="helix", radius=1.5, omega=0.8, v_z=0.3),
        TrajectoryGenerator(kind="lissajous", amplitudes=[1.0, 0.5, 0.2],
                            frequencies=[1.0, 2.0, 0.5], phases=[0.0, 1.0, 0.3]),
    ]
    for gen in gens:
        for t in np.linspace(0.2, 12.0, 25):
            fd_check(gen, t)


def test_declared_bounds_hold():
    gens = [
        TrajectoryGenerator(kind="hover"),
        TrajectoryGenerator(kind="circle", radius=2.0, omega=0.5),
        TrajectoryGenerator(kind="helix", radius=1.5, omega=0.8, v_z=0.3),
        TrajectoryGenerator(kind="lissajous", amplitudes=[1.0, 0.5, 0.2],
                            frequencies=[1.0, 2.0, 0.5], phases=[0.0, 1.0, 0.3]),
    ]
    ts = np.linspace(0.0, 20.0, 4000)
    for gen in gens:
        v = max(np.linalg.norm(trajectory_at(gen, t).v_d) for t in ts)
        a = max(np.linalg.norm(trajectory_at(gen, t).a_d) for t in ts)
        assert v <= gen.max_speed + 1e-9
        assert a <= gen.max_accel + 1e-9
        # jerk bound via finite differences of acceleration
        h = 1e-4
        j = max(np.linalg.norm((point_at(gen, t + h).a_d
                                - point_at(gen, t - h).a_d) / (2 * h))
                for t in ts[::40])
        assert j <= gen.max_jerk + 1e-4


def test_heading_unit_and_rate_bounded():
    gen = TrajectoryGenerator(kind="circle", radius=2.0, omega=0.5)
    for t in np.linspace(0, 15, 500):
        tp = trajectory_at(gen, t)
        assert np.linalg.norm(tp.b1_d) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(tp.b1_d_dot) <= abs(gen.omega) + 1e-12


def test_fixed_heading_option():
    gen = TrajectoryGenerator(kind="circle", radius=2.0, omega=0.5, heading="fixed")
    for t in (0.0, 3.3):
        tp = trajectory_at(gen, t)
        assert np.allclose(tp.b1_d, [1.0, 0.0, 0.0])
        assert np.allclose(tp.b1_d_dot, 0.0)


def test_trajectory_rejects_unknown_kind():
    with pytest.raises(ValueError):
        TrajectoryGenerator(kind="spiral")
    with pytest.raises(ValueError):
        TrajectoryGenerator(kind="circle", radius=-1.0)


def test_tangent_heading_needs_speed():
    with pytest.raises(ValueError, match="tangent heading"):
        TrajectoryGenerator(kind="circle", radius=2.0, omega=0.0)
    with pytest.raises(ValueError, match="tangent heading"):
        TrajectoryGenerator(kind="helix", radius=2.0, omega=0.0, v_z=0.0)
    # a climb alone gives the tangent a direction; a fixed heading needs none
    tp = trajectory_at(TrajectoryGenerator(kind="helix", radius=2.0, omega=0.0, v_z=0.3), 1.0)
    assert np.linalg.norm(tp.b1_d) == pytest.approx(1.0)
    tp = trajectory_at(TrajectoryGenerator(kind="circle", radius=2.0, omega=0.0,
                                           heading="fixed"), 1.0)
    assert np.allclose(tp.b1_d, [1.0, 0.0, 0.0])
