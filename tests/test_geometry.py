"""Tests for the disk trajectory, field map, and station angle."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ac_diamond.errors import NumericPreconditionError
from ac_diamond.geometry import (
    STATION_A_ANGLE,
    DiskTrajectory,
    FieldConfig,
    position,
    station_trajectory,
    velocity,
)


# every trajectory starts at station A, (0, -r); a quarter period later it
# crosses the +x axis
QUARTER = 0.25  # s, at f = 1 Hz


class TestPosition:
    def test_start_on_x_axis(self):
        traj = DiskTrajectory(radius=1.0, frequency=1.0)
        assert np.allclose(position(traj, QUARTER), [1.0, 0.0, 0.0], atol=1e-15)

    def test_quarter_turn(self):
        traj = DiskTrajectory(radius=1.0, frequency=1.0)
        assert np.allclose(position(traj, QUARTER + 0.25), [0.0, 1.0, 0.0], atol=1e-12)

    def test_tilt_maps_x_to_minus_z(self):
        traj = DiskTrajectory(radius=1.0, frequency=1.0, tilt=np.pi / 2.0)
        assert np.allclose(position(traj, QUARTER), [0.0, 0.0, -1.0], atol=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DiskTrajectory(radius=0.0, frequency=1.0)
        with pytest.raises(ValueError):
            DiskTrajectory(radius=1.0, frequency=0.0)

    @pytest.mark.parametrize("record, kwargs, named", [
        (DiskTrajectory, {"radius": math.nan, "frequency": 1.0},
         "disk radius nan m must be positive"),
        (DiskTrajectory, {"radius": 1.0, "frequency": math.nan},
         "rotation frequency nan Hz is zero or NaN"),
        (FieldConfig, {"magnitude": math.nan},
         "field magnitude nan V/m must be non-negative"),
    ], ids=["radius", "frequency", "field"])
    def test_nan_refused_by_name(self, record, kwargs, named):
        # a NaN radius was refused as "too large", a NaN frequency as "too
        # small", and a NaN field magnitude was accepted
        with pytest.raises(ValueError, match=re.escape(named)) as refused:
            record(**kwargs)
        assert type(refused.value) is ValueError

    @pytest.mark.parametrize(
        "radius, frequency, named",
        [
            (1.0, 5e-324, "rotation frequency 5e-324 Hz"),  # period 1/|f| is inf
            (1.0, -5e-324, "rotation frequency -5e-324 Hz"),
            (1.7976931348623157e308, 1.0, "disk radius 1.7976931348623157e+308 m"),
            (1e10, 1e300, "rim speed"),  # 2*pi*f*r overflows
        ],
    )
    def test_unrepresentable_motion_rejected_by_name(self, radius, frequency, named):
        with pytest.raises(NumericPreconditionError, match=re.escape(named)) as refused:
            DiskTrajectory(radius=radius, frequency=frequency)
        assert "not finite" in str(refused.value)


class TestVelocity:
    def test_initial_velocity(self):
        traj = DiskTrajectory(radius=1.0, frequency=1.0)
        assert np.allclose(velocity(traj, QUARTER), [0.0, 2.0 * np.pi, 0.0], atol=1e-12)

    def test_speed_constant(self):
        traj = DiskTrajectory(radius=0.01, frequency=4000.0, tilt=0.3)
        t = np.linspace(0.0, 5e-4, 64)
        speeds = np.linalg.norm(velocity(traj, t), axis=-1)
        assert np.allclose(speeds, 2.0 * np.pi * 4000.0 * 0.01, rtol=1e-12)

    def test_orthogonal_to_radius(self):
        traj = DiskTrajectory(radius=0.01, frequency=4000.0)
        for t in np.linspace(0.0, 2.5e-4, 17):
            dot = velocity(traj, t) @ position(traj, t)
            assert abs(dot) < 1e-12

    def test_finite_difference_oracle(self):
        # central difference at dt = 1e-9 s reproduces the analytic derivative
        traj = DiskTrajectory(radius=0.01, frequency=4000.0, tilt=0.1)
        dt = 1e-9
        for t in (0.0, 3.1e-5, 1.7e-4):
            numeric = (position(traj, t + dt) - position(traj, t - dt)) / (2 * dt)
            analytic = velocity(traj, t)
            err = np.linalg.norm(numeric - analytic) / np.linalg.norm(analytic)
            assert err < 1e-6


@given(
    radius=st.floats(min_value=1e-3, max_value=0.1),
    frequency=st.floats(min_value=100.0, max_value=1e4),
    tilt=st.floats(min_value=-1.0, max_value=1.0),
    t=st.floats(min_value=0.0, max_value=1e-2),
)
def test_periodicity(radius, frequency, tilt, t):
    traj = DiskTrajectory(radius=radius, frequency=frequency, tilt=tilt)
    period = 1.0 / frequency
    for fn in (position, velocity):
        a, b = fn(traj, t), fn(traj, t + period)
        scale = max(np.max(np.abs(a)), radius)
        assert np.max(np.abs(a - b)) < 1e-9 * scale


def test_untilted_motion_is_planar():
    traj = DiskTrajectory(radius=0.01, frequency=4000.0)
    t = np.linspace(0.0, 1e-3, 101)
    assert np.all(position(traj, t)[:, 2] == 0.0)
    assert np.all(velocity(traj, t)[:, 2] == 0.0)


class TestField:
    def test_rejects_negative_magnitude(self):
        with pytest.raises(ValueError):
            FieldConfig(magnitude=-1.0)


class TestStations:
    def test_default_on_y_extremes(self):
        assert STATION_A_ANGLE == pytest.approx(-np.pi / 2.0)
        traj = station_trajectory(0.01, 4000.0)
        assert np.allclose(position(traj, 0.0), [0.0, -0.01, 0.0], atol=1e-15)
        # station B, half a rotation later, is antipodal at (0, +r)
        assert np.allclose(position(traj, 1.0 / 8000.0), [0.0, 0.01, 0.0], atol=1e-15)

    def test_half_rotation_displacements(self):
        traj = station_trajectory(0.01, 4000.0)
        half = 1.0 / (2.0 * 4000.0)
        dy_ab = position(traj, half)[1] - position(traj, 0.0)[1]
        dy_ba = position(traj, 2 * half)[1] - position(traj, half)[1]
        assert dy_ab == pytest.approx(0.02, rel=1e-12)
        assert dy_ba == pytest.approx(-0.02, rel=1e-12)

    def test_full_rotation_closes(self):
        traj = station_trajectory(0.01, 4000.0)
        dy = position(traj, 1.0 / 4000.0)[1] - position(traj, 0.0)[1]
        assert abs(dy) < 1e-15

    def test_y_extremes_maximize_half_rotation_dy(self):
        # grid search over antipodal pairs: |Delta y| peaks for stations at
        # the y-axis extremes, where each half rotation sweeps the full 2r
        radius = 0.01
        angles = np.linspace(-np.pi, np.pi, 721)
        dy = np.abs(radius * (np.sin(angles + np.pi) - np.sin(angles)))
        best = angles[np.argmax(dy)]
        assert np.max(dy) == pytest.approx(2.0 * radius, rel=1e-9)
        assert min(abs(abs(best) - np.pi / 2.0), abs(best + np.pi / 2.0)) < 0.01


def test_clockwise_sense_flips_velocity():
    ccw = DiskTrajectory(radius=0.01, frequency=4000.0)
    cw = DiskTrajectory(radius=0.01, frequency=-4000.0)
    v1, v2 = velocity(ccw, 0.0), velocity(cw, 0.0)
    assert np.allclose(v1, -v2, rtol=1e-12)
