"""Tests for the closed-form A-C phase: rate, segments, rectified total."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from ac_diamond.errors import NumericPreconditionError
from ac_diamond.geometry import DiskTrajectory, FieldConfig, position, station_trajectory
from ac_diamond.phase import (
    coupling_constant,
    phase_rate,
    segment_phase,
    total_rectified_phase,
)
from ac_diamond.physics import NVParameters

# independent arithmetic oracle: g*mu_B/(hbar*c^2) from raw CODATA numbers
COEF_ORACLE = 2.0 * 9.2740100783e-24 / (
    (6.62607015e-34 / (2.0 * np.pi)) * 299792458.0**2
)

PARAMS = NVParameters()
TRAJ = station_trajectory(0.01, 4000.0)
FIELD = FieldConfig(magnitude=3e7)
HALF = 1.0 / (2.0 * 4000.0)


class TestPhaseRate:
    def test_zero_at_y_extremes(self):
        # stations sit at the y extremes where v_y = 0
        assert abs(phase_rate(0.0, TRAJ, FIELD, PARAMS)) < 1e-9
        assert abs(phase_rate(HALF, TRAJ, FIELD, PARAMS)) < 1e-9

    def test_peak_rate_value(self):
        # fastest +y motion happens a quarter period after station A
        rate = phase_rate(HALF / 2.0, TRAJ, FIELD, PARAMS)
        expected = COEF_ORACLE * 3e7 * 2.0 * np.pi * 4000.0 * 0.01
        assert rate == pytest.approx(expected, rel=1e-12)
        assert rate == pytest.approx(1.4755e4, rel=1e-4)

    def test_linear_in_field(self):
        t = 4.2e-5
        single = phase_rate(t, TRAJ, FIELD, PARAMS)
        double = phase_rate(t, TRAJ, FieldConfig(magnitude=6e7), PARAMS)
        assert double == pytest.approx(2.0 * single, rel=1e-12)

    def test_rejects_tilt(self):
        tilted = station_trajectory(0.01, 4000.0, tilt=0.1)
        with pytest.raises(NumericPreconditionError):
            phase_rate(0.0, tilted, FIELD, PARAMS)

    def test_sign_flips_with_rotation_sense(self):
        # both senses leave station A moving +y; compare them where they pass
        # the same rim point (+r, 0) at full speed: a quarter period after
        # station A counterclockwise, three quarters clockwise
        ccw = DiskTrajectory(radius=0.01, frequency=4000.0)
        cw = DiskTrajectory(radius=0.01, frequency=-4000.0)
        quarter = HALF / 2.0
        assert np.allclose(position(ccw, quarter), position(cw, 3.0 * quarter), atol=1e-15)
        r1 = phase_rate(quarter, ccw, FIELD, PARAMS)
        r2 = phase_rate(3.0 * quarter, cw, FIELD, PARAMS)
        assert r1 > 0.0 and r2 < 0.0
        assert r1 == pytest.approx(-r2, rel=1e-12)


class TestSegmentPhase:
    def test_half_rotation_value(self):
        seg = segment_phase(0.0, HALF, TRAJ, FIELD, PARAMS)
        assert seg == pytest.approx(COEF_ORACLE * 3e7 * 0.02, rel=1e-12)
        assert seg == pytest.approx(1.174, abs=5e-4)

    def test_full_rotation_closes(self):
        assert abs(segment_phase(0.0, 2 * HALF, TRAJ, FIELD, PARAMS)) < 1e-12

    def test_reversed_limits_negate(self):
        fwd = segment_phase(0.0, HALF, TRAJ, FIELD, PARAMS)
        rev = segment_phase(HALF, 0.0, TRAJ, FIELD, PARAMS)
        assert rev == -fwd

    def test_positive_y_motion_gives_positive_phase(self):
        assert segment_phase(0.0, HALF, TRAJ, FIELD, PARAMS) > 0.0

    def test_quadrature_oracle(self):
        # adaptive quadrature of the rate reproduces the endpoint formula
        def rate(t):
            return phase_rate(t, TRAJ, FIELD, PARAMS)

        for t0, t1 in [(0.0, HALF), (1.3e-5, 2.1e-4), (0.0, 3.3e-4)]:
            numeric, _ = quad(rate, t0, t1, epsabs=1e-13, epsrel=1e-12, limit=200)
            exact = segment_phase(t0, t1, TRAJ, FIELD, PARAMS)
            assert numeric == pytest.approx(exact, rel=1e-9, abs=1e-12)

    @given(
        t0=st.floats(min_value=0.0, max_value=1e-3),
        span=st.floats(min_value=1e-6, max_value=1e-3),
    )
    def test_antisymmetric_and_additive(self, t0, span):
        mid = t0 + span / 2.0
        t1 = t0 + span
        total = segment_phase(t0, t1, TRAJ, FIELD, PARAMS)
        split = segment_phase(t0, mid, TRAJ, FIELD, PARAMS) + segment_phase(
            mid, t1, TRAJ, FIELD, PARAMS
        )
        assert total == pytest.approx(split, abs=1e-12)


class TestTotalRectifiedPhase:
    def test_reference_value(self):
        phi = total_rectified_phase(0.01, 3e7, 7.2, 2.0)
        assert phi == pytest.approx(4.0 * 2.0 * 9.2740100783e-24 * 0.01 * 3e7 * 7.2
                                    / ((6.62607015e-34 / (2 * np.pi)) * 299792458.0**2),
                                    rel=1e-12)
        assert 16.7 <= phi <= 17.1

    def test_zero_field(self):
        assert total_rectified_phase(0.01, 0.0, 7.0, 2.0) == 0.0

    def test_linear_in_rotations(self):
        one = total_rectified_phase(0.01, 3e7, 1.0, 2.0)
        ten = total_rectified_phase(0.01, 3e7, 10.0, 2.0)
        assert ten == pytest.approx(10.0 * one, rel=1e-12)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            total_rectified_phase(-0.01, 3e7, 1.0, 2.0)
        with pytest.raises(ValueError):
            total_rectified_phase(0.01, -3e7, 1.0, 2.0)

    def test_array_field_matches_scalar_calls(self):
        fields = np.linspace(0.0, 3e7, 7)
        phis = total_rectified_phase(0.01, fields, 7, 2.0)
        assert phis.tolist() == [total_rectified_phase(0.01, e, 7, 2.0) for e in fields]
        assert type(total_rectified_phase(0.01, 3e7, 7, 2.0)) is float

    def test_array_with_a_negative_field_rejected(self):
        with pytest.raises(ValueError):
            total_rectified_phase(0.01, np.array([0.0, -1.0, 3e7]), 7, 2.0)

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_rectification_identity(self, n):
        # alternating-sign sum of the 2n station-to-station segments
        acc = 0.0
        sign = 1.0
        for k in range(2 * n):
            acc += sign * segment_phase((k) * HALF, (k + 1) * HALF, TRAJ, FIELD, PARAMS)
            sign = -sign
        total = total_rectified_phase(0.01, 3e7, float(n), 2.0)
        assert abs(acc - total) < 1e-10


def test_coupling_constant_matches_oracle():
    assert coupling_constant(PARAMS) == pytest.approx(COEF_ORACLE, rel=1e-12)
