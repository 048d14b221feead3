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
from ac_diamond.physics import C_LIGHT, HBAR, MU_B, NVParameters

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
        t0=st.floats(min_value=0.0, max_value=1e-2),
        t1=st.floats(min_value=0.0, max_value=1e-2),
        r=st.floats(min_value=1e-4, max_value=1.0),
        f=st.floats(min_value=-1e4, max_value=1e4).filter(lambda f: abs(f) > 1.0),
        e=st.floats(min_value=0.0, max_value=1e8),
    )
    def test_is_the_numpy_position_formula_bit_for_bit(self, t0, t1, r, f, e):
        # y(t) of position(), which stays the numpy reference for the
        # closed form's Python-float arithmetic
        traj = DiskTrajectory(radius=r, frequency=f)
        field = FieldConfig(magnitude=e)
        dy = position(traj, t1)[..., 1] - position(traj, t0)[..., 1]
        reference = float(coupling_constant(PARAMS) * (dy * e))
        assert segment_phase(t0, t1, traj, field, PARAMS) == reference

    @pytest.mark.parametrize("g, radius, e", [(2.0, 1e300, 1e10), (2.0, 1e150, 1e160),
                                              (5e-324, 1e300, 1e10)],
                             ids=["dy-times-E-overflows", "both-huge", "zero-coupling"])
    def test_unrepresentable_phase_refused(self, g, radius, e):
        # numpy under errstate raised at the overflowing product; Python floats
        # give inf there, or NaN where the coupling underflows to 0
        traj = station_trajectory(radius, 4000.0)
        with pytest.raises(NumericPreconditionError, match="segment phase .* not finite"):
            segment_phase(0.0, HALF, traj, FieldConfig(magnitude=e), NVParameters(g=g))

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


def _numpy_rectified_phase(radius, e_field, n_rotations, g):
    """The rectified phase with its checks written in numpy, as the reference
    for the numpy-free checks of :func:`total_rectified_phase`."""
    if np.any(radius < 0.0):
        raise ValueError("radius must be non-negative")
    if np.any(e_field < 0.0):
        raise ValueError("field magnitude must be non-negative")
    if np.any(n_rotations < 0.0):
        raise ValueError("rotation count must be non-negative")
    phase = 4.0 * g * MU_B * radius * e_field * n_rotations / (HBAR * C_LIGHT**2)
    if not np.all(np.isfinite(phase)):
        raise NumericPreconditionError(
            "total rectified A-C phase is not finite: g*r*E*n too large"
        )
    return phase


def _outcome(fn, args):
    """(result type, result bytes) of a call, or (error type, message)."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            result = fn(*args)
        except ValueError as exc:
            return type(exc), str(exc)
    return type(result), np.asarray(result).tobytes()


NAN, INF = np.nan, np.inf


@pytest.mark.parametrize(
    "args",
    [
        (np.array([0.01, NAN]), 3e7, 7, 2.0),
        (np.array([0.01, INF]), 3e7, 7, 2.0),
        (np.array([0.01, -INF]), 3e7, 7, 2.0),
        (np.array([0.01, -0.01]), 3e7, 7, 2.0),
        (np.array([NAN, -1.0]), 3e7, 7, 2.0),  # the NaN must not hide the negative
        (0.01, np.array([3e7, NAN, -1.0]), 7, 2.0),
        (0.01, 3e7, np.array([1.0, 7.0, INF]), 2.0),
        (0.01, 3e7, np.array([-1.0, 7.0]), 2.0),
        (0.01, 3e7, 7, np.array([2.0, INF])),
        (0.01, 3e7, 7, np.array([2.0, -INF])),
        (0.01, 3e7, 7, -2.0),
        (0.01, 3e7, 7, -1e300),
        (np.array([1e300]), np.array([1e300]), 7, 2.0),
        (np.array(0.01), np.array(3e7), np.array(7.0), 2.0),
        (np.array(-0.01), 3e7, 7, 2.0),
        (np.array(NAN), 3e7, 7, 2.0),
        (0.01, np.array(INF), 7, 2.0),
        (np.float64(0.01), np.float64(3e7), np.float64(7.0), np.float64(2.0)),
        (np.float64(-0.01), 3e7, 7, 2.0),
        (np.float64(0.01), np.float64(NAN), 7, 2.0),
        (np.float64(-0.0), 3e7, 7, 2.0),
        (1, 30000000, 7, 2),
        (-1, 30000000, 7, 2),
        (1, 30000000, -7, 2),
        (0.01, NAN, 7, 2.0),
        (1e200, 1e200, 7.2, 2.0),
        (np.array([]), 3e7, 7, 2.0),
    ],
)
def test_checks_refuse_and_accept_as_numpy_does(args):
    assert _outcome(total_rectified_phase, args) == _outcome(_numpy_rectified_phase, args)


def test_coupling_constant_matches_oracle():
    assert coupling_constant(PARAMS) == pytest.approx(COEF_ORACLE, rel=1e-12)
