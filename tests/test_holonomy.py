"""Tests for the path-ordered propagator, Dyson diagnostics, and the state step
of the echo oracle."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ac_diamond import holonomy
from ac_diamond.errors import NumericPreconditionError
from ac_diamond.geometry import STATION_A_ANGLE, FieldConfig, station_trajectory, velocity
from ac_diamond.holonomy import (
    _CHUNK_STEPS,
    PathSampling,
    Propagator,
    _coupling_axes,
    _ordered_product,
    _step_exponentials,
    dyson_second_order,
    path_ordered_propagator,
    unitarity_defect,
)
from ac_diamond.phase import coupling_constant, segment_phase
from ac_diamond.holonomy import spin_operators
from ac_diamond.physics import NVParameters

PARAMS = NVParameters()
# finite, extreme and non-finite inputs, for the refusal property
ANY_FLOAT = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, 1e-300, -1e-300, 1e-150, 1e150, 1e300, -1e300, 1.7976931348623157e308]
) | st.floats(-1e3, 1e3)
RADIUS, FREQ = 0.01, 4000.0
HALF = 1.0 / (2.0 * FREQ)
PLANAR = station_trajectory(RADIUS, FREQ)
TILTED = station_trajectory(RADIUS, FREQ, tilt=0.3)
# tilted by far less than any phase or bound resolves: the general stepper
# on what is numerically the planar path
BARELY_TILTED = station_trajectory(RADIUS, FREQ, tilt=1e-9)
FIELD = FieldConfig(magnitude=3e7)
GROUND = np.array([0.0, 1.0, 0.0], dtype=complex)  # the optically pumped |0>


def sampling(steps, t0=0.0, t1=HALF, traj=PLANAR, field=FIELD):
    return PathSampling(t_start=t0, t_end=t1, steps=steps, trajectory=traj, field=field)


def scaled_field(traj, budget=0.1, steps=20001):
    """Field magnitude making integral ||G|| dt equal the given budget."""
    t = np.linspace(0.0, 1.0 / FREQ, steps)
    axis = np.cross([1.0, 0.0, 0.0], velocity(traj, t))
    per_volt = coupling_constant(PARAMS) * np.trapezoid(
        np.linalg.norm(axis, axis=1), t
    )
    return FieldConfig(magnitude=budget / per_volt)


def generators(samp):
    """Midpoint generators G = axes . S of every step, as a (steps, 3, 3) stack."""
    # one complex matrix product, (N, 3) @ (3, 9)
    axes = _coupling_axes(samp, PARAMS, 0, samp.steps)
    return (axes.astype(complex) @ spin_operators().reshape(3, -1)).reshape(-1, 3, 3)


def _exp_hermitian(h, t=1.0):
    """exp(-i*t*h) of a Hermitian matrix h, or of each one in a stack, by
    eigendecomposition: the independent reference for the closed-form steps."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * t * w)[..., None, :]) @ np.swapaxes(v, -1, -2).conj()


def _two_sum(a, b):
    """a + b as an unevaluated pair (sum, rounding error), exactly (Knuth)."""
    total = a + b
    b_part = total - a
    return total, (a - (total - b_part)) + (b - b_part)


def _two_product(a, b):
    """a * b as an unevaluated pair (product, rounding error), exactly
    (Dekker, halves split off by Veltkamp's 2**27 + 1)."""
    def split(x):
        scaled = 134217729.0 * x
        high = scaled - (scaled - x)
        return high, x - high

    product = a * b
    (a_hi, a_lo), (b_hi, b_lo) = split(a), split(b)
    return product, ((a_hi * b_hi - product) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def exact_angle_planar_product(samp, detuning_hz):
    """The planar diagonal propagator from the per-step midpoint rates
    k*E*v_y, with each angle STATION_A_ANGLE + omega*(t0 + (n + 1/2)*dt)
    formed in double-double from the same floats, so that only its cosine
    and the final sum round; with the size of the summed phases,
    dt*sum|a_z| + |2*pi*detuning_hz|*span, which sets their rounding."""
    traj = samp.trajectory
    omega = 2.0 * np.pi * traj.frequency
    offset, offset_err = _two_product(np.arange(samp.steps) + 0.5, samp.dt)
    time, time_err = _two_sum(samp.t_start, offset)
    turned, turned_err = _two_product(omega, time)
    angle, angle_err = _two_sum(STATION_A_ANGLE, turned)
    angle_err += turned_err + omega * (time_err + offset_err)
    # cos(angle + angle_err) to first order: angle_err is below an ulp of angle
    cos = np.cos(angle) - np.sin(angle) * angle_err
    amplitude = coupling_constant(PARAMS) * samp.field.magnitude * omega * traj.radius
    span = samp.t_end - samp.t_start
    const = np.array([0.0, 0.0, 2.0 * np.pi * detuning_hz])
    phases = samp.dt * (np.array([-1.0, 0.0, 1.0]) * (amplitude * math.fsum(cos))) + const * span
    magnitude = samp.dt * abs(amplitude) * math.fsum(np.abs(cos))
    return np.diag(np.exp(-1j * phases)), magnitude + abs(const[2]) * span


def strang_product(samp, detuning_hz, reverse=False):
    """Strang's split exp(-i*C*dt/2) exp(-i*dt*G_n) exp(-i*C*dt/2) of every
    step, multiplied out in path order (or reversed) in np.clongdouble, so
    that the half-step factor, reused for every step, does not round
    coherently at double precision (80-bit extended on x86-64)."""
    const_diag = np.array([0.0, 0.0, 2.0 * np.pi * detuning_hz], dtype=np.longdouble)
    half = np.exp(-0.5j * np.longdouble(samp.dt) * const_diag)
    rotations = _exp_hermitian(generators(samp), samp.dt).astype(np.clongdouble)
    stack = half[:, None] * rotations * half
    return _ordered_product(stack[::-1] if reverse else stack).astype(complex)


def effective_hamiltonian_evolve(samp, initial, detuning_hz=0.0):
    """Integrate i d|psi>/dt = G(t) |psi> over the sampled segment as the echo
    oracle steps its state: the amplitudes ``initial`` times the polar factor
    of the path-ordered propagator."""
    u = path_ordered_propagator(samp, PARAMS, detuning_hz=detuning_hz).U
    w, _, vh = np.linalg.svd(u)
    return w @ vh @ initial


class TestCouplingGenerator:
    def test_planar_generator_is_diagonal_sz(self):
        # one step over the first half rotation: its midpoint is the fastest +y point
        gen = generators(sampling(1))[0]
        off = gen - np.diag(np.diag(gen))
        assert np.max(np.abs(off)) == 0.0
        # G = coef*E*v_y*Sz at the fastest +y point
        expected = coupling_constant(PARAMS) * 3e7 * 2 * np.pi * FREQ * RADIUS
        assert np.real(gen[2, 2]) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("sense", [1.0, -1.0], ids=["ccw", "cw"])
    @pytest.mark.parametrize("tilt", [0.3, np.pi / 2.0, -0.3])
    def test_axis_is_the_cross_product_with_the_field(self, tilt, sense):
        traj = station_trajectory(RADIUS, sense * FREQ, tilt=tilt)
        samp = sampling(1000, t1=1.0 / FREQ, traj=traj)
        v = velocity(traj, samp.t_start + (np.arange(samp.steps) + 0.5) * samp.dt)
        cross = coupling_constant(PARAMS) * np.cross([FIELD.magnitude, 0.0, 0.0], v)
        assert np.array_equal(_coupling_axes(samp, PARAMS, 0, samp.steps), cross)

    def test_zero_field_gives_zero(self):
        gens = generators(sampling(10, field=FieldConfig(magnitude=0.0)))
        assert np.max(np.abs(gens)) == 0.0

    def test_tilt_offdiagonal_fraction(self):
        # max-over-time off-diagonal vs diagonal spectral norms: the ratio is
        # sin(tilt), bounded by tan(tilt)
        tilt = 0.1
        tilted = station_trajectory(RADIUS, FREQ, tilt=tilt)
        gens = generators(sampling(400, t1=1.0 / FREQ, traj=tilted))
        diags = np.einsum("nii->ni", gens)[:, :, None] * np.eye(3)
        off_norm = np.max(np.linalg.norm(gens - diags, 2, axis=(1, 2)))
        diag_norm = np.max(np.linalg.norm(diags, 2, axis=(1, 2)))
        ratio = off_norm / diag_norm
        assert ratio <= np.tan(tilt) + 1e-9
        assert ratio == pytest.approx(np.sin(tilt), rel=1e-3)


class TestPathOrderedPropagator:
    def test_zero_field_identity(self):
        prop = path_ordered_propagator(
            sampling(100, field=FieldConfig(magnitude=0.0)), PARAMS
        )
        assert np.max(np.abs(prop.U - np.eye(3))) < 1e-14

    def test_planar_half_rotation_matches_closed_form(self):
        exact = segment_phase(0.0, HALF, PLANAR, FIELD, PARAMS)
        prop = path_ordered_propagator(sampling(100000), PARAMS)
        assert abs(prop.abelian_phase() - exact) < 1e-8 * exact
        diag = np.diag(prop.U)
        expected = np.exp(-1j * exact * np.array([-1.0, 0.0, 1.0]))
        assert np.max(np.abs(diag - expected)) < 1e-8

    def test_planar_full_rotation_identity(self):
        prop = path_ordered_propagator(sampling(20000, t1=2 * HALF), PARAMS)
        assert np.max(np.abs(prop.U - np.eye(3))) < 1e-8

    def test_step_too_coarse_rejected(self):
        with pytest.raises(NumericPreconditionError):
            path_ordered_propagator(sampling(1), PARAMS)

    def test_non_finite_generators_rejected(self):
        # r = 1e300 makes inf * 0 in the generator grid, so its bound is NaN
        huge = station_trajectory(1e300, FREQ)
        with pytest.raises(NumericPreconditionError):
            path_ordered_propagator(sampling(16, traj=huge), PARAMS)

    @pytest.mark.parametrize("traj", [PLANAR, TILTED], ids=["planar", "tilted"])
    def test_infinite_midpoint_angle_rejected(self, traj):
        # 2*pi*f*t overflows: math.cos refuses the planar angle and numpy
        # makes a NaN tilted axis, both reported as the non-finite coupling
        # axis, not as an overflow raised by the tilted stepper's error state
        with pytest.raises(NumericPreconditionError, match="coupling axis .* not finite"):
            path_ordered_propagator(sampling(16, t1=1e308, traj=traj), PARAMS)

    def test_second_order_convergence(self):
        exact = segment_phase(0.0, HALF, PLANAR, FIELD, PARAMS)

        def err(steps):
            prop = path_ordered_propagator(sampling(steps), PARAMS)
            return abs(prop.abelian_phase() - exact)

        ratio = err(10000) / err(20000)
        assert 3.5 <= ratio <= 4.5

    @pytest.mark.parametrize("tilt", [0.0, 0.2])
    def test_unitarity(self, tilt):
        traj = station_trajectory(RADIUS, FREQ, tilt=tilt)
        prop = path_ordered_propagator(sampling(5000, traj=traj), PARAMS)
        if tilt == 0.0:
            # the diagonal's max|conj(z)*z - 1| is not bitwise numpy's U^dag U - I,
            # which leaves an imaginary residue of about 1e-17
            assert prop.defect < 1e-15 and unitarity_defect(prop.U) < 1e-15
        else:
            assert prop.defect == unitarity_defect(prop.U) < 1e-10

    def test_abelian_reduction_offdiagonal(self):
        prop = path_ordered_propagator(sampling(20000), PARAMS)
        assert prop.offdiagonal_norm() < 1e-10

    def test_tilted_offdiagonal_norm_is_the_largest_offdiagonal_entry(self):
        prop = path_ordered_propagator(sampling(2000, traj=TILTED), PARAMS)
        off = prop.U - np.diag(np.diag(prop.U))
        assert prop.offdiagonal_norm() == np.max(np.abs(off)) > 0.0

    def test_composition(self):
        mid = HALF / 2.0
        full = path_ordered_propagator(sampling(4000), PARAMS)
        first = path_ordered_propagator(sampling(2000, t1=mid), PARAMS)
        second = path_ordered_propagator(sampling(2000, t0=mid, t1=HALF), PARAMS)
        assert np.max(np.abs(second.U @ first.U - full.U)) < 1e-9

    def test_reverse_is_keyword_only(self):
        # a caller still passing a spin dimension by position is refused
        with pytest.raises(TypeError):
            path_ordered_propagator(sampling(100), PARAMS, 3)

    @pytest.mark.parametrize(
        "call",
        [
            lambda samp: path_ordered_propagator(samp, PARAMS, dimension=3),
            lambda samp: dyson_second_order(samp, PARAMS, dimension=3),
            lambda samp: Propagator(np.eye(3), dimension=3),
        ],
        ids=["path_ordered_propagator", "dyson_second_order", "Propagator"],
    )
    def test_spin_dimension_keyword_refused(self, call):
        with pytest.raises(TypeError, match="dimension"):
            call(sampling(100))

    @pytest.mark.parametrize(
        "t1, steps", [(HALF, 0), (HALF, -1), (0.0, 10), (-HALF, 10)],
        ids=["zero-steps", "negative-steps", "empty-span", "reversed-span"],
    )
    def test_sampling_refuses_no_steps_or_no_span(self, t1, steps):
        with pytest.raises(ValueError):
            sampling(steps, t1=t1)

    @pytest.mark.parametrize(
        "t0, t1", [(0.0, math.inf), (-math.inf, 0.0), (-1e308, 1e308)],
        ids=["infinite-end", "infinite-start", "overflowing-span"],
    )
    def test_sampling_refuses_a_non_finite_span_by_name(self, t0, t1):
        # accepted before, it ended in "C*span is not finite" at zero detuning
        with pytest.raises(NumericPreconditionError, match="sampling span"):
            sampling(2000, t0=t0, t1=t1)

    @pytest.mark.parametrize("steps", [1000.0, True, "1000"], ids=["float", "bool", "str"])
    def test_sampling_refuses_non_integer_steps(self, steps):
        with pytest.raises(ValueError, match="steps must be a positive integer"):
            sampling(steps)

    @pytest.mark.parametrize("traj", [PLANAR, TILTED], ids=["planar", "tilted"])
    def test_sampling_takes_any_integral_steps(self, traj):
        # a numpy integer is stored as an int, so the planar sum's exact
        # integer arithmetic cannot overflow it
        samp = sampling(np.int64(2000), traj=traj)
        assert type(samp.steps) is int
        expected = path_ordered_propagator(sampling(2000, traj=traj), PARAMS).U
        assert np.array_equal(path_ordered_propagator(samp, PARAMS).U, expected)

    @pytest.mark.parametrize("traj", [PLANAR, TILTED], ids=["planar", "tilted"])
    @pytest.mark.parametrize(
        "name, value",
        [("detuning_hz", math.inf), ("detuning_hz", -math.inf), ("detuning_hz", math.nan)],
    )
    def test_bad_constant_diagonal_argument_refused_by_name(self, name, value, traj):
        with pytest.raises(NumericPreconditionError, match=f"{name} = {value!r} is not"):
            path_ordered_propagator(sampling(2000, traj=traj), PARAMS, **{name: value})

    @pytest.mark.parametrize("traj", [PLANAR, TILTED], ids=["planar", "tilted"])
    @pytest.mark.parametrize("kwargs", [{"detuning_hz": 1e308}], ids=["detuning"])
    def test_overflowing_constant_diagonal_phase_refused(self, kwargs, traj):
        # 2*pi*1e308 Hz overflows before any step is built
        samp = sampling(2000, traj=traj)
        with pytest.raises(NumericPreconditionError, match="C\\*span is not finite"):
            path_ordered_propagator(samp, PARAMS, **kwargs)

    @pytest.mark.parametrize("traj", [PLANAR, TILTED], ids=["planar", "tilted"])
    def test_numpy_scalar_detuning_overflow_refused_without_a_warning(self, traj):
        # 2*pi*np.float64(1e308) warned "overflow encountered in scalar multiply"
        with pytest.raises(NumericPreconditionError, match="C\\*span is not finite"):
            path_ordered_propagator(sampling(2000, traj=traj), PARAMS,
                                    detuning_hz=np.float64(1e308))

    @settings(max_examples=60, deadline=None)
    @given(
        radius=ANY_FLOAT, frequency=ANY_FLOAT, tilt=ANY_FLOAT, magnitude=ANY_FLOAT,
        span=ANY_FLOAT, detuning_hz=ANY_FLOAT, reverse=st.booleans(),
        steps=st.integers(1, 64).flatmap(
            lambda n: st.sampled_from([n, float(n), bool(n), np.int64(n)])
        ),
    )
    def test_any_input_returns_or_is_refused(
        self, radius, frequency, tilt, magnitude, span, detuning_hz, reverse, steps
    ):
        # never a bare TypeError, ZeroDivisionError or OverflowError
        try:
            traj = station_trajectory(radius, frequency, tilt=tilt)
            samp = PathSampling(0.0, span, steps, traj, FieldConfig(magnitude=magnitude))
            path_ordered_propagator(samp, PARAMS, reverse=reverse, detuning_hz=detuning_hz)
        except (ValueError, FloatingPointError):  # NumericPreconditionError is a ValueError
            pass

    def test_nonunitary_matrix_rejected(self):
        with pytest.raises(ValueError):
            Propagator(U=np.diag([1.0, 1.0, 2.0]).astype(complex))

    @pytest.mark.parametrize(
        "given",
        [{"U": np.diag([1.0, 1.0, 2.0]).astype(complex)},
         {"U": np.diag([1.0, 1.0, np.nan]).astype(complex)},
         {"diagonal": [1.0 + 0j, 1.0 + 0j, 2.0 + 0j]},
         {"diagonal": [1.0 + 0j, 1.0 + 0j, complex("nan")]}],
        ids=["matrix", "nan-matrix", "diagonal", "nan-diagonal"],
    )
    def test_nonunitary_propagator_is_a_precondition_error(self, given):
        # so that the CLI exits 3 on it
        with pytest.raises(NumericPreconditionError, match="not unitary"):
            Propagator(**given)


class TestStreamingStepper:
    """The stepper walks the grid in blocks of _CHUNK_STEPS steps; the result
    must be the whole-grid ordered product of the same step exponentials."""

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    @pytest.mark.parametrize("traj", [PLANAR, TILTED], ids=["planar", "tilted"])
    @pytest.mark.parametrize(
        "steps",
        [1, _CHUNK_STEPS - 1, _CHUNK_STEPS, _CHUNK_STEPS + 1, 3 * _CHUNK_STEPS + 5],
    )
    def test_matches_unchunked_product(self, steps, traj, reverse):
        # 0.1 rad of coupling per rotation: even one step over 0.6 rotations
        # passes the step-resolution bound
        samp = sampling(steps, t1=0.6 / FREQ, traj=traj, field=scaled_field(traj))
        stack = _exp_hermitian(generators(samp), samp.dt)
        expected = _ordered_product(stack[::-1] if reverse else stack)
        prop = path_ordered_propagator(samp, PARAMS, reverse=reverse)
        assert np.max(np.abs(prop.U - expected)) < 1e-13

    def test_planar_forward_and_reverse_are_bitwise_equal(self):
        samp = sampling(3 * _CHUNK_STEPS + 5)
        fwd = path_ordered_propagator(samp, PARAMS)
        rev = path_ordered_propagator(samp, PARAMS, reverse=True)
        assert np.array_equal(fwd.U, rev.U)
        assert fwd.offdiagonal_norm() == 0.0

    def test_planar_path_never_diagonalises(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("coupling axes or step exponentials built for planar motion")

        monkeypatch.setattr(holonomy, "_step_exponentials", refuse)
        monkeypatch.setattr(holonomy, "_coupling_axes", refuse)
        samp = sampling(3 * _CHUNK_STEPS + 5)
        prop = path_ordered_propagator(samp, PARAMS)
        assert prop.offdiagonal_norm() == 0.0
        prop = path_ordered_propagator(samp, PARAMS, detuning_hz=1e5)
        assert prop.offdiagonal_norm() == 0.0
        out = effective_hamiltonian_evolve(samp, GROUND, detuning_hz=1e5)
        assert abs(out[1]) ** 2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "steps",
        [1, _CHUNK_STEPS - 1, _CHUNK_STEPS, _CHUNK_STEPS + 1, 2 * _CHUNK_STEPS,
         3 * _CHUNK_STEPS + 5],
    )
    def test_planar_axes_path_equals_generator_stack_bitwise(self, steps):
        # the diagonal product from the whole-grid (N, 3, 3) generator
        # stack, its rates summed with math.fsum in blocks of _CHUNK_STEPS
        samp = sampling(steps, t1=0.6 / FREQ, field=scaled_field(PLANAR))
        gens, dt = generators(samp), samp.dt
        assert not np.any(gens - np.einsum("nii->ni", gens)[:, :, None] * np.eye(3))
        rates = np.einsum("nii->in", gens).real.tolist()
        summed = np.zeros(3)
        for start in range(0, steps, _CHUNK_STEPS):
            summed += [math.fsum(rate[start : start + _CHUNK_STEPS]) for rate in rates]

        def reference(const_diag):
            # the constant diagonal joins as its own factor exp(-i*C*span)
            span = samp.t_end - samp.t_start
            return np.diag(np.exp(-1j * (const_diag * span)) * np.exp(-1j * (dt * summed)))

        # the stepper's closed-form sum of the same rates agrees to rounding
        # (within 1.4e-17 on x86-64, where 3 of these 6 step counts are exact)
        prop = path_ordered_propagator(samp, PARAMS)
        assert np.max(np.abs(prop.U - reference(np.zeros(3)))) <= 1e-15

        detuned = path_ordered_propagator(samp, PARAMS, detuning_hz=1e5)
        detuned_ref = reference(np.array([0.0, 0.0, 2.0 * np.pi * 1e5]))
        assert np.max(np.abs(detuned.U - detuned_ref)) <= 1e-15

    @pytest.mark.parametrize("detuning_hz", [0.0, 1e5])
    @settings(max_examples=30, deadline=None)
    @given(
        radius=st.floats(1e-3, 1.0),
        frequency=st.floats(10.0, 1e5),
        sense=st.sampled_from([1.0, -1.0]),
        start_turns=st.floats(0.0, 10.0),
        turns=st.floats(0.01, 3.0),
        steps=st.integers(1, 2 * _CHUNK_STEPS + 3),
        step_phase=st.floats(0.0, 0.45),
    )
    # six turns in, the float midpoint angles round coherently: a per-step
    # sum of their cosines is 1.26e-14 off the exact-angle one
    @example(radius=1.0, frequency=10.0, sense=1.0, start_turns=6.0, turns=0.03125,
             steps=24, step_phase=0.25)
    # each step just over a whole turn: h/2 lies near pi, not 0, where only
    # a reduction by multiples of pi keeps sin(h/2) to full relative precision
    @example(radius=0.1, frequency=123.0, sense=1.0, start_turns=0.7, turns=2.0000001,
             steps=2, step_phase=0.4)
    def test_planar_floats_match_the_numpy_product(
        self, detuning_hz, radius, frequency, sense, start_turns, turns, steps, step_phase
    ):
        # the field sets dt*max|a_z| to at most step_phase, under MAX_STEP_PHASE
        traj = station_trajectory(radius, sense * frequency)
        speed = 2.0 * np.pi * frequency * radius
        t0, span = start_turns / frequency, turns / frequency
        field = FieldConfig(step_phase / ((span / steps) * coupling_constant(PARAMS) * speed))
        samp = sampling(steps, t0=t0, t1=t0 + span, traj=traj, field=field)
        want, phase_scale = exact_angle_planar_product(samp, detuning_hz)
        got = path_ordered_propagator(samp, PARAMS, detuning_hz=detuning_hz).U
        # within rounding of the summed phases
        assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, phase_scale)

    @settings(max_examples=60, deadline=None)
    @given(
        radius=st.floats(1e-3, 1.0),
        frequency=st.floats(10.0, 1e5),
        sense=st.sampled_from([1.0, -1.0]),
        start_turns=st.floats(0.0, 10.0),
        turns=st.floats(0.001, 8.0),
        steps=st.integers(1, 5000),
    )
    def test_planar_step_gate_is_the_max_over_every_step(
        self, radius, frequency, sense, start_turns, turns, steps
    ):
        # the gate evaluates a few steps; its dt*max|a_z| must be the one
        # over every step's rate k*(E*v_y), v_y = 2*pi*f*r*cos(theta_n), bit for bit
        traj = station_trajectory(radius, sense * frequency)
        t0 = start_turns / frequency
        samp = sampling(steps, t0=t0, t1=t0 + turns / frequency, traj=traj)
        omega = 2.0 * math.pi * traj.frequency
        k, e, speed, dt = coupling_constant(PARAMS), FIELD.magnitude, omega * radius, samp.dt
        rates = [k * (e * (speed * math.cos(STATION_A_ANGLE + omega * (t0 + (n + 0.5) * dt))))
                 for n in range(steps)]
        gated = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(holonomy, "_check_step_bound", gated.append)
            path_ordered_propagator(samp, PARAMS)
        assert gated == [dt * max(map(abs, rates))]

    @pytest.mark.parametrize("span", [5e-324, 1.6e-20], ids=["zero-step", "subnormal-half-step"])
    def test_planar_half_step_below_the_float_range(self, span):
        # a disk that turns by under 1e-320 rad a step: omega*dt/2 rounds to
        # 0 or to a subnormal, every midpoint angle rounds to STATION_A_ANGLE,
        # and the 16 rates sum to 16 times that one rate (about 0.06 rad a step)
        params = NVParameters(g=1.6e11)
        traj = station_trajectory(1e30, 1e-300)
        field = FieldConfig(magnitude=1e300)
        samp = sampling(16, t1=span, traj=traj, field=field)
        speed = 2.0 * math.pi * traj.frequency * traj.radius
        rate = coupling_constant(params) * (field.magnitude * (speed * math.cos(STATION_A_ANGLE)))
        prop = path_ordered_propagator(samp, params)
        assert prop.abelian_phase() == pytest.approx(samp.dt * (16 * rate), abs=1e-15)

    def test_constant_diagonal_joins_every_tilted_step(self):
        # the detuning is split in halves around each midpoint exponential
        # of a.S (measured 3.5e-14 apart)
        field = scaled_field(TILTED)
        samp = sampling(_CHUNK_STEPS + 3, t1=0.6 / FREQ, traj=TILTED, field=field)
        prop = path_ordered_propagator(samp, PARAMS, detuning_hz=1e3)
        assert np.max(np.abs(prop.U - strang_product(samp, 1e3))) < 1e-13
        assert np.max(np.abs(prop.U - path_ordered_propagator(samp, PARAMS).U)) > 1e-3

    def test_constant_diagonal_joins_every_reversed_tilted_step(self):
        # the anti-ordered product of the same split steps (measured 3.5e-14
        # apart; 6.3e-13 with one rounded half-step factor reused per step)
        field = scaled_field(TILTED)
        samp = sampling(_CHUNK_STEPS + 3, t1=0.6 / FREQ, traj=TILTED, field=field)
        prop = path_ordered_propagator(samp, PARAMS, reverse=True, detuning_hz=1e3)
        assert np.max(np.abs(prop.U - strang_product(samp, 1e3, reverse=True))) < 1e-13

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    def test_frame_phase_is_the_full_3x3_formula_bit_for_bit(self, reverse):
        # the stepper takes one exponential exp(i*c*t_n) a step for row 2 and
        # its conjugate for column 2; the full 3x3 phase exp(i*(c_j - c_k)*t_n)
        # of C = diag(0, 0, c), times exp(-i*C*span), gives the same bits
        field = scaled_field(TILTED)
        samp = sampling(_CHUNK_STEPS + 3, t1=0.6 / FREQ, traj=TILTED, field=field)
        const_diag = [0.0, 0.0, 2.0 * math.pi * 1e3]
        gaps = np.subtract.outer(const_diag, const_diag)
        span, dt = samp.t_end - samp.t_start, samp.dt
        product = np.eye(3, dtype=complex)
        for start in range(0, samp.steps, _CHUNK_STEPS):
            stop = min(start + _CHUNK_STEPS, samp.steps)
            steps = _step_exponentials(_coupling_axes(samp, PARAMS, start, stop), dt, 0.0)
            offsets = (np.arange(start, stop) + 0.5) * dt
            steps *= np.exp(1j * np.multiply.outer(span - offsets if reverse else offsets, gaps))
            if reverse:
                product = product @ _ordered_product(steps[::-1])
            else:
                product = _ordered_product(steps) @ product
        frame = np.array([cmath.exp(-1j * (c * span)) for c in const_diag])
        prop = path_ordered_propagator(samp, PARAMS, reverse=reverse, detuning_hz=1e3)
        assert np.array_equal(prop.U, frame[:, None] * product)

    def test_detuned_tilted_defect_does_not_grow_with_steps(self):
        # each step's frame phase is rounded once: the defect was 1.45e-11 at
        # 1e5 steps and 7.4e-11 at 1e6 with one rounded half-step factor
        # reused for every step (measured 4.7e-13 at 1e6)
        samp = sampling(10**6, traj=TILTED)
        prop = path_ordered_propagator(samp, PARAMS, detuning_hz=1e4)
        assert prop.defect <= 1e-12

    def test_split_constant_diagonal_is_second_order(self):
        # the detuning does not commute with the tilted coupling; splitting
        # it symmetrically keeps the product second order in dt
        def propagate(steps):
            samp = sampling(steps, t1=1.0 / FREQ, traj=TILTED)
            return path_ordered_propagator(samp, PARAMS, detuning_hz=2e4).U

        fine = propagate(256000)
        errors = [np.max(np.abs(propagate(steps) - fine)) for steps in (2000, 4000, 8000)]
        for coarse, finer in zip(errors, errors[1:]):
            assert coarse / finer == pytest.approx(4.0, rel=0.02)

    def test_any_tilt_takes_the_general_path_from_the_first_block(self, monkeypatch):
        calls = []
        step_exponentials = holonomy._step_exponentials

        def counted(*args, **kwargs):
            calls.append(1)
            return step_exponentials(*args, **kwargs)

        field = scaled_field(BARELY_TILTED)
        samp = sampling(_CHUNK_STEPS + 1, t1=0.6 / FREQ, traj=BARELY_TILTED, field=field)
        expected = _ordered_product(_exp_hermitian(generators(samp), samp.dt))
        monkeypatch.setattr(holonomy, "_step_exponentials", counted)
        prop = path_ordered_propagator(samp, PARAMS)
        assert len(calls) == 2  # one per block
        assert np.max(np.abs(prop.U - expected)) < 1e-13

    def test_coarse_planar_step_refused_alike_on_both_paths(self):
        with pytest.raises(NumericPreconditionError, match="step too coarse") as axes_path:
            path_ordered_propagator(sampling(1), PARAMS)
        with pytest.raises(NumericPreconditionError) as general_path:
            path_ordered_propagator(sampling(1, traj=BARELY_TILTED), PARAMS)
        assert str(general_path.value) == str(axes_path.value)

    def test_peak_memory_does_not_grow_with_steps(self):
        field = scaled_field(TILTED)

        def peak_bytes(steps):
            samp = sampling(steps, t1=1.0 / FREQ, traj=TILTED, field=field)
            tracemalloc.start()
            try:
                path_ordered_propagator(samp, PARAMS)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes(32 * _CHUNK_STEPS) < 2.0 * peak_bytes(4 * _CHUNK_STEPS)


# coupling strength k*E*2*pi*f*r of FIELD on the RADIUS, FREQ disk, rad/s
OMEGA = coupling_constant(PARAMS) * FIELD.magnitude * 2.0 * np.pi * FREQ * RADIUS


def rabi_reference(t0, t1, reverse=False):
    """Exact propagator of the disk tilted by pi/2, from t0 to t1.

    With E along x the coupling axis is Omega*(0, -sin(theta), cos(theta)),
    theta = theta0 + 2*pi*f*t and Omega = k*E*2*pi*f*r: constant length,
    turning uniformly about x.  So G(t) = Omega*R(theta)*Sz*R(theta)^dag with
    R(theta) = exp(-i*theta*Sx), and in the frame turning with it the
    generator is the constant Omega*Sz - 2*pi*f*Sx (rotating-frame Rabi
    algebra).  The reverse-ordered product is the adjoint of the ordered
    propagator of -G.
    """
    sx, _, sz = spin_operators()
    turn = 2.0 * np.pi * FREQ
    theta0, theta1 = (STATION_A_ANGLE + turn * t for t in (t0, t1))
    sign = -1.0 if reverse else 1.0
    u = (_exp_hermitian(theta1 * sx)
         @ _exp_hermitian(sign * OMEGA * sz - turn * sx, t1 - t0)
         @ _exp_hermitian(theta0 * sx).conj().T)
    return u.conj().T if reverse else u


class TestQuarterTurnTiltReference:
    """Tilt pi/2 against its closed form: the only non-Abelian case with an
    exact propagator, so it checks the closed-form (Rodrigues) steps' accuracy
    and not only their self-consistency."""

    TILT_90 = station_trajectory(RADIUS, FREQ, tilt=np.pi / 2.0)
    PERIOD = 1.0 / FREQ
    # c in the bound c*dt^2 with dt in units of the period, i.e. the largest
    # |U - U_exact| * steps^2 over one rotation at r = 0.01 m, f = 4 kHz,
    # E = 3e7 V/m: measured 2.590 in both directions, plus 5% headroom
    ERROR_CONSTANT = 2.72
    # each closed-form step is unitary to ~1e-16, so 1e4 steps stay far
    # below this
    ROUNDING = 1e-12

    def tolerance(self, steps):
        dt = self.PERIOD / steps
        return self.ERROR_CONSTANT * (dt / self.PERIOD) ** 2 + self.ROUNDING

    def error(self, steps, reverse):
        samp = sampling(steps, t1=self.PERIOD, traj=self.TILT_90)
        prop = path_ordered_propagator(samp, PARAMS, reverse=reverse)
        return np.max(np.abs(prop.U - rabi_reference(0.0, self.PERIOD, reverse)))

    def test_axis_model_matches_coupling_axes(self):
        samp = sampling(64, t1=self.PERIOD, traj=self.TILT_90)
        midpoints = samp.t_start + (np.arange(samp.steps) + 0.5) * samp.dt
        theta = STATION_A_ANGLE + 2.0 * np.pi * FREQ * midpoints
        model = OMEGA * np.stack([np.zeros_like(theta), -np.sin(theta), np.cos(theta)], axis=1)
        assert np.max(np.abs(_coupling_axes(samp, PARAMS, 0, samp.steps) - model)) < 1e-12 * OMEGA

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    def test_propagator_is_second_order_accurate(self, reverse):
        errors = {steps: self.error(steps, reverse) for steps in (1000, 10000)}
        for steps, err in errors.items():
            assert err <= self.tolerance(steps)
        assert errors[1000] / errors[10000] == pytest.approx(100.0, rel=1e-3)

    def test_oracle_run_matches_reference(self):
        initial = np.array([0.2, 0.5, 0.6]) / np.linalg.norm([0.2, 0.5, 0.6])
        samp = sampling(10000, t1=self.PERIOD, traj=self.TILT_90)
        out = effective_hamiltonian_evolve(samp, initial)
        expected = rabi_reference(0.0, self.PERIOD) @ initial
        assert np.max(np.abs(out - expected)) <= self.tolerance(10000)

    @pytest.mark.parametrize(
        "call",
        [
            lambda samp: path_ordered_propagator(samp, PARAMS),
            lambda samp: effective_hamiltonian_evolve(samp, GROUND),
        ],
        ids=["path_ordered_propagator", "effective_hamiltonian_evolve"],
    )
    def test_step_gate_is_the_exact_norm(self, call):
        # 64 steps a rotation: dt*|a| peaks at 0.4995 rad at 2.6e8 V/m and at
        # 0.519 rad at 2.7e8 V/m.  The axis turns through y, where a row-sum
        # bound overstates ||a.S|| = |a| by sqrt(2).
        def samp(e0):
            return sampling(64, t1=self.PERIOD, traj=self.TILT_90,
                            field=FieldConfig(magnitude=e0))

        passing = samp(2.6e8)
        row_sums = np.sum(np.abs(generators(passing)), axis=-1)
        assert passing.dt * np.max(row_sums) > 0.7
        call(passing)
        with pytest.raises(NumericPreconditionError, match="step too coarse"):
            call(samp(2.7e8))


def dyson_from_generators(samp):
    """(1/2)*dt^2*sum_n [G_n, sum_{m<n} G_m] from the (steps, 3, 3) generator
    stack: the step-based reference for the closed-form Dyson term."""
    gens = generators(samp)
    prior = np.cumsum(gens, axis=0) - gens  # sum of all strictly earlier generators
    forward = np.einsum("nij,njk->ik", gens, prior)
    backward = np.einsum("nij,njk->ik", prior, gens)
    return 0.5 * samp.dt * samp.dt * (forward - backward)


def relative_gap(term, reference):
    return np.max(np.abs(term - reference)) / np.max(np.abs(reference))


class TestDysonSecondOrder:
    @pytest.mark.parametrize("tilt", [0.3, np.pi / 2], ids=["tilt-0.3", "tilt-pi-half"])
    def test_matches_generator_stack_formula(self, tilt):
        # the step-based sum approaches the closed form at second order in dt:
        # measured 8.2e-9 relative at 2e4 steps, and 25.00 times that at 1e5
        traj = station_trajectory(RADIUS, FREQ, tilt=tilt)

        def gap(steps):
            samp = sampling(steps, t1=1.0 / FREQ, traj=traj)
            return relative_gap(dyson_from_generators(samp), dyson_second_order(samp, PARAMS))

        coarse, fine = gap(20000), gap(100000)
        assert coarse <= 1e-8
        assert coarse / fine == pytest.approx(25.0, rel=0.01)

    @pytest.mark.parametrize("span", [(0.1, 0.85), (0.3, 2.7)], ids=["part-turn", "2.4-turns"])
    @pytest.mark.parametrize("sense", [1.0, -1.0], ids=["ccw", "cw"])
    def test_matches_generator_stack_on_offset_spans(self, sense, span):
        # measured at most 5.1e-10 relative at 2e5 steps
        traj = station_trajectory(RADIUS, sense * FREQ, tilt=0.3)
        samp = sampling(200000, t0=span[0] / FREQ, t1=span[1] / FREQ, traj=traj)
        gap = relative_gap(dyson_from_generators(samp), dyson_second_order(samp, PARAMS))
        assert gap <= 1e-9

    @pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize(
        "delta",
        [2 * np.pi, -2 * np.pi, 1.5 * np.pi, 4.8 * np.pi, 0.0628, -0.1, 6.3e-7, 6.3e-9],
    )
    def test_sin_minus_angle_does_not_cancel(self, delta):
        # sin(Delta) - Delta is the integral of cos(x) - 1 = -2*sin(x/2)^2 over
        # [0, Delta]; quadrature of the non-cancelling form is the reference
        # (measured at most 1.4e-16 relative; the plain difference is 1e-3 off
        # at 6.3e-7 and returns 0 at 6.3e-9)
        traj = station_trajectory(RADIUS, math.copysign(FREQ, delta), tilt=0.3)
        samp = sampling(1, t1=abs(delta) / (2.0 * np.pi * FREQ), traj=traj)
        angle = 2.0 * np.pi * traj.frequency * samp.t_end
        integral, _ = quad(lambda x: -2.0 * math.sin(0.5 * x) ** 2, 0.0, angle, epsabs=0.0)
        k_e_r = coupling_constant(PARAMS) * FIELD.magnitude * RADIUS
        expected = 0.5j * math.sin(0.3) * k_e_r**2 * integral * spin_operators()[0]
        assert relative_gap(dyson_second_order(samp, PARAMS), expected) <= 1e-14

    def test_planar_term_vanishes(self):
        # sin(0) is exactly 0, so the closed form is exactly zero
        term = dyson_second_order(sampling(2000), PARAMS)
        assert np.all(term == 0.0)

    @pytest.mark.parametrize(
        "t1, magnitude, tilt",
        [
            (1e308, FIELD.magnitude, 0.3),
            (HALF, 1e308, 0.3),
            (HALF, FIELD.magnitude, math.inf),
            (HALF, FIELD.magnitude, -math.inf),
            (HALF, FIELD.magnitude, math.nan),
        ],
        ids=["span", "field", "tilt", "tilt-minus-inf", "tilt-nan"],
    )
    def test_non_finite_term_refused(self, t1, magnitude, tilt):
        # 2*pi*f*1e308 overflows the rotation angle and math.sin(inf) would
        # raise a bare ValueError; (k*E*r)^2 at 1e308 V/m overflows the
        # coefficient; the trajectory itself refuses a non-finite tilt
        with pytest.raises(NumericPreconditionError, match="not finite"):
            traj = station_trajectory(RADIUS, FREQ, tilt=tilt)
            samp = sampling(100, t1=t1, traj=traj, field=FieldConfig(magnitude=magnitude))
            dyson_second_order(samp, PARAMS)

    def test_cost_is_independent_of_the_step_count(self, monkeypatch):
        # no coupling axis is built and nothing grows with the step count
        def refuse(*args, **kwargs):
            raise AssertionError("coupling axes built for the Dyson term")

        monkeypatch.setattr(holonomy, "_coupling_axes", refuse)
        dyson_second_order(sampling(1, traj=TILTED), PARAMS)  # imports numpy untraced
        tracemalloc.start()
        try:
            term = dyson_second_order(sampling(10**9, traj=TILTED), PARAMS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(term, dyson_second_order(sampling(1, traj=TILTED), PARAMS))
        assert peak < 1e6

    def test_forward_reverse_difference_matches_term(self):
        tilted = station_trajectory(RADIUS, FREQ, tilt=0.2)
        field = scaled_field(tilted)
        samp = sampling(20000, t1=1.0 / FREQ, traj=tilted, field=field)
        fwd = path_ordered_propagator(samp, PARAMS)
        rev = path_ordered_propagator(samp, PARAMS, reverse=True)
        diff = np.linalg.norm(fwd.U - rev.U, 2)
        term = 2.0 * np.linalg.norm(dyson_second_order(samp, PARAMS), 2)
        assert diff == pytest.approx(term, rel=0.2)

    def test_quadratic_field_scaling(self):
        tilted = station_trajectory(RADIUS, FREQ, tilt=0.2)
        field = scaled_field(tilted)

        def term_norm(eps):
            samp = sampling(4000, t1=1.0 / FREQ, traj=tilted,
                            field=FieldConfig(magnitude=eps * field.magnitude))
            return np.linalg.norm(dyson_second_order(samp, PARAMS), 2)

        ratio = term_norm(1.0) / term_norm(0.1)
        assert ratio == pytest.approx(100.0, rel=0.01)

    def test_path_dependence_witness(self):
        # closed-loop composition: tilted forward x reverse leaves a residual
        # far above the planar one
        tilted = station_trajectory(RADIUS, FREQ, tilt=0.2)
        field = scaled_field(tilted)

        def residual(traj):
            samp = sampling(8000, t1=1.0 / FREQ, traj=traj, field=field)
            fwd = path_ordered_propagator(samp, PARAMS)
            rev = path_ordered_propagator(samp, PARAMS, reverse=True)
            return np.linalg.norm(fwd.U @ rev.U - np.eye(3), 2)

        assert residual(tilted) > 10.0 * residual(PLANAR)


class TestEffectiveHamiltonianEvolve:
    def test_ground_state_is_stationary_without_field(self):
        samp = sampling(200, field=FieldConfig(magnitude=0.0))
        out = effective_hamiltonian_evolve(samp, GROUND)
        assert abs(out[1]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_superposition_acquires_minus_segment_phase(self):
        initial = np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)
        samp = sampling(40000)
        out = effective_hamiltonian_evolve(samp, initial)
        relative = np.angle(out[2] * np.conj(out[1]))
        assert relative == pytest.approx(
            -segment_phase(0.0, HALF, PLANAR, FIELD, PARAMS), abs=1e-8
        )

    def test_norm_preserved_over_ten_rotations(self):
        initial = np.array([0.2, 0.5, 0.6]) / np.linalg.norm([0.2, 0.5, 0.6])
        samp = sampling(200000, t1=10.0 / FREQ)
        out = effective_hamiltonian_evolve(samp, initial)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_tilted_path_uses_generic_stepper(self):
        tilted = station_trajectory(RADIUS, FREQ, tilt=0.2)
        samp = sampling(5000, traj=tilted)
        out = effective_hamiltonian_evolve(samp, GROUND)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12
        # tilt leaks amplitude out of |0> through the Sy coupling
        assert abs(out[1]) ** 2 < 1.0

    @pytest.mark.parametrize("traj", [PLANAR, TILTED], ids=["planar", "tilted"])
    def test_detuning_phases_only_state_one(self, traj):
        # 0.79 rad of detuning phase per step: exact only on the diagonal path,
        # which a zero field takes at any tilt
        samp = sampling(100, traj=traj, field=FieldConfig(magnitude=0.0))
        initial = np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)
        out = effective_hamiltonian_evolve(samp, initial, detuning_hz=1e5)
        relative = np.angle(out[2] * np.conj(out[1]))
        expected = -2.0 * np.pi * 1e5 * HALF
        assert np.exp(1j * relative) == pytest.approx(np.exp(1j * expected), abs=1e-9)
