"""Tests for the path-ordered propagator, Dyson diagnostics, and the ODE oracle."""

import tracemalloc

import numpy as np
import pytest

from ac_diamond.errors import NumericPreconditionError
from ac_diamond.geometry import FieldConfig, station_trajectory, velocity
from ac_diamond.holonomy import (
    _CHUNK_STEPS,
    PathSampling,
    Propagator,
    _generator_grid,
    _ordered_product,
    _quadratic_diagonal_shift,
    _step_unitaries,
    dyson_second_order,
    effective_hamiltonian_evolve,
    path_ordered_propagator,
    unitarity_defect,
)
from ac_diamond.phase import coupling_constant, segment_phase
from ac_diamond.physics import CODATA, NVParameters, SpinState, spin_operators

PARAMS = NVParameters()
RADIUS, FREQ = 0.01, 4000.0
HALF = 1.0 / (2.0 * FREQ)
PLANAR = station_trajectory(RADIUS, FREQ)
TILTED = station_trajectory(RADIUS, FREQ, tilt=0.3)
FIELD = FieldConfig(magnitude=3e7)


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


def generators(samp, dimension=3):
    return _generator_grid(samp, PARAMS, dimension, CODATA)[0]


class TestCouplingGenerator:
    def test_planar_generator_is_diagonal_sz(self):
        # one step over the first half rotation: its midpoint is the fastest +y point
        gen = generators(sampling(1))[0]
        off = gen - np.diag(np.diag(gen))
        assert np.max(np.abs(off)) == 0.0
        # G = coef*E*v_y*Sz at the fastest +y point
        expected = coupling_constant(PARAMS) * 3e7 * 2 * np.pi * FREQ * RADIUS
        assert np.real(gen[2, 2]) == pytest.approx(expected, rel=1e-9)

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

    def test_spin_half_dimension(self):
        gen = generators(sampling(1), dimension=2)[0]
        assert gen.shape == (2, 2)
        assert np.real(gen[1, 1]) == pytest.approx(
            0.5 * coupling_constant(PARAMS) * 3e7 * 2 * np.pi * FREQ * RADIUS,
            rel=1e-9,
        )

    def test_quadratic_terms_add_constant_diagonal(self):
        # E along x: (S x E)^2 = E^2 (Sy^2 + Sz^2), whose spin-1 diagonal is
        # E^2 (3/2, 1, 3/2), so the level shifts are scale * (-1/2, 0, -1/2)
        mass = 2e-26
        mu = PARAMS.g * CODATA.mu_B
        scale = (mu * 3e7) ** 2 / (2.0 * mass * CODATA.c**4 * CODATA.hbar)
        shift = _quadratic_diagonal_shift(
            FIELD.magnitude * FIELD.direction, spin_operators(3), PARAMS, mass, CODATA
        )
        assert shift == pytest.approx(scale * np.array([-0.5, 0.0, -0.5]), rel=1e-12)


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
        assert unitarity_defect(prop.U) < 1e-10

    def test_abelian_reduction_offdiagonal(self):
        prop = path_ordered_propagator(sampling(20000), PARAMS)
        assert prop.offdiagonal_norm() < 1e-10

    def test_composition(self):
        mid = HALF / 2.0
        full = path_ordered_propagator(sampling(4000), PARAMS)
        first = path_ordered_propagator(sampling(2000, t1=mid), PARAMS)
        second = path_ordered_propagator(sampling(2000, t0=mid, t1=HALF), PARAMS)
        assert np.max(np.abs(second.U @ first.U - full.U)) < 1e-9

    def test_spin_half_phase(self):
        exact = segment_phase(0.0, HALF, PLANAR, FIELD, PARAMS)
        prop = path_ordered_propagator(sampling(20000), PARAMS, dimension=2)
        assert prop.dimension == 2
        assert abs(prop.abelian_phase() - exact) < 1e-7

    def test_nonunitary_matrix_rejected(self):
        with pytest.raises(ValueError):
            Propagator(U=np.diag([1.0, 1.0, 2.0]).astype(complex), dimension=3)


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
        gens, dt = _generator_grid(samp, PARAMS, 3, CODATA)
        stack = _step_unitaries(gens, dt)
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
        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh called for commuting generators")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        prop = path_ordered_propagator(sampling(3 * _CHUNK_STEPS + 5), PARAMS)
        assert prop.offdiagonal_norm() == 0.0

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


class TestDysonSecondOrder:
    def test_planar_term_vanishes(self):
        term = dyson_second_order(sampling(2000), PARAMS)
        assert np.max(np.abs(term)) < 1e-10

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
        out = effective_hamiltonian_evolve(samp, PARAMS, SpinState.ground())
        assert out.population(0) == pytest.approx(1.0, abs=1e-12)

    def test_superposition_acquires_minus_segment_phase(self):
        initial = SpinState(np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0))
        samp = sampling(40000)
        out = effective_hamiltonian_evolve(samp, PARAMS, initial,
                                           include_static=False)
        amps = out.amplitudes
        relative = np.angle(amps[2] * np.conj(amps[1]))
        assert relative == pytest.approx(
            -segment_phase(0.0, HALF, PLANAR, FIELD, PARAMS), abs=1e-8
        )

    def test_norm_preserved_over_ten_rotations(self):
        initial = SpinState(np.array([0.2, 0.5, 0.6]) / np.linalg.norm([0.2, 0.5, 0.6]))
        samp = sampling(200000, t1=10.0 / FREQ)
        out = effective_hamiltonian_evolve(samp, PARAMS, initial)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12

    def test_tilted_path_uses_generic_stepper(self):
        tilted = station_trajectory(RADIUS, FREQ, tilt=0.2)
        samp = sampling(5000, traj=tilted)
        out = effective_hamiltonian_evolve(samp, PARAMS, SpinState.ground(),
                                           include_static=False)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12
        # tilt leaks amplitude out of |0> through the Sy coupling
        assert out.population(0) < 1.0

    def test_detuning_phases_only_state_one(self):
        samp = sampling(100, field=FieldConfig(magnitude=0.0))
        initial = SpinState(np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0))
        out = effective_hamiltonian_evolve(samp, PARAMS, initial,
                                           include_static=False,
                                           detuning_hz=1e5)
        relative = np.angle(out.amplitudes[2] * np.conj(out.amplitudes[1]))
        expected = -2.0 * np.pi * 1e5 * HALF
        assert np.exp(1j * relative) == pytest.approx(np.exp(1j * expected), abs=1e-9)
