"""Tests for the echo schedule, run simulation, sweeps, Stark handling."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ac_diamond import holonomy
from ac_diamond.cli import ECHO_DETUNINGS, main
from ac_diamond.config import MAX_ROTATIONS, integer_rotations
from ac_diamond.errors import NumericPreconditionError
from ac_diamond.geometry import FieldConfig, station_trajectory
from ac_diamond.phase import total_rectified_phase
from ac_diamond.physics import C_LIGHT, HBAR, MU_B, NVParameters, stark_shift
from ac_diamond.sequence import (
    FRINGE_SNAP,
    EchoSchedule,
    build_echo_schedule,
    fringe_zero_crossings,
    linear_grid,
    odd_pulse_schedule,
    optimal_readout_lag,
    signal_probability,
    simulate_run,
    strip_pi_pulses,
    sweep_signal,
    _closed_form_walk,
    _echo_p1,
    _gradient,
)

FREQ = 4000.0
RADIUS = 0.01
PARAMS = NVParameters(B_z=1e-3)
PARAMS_IDEAL = dataclasses.replace(PARAMS, T2=math.inf)
TRAJ = station_trajectory(RADIUS, FREQ)
FIELD = FieldConfig(magnitude=3e7)
# fluorescence-curve setup: E0 chosen so the rectified phase at n=7 is 10 rad
E0_PHI10 = 18249962.499985337


def static_phase(detuning, sched):
    """Residual non-A-C phase at readout of a closed-form run."""
    return simulate_run(sched, TRAJ, FIELD, PARAMS, detuning_hz=detuning).static_phase


class TestBuildEchoSchedule:
    def test_pi_pulse_times_n1(self):
        # pi pulses at the station crossings k*h, k = 1..2; the last one
        # coincides with the final pi/2 at t_r = 2h
        sched = build_echo_schedule(1, FREQ, 0.0)
        assert sched.half_period == pytest.approx(125e-6, rel=1e-12)
        assert sched.intervals == 2
        assert sched.duration == pytest.approx(250e-6, rel=1e-12)

    def test_pi_pulse_count(self):
        assert build_echo_schedule(3, FREQ).pi_pulse_count() == 6

    def test_run_duration(self):
        assert build_echo_schedule(7, FREQ).duration == pytest.approx(
            1.75e-3, rel=1e-12
        )

    def test_structure(self):
        sched = build_echo_schedule(2, FREQ, 0.3)
        assert (sched.n_rotations, sched.frequency, sched.intervals) == (2, FREQ, 4)
        assert sched.refocus
        assert sched.duration == sched.intervals * sched.half_period
        assert sched.readout_lag == 0.3
        # lagging final pulse enters the rotation with phase -lag
        assert _closed_form_walk(sched, TRAJ, FIELD, PARAMS, 0.0)[2] == -0.3
        control = strip_pi_pulses(sched)
        assert not control.refocus and control.pi_pulse_count() == 0
        assert control.duration == sched.duration

    @pytest.mark.parametrize("bad_n", [0, -1, 2.5])
    def test_rejects_non_integer_rotations(self, bad_n):
        with pytest.raises(ValueError):
            build_echo_schedule(bad_n, FREQ)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            build_echo_schedule(1, 0.0)
        for f in (0.0, -FREQ, math.nan):
            with pytest.raises(ValueError, match="positive"):
                EchoSchedule(n_rotations=1, frequency=f, intervals=2, readout_lag=0.0)

    def test_odd_schedule_counts(self):
        sched = odd_pulse_schedule(5, FREQ)
        assert sched.pi_pulse_count() == 9
        assert sched.duration == pytest.approx(9.0 / (2.0 * FREQ), rel=1e-12)


class TestSimulateRunClosedForm:
    def test_zero_field_full_transfer(self):
        # pi/2 + 2n*pi + pi/2 same-axis pulses sum to an odd pi rotation
        for n in (1, 4):
            sched = build_echo_schedule(n, FREQ, 0.0)
            run = simulate_run(sched, TRAJ, FieldConfig(magnitude=0.0), PARAMS_IDEAL)
            assert run.p1 == pytest.approx(1.0, abs=1e-12)

    def test_matches_signal_contract(self):
        lag = 0.9
        sched = build_echo_schedule(7, FREQ, lag)
        run = simulate_run(sched, TRAJ, FIELD, PARAMS)
        phi = total_rectified_phase(RADIUS, 3e7, 7, PARAMS.g)
        assert run.p1 == pytest.approx(
            signal_probability(phi, lag, sched.duration, PARAMS.T2), abs=1e-12
        )
        assert run.ac_phase == pytest.approx(phi, rel=1e-12)

    def test_rejects_tilted_trajectory(self):
        tilted = station_trajectory(RADIUS, FREQ, tilt=0.1)
        sched = build_echo_schedule(1, FREQ)
        with pytest.raises(NumericPreconditionError):
            simulate_run(sched, tilted, FIELD, PARAMS)

    def test_rejects_frequency_mismatch(self):
        sched = build_echo_schedule(1, 2000.0)
        with pytest.raises(ValueError):
            simulate_run(sched, TRAJ, FIELD, PARAMS)

    @pytest.mark.parametrize("mode", ["closed_form", "oracle"])
    def test_rejects_a_one_ulp_frequency_mismatch(self, mode):
        # the oracle reuses the first rotation's propagators for every later
        # one, which only an exactly shared period makes exact
        traj = station_trajectory(RADIUS, math.nextafter(FREQ, math.inf))
        sched = build_echo_schedule(1, FREQ)
        with pytest.raises(ValueError, match="disagree on rotation frequency"):
            simulate_run(sched, traj, FIELD, PARAMS, mode=mode, steps_per_interval=200)

    @pytest.mark.parametrize("mass", [1e-32, 0.0])
    def test_closed_form_refuses_a_quadratic_mass(self, mass):
        # the oracle's p1 moves by ~5e-5 at 1e-32; the closed form ignored it
        sched = odd_pulse_schedule(3, FREQ, 0.3)
        with pytest.raises(ValueError, match="quadratic_mass"):
            simulate_run(sched, TRAJ, FIELD, PARAMS, quadratic_mass=mass)

    def test_envelope_scales_fringe_only(self):
        lag = 0.4
        sched = build_echo_schedule(5, FREQ, lag)
        p_ideal = simulate_run(sched, TRAJ, FIELD, PARAMS_IDEAL).p1
        run = simulate_run(sched, TRAJ, FIELD, PARAMS)
        expected = 0.5 + run.coherence * (p_ideal - 0.5)
        assert run.p1 == pytest.approx(expected, abs=1e-15)

    def test_periodic_in_phase(self):
        # shift E so the rectified phase moves by exactly 2*pi
        n = 5
        phi_per_volt = total_rectified_phase(RADIUS, 1.0, n, PARAMS.g)
        e1 = 1.1e7
        e2 = e1 + 2.0 * math.pi / phi_per_volt
        sched = build_echo_schedule(n, FREQ, 0.7)
        p1 = simulate_run(sched, TRAJ, FieldConfig(magnitude=e1), PARAMS_IDEAL).p1
        p2 = simulate_run(sched, TRAJ, FieldConfig(magnitude=e2), PARAMS_IDEAL).p1
        assert abs(p1 - p2) < 1e-10


class TestOracleAgreement:
    def test_closed_form_vs_oracle_reference_point(self):
        sched = build_echo_schedule(7, FREQ, 0.0)
        closed = simulate_run(sched, TRAJ, FIELD, PARAMS_IDEAL)
        oracle = simulate_run(
            sched, TRAJ, FIELD, PARAMS_IDEAL, mode="oracle", steps_per_interval=30000
        )
        phi = total_rectified_phase(RADIUS, 3e7, 7, PARAMS.g)
        assert closed.p1 == pytest.approx(0.5 * (1.0 + math.cos(phi)), abs=1e-12)
        assert oracle.p1 == pytest.approx(closed.p1, abs=1e-7)

    def test_cross_mode_random_configs(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            r = rng.uniform(1e-3, 2e-2)
            e0 = rng.uniform(0.0, 3e7)
            n = int(rng.integers(1, 11))
            lag = rng.uniform(0.0, math.pi)
            traj = station_trajectory(r, FREQ)
            sched = build_echo_schedule(n, FREQ, lag)
            closed = simulate_run(sched, traj, FieldConfig(magnitude=e0), PARAMS)
            oracle = simulate_run(
                sched, traj, FieldConfig(magnitude=e0), PARAMS,
                mode="oracle", steps_per_interval=30000,
            )
            assert oracle.p1 == pytest.approx(closed.p1, abs=1e-7)

    def test_oracle_norm_preserved(self):
        sched = build_echo_schedule(3, FREQ, 0.4)
        run = simulate_run(sched, TRAJ, FIELD, PARAMS, mode="oracle",
                           steps_per_interval=5000)
        assert 0.0 <= run.p1 <= 1.0

    def test_oracle_with_detuning_matches_closed_form(self):
        sched = build_echo_schedule(2, FREQ, 0.3)
        closed = simulate_run(sched, TRAJ, FIELD, PARAMS, detuning_hz=2.5e5)
        oracle = simulate_run(sched, TRAJ, FIELD, PARAMS, mode="oracle",
                              detuning_hz=2.5e5, steps_per_interval=30000)
        assert oracle.p1 == pytest.approx(closed.p1, abs=1e-7)

    def test_odd_schedule_oracle_keeps_the_uncancelled_tick(self):
        # 2n-1 intervals leave one detuning tick 2*pi*delta*h = pi/4 at 1 kHz,
        # and the odd pi-pulse count swaps |0> and |1> at readout
        sched = odd_pulse_schedule(2, FREQ, 0.3)
        closed = simulate_run(sched, TRAJ, FIELD, PARAMS, detuning_hz=1e3)
        oracle = simulate_run(sched, TRAJ, FIELD, PARAMS, mode="oracle",
                              detuning_hz=1e3, steps_per_interval=30000)
        assert closed.static_phase == pytest.approx(math.pi / 4.0, rel=1e-12)
        assert oracle.p1 == pytest.approx(closed.p1, abs=1e-7)
        untuned = simulate_run(sched, TRAJ, FIELD, PARAMS)
        assert abs(untuned.p1 - closed.p1) > 0.1

    def test_pi_free_oracle_matches_closed_form(self):
        sched = strip_pi_pulses(build_echo_schedule(2, FREQ, 0.3))
        closed = simulate_run(sched, TRAJ, FIELD, PARAMS, detuning_hz=1e3)
        oracle = simulate_run(sched, TRAJ, FIELD, PARAMS, mode="oracle",
                              detuning_hz=1e3, steps_per_interval=30000)
        # no refocusing: all four ticks add up, and the A-C phase integrates
        # to zero over whole rotations
        assert closed.static_phase == pytest.approx(math.pi, rel=1e-12)
        assert abs(closed.ac_phase) < 1e-9
        assert oracle.p1 == pytest.approx(closed.p1, abs=1e-7)

    def test_quadratic_terms_cancelled_by_echo(self):
        sched = build_echo_schedule(2, FREQ, 0.3)
        base = simulate_run(sched, TRAJ, FIELD, PARAMS, mode="oracle",
                            steps_per_interval=20000)
        shifted = simulate_run(sched, TRAJ, FIELD, PARAMS, mode="oracle",
                               steps_per_interval=20000, quadratic_mass=2e-26)
        assert shifted.p1 == pytest.approx(base.p1, abs=1e-9)

    def test_unknown_mode_rejected(self):
        sched = build_echo_schedule(1, FREQ)
        with pytest.raises(ValueError):
            simulate_run(sched, TRAJ, FIELD, PARAMS, mode="fancy")


def per_interval_oracle(schedule, traj, field, params, detuning_hz=0.0,
                        steps_per_interval=20000, quadratic_mass=None):
    """(p1, ac_phase) of an oracle run that integrates every interval of the
    schedule afresh: the reference for the oracle's reuse of one rotation."""
    half = schedule.half_period
    state = holonomy.SpinState(holonomy.qubit_pulse(math.pi / 2.0, 0.0)[:, 1])
    for k in range(1, schedule.intervals + 1):
        sampling = holonomy.PathSampling((k - 1) * half, k * half, steps_per_interval,
                                         traj, field)
        u = holonomy.path_ordered_propagator(
            sampling, params, detuning_hz=detuning_hz, quadratic_mass=quadratic_mass).U
        w, _, vh = np.linalg.svd(u)
        state = holonomy.SpinState(w @ vh @ state.amplitudes)
        if schedule.refocus:
            state = holonomy.SpinState(holonomy.qubit_pulse(math.pi, 0.0) @ state.amplitudes)
    coherence = math.exp(-schedule.duration / params.T2)
    amps = state.amplitudes
    rho = np.outer(amps, amps.conj())
    rho[1, 2] *= coherence
    rho[2, 1] *= coherence
    gate = holonomy.qubit_pulse(math.pi / 2.0, -schedule.readout_lag)
    rho = gate @ rho @ gate.conj().T
    return float(np.real(rho[2, 2])), float(np.angle(amps[2] * np.conj(amps[1])))


TILTED_TRAJ = station_trajectory(RADIUS, FREQ, tilt=0.3)


class TestOracleReusesOneRotation:
    """The velocity has period 2h, so the oracle integrates two intervals and
    reuses their propagators; every run must match the interval-by-interval
    integration to rounding."""

    @pytest.mark.parametrize("sched, traj, kwargs", [
        (build_echo_schedule(7, FREQ, 0.3), TRAJ, {}),
        (build_echo_schedule(7, FREQ, 0.3), TILTED_TRAJ, {}),
        (build_echo_schedule(3, FREQ, 0.3), TILTED_TRAJ, {"detuning_hz": 1e4}),
        (build_echo_schedule(3, FREQ, 0.3), TILTED_TRAJ, {"quadratic_mass": 2e-26}),
        (odd_pulse_schedule(3, FREQ, 0.3), TILTED_TRAJ, {"detuning_hz": 1e3}),
        (strip_pi_pulses(build_echo_schedule(3, FREQ, 0.3)), TILTED_TRAJ,
         {"detuning_hz": 1e3}),
    ], ids=["planar", "tilted", "detuned", "quadratic-mass", "odd-schedule",
            "no-pi-pulses"])
    def test_matches_the_per_interval_integration(self, sched, traj, kwargs):
        run = simulate_run(sched, traj, FIELD, PARAMS, mode="oracle",
                           steps_per_interval=2000, **kwargs)
        p1, ac_phase = per_interval_oracle(sched, traj, FIELD, PARAMS,
                                           steps_per_interval=2000, **kwargs)
        assert abs(run.p1 - p1) <= 1e-14
        assert abs(run.ac_phase - ac_phase) <= 1e-14

    @pytest.mark.parametrize("sched, built", [
        (odd_pulse_schedule(1, FREQ), 1),
        (build_echo_schedule(1, FREQ), 2),
        (build_echo_schedule(7, FREQ), 2),
        (build_echo_schedule(20, FREQ), 2),
    ], ids=["one-interval", "n1", "n7", "n20"])
    def test_builds_at_most_two_propagators(self, sched, built, monkeypatch):
        calls = []
        build = holonomy.path_ordered_propagator

        def counted(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(holonomy, "path_ordered_propagator", counted)
        simulate_run(sched, TILTED_TRAJ, FIELD, PARAMS, mode="oracle", steps_per_interval=200)
        assert len(calls) == built


class TestOracleAsOneUnitary:
    """The oracle raises one rotation's unitary to the n-th power and takes a
    single polar factor, so no rounding compounds along the run and every
    rotation count up to the cap returns."""

    @pytest.mark.parametrize("detuning", [0.0, 1e4], ids=["tuned", "detuned"])
    @pytest.mark.parametrize("traj", [TRAJ, TILTED_TRAJ], ids=["planar", "tilted"])
    @pytest.mark.parametrize("n", [5000, MAX_ROTATIONS])
    def test_runs_up_to_the_rotation_cap(self, n, traj, detuning):
        # stepping the state interval by interval ended in "state is not
        # normalized" from n = 5000 planar and n = 3000 tilted
        sched = build_echo_schedule(n, FREQ, 0.3)
        run = simulate_run(sched, traj, FIELD, PARAMS, mode="oracle", detuning_hz=detuning)
        assert 0.0 <= run.p1 <= 1.0

    @pytest.mark.parametrize("n", [1000, 5000, 10000])
    def test_planar_p1_is_the_closed_form(self, n):
        # T2 has damped the fringe away, so p1 is the closed form's 1/2 up to
        # the norm the state keeps; stepping it drifted 1.3e-13 by n = 1000
        sched = build_echo_schedule(n, FREQ, 0.3)
        closed = simulate_run(sched, TRAJ, FIELD, PARAMS)
        oracle = simulate_run(sched, TRAJ, FIELD, PARAMS, mode="oracle")
        assert abs(oracle.p1 - closed.p1) <= 1e-14

    @pytest.mark.parametrize("sched", [
        odd_pulse_schedule(1, FREQ),
        build_echo_schedule(1, FREQ),
        build_echo_schedule(7, FREQ),
        odd_pulse_schedule(3, FREQ),
        strip_pi_pulses(build_echo_schedule(3, FREQ)),
    ], ids=["one-interval", "n1", "n7", "odd-schedule", "no-pi-pulses"])
    def test_takes_one_polar_factor(self, sched, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        simulate_run(sched, TILTED_TRAJ, FIELD, PARAMS, mode="oracle", steps_per_interval=200)
        assert len(calls) == 1


class TestEchoCancellation:
    @pytest.mark.parametrize("detuning", [1e5, 1e6, 1e7])
    def test_even_schedule_cancels_exactly(self, detuning):
        sched = build_echo_schedule(5, FREQ)
        residual = static_phase(detuning, sched)
        assert abs(residual) < 1e-9

    def test_zero_detuning(self):
        sched = build_echo_schedule(5, FREQ)
        assert static_phase(0.0, sched) == 0.0

    def test_odd_schedule_leaves_one_interval(self):
        detuning = 1e6
        sched = odd_pulse_schedule(5, FREQ)
        residual = static_phase(detuning, sched)
        expected = 2.0 * math.pi * detuning / (2.0 * FREQ)
        assert abs(residual) == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(detuning=st.floats(min_value=0.0, max_value=1e7))
    def test_p1_invariant_under_detuning(self, detuning):
        sched = build_echo_schedule(4, FREQ, 0.6)
        base = simulate_run(sched, TRAJ, FIELD, PARAMS).p1
        shifted = simulate_run(sched, TRAJ, FIELD, PARAMS, detuning_hz=detuning).p1
        assert abs(base - shifted) < 1e-9

    def test_no_pulse_control_accumulates_nothing(self):
        sched = strip_pi_pulses(build_echo_schedule(6, FREQ))
        run = simulate_run(sched, TRAJ, FIELD, PARAMS_IDEAL)
        assert abs(run.ac_phase) < 1e-9

    def test_echoed_run_matches_closed_form_total(self):
        sched = build_echo_schedule(6, FREQ)
        run = simulate_run(sched, TRAJ, FIELD, PARAMS_IDEAL)
        phi = total_rectified_phase(RADIUS, 3e7, 6, PARAMS.g)
        assert run.ac_phase == pytest.approx(phi, rel=1e-9)


class TestOptimalReadoutLag:
    def test_large_phase(self):
        assert optimal_readout_lag(10.0) == pytest.approx(2.146018366025517,
                                                          abs=1e-12)

    def test_small_phase(self):
        assert optimal_readout_lag(0.0) == pytest.approx(math.pi / 2.0)

    def test_already_at_quadrature(self):
        assert optimal_readout_lag(math.pi / 2.0) == pytest.approx(0.0, abs=1e-15)

    @given(phi=st.floats(min_value=0.0, max_value=50.0))
    def test_quadrature_condition(self, phi):
        lag = optimal_readout_lag(phi)
        assert abs(abs(math.sin(phi - lag)) - 1.0) < 1e-9
        assert 0.0 <= lag < math.pi


class TestSweep:
    def _phi10_sweep(self, grid_points=201):
        lag = optimal_readout_lag(10.0)
        sched = build_echo_schedule(7, FREQ, lag)
        grid = np.linspace(0.0, E0_PHI10, grid_points)
        return sweep_signal(grid, sched, TRAJ, PARAMS)

    def test_endpoint_values(self):
        sweep = self._phi10_sweep()
        lag = optimal_readout_lag(10.0)
        # oracle: evaluate the contract formula directly
        assert sweep.p1[0] == pytest.approx(0.5 * (1.0 + math.cos(-lag)), abs=1e-9)
        assert sweep.p1[0] == pytest.approx(0.2279894, abs=1e-6)
        assert sweep.p1[-1] == pytest.approx(0.5, abs=1e-9)

    def test_max_slope_at_final_point(self):
        sweep = self._phi10_sweep()
        assert sweep.max_slope_index == len(sweep.e_values) - 1

    def test_fringe_zero_crossings(self):
        sweep = self._phi10_sweep()
        assert fringe_zero_crossings(sweep.p1) == 4

    def test_phase_column(self):
        sweep = self._phi10_sweep()
        assert sweep.phases[-1] == pytest.approx(10.0, rel=1e-9)

    def test_decohered_column_identity(self):
        sweep = self._phi10_sweep()
        envelope = math.exp(-1.75e-3 / PARAMS.T2)
        assert np.allclose(
            sweep.p1_decohered, 0.5 + envelope * (np.array(sweep.p1) - 0.5), atol=1e-15
        )

    def test_empty_grid_rejected(self):
        sched = build_echo_schedule(7, FREQ)
        with pytest.raises(ValueError):
            sweep_signal(np.array([]), sched, TRAJ, PARAMS)

    def test_non_monotone_grid_rejected(self):
        sched = build_echo_schedule(7, FREQ)
        with pytest.raises(ValueError):
            sweep_signal(np.array([0.0, 2.0, 1.0]), sched, TRAJ, PARAMS)

    @pytest.mark.parametrize(
        "grid", [np.zeros(5), np.array([0.0, 1e6, 1e6, 2e6])],
        ids=["all-zero", "one-repeat"],
    )
    def test_repeated_field_values_rejected(self, grid):
        # the slope column would divide by a zero grid step
        sched = build_echo_schedule(7, FREQ)
        with pytest.raises(ValueError, match="strictly increasing"):
            sweep_signal(grid, sched, TRAJ, PARAMS)


class TestSweepEngine:
    """The sweep walks the schedule once; every point must agree with its own
    closed-form run."""

    @staticmethod
    def _per_point(grid, sched, traj, params):
        return np.array([
            simulate_run(sched, traj, FieldConfig(magnitude=e), params).p1
            for e in grid
        ])

    def test_phi10_matches_per_point_runs(self):
        sched = build_echo_schedule(7, FREQ, optimal_readout_lag(10.0))
        grid = np.linspace(0.0, E0_PHI10, 201)
        sweep = sweep_signal(grid, sched, TRAJ, PARAMS)
        np.testing.assert_allclose(
            sweep.p1, self._per_point(grid, sched, TRAJ, PARAMS_IDEAL),
            rtol=0.0, atol=1e-12,
        )
        np.testing.assert_allclose(
            sweep.p1_decohered, self._per_point(grid, sched, TRAJ, PARAMS),
            rtol=0.0, atol=1e-12,
        )

    @settings(max_examples=20, deadline=None)
    @given(
        r=st.floats(min_value=1e-3, max_value=2e-2),
        f=st.floats(min_value=1e3, max_value=5e3),
        e0=st.floats(min_value=1e3, max_value=3e7),
        n=st.integers(min_value=1, max_value=10),
        lag=st.floats(min_value=0.0, max_value=math.pi),
    )
    def test_random_planar_configs_match_per_point_runs(self, r, f, e0, n, lag):
        traj = station_trajectory(r, f)
        sched = build_echo_schedule(n, f, lag)
        grid = np.linspace(0.0, e0, 9)
        sweep = sweep_signal(grid, sched, traj, PARAMS)
        np.testing.assert_allclose(
            sweep.p1, self._per_point(grid, sched, traj, PARAMS_IDEAL),
            rtol=0.0, atol=1e-12,
        )

    def test_phase_column_is_the_scalar_formula_bit_for_bit(self):
        sched = build_echo_schedule(7, FREQ, 0.3)
        grid = np.linspace(0.0, E0_PHI10, 101)
        sweep = sweep_signal(grid, sched, TRAJ, PARAMS)
        scalar = [total_rectified_phase(RADIUS, e, 7, PARAMS.g) for e in grid]
        assert sweep.phases == scalar

    def test_tilted_trajectory_rejected(self):
        tilted = station_trajectory(RADIUS, FREQ, tilt=0.3)
        sched = build_echo_schedule(7, FREQ)
        with pytest.raises(NumericPreconditionError):
            sweep_signal(np.linspace(0.0, 3e7, 5), sched, tilted, PARAMS)

    def test_tilted_config_exits_3_through_the_cli(self, tmp_path):
        cfg = tmp_path / "tilted.cfg"
        cfg.write_text("tilt = 0.3\nn = 7\n")
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--config", str(cfg), "--grid", "5", "--out", str(out)]
        assert main(argv) == 3
        assert not out.exists()

    def test_phases_cos_cannot_resolve_are_rejected(self):
        walk = (1.0, 0.0, 0.0)
        # below 2**33 rad the float spacing is 2**-20 rad, within 1e-6 rad
        assert 0.0 <= _echo_p1([2.0**33 - 1.0], walk, 1.0)[0] <= 1.0
        for scales in ([2.0**33], [0.0, math.inf], [math.nan], [0.0, math.nan, 1.0]):
            with pytest.raises(NumericPreconditionError, match="not resolved"):
                _echo_p1(scales, walk, 1.0)
        with pytest.raises(NumericPreconditionError, match="phase nan rad"):
            _echo_p1([5.0, math.nan, 1.0], walk, 1.0)

    def test_echo_check_residuals_stay_exactly_zero(self):
        lag = optimal_readout_lag(10.0)
        sched = build_echo_schedule(7, FREQ, lag)
        field = FieldConfig(magnitude=E0_PHI10)
        base = simulate_run(sched, TRAJ, field, PARAMS)
        for detuning in ECHO_DETUNINGS:
            run = simulate_run(sched, TRAJ, field, PARAMS, detuning_hz=detuning)
            assert run.static_phase == 0.0
            assert run.p1 == base.p1


MAX_FLOAT = 1.7976931348623157e308
RAISE_ALL = {"over": "raise", "divide": "raise", "invalid": "raise"}


def _numpy_or_refused(compute):
    """numpy's result as a list, or None where numpy's errstate refuses it."""
    with np.errstate(**RAISE_ALL):
        try:
            return np.asarray(compute()).tolist()
        except FloatingPointError:
            return None


def numpy_sweep(grid, sched, traj, params):
    """The sweep columns as numpy computes them, the reference for sweep_signal."""
    e = np.asarray(grid, dtype=float)
    phi, static, final = _closed_form_walk(sched, traj, FieldConfig(magnitude=1.0),
                                           params, 0.0)
    p1 = 0.5 * (1.0 + 1.0 * np.cos(e * phi + static + final))
    phases = (4.0 * params.g * MU_B * traj.radius * e * sched.n_rotations
              / (HBAR * C_LIGHT**2))
    envelope = math.exp(-sched.duration / params.T2)
    p1_decohered = 0.5 + envelope * (p1 - 0.5)
    slopes = np.gradient(p1_decohered, e) if e.size > 1 else np.zeros(1)
    return (e.tolist(), phases.tolist(), p1.tolist(), p1_decohered.tolist(),
            slopes.tolist(), int(np.argmax(np.abs(slopes))))


def _steps(kind, seed, scale, size):
    """Grid steps of one kind: equal, equal powers of two, or random."""
    if kind == "equal":
        return [scale] * size
    if kind == "power-of-two":
        return [2.0 ** math.floor(math.log2(scale))] * size
    rng = np.random.default_rng(seed)
    return [scale * u for u in rng.uniform(0.5, 2.0, size).tolist()]  # inf past the top


class TestNumpyReference:
    """The closed-form engine computes in Python floats in numpy's order of
    operations: its grid, slope column, fringe and sweep match numpy bit for
    bit, and it refuses what numpy's errstate refuses."""

    @settings(max_examples=200, deadline=None)
    @given(
        stop=st.one_of(
            st.floats(min_value=5e-324, max_value=MAX_FLOAT),
            st.sampled_from([5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1.0,
                             3e7, 1e308, MAX_FLOAT]),
        ),
        points=st.sampled_from([1, 2, 3, 2000]),
    )
    @example(stop=5e-324, points=2000)  # the step stop/div underflows to zero
    @example(stop=1e-320, points=3)  # a denormal step
    @example(stop=MAX_FLOAT, points=4)  # 3*(stop/3) overflows
    def test_grid_is_linspace(self, stop, points):
        reference = _numpy_or_refused(lambda: np.linspace(0.0, stop, points))
        if reference is None:
            with pytest.raises(NumericPreconditionError, match="overflows"):
                linear_grid(stop, points)
        else:
            assert linear_grid(stop, points) == reference

    @settings(max_examples=200, deadline=None)
    @given(
        size=st.sampled_from([2, 3, 2000]),
        kind=st.sampled_from(["equal", "power-of-two", "random"]),
        scale=st.sampled_from([5e-324, 1e-315, 1e-300, 1e-160, 1e-6, 1.0, 3e4,
                               1e150, 1e300, 1e308]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(size=2, kind="equal", scale=1e308, seed=0)  # 2*step overflows
    @example(size=3, kind="random", scale=1e-160, seed=1)  # step products underflow
    def test_slope_column_is_np_gradient(self, size, kind, scale, seed):
        grid = [0.0]
        for step in _steps(kind, seed, scale, size - 1):
            grid.append(grid[-1] + step)
        spacing = [b - a for a, b in zip(grid, grid[1:])]
        if not all(0.0 < dx < math.inf for dx in spacing):
            return  # sweep_signal refuses such a grid before the slopes
        f = np.random.default_rng(seed).uniform(0.0, 1.0, size).tolist()
        reference = _numpy_or_refused(lambda: np.gradient(f, grid))
        if reference is None:
            with pytest.raises(NumericPreconditionError):
                _gradient(f, spacing)
        else:
            assert _gradient(f, spacing) == reference

    @pytest.mark.parametrize("spacing", [[1e-10, 1e300], [1e300, 1e-10], [1e-170, 2e-170]],
                             ids=["late-product-overflows", "early-product-overflows",
                                  "products-underflow"])
    def test_slope_column_refuses_what_np_gradient_refuses(self, spacing):
        grid = [0.0, spacing[0], spacing[0] + spacing[1]]
        assert _numpy_or_refused(lambda: np.gradient([0.1, 0.7, 0.2], grid)) is None
        with pytest.raises(NumericPreconditionError, match="grid steps"):
            _gradient([0.1, 0.7, 0.2], spacing)

    @pytest.mark.parametrize("scales", [
        [0.0], [1.0], linear_grid(3e7, 2000), linear_grid(1e-300, 3),
        [0.0, 5e-324, 1e-10, 1.0, 2.0**32, 8.5e9],
    ], ids=["zero", "one", "grid-2000", "tiny-grid", "mixed"])
    @pytest.mark.parametrize("walk, coherence", [
        ((1.1e-6, 0.0, -2.146), 1.0), ((-3.7e-7, 0.25, math.pi + 0.3), 0.37),
        ((1e-300, 1e4, 0.0), 5e-324),
    ])
    def test_echo_p1_is_the_numpy_expression(self, scales, walk, coherence):
        phi, static, final = walk
        reference = _numpy_or_refused(
            lambda: 0.5 * (1.0 + coherence * np.cos(np.asarray(scales) * phi + static + final)))
        assert _echo_p1(scales, walk, coherence) == reference

    @settings(max_examples=60, deadline=None)
    @given(
        r=st.floats(min_value=1e-3, max_value=2e-2),
        f=st.floats(min_value=1e3, max_value=5e3),
        e0=st.floats(min_value=1e-3, max_value=5e7),
        n=st.integers(min_value=1, max_value=40),
        lag=st.floats(min_value=0.0, max_value=math.pi),
        points=st.sampled_from([1, 2, 3, 201, 2000]),
    )
    def test_sweep_columns_are_the_numpy_sweep(self, r, f, e0, n, lag, points):
        traj = station_trajectory(r, f)
        sched = build_echo_schedule(n, f, lag)
        grid = linear_grid(e0, points)
        sweep = sweep_signal(grid, sched, traj, PARAMS)
        assert (sweep.e_values, sweep.phases, sweep.p1, sweep.p1_decohered,
                sweep.slopes, sweep.max_slope_index) == numpy_sweep(grid, sched, traj, PARAMS)

    @pytest.mark.parametrize("e0, points", [(1e308, 2), (1e308, 201), (1e-213, 201)],
                             ids=["2-step-overflows", "step-products-overflow",
                                  "step-products-underflow"])
    def test_sweep_refuses_what_numpy_refuses(self, e0, points):
        traj = station_trajectory(1e-300, FREQ)
        sched = build_echo_schedule(1, FREQ)
        grid = linear_grid(e0, points)
        assert _numpy_or_refused(lambda: numpy_sweep(grid, sched, traj, PARAMS)) is None
        with pytest.raises(NumericPreconditionError, match="grid step"):
            sweep_signal(grid, sched, traj, PARAMS)


def loop_crossings(p1_values):
    """Point-by-point reference count for fringe_zero_crossings."""
    z = np.asarray(p1_values, dtype=float) - 0.5
    z[np.abs(z) < FRINGE_SNAP] = 0.0
    crossings = 0
    prev = 0.0
    pending_zero = False
    for value in z:
        s = np.sign(value)
        if s == 0.0:
            pending_zero = True
            continue
        if prev != 0.0:
            if s != prev:
                crossings += 1
            elif pending_zero:
                crossings += 1  # touched the zero line and came back
        prev = s
        pending_zero = False
    if pending_zero and prev != 0.0:
        crossings += 1
    return crossings


class TestFringeCrossingCounter:
    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                [0.5, 0.5 + 0.5 * FRINGE_SNAP, 0.5 - 0.5 * FRINGE_SNAP,
                 0.5 + 2.0 * FRINGE_SNAP, 0.5 - 2.0 * FRINGE_SNAP, 0.1, 0.9, math.nan]
            ),
            max_size=30,
        )
    )
    @example([0.5 + 2.0 * FRINGE_SNAP, math.nan])
    @example([math.nan, 0.5, math.nan])
    def test_matches_the_point_by_point_count(self, values):
        assert fringe_zero_crossings(values) == loop_crossings(values)

    def test_simple_sine(self):
        x = np.linspace(0.0, 4.0 * math.pi, 400)
        assert fringe_zero_crossings(0.5 + 0.4 * np.sin(x + 0.1)) == 4

    def test_terminal_zero_counts_once(self):
        values = np.array([0.9, 0.6, 0.5])
        assert fringe_zero_crossings(values) == 1

    def test_flat_curve_has_none(self):
        assert fringe_zero_crossings(np.full(10, 0.75)) == 0


class TestStark:
    def test_reference_point(self):
        report = stark_shift(3e7, PARAMS, f_disk=FREQ)
        assert report.coupling_hz == pytest.approx(6.0e6, rel=1e-12)
        # oracle: f_z = 2*g*mu_B*B/h from raw constants
        fz = 2.0 * 2.0 * 9.2740100783e-24 * 1e-3 / 6.62607015e-34
        assert report.zeeman_splitting_hz == pytest.approx(fz, rel=1e-9)
        assert report.zeeman_splitting_hz == pytest.approx(56e6, rel=2e-2)
        assert report.shift_hz == pytest.approx(6.0e6**2 / fz, rel=1e-9)
        assert report.modulation_hz == pytest.approx(12e3)
        assert report.adiabatic

    def test_fast_disk_breaks_adiabaticity(self):
        report = stark_shift(3e7, PARAMS, f_disk=1e6)
        assert not report.adiabatic

    def test_degenerate_levels_rejected(self):
        params = NVParameters(B_z=0.0)
        with pytest.raises(NumericPreconditionError):
            stark_shift(3e7, params, f_disk=FREQ)

    @pytest.mark.parametrize("g", [1e-300, 1e308])
    def test_unrepresentable_zeeman_splitting_rejected(self, g):
        params = NVParameters(g=g, B_z=1e-3)
        with pytest.raises(NumericPreconditionError):
            stark_shift(3e7, params, f_disk=FREQ)

    def test_coupling_reads_r2e_from_the_parameters(self):
        report = stark_shift(3e7, NVParameters(B_z=1e-3, R2E=5.0), f_disk=FREQ)
        assert report.coupling_hz == pytest.approx(1.5e6, rel=1e-12)

    @pytest.mark.parametrize("e_field", [1e160, 1e200])
    def test_overflowing_shift_rejected(self, e_field):
        # (R2E*E)^2 of Python floats is inf, not a numpy floating-point error
        with pytest.raises(NumericPreconditionError, match="level shift"):
            stark_shift(e_field, PARAMS, f_disk=FREQ)

    def test_shift_is_echoed_away(self):
        report = stark_shift(3e7, PARAMS, f_disk=FREQ)
        sched = build_echo_schedule(5, FREQ, 0.2)
        base = simulate_run(sched, TRAJ, FIELD, PARAMS).p1
        shifted = simulate_run(
            sched, TRAJ, FIELD, PARAMS, detuning_hz=report.shift_hz
        ).p1
        assert abs(base - shifted) < 1e-9


class TestRotationCap:
    def test_schedule_refuses_counts_above_the_cap(self):
        assert integer_rotations(MAX_ROTATIONS) == MAX_ROTATIONS
        with pytest.raises(ValueError, match="cap"):
            integer_rotations(MAX_ROTATIONS + 1)
        with pytest.raises(ValueError, match="cap"):
            build_echo_schedule(MAX_ROTATIONS + 1, FREQ)


class TestTiltedOracle:
    def test_norm_holds_and_p1_converges_to_second_order(self):
        # at 1e4 steps per interval this run used to end in "state is not
        # normalized: |psi|^2 = 1.0000000000010152"
        sched = build_echo_schedule(4, 4000.0, 1.0)
        traj = station_trajectory(0.01, 4000.0, tilt=0.5)
        field = FieldConfig(magnitude=2e7)

        def p1(steps):
            return simulate_run(
                sched, traj, field, NVParameters(), mode="oracle",
                steps_per_interval=steps,
            ).p1

        coarse, mid, fine = p1(5000), p1(10000), p1(20000)
        assert (coarse - mid) / (mid - fine) == pytest.approx(4.0, rel=0.05)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_p1_shift_is_second_order_in_the_tilt(self, n):
        # Tilting about y leaves y(t) unchanged, and z returns to its value at
        # every station, so each interval's first-order Magnus term k*E*dy*Sz
        # is the planar one: the tilt enters only through the commutator, and
        # the echo's p1 shift is second order in it.
        sched = build_echo_schedule(n, 4000.0, 1.0)
        field = FieldConfig(magnitude=3e7)

        def p1(tilt):
            traj = station_trajectory(0.01, 4000.0, tilt=tilt)
            return simulate_run(
                sched, traj, field, NVParameters(), mode="oracle", steps_per_interval=2000,
            ).p1

        planar = p1(0.0)
        exponent = math.log2((p1(0.05) - planar) / (p1(0.025) - planar))
        assert exponent == pytest.approx(2.0, abs=0.05)
