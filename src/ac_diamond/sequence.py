"""Spin-echo experiment engine: schedules, run simulation, Stark handling.

The echo run is: optical pump into |0> at station A, a pi/2 pulse, a pi pulse
at every station crossing (twice per rotation, which rectifies the otherwise
sign-alternating A-C phase and cancels any static precession), and after n full
rotations a final pi/2 pulse whose phase lags the earlier pulses by ``lag``,
followed by fluorescence readout.  All pulses are instantaneous and land on
the station grid k/(2f) that an :class:`EchoSchedule` stores.

Closed-form signal contract (confirmed against the matrix/ODE oracle by the
test suite):

    p1(E) = 1/2 * (1 + exp(-t_r/T2) * cos(Phi(E) - lag))

with Phi(E) the rectified total 4*g*mu_B*r*E*n/(hbar*c^2).  The lagging final
pulse enters the rotation matrix with phase -lag; simulation runs in the
rotating frame of the static Hamiltonian, with any residual static precession
carried explicitly as ``detuning_hz`` so the echo-cancellation checks are
meaningful computations rather than tautologies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericPreconditionError
from .geometry import DiskTrajectory, FieldConfig
from .holonomy import PathSampling, effective_hamiltonian_evolve
from .phase import segment_phase, total_rectified_phase
from .physics import (
    H_PLANCK, MU_B, TWO_PI, NVParameters, SpinState, apply_rotation, rotation_matrix,
)

MAX_ROTATIONS = 10_000  # a schedule fires 2n pi pulses and the walk 2n segments
MAX_PHASE_ULP = 1e-6  # rad; coarsest phase spacing the closed form may pass to cos
FRINGE_SNAP = 1e-10  # p1 this close to 1/2 counts as on the fringe zero


@dataclass(frozen=True)
class EchoSchedule:
    """The station grid of one run: ``intervals`` half periods h = 1/(2f).

    Pump and pi/2 at t = 0, a pi pulse at each crossing k*h, k = 1..intervals
    (if ``refocus``), then the final pi/2, lagging by ``readout_lag``, and the
    readout at t_r = ``duration`` = intervals*h.  The rectified phase counts
    ``n_rotations``.
    """

    n_rotations: int
    frequency: float
    intervals: int
    readout_lag: float
    refocus: bool = True

    def __post_init__(self):
        if not self.frequency > 0.0:
            raise ValueError("rotation frequency must be positive")

    @property
    def half_period(self) -> float:
        return 1.0 / (2.0 * self.frequency)

    @property
    def duration(self) -> float:
        return self.intervals * self.half_period

    def pi_pulse_count(self) -> int:
        return self.intervals if self.refocus else 0


def integer_rotations(n) -> int:
    """The rotation count n as an int; schedules need a positive integer of at
    most ``MAX_ROTATIONS``."""
    if float(n) > MAX_ROTATIONS:
        raise ValueError(f"rotation count {n!r} exceeds the cap of {MAX_ROTATIONS}")
    n_int = int(round(float(n)))
    if abs(float(n) - n_int) > 1e-12 or n_int < 1:
        raise ValueError(
            f"echo schedules need a positive integer rotation count, got {n!r}"
        )
    return n_int


def build_echo_schedule(n, f: float, lag: float = 0.0) -> EchoSchedule:
    """Standard even schedule: 2n pi pulses at the station crossings k/(2f),
    k = 1..2n, with the final pi/2 (phase -lag) and readout at t = n/f."""
    n_int = integer_rotations(n)
    return EchoSchedule(n_int, f, 2 * n_int, lag)


def odd_pulse_schedule(n, f: float, lag: float = 0.0) -> EchoSchedule:
    """Cancellation diagnostic: run for n - 1/2 rotations with 2n-1 pi pulses.

    The odd interval count leaves exactly one uncancelled interval, so a
    constant detuning delta survives as a residual phase 2*pi*delta/(2f).
    """
    n_int = integer_rotations(n)
    return EchoSchedule(n_int, f, 2 * n_int - 1, lag)


def strip_pi_pulses(schedule: EchoSchedule) -> EchoSchedule:
    """Control variant without refocusing pulses; the sinusoidal A-C phase then
    integrates to zero over whole rotations."""
    return replace(schedule, refocus=False)


@dataclass(frozen=True)
class RunResult:
    """Readout of one echo run.

    ``ac_phase`` is the rectified A-C phase in closed-form mode and the wrapped
    relative coherence phase (A-C plus detuning) in oracle mode.
    ``static_phase`` is the net non-A-C (detuning) phase at readout; it is
    tracked exactly by the closed form and None in oracle mode.
    ``fringe_phase`` is the closed form's cosine argument, so that
    p1 = 1/2*(1 + coherence*cos(fringe_phase)); None in oracle mode.
    """

    p1: float
    ac_phase: float
    coherence: float
    static_phase: float | None = None
    fringe_phase: float | None = None

    def __post_init__(self):
        _require_population(self.p1)


def _require_population(p1) -> None:
    """Range check on a |1> population, or on every entry of an array of them."""
    in_range = (p1 >= -1e-12) & (p1 <= 1.0 + 1e-12)
    if not np.all(in_range):
        worst = np.ravel(p1)[np.argmin(np.ravel(in_range))]
        raise ValueError(f"population out of range: {float(worst)!r}")


def signal_probability(phi: float, lag: float, t_r: float, t2: float) -> float:
    """Closed-form fluorescence signal 1/2*(1 + exp(-t_r/T2)*cos(phi - lag))."""
    return 0.5 * (1.0 + math.exp(-t_r / t2) * math.cos(phi - lag))


def optimal_readout_lag(phi_max: float) -> float:
    """Lag placing the fringe at quadrature at the top of the sweep:
    (phi_max - pi/2) mod pi, so |sin(phi_max - lag)| = 1."""
    if phi_max < 0.0:
        raise ValueError("phi_max must be non-negative")
    return (phi_max - math.pi / 2.0) % math.pi


def _validate_run_inputs(schedule: EchoSchedule, traj: DiskTrajectory) -> None:
    if abs(traj.frequency - schedule.frequency) > 1e-9 * abs(schedule.frequency):
        raise ValueError("trajectory and schedule disagree on rotation frequency")


def simulate_run(
    schedule: EchoSchedule,
    traj: DiskTrajectory,
    field: FieldConfig,
    params: NVParameters,
    mode: str = "closed_form",
    detuning_hz: float = 0.0,
    steps_per_interval: int = 20000,
    quadratic_mass: float | None = None,
) -> RunResult:
    """Evolve one echo run and read out the |1> population.

    closed_form: one walk over the station grid (:func:`_closed_form_walk`)
    evaluated at this field; requires planar motion.

    oracle: integrates each interval with the unitarity-preserving stepper and
    applies the pulse rotation matrices; tolerates tilt.
    """
    if mode not in ("closed_form", "oracle"):
        raise ValueError(f"unknown simulation mode {mode!r}")
    if mode == "closed_form":
        walk = _closed_form_walk(schedule, traj, field, params, detuning_hz)
        coherence = math.exp(-schedule.duration / params.T2)
        return RunResult(
            p1=float(_echo_p1(1.0, walk, coherence)),
            ac_phase=walk[0],
            coherence=coherence,
            static_phase=walk[1],
            fringe_phase=walk[0] + walk[1] + walk[2],  # _echo_p1's total at scale 1
        )
    _validate_run_inputs(schedule, traj)
    return _run_oracle(
        schedule, traj, field, params, detuning_hz, steps_per_interval, quadratic_mass
    )


def _closed_form_walk(schedule, traj, field, params, detuning_hz):
    """Walk the station grid once and return (phi, static_phase, final_phase).

    phi sums the per-interval A-C segment phases at ``field``, flipping the
    bookkeeping sign at each pi pulse.  Every interval is one half period, so
    the detuning phase is one tick per interval and the even-pulse echo
    cancellation is exact.  phi is linear in the field magnitude: a sweep
    walks once at unit magnitude and scales phi by each E in
    :func:`_echo_p1`, a single run walks at its own field.
    """
    _validate_run_inputs(schedule, traj)
    half = schedule.half_period
    tick_phase = TWO_PI * detuning_hz * half  # one float reused for every tick
    sign = 1.0
    ac_total = 0.0
    static_total = 0.0
    for k in range(1, schedule.intervals + 1):
        ac_total += sign * segment_phase((k - 1) * half, k * half, traj, field, params)
        static_total += sign * tick_phase
        if schedule.refocus:
            sign = -sign
    if sign < 0.0:  # odd pi count swaps |0>, |1>: p1 = 1/2*(1 - cos(phi + lag))
        return ac_total, static_total, schedule.readout_lag + math.pi
    return ac_total, static_total, -schedule.readout_lag


def _echo_p1(scale, walk, coherence):
    """1/2*(1 + coherence*cos(scale*phi + static_phase + final_phase)) for a
    walk (phi, static_phase, final_phase); ``scale`` may be a numpy array.

    Refuses total phases whose float spacing exceeds ``MAX_PHASE_ULP`` (about
    8.6e9 rad and beyond), where cos would return rounding noise.
    """
    phi, static_phase, final_phase = walk
    total = scale * phi + static_phase + final_phase
    largest = float(np.max(np.abs(total)))
    if not math.ulp(largest) <= MAX_PHASE_ULP:  # also refuses inf and NaN
        raise NumericPreconditionError(
            f"closed-form phase {largest:.3g} rad is not resolved to "
            f"{MAX_PHASE_ULP:g} rad"
        )
    return 0.5 * (1.0 + coherence * np.cos(total))


def _run_oracle(
    schedule, traj, field, params, detuning_hz, steps_per_interval, quadratic_mass
):
    half = schedule.half_period
    coherence = math.exp(-schedule.duration / params.T2)
    state = apply_rotation(SpinState.ground(), math.pi / 2.0, 0.0)
    for k in range(1, schedule.intervals + 1):
        sampling = PathSampling(
            t_start=(k - 1) * half,
            t_end=k * half,
            steps=steps_per_interval,
            trajectory=traj,
            field=field,
        )
        state = effective_hamiltonian_evolve(
            sampling,
            params,
            state,
            detuning_hz=detuning_hz,
            quadratic_mass=quadratic_mass,
        )
        if schedule.refocus:
            state = apply_rotation(state, math.pi, 0.0)
    # Dephasing damps the qubit coherence accumulated over the run, so it is
    # applied to the density matrix before the lagging readout pulse.
    amps = state.amplitudes
    rho = np.outer(amps, amps.conj())
    rho[1, 2] *= coherence
    rho[2, 1] *= coherence
    gate = np.eye(3, dtype=complex)
    gate[1:, 1:] = rotation_matrix(math.pi / 2.0, -schedule.readout_lag)
    rho = gate @ rho @ gate.conj().T
    return RunResult(
        p1=float(np.real(rho[2, 2])),
        ac_phase=float(np.angle(amps[2] * np.conj(amps[1]))),
        coherence=coherence,
    )


@dataclass(frozen=True)
class SweepResult:
    """Fluorescence curve over a field grid, plus slope diagnostics."""

    e_values: np.ndarray
    phases: np.ndarray
    p1: np.ndarray
    p1_decohered: np.ndarray
    slopes: np.ndarray
    max_slope_index: int


def sweep_signal(
    e_values,
    schedule: EchoSchedule,
    traj: DiskTrajectory,
    params: NVParameters,
) -> SweepResult:
    """Closed-form signal for each field magnitude on a strictly increasing grid.

    The rectified phase is linear in E, so the schedule is walked once at unit
    field and p1 follows for the whole grid in one array expression.  ``p1`` is
    the T2 -> infinity fringe; ``p1_decohered`` applies the exact envelope
    identity p1_T2 = 1/2 + exp(-t_r/T2)*(p1 - 1/2).  The slope column uses
    central differences (one-sided at the grid ends).
    """
    e_values = np.asarray(e_values, dtype=float)
    if e_values.size == 0:
        raise ValueError("sweep grid is empty")
    if not (np.all(np.diff(e_values) > 0.0) and e_values[0] >= 0.0):
        # a repeated E makes the slope column divide by zero; through the CLI
        # that means E0 too small to resolve the grid, hence exit 3
        raise NumericPreconditionError(
            "sweep grid must be strictly increasing from E >= 0"
        )
    # T2 -> infinity, so coherence 1
    walk = _closed_form_walk(
        schedule, traj, FieldConfig(magnitude=1.0), params, 0.0
    )
    p1 = _echo_p1(e_values, walk, 1.0)
    _require_population(p1)
    phases = total_rectified_phase(
        traj.radius, e_values, schedule.n_rotations, params.g
    )
    envelope = math.exp(-schedule.duration / params.T2)
    p1_decohered = 0.5 + envelope * (p1 - 0.5)
    if e_values.size > 1:
        slopes = np.gradient(p1_decohered, e_values)
    else:
        slopes = np.zeros(1)
    return SweepResult(
        e_values=e_values,
        phases=phases,
        p1=p1,
        p1_decohered=p1_decohered,
        slopes=slopes,
        max_slope_index=int(np.argmax(np.abs(slopes))),
    )


def fringe_zero_crossings(p1_values) -> int:
    """Count sign changes of p1 - 1/2 along the grid.

    Values within ``FRINGE_SNAP`` of 1/2 are treated as exactly on the fringe
    zero.  A run of zeros between two points on the same side (the curve
    touched the line and came back) and a terminal zero (the quadrature
    endpoint of an auto-lag sweep) each count as one crossing.
    """
    z = np.asarray(p1_values, dtype=float) - 0.5
    z[np.abs(z) < FRINGE_SNAP] = 0.0
    signs = np.sign(z)
    off_zero = np.flatnonzero(signs)
    # consecutive off-zero points change sign, or touch the zero line between
    changes = (signs[off_zero[1:]] != signs[off_zero[:-1]]) | (np.diff(off_zero) > 1)
    trailing_zero = off_zero.size > 0 and off_zero[-1] < z.size - 1
    return int(np.count_nonzero(changes)) + int(trailing_zero)


@dataclass(frozen=True)
class StarkReport:
    coupling_hz: float
    zeeman_splitting_hz: float
    shift_hz: float
    modulation_hz: float
    adiabatic: bool


def stark_shift(
    e_field_v_per_m: float,
    params: NVParameters,
    f_disk: float,
) -> StarkReport:
    """Adiabatic second-order level shift of the |+-1> pair, plus the check
    that the disk's Stark modulation (triple the rotation frequency) is slow
    against the Zeeman splitting.

    The coupling is an ordinary frequency R2E * E with E in V/cm; the shift is
    coupling^2 / (Zeeman splitting frequency) and is removed by the pi pulses.
    A shift too large for a float is refused.
    """
    zeeman = 2.0 * params.g * MU_B * params.B_z / H_PLANCK
    if not 0.0 < zeeman < math.inf:
        raise NumericPreconditionError(
            f"Zeeman splitting {zeeman!r} Hz must be positive and finite: "
            "degenerate |+-1> levels have no adiabatic shift"
        )
    coupling = params.R2E * (e_field_v_per_m / 100.0)
    shift = coupling * coupling / zeeman  # Python floats: inf, not an error, on overflow
    if not math.isfinite(shift):
        raise NumericPreconditionError(
            f"adiabatic level shift of R2E*E = {coupling!r} Hz over a Zeeman "
            f"splitting of {zeeman!r} Hz is not finite"
        )
    modulation = 3.0 * f_disk
    return StarkReport(
        coupling_hz=coupling,
        zeeman_splitting_hz=zeeman,
        shift_hz=shift,
        modulation_hz=modulation,
        adiabatic=modulation < zeeman / 100.0,
    )
