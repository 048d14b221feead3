"""Spin-echo experiment engine: schedules, run simulation and field sweeps.

The echo run is: optical pump into |0> at station A, a pi/2 pulse, a pi pulse
at every station crossing (twice per rotation, which rectifies the otherwise
sign-alternating A-C phase and cancels any static precession), and after n full
rotations a final pi/2 pulse whose phase lags the earlier pulses by ``lag``,
followed by fluorescence readout.  All pulses are instantaneous and land on
the station grid k/(2f), k = 1..2n, that an :class:`EchoSchedule` describes.

Closed-form signal contract (confirmed against the matrix/ODE oracle by the
test suite):

    p1(E) = 1/2 * (1 + exp(-t_r/T2) * cos(Phi(E) - lag))

with Phi(E) the rectified total 4*g*mu_B*r*E*n/(hbar*c^2).  The lagging final
pulse enters the rotation matrix with phase -lag; simulation runs in the
rotating frame of the static Hamiltonian, with any residual static precession
carried explicitly as ``detuning_hz`` so the echo-cancellation checks are
meaningful computations rather than tautologies.

The closed-form engine (schedules, runs, sweeps) computes in Python floats
and imports no numpy; its float operations follow numpy's own order, so a
sweep's columns are bit for bit what ``np.linspace`` and numpy's elementwise
expressions give.  A sweep walks the schedule once, for p1; its phase
column is :func:`total_rectified_phase` at each grid point.  Where numpy
under ``np.errstate`` raised (a float overflow), it raises
:class:`NumericPreconditionError`.  Only the oracle imports numpy and the
stepper, when it runs.  It builds the whole
run as one unitary, in about log2(n) 3x3 products: the two interval
propagators of one rotation, each followed by its pi pulse, raised to the
n-th power, with the polar factor of the result as the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .config import integer_rotations
from .errors import NumericPreconditionError
from .geometry import DiskTrajectory, FieldConfig
from .phase import segment_phase, total_rectified_phase
from .physics import TWO_PI, NVParameters

MAX_PHASE_ULP = 1e-6  # rad; coarsest phase spacing the closed form may pass to cos
FRINGE_SNAP = 1e-10  # p1 this close to 1/2 counts as on the fringe zero


@dataclass(frozen=True)
class EchoSchedule:
    """The station grid of n = ``n_rotations`` whole rotations, or ``intervals``
    = 2n half periods h = 1/(2f): pump and pi/2 at t = 0, a pi pulse at each
    crossing k*h, k = 1..2n (if ``refocus``), then the final pi/2, lagging by
    ``readout_lag``, and the readout at t_r = ``duration`` = 2n*h.
    """

    n_rotations: int
    frequency: float
    readout_lag: float
    refocus: bool = True

    def __post_init__(self):
        object.__setattr__(self, "n_rotations", integer_rotations(self.n_rotations))
        if not self.frequency > 0.0:
            raise ValueError("rotation frequency must be positive")
        if not math.isfinite(self.readout_lag):
            raise ValueError(f"readout lag {self.readout_lag!r} rad is not finite")
        if not isinstance(self.refocus, bool):
            raise ValueError(f"refocus must be True or False, got {self.refocus!r}")

    @property
    def intervals(self) -> int:
        return 2 * self.n_rotations

    @property
    def half_period(self) -> float:
        return 1.0 / (2.0 * self.frequency)

    @property
    def duration(self) -> float:
        return self.intervals * self.half_period


def build_echo_schedule(n, f: float, lag: float = 0.0) -> EchoSchedule:
    """Standard schedule: 2n pi pulses at the station crossings k/(2f),
    k = 1..2n, with the final pi/2 (phase -lag) and readout at t = n/f."""
    return EchoSchedule(n, f, lag)


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
    ``fringe_phase``, ac_phase + static_phase - readout_lag, is the closed form's
    cosine argument: p1 = 1/2*(1 + coherence*cos(fringe_phase)); None in oracle mode.
    """

    p1: float
    ac_phase: float
    coherence: float
    static_phase: float | None = None
    fringe_phase: float | None = None

    def __post_init__(self):
        _require_population((self.p1,))


def _require_population(p1_values) -> None:
    """Range check on every |1> population in a sequence; names the first
    one out of range."""
    for p1 in p1_values:
        if not -1e-12 <= p1 <= 1.0 + 1e-12:  # also refuses NaN
            raise ValueError(f"population out of range: {float(p1)!r}")


def optimal_readout_lag(phi_max: float) -> float:
    """Lag placing the fringe at quadrature at the top of the sweep:
    (phi_max - pi/2) mod pi, so |sin(phi_max - lag)| = 1."""
    if phi_max < 0.0:
        raise ValueError("phi_max must be non-negative")
    return (phi_max - math.pi / 2.0) % math.pi


def _validate_run_inputs(schedule: EchoSchedule, traj: DiskTrajectory) -> None:
    # exact: the oracle reuses one period's propagators for every later period
    if traj.frequency != schedule.frequency:
        raise ValueError("trajectory and schedule disagree on rotation frequency")


def simulate_run(
    schedule: EchoSchedule,
    traj: DiskTrajectory,
    field: FieldConfig,
    params: NVParameters,
    mode: str = "closed_form",
    detuning_hz: float = 0.0,
    steps_per_interval: int = 20000,
) -> RunResult:
    """Evolve one echo run and read out the |1> population.

    closed_form: one walk over the 2n intervals (:func:`_closed_form_walk`)
    evaluated at this field; requires planar motion.

    oracle: integrates the two intervals of one rotation with the path-ordered
    stepper, folds in their pi pulses, and applies that rotation's unitary to
    the n-th power to the pi/2-pulsed state; tolerates tilt.
    """
    if not math.isfinite(TWO_PI * float(detuning_hz)):  # float(): no numpy overflow warning
        raise NumericPreconditionError(
            f"detuning_hz = {detuning_hz!r}: 2*pi*detuning_hz is not finite"
        )
    if mode not in ("closed_form", "oracle"):
        raise ValueError(f"unknown simulation mode {mode!r}")
    if mode == "closed_form":
        walk = _closed_form_walk(schedule, traj, field, params, detuning_hz)
        coherence = math.exp(-schedule.duration / params.T2)
        return RunResult(
            p1=_echo_p1((1.0,), walk, coherence)[0],
            ac_phase=walk[0],
            coherence=coherence,
            static_phase=walk[1],
            fringe_phase=walk[0] + walk[1] + walk[2],  # _echo_p1's total at scale 1
        )
    _validate_run_inputs(schedule, traj)
    return _run_oracle(schedule, traj, field, params, detuning_hz, steps_per_interval)


def _closed_form_walk(schedule, traj, field, params, detuning_hz):
    """Walk the station grid once and return (phi, static_phase, -readout_lag).

    phi sums the per-interval A-C segment phases at ``field``, flipping the
    bookkeeping sign at each pi pulse.  Every interval is one half period, so
    the detuning phase is one tick per interval and the 2n-pulse echo
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
    return ac_total, static_total, -schedule.readout_lag


def _echo_p1(scales, walk, coherence) -> list[float]:
    """1/2*(1 + coherence*cos(scale*phi + static_phase + final_phase)) for a
    walk (phi, static_phase, final_phase), one value per scale in ``scales``.

    Refuses total phases whose float spacing exceeds ``MAX_PHASE_ULP`` (about
    8.6e9 rad and beyond), where cos would return rounding noise.
    """
    phi, static_phase, final_phase = walk
    totals = [scale * phi + static_phase + final_phase for scale in scales]
    # the largest |total|, or NaN if there is one, as np.max reports it
    largest = math.nan if any(map(math.isnan, totals)) else max(map(abs, totals))
    if not math.ulp(largest) <= MAX_PHASE_ULP:  # also refuses inf and NaN
        raise NumericPreconditionError(
            f"closed-form phase {largest:.3g} rad is not resolved to "
            f"{MAX_PHASE_ULP:g} rad"
        )
    return [0.5 * (1.0 + coherence * math.cos(total)) for total in totals]


def _run_oracle(schedule, traj, field, params, detuning_hz, steps_per_interval):
    import numpy as np

    from .holonomy import PathSampling, path_ordered_propagator, qubit_pulse

    half = schedule.half_period
    coherence = math.exp(-schedule.duration / params.T2)
    # The velocity has period 2h, so interval k + 2 has interval k's
    # propagator: only the first two intervals are integrated, each followed
    # by its pi pulse, and the run is their rotation raised to the n-th power.
    pulse = qubit_pulse(math.pi, 0.0) if schedule.refocus else np.eye(3)
    period = []
    for k in range(2):
        sampling = PathSampling(k * half, (k + 1) * half, steps_per_interval, traj, field)
        u = path_ordered_propagator(sampling, params, detuning_hz=detuning_hz).U
        period.append(pulse @ u)
    run = np.linalg.matrix_power(period[1] @ period[0], schedule.n_rotations)
    # Each closed-form step is unitary only to rounding, and the power
    # compounds that defect, so the run is replaced by its polar
    # (nearest-unitary) factor and the state keeps unit norm.
    w, _, vh = np.linalg.svd(run)
    amps = (w @ vh @ qubit_pulse(math.pi / 2.0, 0.0))[:, 1]  # the pi/2-pulsed |0>
    norm_sq = float(np.sum(np.abs(amps) ** 2))
    if abs(norm_sq - 1.0) > 1e-12:
        raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq!r}")
    # Dephasing damps the qubit coherence accumulated over the run, so it is
    # applied to the density matrix before the lagging readout pulse.
    rho = np.outer(amps, amps.conj())
    rho[1, 2] *= coherence
    rho[2, 1] *= coherence
    gate = qubit_pulse(math.pi / 2.0, -schedule.readout_lag)
    rho = gate @ rho @ gate.conj().T
    return RunResult(
        p1=float(np.real(rho[2, 2])),
        ac_phase=float(np.angle(amps[2] * np.conj(amps[1]))),
        coherence=coherence,
    )


def linear_grid(stop: float, points: int) -> list[float]:
    """``points`` evenly spaced fields from 0 to ``stop``, as ``np.linspace``
    computes them: point i is i*step, or (i/div)*stop where the step
    stop/div underflows to zero, and the last point is ``stop`` itself."""
    div = points - 1
    if div < 1:
        return [0.0] * points
    step = stop / div
    if step == 0.0:
        grid = [(i / div) * stop for i in range(points)]
    else:
        grid = [i * step for i in range(points)]
        if not math.isfinite(grid[-1]):  # numpy computes it before setting stop
            raise NumericPreconditionError(
                f"sweep grid point {div}*{step!r} V/m overflows"
            )
    grid[-1] = stop
    return grid


@dataclass(frozen=True)
class SweepResult:
    """Fluorescence curve over a field grid, and its steepest grid point."""

    e_values: list[float]
    phases: list[float]
    p1: list[float]
    p1_decohered: list[float]
    max_slope_index: int


def sweep_signal(
    e_values,
    schedule: EchoSchedule,
    traj: DiskTrajectory,
    params: NVParameters,
) -> SweepResult:
    """Closed-form signal for each field magnitude on a strictly increasing grid.

    The rectified phase is linear in E, so the schedule is walked once at unit
    field and p1 follows for every grid point from that one walk; ``phases``
    is :func:`total_rectified_phase` at each E.  ``p1`` is the T2 -> infinity
    fringe; ``p1_decohered`` applies the exact envelope identity
    p1_T2 = 1/2 + exp(-t_r/T2)*(p1 - 1/2).  With p1 = 1/2*(1 + cos t)
    and t linear in E, |dp1/dE| is proportional to |sin t|, which falls as
    |p1 - 1/2| grows: ``max_slope_index`` is the first point whose ``p1`` is
    nearest 1/2.
    """
    e_values = [float(e) for e in e_values]
    if not e_values:
        raise ValueError("sweep grid is empty")
    if not (e_values[0] >= 0.0 and all(a < b for a, b in zip(e_values, e_values[1:]))):
        # through the CLI a repeated E means E0 too small to resolve the
        # grid, hence exit 3
        raise NumericPreconditionError(
            "sweep grid must be strictly increasing from E >= 0"
        )
    # T2 -> infinity, so coherence 1
    walk = _closed_form_walk(
        schedule, traj, FieldConfig(magnitude=1.0), params, 0.0
    )
    p1 = _echo_p1(e_values, walk, 1.0)
    _require_population(p1)
    phases = [
        total_rectified_phase(traj.radius, e, schedule.n_rotations, params.g)
        for e in e_values
    ]
    envelope = math.exp(-schedule.duration / params.T2)
    return SweepResult(
        e_values=e_values,
        phases=phases,
        p1=p1,
        p1_decohered=[0.5 + envelope * (p - 0.5) for p in p1],
        # p1, not p1_decohered: the envelope's rounding could tie points
        max_slope_index=min(range(len(p1)), key=lambda i: abs(p1[i] - 0.5)),
    )


def fringe_zero_crossings(p1_values) -> int:
    """Count sign changes of p1 - 1/2 along the grid.

    Values within ``FRINGE_SNAP`` of 1/2 are treated as exactly on the fringe
    zero.  A run of zeros between two points on the same side (the curve
    touched the line and came back) and a terminal zero (the quadrature
    endpoint of an auto-lag sweep) each count as one crossing.  A NaN is a
    side of its own, unequal to every other.
    """
    crossings = 0
    side = 0.0  # of the last point off the zero line; 0.0 before the first
    touched = False  # a point on the zero line since then
    for p1 in p1_values:
        z = float(p1) - 0.5
        if abs(z) < FRINGE_SNAP:
            touched = True
            continue
        sign = 1.0 if z > 0.0 else -1.0 if z < 0.0 else z  # NaN stays NaN
        if side != 0.0 and (sign != side or touched):
            crossings += 1
        side, touched = sign, False
    return crossings + (touched and side != 0.0)
