"""Spin-echo experiment engine: schedules, run simulation and field sweeps.

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

The closed-form engine (schedules, runs, sweeps) computes in Python floats
and imports no numpy; its float operations follow numpy's own order, so a
sweep is bit for bit what ``np.linspace`` and ``np.gradient`` gave.  Where
numpy under ``np.errstate`` raised (a float overflow, a division by a zero
that an underflow made), it raises :class:`NumericPreconditionError`.  Only
the oracle imports numpy and the stepper, when it runs.  It builds the whole
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
from .phase import segment_phase
from .phase import total_rectified_phase  # noqa: F401  (a benchmark tracer site)
from .physics import C_LIGHT, HBAR, MU_B, TWO_PI, NVParameters

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
        _require_population((self.p1,))


def _require_population(p1_values) -> None:
    """Range check on every |1> population in a sequence; names the first
    one out of range."""
    for p1 in p1_values:
        if not -1e-12 <= p1 <= 1.0 + 1e-12:  # also refuses NaN
            raise ValueError(f"population out of range: {float(p1)!r}")


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
    quadratic_mass: float | None = None,
) -> RunResult:
    """Evolve one echo run and read out the |1> population.

    closed_form: one walk over the station grid (:func:`_closed_form_walk`)
    evaluated at this field; requires planar motion and refuses a
    ``quadratic_mass``, which it does not model.

    oracle: integrates the two intervals of one rotation with the path-ordered
    stepper, folds in their pi pulses, and applies that rotation's unitary to
    the n-th power to the pi/2-pulsed state; tolerates tilt.
    """
    if mode not in ("closed_form", "oracle"):
        raise ValueError(f"unknown simulation mode {mode!r}")
    if mode == "closed_form":
        if quadratic_mass is not None:
            raise ValueError("closed-form mode does not model quadratic_mass; "
                             "use mode='oracle'")
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


def _run_oracle(
    schedule, traj, field, params, detuning_hz, steps_per_interval, quadratic_mass
):
    import numpy as np

    from .holonomy import PathSampling, SpinState, path_ordered_propagator, qubit_pulse

    half = schedule.half_period
    coherence = math.exp(-schedule.duration / params.T2)
    # The velocity has period 2h, so interval k + 2 has interval k's
    # propagator: only the first two intervals are integrated, each followed
    # by its pi pulse, and the run is their rotation raised to the power
    # intervals // 2, then the first interval once more if the count is odd.
    pulse = qubit_pulse(math.pi, 0.0) if schedule.refocus else np.eye(3)
    period = []
    for k in range(min(schedule.intervals, 2)):
        sampling = PathSampling(k * half, (k + 1) * half, steps_per_interval, traj, field)
        u = path_ordered_propagator(
            sampling, params, detuning_hz=detuning_hz, quadratic_mass=quadratic_mass
        ).U
        period.append(pulse @ u)
    run = np.linalg.matrix_power(period[-1] @ period[0], schedule.intervals // 2)
    if schedule.intervals % 2:
        run = period[0] @ run
    # Each closed-form step is unitary only to rounding, and the power
    # compounds that defect, so the run is replaced by its polar
    # (nearest-unitary) factor and the state keeps unit norm.
    w, _, vh = np.linalg.svd(run)
    state = SpinState(w @ vh @ qubit_pulse(math.pi / 2.0, 0.0) @ SpinState.ground().amplitudes)
    # Dephasing damps the qubit coherence accumulated over the run, so it is
    # applied to the density matrix before the lagging readout pulse.
    amps = state.amplitudes
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
    """Fluorescence curve over a field grid, plus slope diagnostics."""

    e_values: list[float]
    phases: list[float]
    p1: list[float]
    p1_decohered: list[float]
    slopes: list[float]
    max_slope_index: int


def sweep_signal(
    e_values,
    schedule: EchoSchedule,
    traj: DiskTrajectory,
    params: NVParameters,
) -> SweepResult:
    """Closed-form signal for each field magnitude on a strictly increasing grid.

    The rectified phase is linear in E, so the schedule is walked once at unit
    field and p1 follows for every grid point from that one walk.  ``p1`` is
    the T2 -> infinity fringe; ``p1_decohered`` applies the exact envelope
    identity p1_T2 = 1/2 + exp(-t_r/T2)*(p1 - 1/2).  The slope column uses
    central differences (one-sided at the grid ends), see :func:`_gradient`.
    """
    e_values = [float(e) for e in e_values]
    if not e_values:
        raise ValueError("sweep grid is empty")
    spacing = [b - a for a, b in zip(e_values, e_values[1:])]
    if not (all(dx > 0.0 for dx in spacing) and e_values[0] >= 0.0):
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
    # total_rectified_phase at each E, in its float order; every phase is
    # finite, since it is E*phi, whose size _echo_p1 has bounded
    head = 4.0 * params.g * MU_B * traj.radius
    scale = HBAR * C_LIGHT**2
    phases = [head * e * schedule.n_rotations / scale for e in e_values]
    envelope = math.exp(-schedule.duration / params.T2)
    p1_decohered = [0.5 + envelope * (p - 0.5) for p in p1]
    slopes = _gradient(p1_decohered, spacing) if spacing else [0.0]
    return SweepResult(
        e_values=e_values,
        phases=phases,
        p1=p1,
        p1_decohered=p1_decohered,
        slopes=slopes,
        max_slope_index=max(range(len(slopes)), key=lambda i: abs(slopes[i])),
    )


def _gradient(f, spacing) -> list[float]:
    """``np.gradient(f, x)`` for the positive grid steps ``spacing`` of x, in
    numpy's float operations: central differences inside, first-order
    one-sided ones at the ends.

    Equal steps h give (f[i+1] - f[i-1])/(2h), unequal steps the weighted
    three-point formula.  A divisor that overflows or underflows to zero, or
    a slope that overflows, is refused, as numpy's errstate refused it.
    """
    h = spacing[0]
    if all(dx == h for dx in spacing):
        two_h = 2.0 * h  # numpy forms 2h even without interior points
        if not two_h < math.inf:
            raise NumericPreconditionError(f"sweep grid step {h!r} V/m: 2*step overflows")
        inner = [(f[i + 1] - f[i - 1]) / two_h for i in range(1, len(f) - 1)]
    else:
        inner = []
        for dx1, dx2, f0, f1, f2 in zip(spacing, spacing[1:], f, f[1:], f[2:]):
            span = dx1 + dx2
            den_a, den_b, den_c = dx1 * span, dx1 * dx2, dx2 * span
            if not (0.0 < den_a < math.inf and 0.0 < den_b < math.inf
                    and 0.0 < den_c < math.inf):
                raise NumericPreconditionError(
                    f"sweep grid steps {dx1!r}, {dx2!r} V/m: a product of two "
                    "steps overflows or underflows to zero"
                )
            a, b, c = -dx2 / den_a, (dx2 - dx1) / den_b, dx1 / den_c
            inner.append(a * f0 + b * f1 + c * f2)
    slopes = [(f[1] - f[0]) / spacing[0], *inner, (f[-1] - f[-2]) / spacing[-1]]
    if not all(abs(slope) < math.inf for slope in slopes):  # also refuses NaN
        raise NumericPreconditionError(
            "sweep slope column is not finite: the grid step is too fine"
        )
    return slopes


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
