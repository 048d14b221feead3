"""Numerical path-ordered propagator for the full SU(2) A-C phase operator, and
the spin matrices and qubit pulses it acts with.

The spin couples to the motion through the Hermitian generator

    G(t) = (g*mu_B/(hbar*c^2)) * S . (E(r(t)) x v(t))      [rad/s]

and the propagator is the path-ordered product of per-step exponentials
exp(-i*G*dt), sampled at step midpoints (first-order Magnus per step: exactly
unitary, second-order accurate).  The sign convention matches the closed-form
phase: for planar motion the |1><1| element equals exp(-i*Phi_AC).

For planar motion every G(t) is proportional to Sz, all steps commute, and the
propagator is diagonal; tilting the disk mixes in Sy and path ordering starts
to matter.  The leading correction is the second-order Dyson commutator term,
in closed form in :func:`dyson_second_order`, and probed by comparing the
path-ordered product against the reverse-ordered one
(:func:`path_ordered_propagator` with ``reverse=True``); a literal
time-reversed traversal would just invert the propagator exactly and show
nothing.

One stepper, :func:`path_ordered_propagator`, builds every propagator, and the
state oracle (:func:`ac_diamond.sequence.simulate_run` in oracle mode) builds
its run unitary from two of them.  It chooses its path once, from the disk tilt
and the field, which lies along x, so the coupling axis k*(E x v) is
k*E*(0, -v_z, v_y).  For an untilted disk (or a zero field) it lies exactly
along z, G = a_z*Sz, and the stepper sums the midpoint rates a_z in closed
form, in Python floats on exactly reduced angles, with no numpy, per-step loop,
matrix exponential or matrix product; the forward and reverse products are
therefore bitwise equal, and the cost does not grow with the step count.  A
tilted disk's steps are closed-form spin-1 rotations, built and multiplied out
in blocks of ``_CHUNK_STEPS`` steps; no function's memory grows with the step
count.  The oracle's detuning, a constant rate c on |+1>, enters either path
once, as the exact factor exp(-i*c*span), and a tilted product takes each
rotation in the interaction frame of C = diag(0, 0, c).  numpy is imported by
the functions that use it, so a planar propagator runs without it.

Basis convention used throughout the package: the probe is the spin-1 NV
ground triplet, and amplitude vectors and operator matrices are indexed by
ascending magnetic quantum number, (|-1>, |0>, |+1>).  The NV qubit lives on
the {|0>, |1>} subspace (indices 1 and 2).
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from dataclasses import dataclass

from .errors import NumericPreconditionError
from .geometry import STATION_A_ANGLE, DiskTrajectory, FieldConfig, velocity
from .phase import coupling_constant
from .physics import TWO_PI, NVParameters

MAX_STEP_PHASE = 0.5  # rad; per-step rotation bound for the midpoint exponential
_CHUNK_STEPS = 8192  # tilted steps per streamed block; bounds the live (steps, 3, 3) stacks


def spin_operators() -> np.ndarray:
    """Spin-1 matrices (Sx, Sy, Sz) in units of hbar as a (3, 3, 3) stack.

    Built from the raising operator in the Sz eigenbasis ordered by ascending m,
    so Sz = diag(-1, 0, 1).
    """
    import numpy as np

    sz = np.diag([-1.0, 0.0, 1.0]).astype(complex)
    # (S+)_{m+1,m} = sqrt(s(s+1) - m(m+1)) = sqrt(2) for s = 1, m = -1, 0
    raising = np.zeros((3, 3), dtype=complex)
    raising[1, 0] = raising[2, 1] = np.sqrt(2.0)
    sx = (raising + raising.conj().T) / 2.0
    sy = (raising - raising.conj().T) / 2j
    return np.stack([sx, sy, sz])


def qubit_pulse(theta: float, phi: float) -> np.ndarray:
    """3x3 unitary of the Rabi rotation by angle theta about the equatorial
    axis set by phase phi, on the (|0>, |1>) pair; identity on |-1>."""
    import numpy as np

    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    return np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, c, -1j * np.exp(-1j * phi) * s],
            [0.0, -1j * np.exp(1j * phi) * s, c],
        ]
    )


@dataclass(frozen=True)
class PathSampling:
    """Discretization of a trajectory segment for path-ordered integration."""

    t_start: float
    t_end: float
    steps: int
    trajectory: DiskTrajectory
    field: FieldConfig

    def __post_init__(self):
        steps = self.steps
        if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 1:
            raise ValueError("steps must be a positive integer")
        object.__setattr__(self, "steps", int(steps))  # the planar sum needs Python ints
        if not self.t_end > self.t_start:
            raise ValueError("t_end must exceed t_start")
        if not self.t_end - self.t_start < math.inf:
            raise NumericPreconditionError("sampling span t_end - t_start is not finite")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.steps


class Propagator:
    """Unitary result of the path-ordered integration, with its unitarity
    defect, below 1e-10.

    A product is given either as its matrix ``U``, whose defect is
    :func:`unitarity_defect`, or, when it is diagonal (planar motion), as
    ``diagonal``, three Python complex numbers z, whose defect is
    max|conj(z)*z - 1|.  A diagonal propagator's phase, defect and
    off-diagonal norm need no numpy; its matrix is built when ``U`` is read.
    """

    def __init__(self, U=None, *, diagonal=None):
        if diagonal is None:
            defect = unitarity_defect(U)
        else:
            # the largest |conj(z)*z - 1|, or NaN if there is one, as np.max reports it
            defects = [abs(z.conjugate() * z - 1.0) for z in diagonal]
            defect = math.nan if any(map(math.isnan, defects)) else max(defects)
        if not defect < 1e-10:  # also refuses a NaN defect
            raise NumericPreconditionError("propagator is not unitary to 1e-10")
        self._matrix, self.diagonal, self.defect = U, diagonal, defect

    @property
    def U(self) -> np.ndarray:
        if self._matrix is None:
            import numpy as np

            self._matrix = np.diag(self.diagonal)
        return self._matrix

    def abelian_phase(self) -> float:
        """Phi such that <+1|U|+1> = exp(-i*Phi) (planar case), wrapped into
        (-pi, pi]."""
        return -cmath.phase(self.diagonal[2] if self.diagonal else complex(self.U[2, 2]))

    def offdiagonal_norm(self) -> float:
        if self.diagonal is not None:
            return 0.0
        import numpy as np

        off = self.U - np.diag(np.diag(self.U))
        return float(np.max(np.abs(off)))


def unitarity_defect(u: np.ndarray) -> float:
    """Max-entry norm of U^dag U - I."""
    import numpy as np

    return float(np.max(np.abs(u.conj().T @ u - np.eye(3))))


def _coupling_axes(
    sampling: PathSampling, params: NVParameters, start: int, stop: int
) -> np.ndarray:
    """Coupling axes k*(E x v) = k*E*(0, -v_z, v_y) [rad/s] at the midpoints of
    steps start..stop-1 as an (N, 3) array, so that G = axes . S."""
    import numpy as np

    midpoints = sampling.t_start + (np.arange(start, stop) + 0.5) * sampling.dt
    # an angle 2*pi*f*t or an axis past the float range is refused by name below
    with np.errstate(over="ignore", invalid="ignore"):
        v = velocity(sampling.trajectory, midpoints)
        e_cross_v = np.zeros_like(v)
        e_cross_v[:, 1] = -v[:, 2]
        e_cross_v[:, 2] = v[:, 1]
        axes = coupling_constant(params) * (sampling.field.magnitude * e_cross_v)
    _check_finite_axes(np.all(np.isfinite(axes)))
    return axes


def _check_finite_axes(finite: bool) -> None:
    if not finite:
        raise NumericPreconditionError(
            "coupling axis k*(E x v) is not finite: field or velocity too large"
        )


def _check_step_bound(step_phase: float) -> None:
    if not step_phase < MAX_STEP_PHASE:  # also refuses a NaN bound
        raise NumericPreconditionError(
            f"step too coarse: dt*max||G|| = {step_phase:.3g} rad, not below {MAX_STEP_PHASE}"
        )


def _step_exponentials(axes: np.ndarray, dt: float, c: float) -> np.ndarray:
    """exp(-i*dt*a.S) for each coupling axis a, the rotations that join the
    constant diagonal C = diag(0, 0, c).

    K = (a/|a|).S has eigenvalues -1, 0, 1, so K^3 = K and the rotation is
    Rodrigues' I - i*sin(phi)*K + (cos(phi) - 1)*K^2, phi = dt*|a|, with
    cos(phi) - 1 as the non-cancelling -2*sin(phi/2)^2; a zero axis gives I.
    Refuses the stack unless dt*(max|a| + |c|) < MAX_STEP_PHASE: with C = 0
    that is dt*||G||_2 exactly (||a.S||_2 = |a|), else an upper bound on
    dt*||a.S + C||_2.  Only the echo oracle passes a nonzero C.
    """
    import numpy as np

    norm = np.hypot(np.hypot(axes[:, 0], axes[:, 1]), axes[:, 2])  # |a| without squaring
    _check_step_bound(dt * (float(np.max(norm)) + abs(c)))
    k = np.tensordot(axes / np.where(norm > 0.0, norm, 1.0)[:, None], spin_operators(), axes=1)
    phi = (dt * norm)[:, None, None]
    return np.eye(3) - 1j * np.sin(phi) * k - 2.0 * np.sin(0.5 * phi) ** 2 * (k @ k)


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """Product mats[-1] @ ... @ mats[0] by pairwise tree reduction."""
    import numpy as np

    while mats.shape[0] > 1:
        if mats.shape[0] % 2:  # pair the last matrix with I
            mats = np.concatenate([mats, np.eye(3)[None]])
        mats = mats[1::2] @ mats[0::2]
    return mats[0]


def _sin_cos(num: int, den: int) -> tuple[float, float]:
    """sin and cos of the exact angle num/den rad (den > 0).

    The angle is reduced in integers by its nearest multiple q of pi/2, and
    the remainder rounded once to a float, so both keep their full relative
    precision near their zeros; the 60-digit 2*pi holds the remainder to
    about q*1e-60 rad.
    """
    # pi/2 as a ratio of ints: 2*pi to 60 digits, over 4
    pi_num, pi_den = 628318530717958647692528676655900576839433879875021164194989, 4 * 10**59
    q = (2 * num * pi_den + den * pi_num) // (2 * den * pi_num)  # nearest to num/den/(pi/2)
    r = (num * pi_den - q * pi_num * den) / (den * pi_den)  # int / int rounds once
    sin_r, cos_r = math.sin(r), math.cos(r)
    return ((sin_r, cos_r), (cos_r, -sin_r), (-sin_r, -cos_r), (-cos_r, sin_r))[q % 4]


def _planar_rate_sum(sampling: PathSampling, params: NVParameters) -> float:
    """Sum of the midpoint rates a_n = k*(E*v_y) of an untilted disk, with
    v_y = 2*pi*f*r*cos(theta_n) as geometry.velocity computes it, after the
    finite check and the step gate on every a_n.

    The angles theta_n = alpha + (n + 1/2)*h, alpha = STATION_A_ANGLE + omega*t0,
    h = omega*dt, are equally spaced, so Lagrange's identity sums the cosines:
    sum_n cos(theta_n) = sin(N*h/2)/sin(h/2)*cos(alpha + N*h/2).  Its three
    angles are formed exactly from the float inputs and reduced in integers
    (:func:`_sin_cos`).  |a_n| is largest at an end of the span or next to a
    turning angle m*pi, so the gate evaluates a_n as the rate expression
    rounds it at n = 0, N - 1 and n* - 1, n*, n* + 1 around each turning
    angle, or at every n when those are as many.
    """
    traj, t0, dt, steps = sampling.trajectory, sampling.t_start, sampling.dt, sampling.steps
    omega = TWO_PI * traj.frequency
    speed, k, e = omega * traj.radius, coupling_constant(params), sampling.field.magnitude

    def angle(n):
        return STATION_A_ANGLE + omega * (t0 + (n + 0.5) * dt)

    # the angles are monotone in n, so finite ends keep every angle finite
    lo, hi = sorted((angle(0), angle(steps - 1)))
    _check_finite_axes(math.isfinite(lo) and math.isfinite(hi))
    first_turn, last_turn = math.floor(lo / math.pi), math.ceil(hi / math.pi)
    if 3 * (last_turn - first_turn + 1) + 2 >= steps:
        near = range(steps)
    else:
        alpha, h = STATION_A_ANGLE + omega * t0, omega * dt
        near = {0, steps - 1}
        for m in range(first_turn, last_turn + 1) if h else ():  # h = 0: one angle
            n = round(min(max((m * math.pi - alpha) / h - 0.5, 0.0), steps - 1.0))
            near.update(range(max(n - 1, 0), min(n + 2, steps)))
    rates = [k * (e * (speed * math.cos(angle(n)))) for n in near]
    _check_finite_axes(all(map(math.isfinite, rates)))
    # ||a_z*Sz||_2 = |a_z|*max|m| = |a_z|
    _check_step_bound(dt * max(map(abs, rates)))

    w, d, t, a = (x.as_integer_ratio() for x in (omega, dt, t0, STATION_A_ANGLE))
    half = (w[0] * d[0], 2 * w[1] * d[1])  # omega*dt/2
    mid_time = (2 * t[0] * d[1] + steps * d[0] * t[1], 2 * t[1] * d[1])  # t0 + N*dt/2
    mid = (a[0] * w[1] * mid_time[1] + a[1] * w[0] * mid_time[0], a[1] * w[1] * mid_time[1])
    sin_half = _sin_cos(*half)[0]
    # below the normal range h/2 is ~0, and so is N*h/2: the ratio rounds to N
    ratio = (_sin_cos(steps * half[0], half[1])[0] / sin_half
             if abs(sin_half) >= sys.float_info.min else float(steps))
    # the ratio last: the rate at the mid-span angle is finite, as every a_n is
    rate_sum = k * (e * (speed * _sin_cos(*mid)[1])) * ratio
    if not math.isfinite(rate_sum):
        raise NumericPreconditionError("sum of the midpoint rates k*E*v_y overflows a float")
    return rate_sum


def path_ordered_propagator(
    sampling: PathSampling,
    params: NVParameters,
    *,
    reverse: bool = False,
    detuning_hz: float = 0.0,
) -> Propagator:
    """Path-ordered propagator over the sampled trajectory segment.

    ``reverse=True`` composes the same per-step exponentials in reversed path
    order (the anti-ordered product).  For commuting planar generators this
    changes nothing (the two results are bitwise equal); when tilted, forward
    minus reverse is twice the second-order Dyson term to leading order.
    In the rotating frame, ``detuning_hz`` adds a residual precession of |1>
    against |0>: the constant diagonal C = diag(0, 0, c), c = 2*pi*detuning_hz,
    applied once, as the exact factor exp(-i*C*span).

    An untilted disk (or a zero field) has every G = a_z*Sz, so the steps
    commute and their product is exactly the diagonal exp(-i*m*dt*sum(a_z)),
    m = (-1, 0, 1), at unit modulus, with the midpoint sum in closed form
    (:func:`_planar_rate_sum`, in time independent of the step count).
    A tilted disk's rotations R_n (:func:`_step_exponentials`) are built in
    blocks of ``_CHUNK_STEPS`` steps and folded block by block into a running
    product, in path order or (``reverse``) anti-path order, each in the
    interaction frame of C, exp(i*C*t_n) R_n exp(-i*C*t_n) with t_n its
    midpoint's offset in the order of the product: row 2 of R_n times
    exp(i*c*t_n), column 2 times its conjugate.  exp(-i*C*span) times that
    product is Strang's split prod_n exp(-i*C*dt/2) R_n exp(-i*C*dt/2) (SIAM
    J. Numer. Anal. 5, 506 (1968)), with each step's frame phase rounded once.
    The tilted product runs under numpy's error state "raise": a float
    overflow, division by zero or invalid operation in it raises
    ``FloatingPointError`` (exit 3 from the CLI), for every caller.
    """
    if not math.isfinite(detuning_hz):
        raise NumericPreconditionError(f"detuning_hz = {detuning_hz!r} is not finite")
    c = TWO_PI * float(detuning_hz)  # a numpy scalar would overflow with a RuntimeWarning
    span, dt = sampling.t_end - sampling.t_start, sampling.dt
    if not math.isfinite(c * span):
        raise NumericPreconditionError("constant diagonal phase C*span is not finite")
    frame = (1.0, 1.0, cmath.exp(-1j * (c * span)))  # exp(-i*C*span)
    if sampling.trajectory.tilt == 0.0 or sampling.field.magnitude == 0.0:
        rate_z = _planar_rate_sum(sampling, params)
        return Propagator(diagonal=tuple(
            f * cmath.exp(-1j * (dt * (m * rate_z))) for m, f in zip((-1.0, 0.0, 1.0), frame)
        ))
    import numpy as np

    with np.errstate(over="raise", divide="raise", invalid="raise"):
        product = np.eye(3, dtype=complex)
        for start in range(0, sampling.steps, _CHUNK_STEPS):
            stop = min(start + _CHUNK_STEPS, sampling.steps)
            steps = _step_exponentials(_coupling_axes(sampling, params, start, stop), dt, c)
            if c:  # R_n[j, k] * exp(i*(c_j - c_k)*t_n)
                offsets = (np.arange(start, stop) + 0.5) * dt
                turn = np.exp(1j * ((span - offsets if reverse else offsets) * c))[:, None]
                steps[:, 2, :2] *= turn
                steps[:, :2, 2] *= turn.conj()
            if reverse:
                product = product @ _ordered_product(steps[::-1])
            else:
                product = _ordered_product(steps) @ product
        return Propagator(U=np.array(frame)[:, None] * product)


def _sin_minus_angle(d: float) -> float:
    """sin(d) - d, for |d| < 1 by its Taylor series -d^3/3! + d^5/5! - ...,
    summed until a term no longer changes the sum, where the plain difference
    cancels (1e-3 relative off at d = 6.3e-7, and 0 at d = 6.3e-9)."""
    if abs(d) >= 1.0:
        return math.sin(d) - d
    term, total, n = d, 0.0, 1
    while True:
        n += 2
        term *= -d * d / ((n - 1) * n)
        if total + term == total:
            return total
        total += term


def dyson_second_order(
    sampling: PathSampling,
    params: NVParameters,
) -> np.ndarray:
    """Ordered double integral (1/2) * iint_{t' < t} [G(t), G(t')] dt' dt.

    This is the leading path-ordering correction beyond exp(-i*integral(G)):
    the Magnus expansion of the propagator is exp(O1 + O2 + ...) with
    O2 = -(this term).  With G = a.S, [a.S, b.S] = i*(a x b).S for spin 1,
    and the field along x, a(t) x a(t') = (k*E*omega*r)^2*sin(tilt)*
    sin(theta' - theta)*x-hat, so over a span turning by Delta = omega*span
    it is (i/2)*sin(tilt)*(k*E*r)^2*(sin(Delta) - Delta)*Sx: zero for planar
    motion, quadratic in the field, and independent of the step count.
    """
    traj = sampling.trajectory
    delta = TWO_PI * traj.frequency * (sampling.t_end - sampling.t_start)
    if not math.isfinite(delta):  # math.sin(inf) raises
        raise NumericPreconditionError(f"rotation angle 2*pi*f*span = {delta!r} rad is not finite")
    k_e_r = coupling_constant(params) * sampling.field.magnitude * traj.radius
    coefficient = 0.5 * math.sin(traj.tilt) * (k_e_r * k_e_r) * _sin_minus_angle(delta)
    if not math.isfinite(coefficient):
        raise NumericPreconditionError(
            "second-order Dyson term is not finite: field, radius or span too large"
        )
    return 1j * coefficient * spin_operators()[0]
