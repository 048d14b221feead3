"""Numerical path-ordered propagator for the full SU(2) A-C phase operator, and
the spin matrices, spin states and qubit rotations it acts with.

The spin couples to the motion through the Hermitian generator

    G(t) = (g*mu_B/(hbar*c^2)) * S . (E(r(t)) x v(t))      [rad/s]

and the propagator is the path-ordered product of per-step exponentials
exp(-i*G*dt), sampled at step midpoints (first-order Magnus per step: exactly
unitary, second-order accurate).  The sign convention matches the closed-form
phase: for planar motion the |1><1| element equals exp(-i*Phi_AC).

For planar motion every G(t) is proportional to Sz, all steps commute, and the
propagator is diagonal; tilting the disk mixes in Sy and path ordering starts
to matter.  The leading correction is the second-order Dyson commutator term,
exposed by :func:`dyson_second_order`, and probed by comparing the path-ordered
product against the reverse-ordered one (:func:`path_ordered_propagator` with
``reverse=True``); a literal time-reversed traversal would just invert the
propagator exactly and show nothing.

The propagator and the state oracle share one stepper,
:func:`_stream_product`.  It walks the midpoint grid in blocks of
``_CHUNK_STEPS`` steps, so memory does not grow with the step count, and it
chooses its path once, from the disk tilt.  The field lies along x, so the
coupling axis k*(E x v) is k*E*(0, -v_z, v_y).  For an untilted disk (or a
zero field) it lies exactly along z, G = a_z*Sz, and the stepper sums the
midpoint rates a_z without building a (N, 3, 3) generator stack,
exponentiating or multiplying matrices; the forward and reverse products are
therefore bitwise equal.  A tilted disk's step exponentials are multiplied out
from the first block on.

Basis convention used throughout the package: the probe is the spin-1 NV
ground triplet, and amplitude vectors and operator matrices are indexed by
ascending magnetic quantum number, (|-1>, |0>, |+1>).  The NV qubit lives on
the {|0>, |1>} subspace (indices 1 and 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericPreconditionError
from .geometry import DiskTrajectory, FieldConfig, velocity
from .phase import coupling_constant
from .physics import C_LIGHT, HBAR, MU_B, TWO_PI, NVParameters

MAX_STEP_PHASE = 0.5  # rad; per-step rotation bound for the midpoint exponential
_CHUNK_STEPS = 8192  # steps per streamed block; bounds the live (steps, 3, 3) stacks


def spin_operators() -> np.ndarray:
    """Spin-1 matrices (Sx, Sy, Sz) in units of hbar as a (3, 3, 3) stack.

    Built from the raising operator in the Sz eigenbasis ordered by ascending m,
    so Sz = diag(-1, 0, 1).
    """
    sz = np.diag([-1.0, 0.0, 1.0]).astype(complex)
    # (S+)_{m+1,m} = sqrt(s(s+1) - m(m+1)) = sqrt(2) for s = 1, m = -1, 0
    raising = np.zeros((3, 3), dtype=complex)
    raising[1, 0] = raising[2, 1] = np.sqrt(2.0)
    sx = (raising + raising.conj().T) / 2.0
    sy = (raising - raising.conj().T) / 2j
    return np.stack([sx, sy, sz])


@dataclass(frozen=True)
class SpinState:
    """Normalized complex amplitudes over the spin-1 ascending-m basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (3,):
            raise ValueError("amplitudes must be a complex vector of length 3")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > 1e-12:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq!r}")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def ground(cls) -> "SpinState":
        """The optically pumped |0> state of the spin-1 ground triplet."""
        return cls(np.array([0.0, 1.0, 0.0], dtype=complex))

    def population(self, m: int) -> float:
        """Population of the Sz eigenstate with magnetic quantum number m."""
        idx = {-1: 0, 0: 1, 1: 2}[m]
        return float(np.abs(self.amplitudes[idx]) ** 2)


def rotation_matrix(theta: float, phi: float) -> np.ndarray:
    """2x2 unitary of the Rabi rotation by angle theta about the equatorial
    axis set by phase phi, on the (|0>, |1>) pair."""
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    return np.array(
        [
            [c, -1j * np.exp(-1j * phi) * s],
            [-1j * np.exp(1j * phi) * s, c],
        ]
    )


def apply_rotation(state: SpinState, theta: float, phi: float) -> SpinState:
    """Apply a qubit Rabi pulse; the |-1> amplitude is untouched."""
    amps = state.amplitudes.copy()
    amps[1:] = rotation_matrix(theta, phi) @ amps[1:]
    return SpinState(amps)


@dataclass(frozen=True)
class PathSampling:
    """Discretization of a trajectory segment for path-ordered integration."""

    t_start: float
    t_end: float
    steps: int
    trajectory: DiskTrajectory
    field: FieldConfig

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be a positive integer")
        if not self.t_end > self.t_start:
            raise ValueError("t_end must exceed t_start")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.steps

    def midpoints(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Midpoints of steps start..stop-1 (default: all steps)."""
        stop = self.steps if stop is None else stop
        return self.t_start + (np.arange(start, stop) + 0.5) * self.dt


@dataclass(frozen=True)
class Propagator:
    """Unitary result of the path-ordered integration, with its unitarity
    defect (:func:`unitarity_defect`, below 1e-10)."""

    U: np.ndarray
    defect: float = field(init=False)

    def __post_init__(self):
        defect = unitarity_defect(self.U)
        if defect >= 1e-10:
            raise ValueError("propagator is not unitary to 1e-10")
        object.__setattr__(self, "defect", defect)

    def abelian_phase(self) -> float:
        """Phi such that <+1|U|+1> = exp(-i*Phi) (planar case)."""
        return float(-np.angle(self.U[2, 2]))

    def offdiagonal_norm(self) -> float:
        off = self.U - np.diag(np.diag(self.U))
        return float(np.max(np.abs(off)))


def unitarity_defect(u: np.ndarray) -> float:
    """Max-entry norm of U^dag U - I."""
    return float(np.max(np.abs(u.conj().T @ u - np.eye(3))))


def _quadratic_diagonal_shift(magnitude, params, mass) -> np.ndarray:
    """Diagonal of (mu^2 E^2 - (mu S x E)^2)/(2 m c^4 hbar) in rad/s, mu = g*mu_B,
    for the field E = (magnitude, 0, 0).

    These are the two quadratic-in-E Hamiltonian terms dropped from the
    coupling; only their level shifts (the echo-cancellable part) are kept.
    For E along x, (S x E)^2 = E^2 (Sy^2 + Sz^2), whose spin-1 diagonal is
    E^2 (3/2, 1, 3/2), so the shifts are (mu*E)^2/(2 m c^4 hbar) * (-1/2, 0, -1/2).
    """
    mu_e = params.g * MU_B * magnitude
    shift = -0.5 * mu_e * mu_e / (2.0 * mass * C_LIGHT**4 * HBAR)
    return np.array([shift, 0.0, shift])


def _coupling_axes(
    sampling: PathSampling,
    params: NVParameters,
    start: int = 0,
    stop: int | None = None,
) -> np.ndarray:
    """Coupling axes k*(E x v) = k*E*(0, -v_z, v_y) [rad/s] at the midpoints of
    steps start..stop-1 (default: all) as an (N, 3) array, so that G = axes . S."""
    v = velocity(sampling.trajectory, sampling.midpoints(start, stop))
    e_cross_v = np.zeros_like(v)
    e_cross_v[:, 1] = -v[:, 2]
    e_cross_v[:, 2] = v[:, 1]
    return _times_coupling(e_cross_v, sampling, params)


def _times_coupling(components, sampling, params) -> np.ndarray:
    """k*(E*components) [rad/s]; refuses a result that is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = coupling_constant(params) * (sampling.field.magnitude * components)
    if not np.all(np.isfinite(scaled)):
        raise NumericPreconditionError(
            "coupling axis k*(E x v) is not finite: field or velocity too large"
        )
    return scaled


def _spin_generators(axes: np.ndarray) -> np.ndarray:
    """G = axes . S for each axis, as a (N, 3, 3) stack."""
    # one complex matrix product, (N, 3) @ (3, 9)
    ops = spin_operators().reshape(3, -1)
    gens = axes.astype(complex) @ ops
    return gens.reshape(-1, 3, 3)


def _check_step_bound(step_phase: float) -> None:
    if not step_phase < MAX_STEP_PHASE:  # also refuses a NaN bound
        raise NumericPreconditionError(
            f"step too coarse: dt*max||G|| = {step_phase:.3g} rad, not below {MAX_STEP_PHASE}"
        )


def _step_unitaries(gens: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i*G*dt) for each Hermitian G in the stack, via eigendecomposition.

    Refuses the stack unless dt*max|eigenvalue|, which is dt*||G||_2 exactly,
    is below MAX_STEP_PHASE.
    """
    w, vecs = np.linalg.eigh(gens)
    _check_step_bound(dt * float(np.max(np.abs(w))))
    phases = np.exp(-1j * w * dt)
    return np.einsum("nij,nj,nkj->nik", vecs, phases, vecs.conj())


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """Product mats[-1] @ ... @ mats[0] by pairwise tree reduction."""
    while mats.shape[0] > 1:
        pairs = mats.shape[0] // 2
        head = np.matmul(mats[1 : 2 * pairs : 2], mats[0 : 2 * pairs : 2])
        if mats.shape[0] % 2:
            mats = np.concatenate([head, mats[2 * pairs :]])
        else:
            mats = head
    return mats[0]


def _stream_product(
    sampling: PathSampling,
    params: NVParameters,
    const_diag: np.ndarray,
    reverse: bool,
) -> np.ndarray:
    """Ordered product of the midpoint step exponentials of G(t) + diag(const_diag),
    walked in blocks of ``_CHUNK_STEPS`` steps.

    An untilted disk (or a zero field) has every coupling axis exactly along
    z, so every G is a_z*Sz (``spin_operators`` keeps Sx and Sy zero on the
    diagonal), the steps commute, and their product collapses exactly to one
    exponential of the summed phases m*sum(a_z)*dt, m = (-1, 0, 1); this sums
    the midpoint rates alone, keeps the result diagonal and at unit modulus,
    never builds or diagonalises a step, and exponentiates the constant
    diagonal rates exactly at any step size.  A tilted disk's step exponentials are
    multiplied out block by block and folded into a running product, in path
    order or (``reverse``) anti-path order; there the per-step rotation bound
    covers the constant diagonal rates as well as the motional coupling.
    """
    dt = sampling.dt
    blocks = [
        (start, min(start + _CHUNK_STEPS, sampling.steps))
        for start in range(0, sampling.steps, _CHUNK_STEPS)
    ]
    if sampling.trajectory.tilt == 0.0 or sampling.field.magnitude == 0.0:
        m = np.array([-1.0, 0.0, 1.0])
        rate_z = 0.0
        for start, stop in blocks:
            # k*(v_y*E): the midpoint rate ac_diamond.phase.phase_rate defines
            v = velocity(sampling.trajectory, sampling.midpoints(start, stop))
            a_z = _times_coupling(v[:, 1], sampling, params)
            # ||a_z*Sz||_2 = |a_z|*max|m| = |a_z|
            _check_step_bound(dt * float(np.max(np.abs(a_z))))
            rate_z += a_z.sum()
        span = sampling.t_end - sampling.t_start
        return np.diag(np.exp(-1j * (dt * (m * rate_z) + const_diag * span)))
    product = np.eye(3, dtype=complex)
    for start, stop in blocks:
        gens = _spin_generators(_coupling_axes(sampling, params, start, stop))
        if np.any(const_diag):
            gens = gens + np.diag(const_diag)
        steps = _step_unitaries(gens, dt)
        if reverse:
            product = product @ _ordered_product(steps[::-1])
        else:
            product = _ordered_product(steps) @ product
    return product


def path_ordered_propagator(
    sampling: PathSampling,
    params: NVParameters,
    *,
    reverse: bool = False,
) -> Propagator:
    """Path-ordered propagator over the sampled trajectory segment.

    ``reverse=True`` composes the same per-step exponentials in reversed path
    order (the anti-ordered product).  For commuting planar generators this
    changes nothing (the two results are bitwise equal); when tilted, forward
    minus reverse is twice the second-order Dyson term to leading order.
    """
    U = _stream_product(sampling, params, np.zeros(3), reverse)
    return Propagator(U=U)


def dyson_second_order(
    sampling: PathSampling,
    params: NVParameters,
) -> np.ndarray:
    """Ordered double integral (1/2) * iint_{t' < t} [G(t), G(t')] dt' dt.

    This is the leading path-ordering correction beyond exp(-i*integral(G)):
    the Magnus expansion of the propagator is exp(O1 + O2 + ...) with
    O2 = -(this term).  It vanishes identically for planar motion and scales
    quadratically in the field strength.  With G = a.S and, for spin 1,
    [a.S, b.S] = i*(a x b).S, the midpoint sum is
    (i/2)*dt^2*(sum_n a_n x sum_{m<n} a_m).S on the coupling axes a_n.
    """
    axes = _coupling_axes(sampling, params)
    dt = sampling.dt
    # ||a.S||_2 = |a| for spin 1
    _check_step_bound(dt * float(np.max(np.linalg.norm(axes, axis=1))))
    prior = np.cumsum(axes, axis=0) - axes  # sum of all strictly earlier axes
    turn = np.cross(axes, prior).sum(axis=0)
    return 0.5j * dt * dt * np.tensordot(turn, spin_operators(), axes=1)


def effective_hamiltonian_evolve(
    sampling: PathSampling,
    params: NVParameters,
    initial: SpinState,
    detuning_hz: float = 0.0,
    quadratic_mass: float | None = None,
) -> SpinState:
    """Integrate i d|psi>/dt = G(t) |psi> with midpoint steps.

    Serves as the independent oracle for the echo-sequence engine.  It works in
    the rotating frame of the static Hamiltonian, where only the motional
    coupling acts; ``detuning_hz`` adds an explicit residual precession of |1>
    against |0>.
    The state is advanced by the polar factor of the interval propagator, so
    its norm is preserved to rounding however many intervals it is carried
    through.
    """
    const_diag = np.array([0.0, 0.0, TWO_PI * detuning_hz])
    if quadratic_mass is not None:
        const_diag = const_diag + _quadratic_diagonal_shift(
            sampling.field.magnitude, params, quadratic_mass
        )
    U = _stream_product(sampling, params, const_diag, False)
    return SpinState(_nearest_unitary(U) @ initial.amplitudes)


def _nearest_unitary(u: np.ndarray) -> np.ndarray:
    """Polar (nearest-unitary) factor of a propagator checked against the 1e-10
    unitarity bound of :class:`Propagator`.

    Each eigendecomposed step exponential is unitary only to ~1e-15, and that
    defect adds up along the product (about 2.5e-13 over 1e4 tilted steps), so
    a state carried through many intervals would drift off unit norm.
    """
    Propagator(U=u)
    w, _, vh = np.linalg.svd(u)
    return w @ vh
