"""Numerical path-ordered propagator for the full SU(2) A-C phase operator.

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
zero field) it lies exactly along z, G = a_z*Sz, and the stepper sums the midpoint rates a_z
without building a (N, dim, dim) generator stack, exponentiating or
multiplying matrices; the forward and reverse products are therefore bitwise
equal.  A tilted disk's step exponentials are multiplied out from the first
block on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericPreconditionError
from .geometry import DiskTrajectory, FieldConfig, velocity
from .phase import coupling_constant
from .physics import C_LIGHT, HBAR, MU_B, TWO_PI, NVParameters, SpinState, spin_operators

MAX_STEP_PHASE = 0.5  # rad; per-step rotation bound for the midpoint exponential
_CHUNK_STEPS = 8192  # steps per streamed block; bounds the live (steps, dim, dim) stacks


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
    """Unitary result of the path-ordered integration."""

    U: np.ndarray

    def __post_init__(self):
        if unitarity_defect(self.U) >= 1e-10:
            raise ValueError("propagator is not unitary to 1e-10")

    @property
    def dimension(self) -> int:
        return self.U.shape[0]

    def abelian_phase(self) -> float:
        """Phi such that <m_max|U|m_max> = exp(-i*m_max*Phi) (planar case)."""
        m_max = (self.dimension - 1) / 2.0
        return float(-np.angle(self.U[-1, -1]) / m_max)

    def offdiagonal_norm(self) -> float:
        off = self.U - np.diag(np.diag(self.U))
        return float(np.max(np.abs(off)))


def unitarity_defect(u: np.ndarray) -> float:
    """Max-entry norm of U^dag U - I."""
    dim = u.shape[0]
    return float(np.max(np.abs(u.conj().T @ u - np.eye(dim))))


def _quadratic_diagonal_shift(magnitude, ops, params, mass) -> np.ndarray:
    """Diagonal of (mu^2 E^2 - (mu S x E)^2)/(2 m c^4 hbar) in rad/s, mu = g*mu_B,
    for the field E = (magnitude, 0, 0).

    These are the two quadratic-in-E Hamiltonian terms dropped from the
    coupling; only their level shifts (the echo-cancellable part) are kept.
    For a c-number E, (S x E)^2 = s(s+1) E^2 - (E.S)^2, and E.S = E*Sx.
    """
    mu = params.g * MU_B
    dim = ops.shape[1]
    casimir = (dim * dim - 1) / 4.0  # s(s+1) for spin s = (dim - 1)/2
    e_dot_s = magnitude * ops[0]
    full = (magnitude * magnitude) * (1.0 - casimir) * np.eye(dim) + e_dot_s @ e_dot_s
    return mu * mu * np.real(np.diag(full)) / (2.0 * mass * C_LIGHT**4 * HBAR)


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


def _spin_generators(axes: np.ndarray, dimension: int) -> np.ndarray:
    """G = axes . S for each axis, as a (N, dim, dim) stack."""
    # one complex matrix product, (N, 3) @ (3, dim*dim)
    ops = spin_operators(dimension).reshape(3, -1)
    gens = axes.astype(complex) @ ops
    return gens.reshape(-1, dimension, dimension)


def _check_step_bound(step_phase: float) -> None:
    if not step_phase < MAX_STEP_PHASE:  # also refuses a NaN bound
        raise NumericPreconditionError(
            f"step too coarse: dt*max||G|| = {step_phase:.3g} rad, not below {MAX_STEP_PHASE}"
        )


def _check_step_resolution(gens: np.ndarray, dt: float) -> None:
    # ||G||_2 <= max-row-sum bound; cheap and tight enough for the 0.5 rad gate.
    _check_step_bound(dt * float(np.max(np.sum(np.abs(gens), axis=-1))))


def _step_unitaries(gens: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i*G*dt) for each Hermitian G in the stack, via eigendecomposition."""
    w, vecs = np.linalg.eigh(gens)
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
    dimension: int,
    const_diag: np.ndarray,
    reverse: bool,
) -> np.ndarray:
    """Ordered product of the midpoint step exponentials of G(t) + diag(const_diag),
    walked in blocks of ``_CHUNK_STEPS`` steps.

    An untilted disk (or a zero field) has every coupling axis exactly along
    z, so every G is a_z*Sz (``spin_operators`` keeps Sx and Sy zero on the
    diagonal), the steps commute, and their product collapses exactly to one
    exponential of the summed phases m*sum(a_z)*dt; this sums the midpoint
    rates alone, keeps the result diagonal and at unit modulus, never builds
    or diagonalises a step, and exponentiates the constant diagonal rates
    exactly at any step size.  A tilted disk's step exponentials are
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
        m = np.real(np.diag(spin_operators(dimension)[2]))
        m_max = float(np.max(np.abs(m)))
        rate_z = 0.0
        for start, stop in blocks:
            # k*(v_y*E): the midpoint rate ac_diamond.phase.phase_rate defines
            v = velocity(sampling.trajectory, sampling.midpoints(start, stop))
            a_z = _times_coupling(v[:, 1], sampling, params)
            # ||a_z*Sz|| = |a_z|*max|m|: the row-sum bound of the diagonal G
            _check_step_bound(dt * (float(np.max(np.abs(a_z))) * m_max))
            rate_z += a_z.sum()
        span = sampling.t_end - sampling.t_start
        return np.diag(np.exp(-1j * (dt * (m * rate_z) + const_diag * span)))
    product = np.eye(dimension, dtype=complex)
    for start, stop in blocks:
        gens = _spin_generators(_coupling_axes(sampling, params, start, stop), dimension)
        _check_step_resolution(gens, dt)
        if np.any(const_diag):
            # the whole generator must satisfy the per-step rotation bound
            gens = gens + np.diag(const_diag)
            _check_step_resolution(gens, dt)
        steps = _step_unitaries(gens, dt)
        if reverse:
            product = product @ _ordered_product(steps[::-1])
        else:
            product = _ordered_product(steps) @ product
    return product


def path_ordered_propagator(
    sampling: PathSampling,
    params: NVParameters,
    dimension: int = 3,
    reverse: bool = False,
) -> Propagator:
    """Path-ordered propagator over the sampled trajectory segment.

    ``reverse=True`` composes the same per-step exponentials in reversed path
    order (the anti-ordered product).  For commuting planar generators this
    changes nothing (the two results are bitwise equal); when tilted, forward
    minus reverse is twice the second-order Dyson term to leading order.
    """
    U = _stream_product(sampling, params, dimension, np.zeros(dimension), reverse)
    return Propagator(U=U)


def dyson_second_order(
    sampling: PathSampling,
    params: NVParameters,
    dimension: int = 3,
) -> np.ndarray:
    """Ordered double integral (1/2) * iint_{t' < t} [G(t), G(t')] dt' dt.

    This is the leading path-ordering correction beyond exp(-i*integral(G)):
    the Magnus expansion of the propagator is exp(O1 + O2 + ...) with
    O2 = -(this term).  It vanishes identically for planar motion and scales
    quadratically in the field strength.
    """
    gens = _spin_generators(_coupling_axes(sampling, params), dimension)
    dt = sampling.dt
    _check_step_resolution(gens, dt)
    cum = np.cumsum(gens, axis=0)
    prior = cum - gens  # sum of all strictly earlier generators
    forward = np.einsum("nij,njk->ik", gens, prior)
    backward = np.einsum("nij,njk->ik", prior, gens)
    return 0.5 * dt * dt * (forward - backward)


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
    dimension = initial.amplitudes.size
    const_diag = np.zeros(dimension)
    if detuning_hz != 0.0:
        if dimension != 3:
            raise ValueError("detuning bookkeeping is defined for spin-1 states")
        const_diag = const_diag + np.array([0.0, 0.0, TWO_PI * detuning_hz])
    if quadratic_mass is not None:
        const_diag = const_diag + _quadratic_diagonal_shift(
            sampling.field.magnitude,
            spin_operators(dimension),
            params,
            quadratic_mass,
        )
    U = _stream_product(sampling, params, dimension, const_diag, False)
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
